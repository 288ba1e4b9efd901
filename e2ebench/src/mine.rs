//! `mine`: the data-mining user's job. Fit the default pipeline on a
//! fixed suite of the paper's functions and score every fit on held-out
//! rows drawn from the workload seed.
//!
//! The training tuples come from the fixed generator seed
//! [`SUITE_SEED`], so every run mines the same four networks (degenerate
//! fits included) and `job_s` times identical work; `--seed` draws the
//! held-out rows the quality metrics are computed over.

use std::time::Instant;

use neurorule::{Model, NeuroRule, PipelineReport};
use nr_datagen::{Function, Generator};
use nr_encode::Encoder;
use nr_nn::Mlp;
use nr_prune::prune;
use nr_rules::Predictor;
use nr_rulex::extract;
use nr_tabular::Dataset;

use crate::stats::{median, min};
use crate::trace::Tracer;
use crate::{Args, Report};

/// The paper's functions mined on every run.
pub const SUITE: [Function; 4] = [Function::F1, Function::F2, Function::F3, Function::F4];
/// Generator seed of the training tuples.
pub const SUITE_SEED: u64 = 42;
/// Training tuples per function, as in the paper.
pub const TRAIN_ROWS: usize = 1000;
/// Held-out rows per function.
pub const HELDOUT_ROWS: usize = 10_000;
/// Perturbation factor of the generated attributes, as in the paper.
pub const PERTURBATION: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Passes over the suite per run, at least; `job_s` sums each
/// function's fastest fit.
const MIN_PASSES: usize = 2;

/// The pipeline a data-mining user runs.
pub fn pipeline() -> NeuroRule {
    NeuroRule::default().with_encoder(Encoder::agrawal())
}

struct Inputs {
    train: Vec<Dataset>,
    heldout: Vec<Dataset>,
}

fn make_inputs(seed: u64) -> Inputs {
    let train_gen = Generator::new(SUITE_SEED).with_perturbation(PERTURBATION);
    // The held-out stream is the test stream `Generator::train_test` pairs
    // with a training seed; it never coincides with the training stream.
    let mut heldout_seed = seed.wrapping_add(0xDEAD_BEEF);
    if heldout_seed == SUITE_SEED {
        heldout_seed ^= 1;
    }
    let heldout_gen = Generator::new(heldout_seed).with_perturbation(PERTURBATION);
    Inputs {
        train: SUITE
            .iter()
            .map(|&f| train_gen.dataset(f, TRAIN_ROWS))
            .collect(),
        heldout: SUITE
            .iter()
            .map(|&f| heldout_gen.dataset(f, HELDOUT_ROWS))
            .collect(),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(make_inputs(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    if args.trace {
        traced(args, &inputs, &mut report)?;
    } else {
        untraced(args, &inputs, &mut report)?;
    }
    report.set("setup_s", median(&setup));
    Ok(report)
}

/// Quality of one fit on its held-out rows, and whether the compiled
/// rules answer every held-out row like the interpreted rule set.
struct Quality {
    accuracy: f64,
    fidelity: f64,
    rules: usize,
    compiled_agrees: bool,
}

fn quality(model: &Model, heldout: &Dataset) -> Quality {
    let view = heldout.view();
    let compiled = model.compile().predict_batch(&view);
    Quality {
        accuracy: model.rules_accuracy(heldout),
        fidelity: model.fidelity(heldout),
        rules: model.ruleset.len(),
        compiled_agrees: compiled == model.ruleset.predict_batch(&view),
    }
}

fn untraced(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let cfg = pipeline();
    let started = Instant::now();
    // Per function, the time of each of its fits, ms.
    let mut fit_ms = vec![Vec::new(); SUITE.len()];
    let mut passes = 0;
    let mut first: Vec<Model> = Vec::new();
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let mut models = Vec::new();
        for (train, times) in inputs.train.iter().zip(&mut fit_ms) {
            let t = Instant::now();
            let model = cfg.fit(train).map_err(|e| format!("fit: {e}"))?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            models.push(model);
        }
        passes += 1;
        if first.is_empty() {
            first = models;
        } else {
            // Later passes must mine exactly what the first one did.
            for (a, b) in first.iter().zip(&models) {
                report.check(a == b);
            }
        }
    }
    // Before the quality metrics, whose in-process scoring is not the job.
    report.set("peak_rss_mib", crate::host::peak_rss_mib());
    let mut accuracy = 0.0;
    let mut fidelity = 0.0;
    let mut rules = 0;
    let mut agreeing = 0;
    for ((model, heldout), f) in first.iter().zip(&inputs.heldout).zip(SUITE) {
        let q = quality(model, heldout);
        report.check(q.compiled_agrees);
        agreeing += usize::from(q.compiled_agrees);
        accuracy += q.accuracy;
        fidelity += q.fidelity;
        rules += q.rules;
        report.notes.push(format!(
            "F{}: rules={} heldout_accuracy={:.5} fidelity={:.5} live_links={}",
            f.number(),
            q.rules,
            q.accuracy,
            q.fidelity,
            model.report.prune_outcome.remaining_links
        ));
    }
    let n = SUITE.len() as f64;
    // Each function's fastest fit: a host stall slows some repetitions,
    // a slower pipeline slows all of them.
    let best: Vec<f64> = fit_ms.iter().map(|t| min(t)).collect();
    let job_s = best.iter().sum::<f64>() / 1e3;
    report
        .notes
        .push(format!("passes={passes} fit_ms={fit_ms:.1?}"));
    report.set("job_s", job_s);
    report.set("rows_s", (SUITE.len() * TRAIN_ROWS) as f64 / job_s);
    report.set("accuracy", accuracy / n);
    report.set("fidelity", fidelity / n);
    report.set("rules", rules as f64);
    report.set("ok_share", agreeing as f64 / n);
    Ok(())
}

/// `NeuroRule::fit`, re-enacted step by step through the public
/// functions of each layer, with a span around every call.
/// Also returns the rule count before reduction.
fn fit_traced(
    cfg: &NeuroRule,
    train: &Dataset,
    tr: &Tracer,
    parent: usize,
) -> Result<(Model, usize), String> {
    let p = Some(parent);
    let encoder = cfg.encoder.clone().expect("the pipeline has an encoder");
    let encoded = tr.span("encode", p, || encoder.encode_dataset(train));
    let mut net = tr.span("init", p, || {
        Mlp::random(
            encoder.n_inputs(),
            cfg.hidden_nodes,
            train.n_classes(),
            cfg.seed,
        )
    });
    let train_report = tr.span("train", p, || cfg.trainer.train(&mut net, &encoded));
    let prune_outcome = tr.span("prune", p, || prune(&mut net, &encoded, &cfg.prune));
    let mut rx_config = cfg.rx.clone();
    rx_config.accuracy_floor = rx_config
        .accuracy_floor
        .min((prune_outcome.final_accuracy - 0.01).max(0.0));
    let rx = tr
        .span("rulex", p, || {
            extract(&net, &encoder, &encoded, train.class_names(), &rx_config)
        })
        .map_err(|e| format!("extract: {e}"))?;
    let rules_in = rx.ruleset.len();
    let ruleset = tr.span("reduce", p, || {
        let net_predictions = net.classify_batch(&encoded);
        rx.ruleset.reduced(train, &net_predictions)
    });
    let (train_rule_accuracy, train_network_accuracy) = tr.span("report", p, || {
        (ruleset.accuracy(train), net.accuracy(&encoded))
    });
    let model = Model {
        encoder,
        network: net,
        ruleset,
        report: PipelineReport {
            train_report,
            prune_outcome,
            rx_trace: rx.trace,
            bit_rules: rx.bit_rules,
            train_rule_accuracy,
            train_network_accuracy,
        },
    };
    Ok((model, rules_in))
}

fn traced(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let cfg = pipeline();
    let tr = Tracer::new();
    let suite = tr.open("suite", None);
    let mut traced_ms = 0.0;
    let mut untraced_ms = 0.0;
    for train in &inputs.train {
        let t = Instant::now();
        let fit = tr.open("fit", Some(suite));
        let (model, rules_in) = fit_traced(&cfg, train, &tr, fit)?;
        tr.close(fit);
        traced_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let reference = cfg.fit(train).map_err(|e| format!("fit: {e}"))?;
        untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        report.check(model == reference);
        let r = &model.report;
        for (name, count) in [
            ("train.iterations", r.train_report.iterations),
            ("train.evaluations", r.train_report.evaluations),
            ("prune.rounds", r.prune_outcome.rounds),
            (
                "prune.links_removed",
                r.prune_outcome.initial_links - r.prune_outcome.remaining_links,
            ),
            ("rulex.clusters", r.rx_trace.cluster_counts.iter().sum()),
            ("rulex.bit_rules", r.bit_rules.len()),
            ("reduce.rules_in", rules_in),
            ("reduce.rules_out", model.ruleset.len()),
        ] {
            report.add(name, count as f64);
        }
    }
    tr.close(suite);
    for (name, span) in [
        ("encode.ms", "encode"),
        ("train.ms", "train"),
        ("prune.ms", "prune"),
        ("rulex.ms", "rulex"),
        ("reduce.ms", "reduce"),
    ] {
        report.set(name, tr.total_ms(span));
    }
    report.set("trace.coverage", tr.coverage("fit"));
    report.set("trace.overhead_ms", traced_ms - untraced_ms);
    report.notes.push(format!(
        "traced fits {traced_ms:.1} ms, untraced fits {untraced_ms:.1} ms"
    ));
    tr.write_json(&args.trace_path())
        .map_err(|e| format!("writing trace: {e}"))
}
