//! `scan`: an offline batch scoring job over a table larger than one
//! segment. Each pass reads the seeded CSV from disk, ingests it into a
//! durable spilled store, and scores every segment in
//! [`ServeMode::Hybrid`] with the committed model fixture.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use nr_datagen::{agrawal_schema, class_names, Function, Generator};
use nr_rules::Predictor;
use nr_serve::{ServeMode, ServeModel};
use nr_store::{ingest_csv_file, SegmentedDataset, StoreConfig};
use nr_tabular::{ClassId, Dataset, DatasetView};

use crate::stats::{median, min, quantile_sorted};
use crate::trace::Tracer;
use crate::{Args, Report};

/// The model `scan` and `serve` score: F2 mined by [`regen_fixture`].
/// Paths are relative to the repository root, where the benchmark runs.
pub const FIXTURE_PATH: &str = "e2ebench/fixtures/f2_hybrid.model.json";
/// Rows in the scanned table (≈188 MiB of CSV).
pub const SCAN_ROWS: usize = 2_000_000;
/// Rows per store segment (the store's default).
pub const SEG_ROWS: usize = 64 * 1024;
/// Offset of the scan's generator seed from the workload seed, so that
/// the scanned rows never replay the fixture's training stream.
const SCAN_STREAM: u64 = 0x5CA7_0000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Mines the fixture from a fixed seed and writes it to `path`:
/// `cargo run --release --manifest-path e2ebench/Cargo.toml -- regen-fixture`.
pub fn regen_fixture(path: &Path) -> Result<String, String> {
    let train = Generator::new(crate::mine::SUITE_SEED)
        .with_perturbation(crate::mine::PERTURBATION)
        .dataset(Function::F2, crate::mine::TRAIN_ROWS);
    let model = crate::mine::pipeline()
        .fit(&train)
        .map_err(|e| format!("fit: {e}"))?;
    let served = model.compile().with_mode(ServeMode::Hybrid);
    served
        .save(path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    Ok(format!(
        "wrote {} ({} rules, F2, generator seed {})",
        path.display(),
        served.rules().n_rules(),
        crate::mine::SUITE_SEED
    ))
}

pub fn load_fixture() -> Result<ServeModel, String> {
    let model =
        ServeModel::load(FIXTURE_PATH).map_err(|e| format!("loading {FIXTURE_PATH}: {e}"))?;
    if model.mode() != ServeMode::Hybrid {
        return Err(format!("{FIXTURE_PATH} is not a hybrid model"));
    }
    Ok(model)
}

/// The table on disk and the in-process answers every pass must match.
struct Inputs {
    csv: PathBuf,
    csv_bytes: u64,
    labels: Vec<ClassId>,
    expected: Vec<ClassId>,
}

/// Writes the seeded table as CSV, chunk by chunk, and scores each chunk
/// in memory with the same model: the answers a scan must reproduce.
fn make_inputs(seed: u64, model: &ServeModel, dir: &Path) -> Result<Inputs, String> {
    let csv = dir.join("scan.csv");
    let io = |e: std::io::Error| format!("writing {}: {e}", csv.display());
    let mut out = BufWriter::new(File::create(&csv).map_err(io)?);
    let schema = agrawal_schema();
    nr_tabular::write_csv_header(&schema, &mut out).map_err(io)?;
    let gen = Generator::new(seed.wrapping_add(SCAN_STREAM)).with_perturbation(0.05);
    let mut stream = gen.tuple_stream(Function::F2);
    let mut labels = Vec::with_capacity(SCAN_ROWS);
    let mut expected = Vec::with_capacity(SCAN_ROWS);
    let mut left = SCAN_ROWS;
    while left > 0 {
        let take = left.min(SEG_ROWS);
        let mut chunk = Dataset::new(schema.clone(), class_names());
        for (person, group) in stream.by_ref().take(take) {
            chunk
                .push(person.to_row(), group.class_id())
                .map_err(|e| format!("generated row: {e}"))?;
        }
        nr_tabular::write_csv_rows(&chunk, &mut out).map_err(io)?;
        labels.extend_from_slice(chunk.labels());
        model.predict_batch_into(&chunk.view(), &mut expected);
        left -= take;
    }
    out.flush().map_err(io)?;
    drop(out);
    let csv_bytes = std::fs::metadata(&csv).map_err(io)?.len();
    Ok(Inputs {
        csv,
        csv_bytes,
        labels,
        expected,
    })
}

/// Ingests the CSV into a fresh durable store in `spill`.
fn ingest(inputs: &Inputs, spill: &Path) -> Result<SegmentedDataset, String> {
    let config = StoreConfig::spilling(SEG_ROWS, spill).with_durable(true);
    ingest_csv_file(agrawal_schema(), class_names(), &inputs.csv, config)
        .map_err(|e| format!("ingest: {e}"))
}

/// Checks one segment's classes and labels against the in-process
/// answers; returns the rows that disagree.
/// Durable stores keep their files; clear them between passes, untimed.
fn clear(spill: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(spill).map_err(|e| format!("clearing spill dir: {e}"))
}

fn check_segment(
    inputs: &Inputs,
    view: &DatasetView<'_>,
    first_row: usize,
    classes: &[ClassId],
) -> u64 {
    let expected = &inputs.expected[first_row..first_row + view.len()];
    let labels = &inputs.labels[first_row..first_row + view.len()];
    let mut bad = (view.len() as u64).abs_diff(classes.len() as u64);
    for (i, (&c, (&e, &l))) in classes.iter().zip(expected.iter().zip(labels)).enumerate() {
        if c != e || view.label(i) != l {
            bad += 1;
        }
    }
    bad
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = load_fixture()?;
        let inputs = make_inputs(args.seed, &model, &args.work)?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((model, inputs));
    }
    let (model, inputs) = prepared.expect("at least one set-up");
    report.set("setup_s", median(&setup));
    let spill = args.work.join("spill");
    if args.trace {
        traced(args, &model, &inputs, &spill, &mut report)?;
    } else {
        untraced(args, &model, &inputs, &spill, &mut report)?;
    }
    Ok(report)
}

fn untraced(
    args: &Args,
    model: &ServeModel,
    inputs: &Inputs,
    spill: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let mut segment_ms = Vec::new();
    let mut correct;
    loop {
        let pass = Instant::now();
        let store = ingest(inputs, spill)?;
        let mut answers = Vec::with_capacity(store.n_segments());
        let mut times = Vec::with_capacity(store.n_segments());
        for view in store.views() {
            let t = Instant::now();
            let classes = model.predict_batch(&view);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            answers.push(classes);
        }
        pass_s.push(pass.elapsed().as_secs_f64());
        segment_ms.extend(times);
        // Check every row of the pass against the in-process answers.
        let mut first_row = 0;
        let mut bad = 0;
        correct = 0;
        for (view, classes) in store.views().zip(&answers) {
            bad += check_segment(inputs, &view, first_row, classes);
            correct += classes
                .iter()
                .zip(&inputs.labels[first_row..])
                .filter(|(c, l)| c == l)
                .count();
            first_row += view.len();
        }
        bad += (SCAN_ROWS as u64).abs_diff(first_row as u64);
        report.attempted += SCAN_ROWS as u64;
        report.failed += bad;
        if started.elapsed().as_secs_f64() >= args.seconds {
            // Before the quality metrics, whose in-process scoring is not the job.
            report.set("peak_rss_mib", crate::host::peak_rss_mib());
            report.set("fidelity", fidelity(model, &store));
            break;
        }
        drop(store);
        clear(spill)?;
    }
    let job_s = min(&pass_s);
    segment_ms.sort_by(f64::total_cmp);
    report.notes.push(format!(
        "pass_s={pass_s:.3?} segments={} segment_p50_ms={:.2} segment_p99_ms={:.2} \
         rows={SCAN_ROWS} csv_bytes={}",
        segment_ms.len(),
        quantile_sorted(&segment_ms, 0.5),
        quantile_sorted(&segment_ms, 0.99),
        inputs.csv_bytes
    ));
    report.set("job_s", job_s);
    report.set("rows_s", SCAN_ROWS as f64 / job_s);
    report.set("accuracy", correct as f64 / SCAN_ROWS as f64);
    report.set("rules", model.rules().n_rules() as f64);
    report.set(
        "ok_share",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
    Ok(())
}

/// Share of stored rows where the rules alone and the network alone agree.
fn fidelity(model: &ServeModel, store: &SegmentedDataset) -> f64 {
    let mut agree = 0usize;
    for view in store.views() {
        let rules = model.rules().predict_batch(&view);
        let net = model.network().predict_batch(&view);
        agree += rules.iter().zip(&net).filter(|(r, n)| r == n).count();
    }
    agree as f64 / store.rows() as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn traced(
    args: &Args,
    model: &ServeModel,
    inputs: &Inputs,
    spill: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // The untraced pass first, as the base of the tracing overhead.
    let t = Instant::now();
    let store = ingest(inputs, spill)?;
    for view in store.views() {
        std::hint::black_box(model.predict_batch(&view));
    }
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    clear(spill)?;

    let tr = Tracer::new();
    let t = Instant::now();
    let pass = tr.open("pass", None);
    let store = tr.span("ingest", Some(pass), || ingest(inputs, spill))?;
    let mut answers = Vec::with_capacity(store.n_segments());
    let mut fallback_rows = 0usize;
    for view in store.views() {
        let p = Some(pass);
        // The hybrid answer rebuilt from its parts: the rules sweep, then
        // the network on the rows no explicit rule claimed.
        let scored = tr.span("rules", p, || model.rules().predict_scored_batch(&view));
        let (positions, sub) = tr.span("fallback", p, || {
            let positions: Vec<usize> = (0..view.len())
                .filter(|&i| scored[i].score != 1.0)
                .collect();
            let global = positions.iter().map(|&i| view.row_id(i)).collect();
            (positions, view.subview(global))
        });
        let scorer = model.network();
        let encoded = tr.span("encode", p, || scorer.encoder().encode_view(&sub));
        let net = tr.span("nn", p, || scorer.network().classify_batch(&encoded));
        let mut classes: Vec<ClassId> = scored.iter().map(|s| s.class).collect();
        for (&pos, class) in positions.iter().zip(net) {
            classes[pos] = class;
        }
        fallback_rows += positions.len();
        answers.push(classes);
    }
    tr.close(pass);
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;

    // Recomposition check: the parts equal the whole hybrid answer, and
    // both equal the in-process answers.
    let mut first_row = 0;
    for (view, classes) in store.views().zip(&answers) {
        let whole = tr.span("score", None, || model.predict_batch(&view));
        let bad = check_segment(inputs, &view, first_row, classes)
            + classes.iter().zip(&whole).filter(|(a, b)| a != b).count() as u64;
        report.attempted += view.len() as u64;
        report.failed += bad;
        first_row += view.len();
    }
    report.set("csv.bytes", inputs.csv_bytes as f64);
    report.set("store.ingest_ms", tr.total_ms("ingest"));
    report.set("store.segments", store.n_segments() as f64);
    report.set("store.spill_bytes", dir_bytes(spill) as f64);
    report.set("serve.rules_ms", tr.total_ms("rules"));
    report.set("serve.fallback_rows", fallback_rows as f64);
    report.set(
        "serve.fallback_share",
        fallback_rows as f64 / SCAN_ROWS as f64,
    );
    report.set("encode.ms", tr.total_ms("encode"));
    report.set("nn.ms", tr.total_ms("nn"));
    report.set("score.ms", tr.total_ms("score"));
    report.set("trace.coverage", tr.coverage("pass"));
    report.set("trace.overhead_ms", traced_ms - untraced_ms);
    report.notes.push(format!(
        "traced pass {traced_ms:.1} ms, untraced pass {untraced_ms:.1} ms, fallback subview {:.1} ms",
        tr.total_ms("fallback")
    ));
    tr.write_json(&args.trace_path())
        .map_err(|e| format!("writing trace: {e}"))
}
