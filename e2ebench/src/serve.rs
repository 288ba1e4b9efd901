//! `serve`: online users. The model fixture is committed to a durable
//! `ModelRegistry`, `Daemon::start` boots from that registry, and an
//! open-loop generator sends single-row `POST /predict` requests at one
//! fixed total rate over keep-alive connections. Each request is timed
//! from when it was due, so a stall also delays the requests behind it.

use std::path::Path;
use std::time::{Duration, Instant};

use nr_daemon::{Client, Daemon, DaemonConfig, StatsResponse, DEFAULT_MODEL};
use nr_datagen::{agrawal_schema, class_names, Function, Generator};
use nr_rules::Predictor;
use nr_serve::{ModelRegistry, PredictResponse, ServeModel, DEFAULT_RETAIN};
use nr_tabular::{parse_row, ClassId, Dataset};

use crate::stats::{median, quantile_sorted};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Total request rate, requests per second.
pub const RATE: f64 = 2000.0;
/// Keep-alive connections sharing the rate.
pub const CONNECTIONS: usize = 2;
/// A request answered later than this after it was due misses the limit.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Offset of the request generator's seed from the workload seed.
const SERVE_STREAM: u64 = 0x5E4E_0000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The generator sleeps until this long before a request is due, then
/// spins: sleeping to the due time itself would add the timer slack.
const SPIN: Duration = Duration::from_micros(200);

/// The request rows, their bodies, and the in-process answers.
struct Requests {
    bodies: Vec<String>,
    expected: Vec<ClassId>,
    rows: Dataset,
}

fn make_requests(seed: u64, n: usize, model: &ServeModel) -> Result<Requests, String> {
    let rows = Generator::new(seed.wrapping_add(SERVE_STREAM))
        .with_perturbation(0.05)
        .dataset(Function::F2, n);
    let mut csv = Vec::new();
    nr_tabular::write_csv_rows(&rows, &mut csv).map_err(|e| format!("request rows: {e}"))?;
    let text = String::from_utf8(csv).map_err(|e| format!("request rows: {e}"))?;
    // A request body is the row without its class column.
    let bodies = text
        .lines()
        .map(|line| {
            line.rsplit_once(',')
                .map_or(line, |(row, _)| row)
                .to_string()
        })
        .collect();
    Ok(Requests {
        bodies,
        expected: model.predict_batch(&rows.view()),
        rows,
    })
}

struct Served {
    daemon: Daemon,
    commit_ms: f64,
    boot_ms: f64,
}

/// Commits `model` to a fresh registry under `root` and boots the daemon
/// from it.
fn boot(model: &ServeModel, root: &Path) -> Result<Served, String> {
    let t = Instant::now();
    let mut registry = ModelRegistry::open(root.join(DEFAULT_MODEL), DEFAULT_RETAIN)
        .map_err(|e| format!("opening registry: {e}"))?;
    registry
        .commit(model)
        .map_err(|e| format!("registry commit: {e}"))?;
    drop(registry);
    let commit_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let config = DaemonConfig {
        registry: Some(root.to_path_buf()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, vec![(DEFAULT_MODEL.to_string(), model.clone())])
        .map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, _) = client
        .request("GET", "/healthz", "")
        .map_err(|e| format!("healthz: {e}"))?;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok(Served {
        daemon,
        commit_ms,
        boot_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// One request as the generator saw it.
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    /// `Some(class)` for a 200 answer that parsed.
    class: Option<ClassId>,
}

/// Sends every request at its due time: request `i` is due `i / RATE`
/// seconds after the start and goes out on connection `i % CONNECTIONS`.
fn open_loop(daemon: &Daemon, bodies: &[String]) -> Result<(Instant, Vec<Sample>), String> {
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let lanes: Vec<Result<Vec<(usize, Sample)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::with_capacity(bodies.len().div_ceil(CONNECTIONS));
                    for i in (lane..bodies.len()).step_by(CONNECTIONS) {
                        let due = due(i);
                        let now = Instant::now();
                        if due > now + SPIN {
                            std::thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let class = match client.request("POST", "/predict", &bodies[i]) {
                            Ok((200, body)) => serde_json::from_str::<PredictResponse>(&body)
                                .ok()
                                .map(|r| r.class),
                            Ok(_) => None,
                            Err(_) => {
                                // Reconnect so one broken connection fails
                                // only its own request.
                                client = Client::connect(daemon.addr())
                                    .map_err(|e| format!("reconnect: {e}"))?;
                                None
                            }
                        };
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                class,
                            },
                        ));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut samples: Vec<(usize, Sample)> = Vec::with_capacity(bodies.len());
    for lane in lanes {
        samples.extend(lane?);
    }
    samples.sort_by_key(|(i, _)| *i);
    Ok((start, samples.into_iter().map(|(_, s)| s).collect()))
}

fn lane_stats(daemon: &Daemon) -> Result<nr_daemon::LaneStats, String> {
    let mut client = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = client
        .request("GET", "/stats", "")
        .map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let stats: StatsResponse =
        serde_json::from_str(&body).map_err(|e| format!("stats body: {e}"))?;
    stats
        .models
        .into_iter()
        .find(|m| m.model == DEFAULT_MODEL)
        .ok_or_else(|| "no lane for the default model".into())
}

/// Latencies from due time, ms; a failed request counts as infinitely late.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .map(|s| match s.class {
            Some(_) => (s.done - s.due).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let n = ((RATE * args.seconds).round() as usize).max(1);
    let mut setup = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up first, so that only one is ever held.
        if let Some((_, _, old)) = prepared.take() {
            let old: Served = old;
            old.daemon.shutdown();
        }
        let t = Instant::now();
        let model = crate::scan::load_fixture()?;
        let requests = make_requests(args.seed, n, &model)?;
        let served = boot(&model, &args.work.join(format!("registry-{rep}")))?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((model, requests, served));
    }
    let (model, requests, served) = prepared.expect("at least one set-up");
    report.set("setup_s", median(&setup));

    let (start, samples) = open_loop(&served.daemon, &requests.bodies)?;
    let lane = lane_stats(&served.daemon)?;
    // A traced run adds a second, identical session whose spans are
    // recorded; the first one is the base of the tracing overhead.
    let traced_samples = if args.trace {
        Some(open_loop(&served.daemon, &requests.bodies)?.1)
    } else {
        None
    };
    let drain = served.daemon.shutdown();
    if !drain.clean {
        return Err(format!("daemon drain was not clean: {drain:?}"));
    }
    // Before the quality metrics, whose in-process scoring is not the job.
    let peak_rss = crate::host::peak_rss_mib();

    let mut answered_ok = 0usize;
    let mut within = 0usize;
    let mut correct = 0usize;
    for (i, s) in samples.iter().enumerate() {
        let right = s.class == Some(requests.expected[i]);
        report.check(right);
        answered_ok += usize::from(right);
        correct += usize::from(s.class == Some(requests.rows.label(i)));
        within += usize::from(right && (s.done - s.due).as_secs_f64() * 1e3 <= LATENCY_LIMIT_MS);
    }
    let lat = latencies_ms(&samples);
    let session_p50 = quantile_sorted(&lat, 0.5);
    let session_p99 = quantile_sorted(&lat, 0.99);
    let last = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let job_s = (last - start).as_secs_f64();
    let mut late: Vec<f64> = samples
        .iter()
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    report.notes.push(format!(
        "requests={} rate={RATE}/s connections={CONNECTIONS} limit={LATENCY_LIMIT_MS}ms \
         session_p50_ms={session_p50:.4} session_p99_ms={session_p99:.4} \
         late_p50_ms={:.4} late_p99_ms={:.4} batches={} largest_batch={}",
        samples.len(),
        quantile_sorted(&late, 0.5),
        quantile_sorted(&late, 0.99),
        lane.batches,
        lane.largest_batch
    ));

    if let Some(traced_samples) = traced_samples {
        traced(
            args,
            &model,
            &requests,
            &samples,
            &traced_samples,
            &mut report,
        )?;
        report.set("session.p50_ms", session_p50);
        report.set("session.p99_ms", session_p99);
        report.set("gen.late_ms", quantile_sorted(&late, 0.5));
        report.set("lane.batches", lane.batches as f64);
        report.set(
            "lane.rows_per_batch",
            lane.rows as f64 / lane.batches.max(1) as f64,
        );
        report.set("lane.largest_batch", lane.largest_batch as f64);
        report.set(
            "lane.shed",
            (lane.shed_queue_full + lane.shed_deadline + lane.timed_out + lane.expired_in_queue)
                as f64,
        );
        report.set("lane.service_us", lane.service_ewma_us as f64);
        report.set("registry.commit_ms", served.commit_ms);
        report.set("daemon.boot_ms", served.boot_ms);
        return Ok(report);
    }

    let view = requests.rows.view();
    let rules = model.rules().predict_batch(&view);
    let net = model.network().predict_batch(&view);
    let agree = rules.iter().zip(&net).filter(|(r, n)| r == n).count();
    let total = samples.len() as f64;
    report.set("job_s", job_s);
    report.set("rows_s", answered_ok as f64 / job_s);
    report.set("accuracy", correct as f64 / total);
    report.set("fidelity", agree as f64 / total);
    report.set("rules", model.rules().n_rules() as f64);
    report.set("ok_share", within as f64 / total);
    report.set("peak_rss_mib", peak_rss);
    Ok(report)
}

/// Records the traced session's spans, times in-process scoring of the
/// same rows, and checks the traced session's answers too.
fn traced(
    args: &Args,
    model: &ServeModel,
    requests: &Requests,
    untraced: &[Sample],
    samples: &[Sample],
    report: &mut Report,
) -> Result<(), String> {
    let tr = Tracer::new();
    let session = tr.open("session", None);
    for (i, s) in samples.iter().enumerate() {
        report.check(s.class == Some(requests.expected[i]));
        let request = tr.record("request", Some(session), s.due, s.done);
        tr.record("late", Some(request), s.due, s.sent);
        tr.record("round_trip", Some(request), s.sent, s.done);
    }
    tr.close(session);

    // In-process: parse the body and score a one-row batch, as the
    // daemon's lane does, without HTTP, queueing or thread hand-offs.
    let schema = agrawal_schema();
    let mut score_us = Vec::with_capacity(requests.bodies.len());
    for (i, body) in requests.bodies.iter().enumerate() {
        let t = Instant::now();
        let mut one = Dataset::new(schema.clone(), class_names());
        let values = parse_row(&schema, body).map_err(|e| format!("parse_row: {e}"))?;
        one.push_unlabeled(values)
            .map_err(|e| format!("row: {e}"))?;
        let class = model.predict_batch(&one.view());
        score_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(class == [requests.expected[i]]);
    }
    let traced_p50 = quantile_sorted(&latencies_ms(samples), 0.5);
    let untraced_p50 = quantile_sorted(&latencies_ms(untraced), 0.5);
    report.set("score.us", median(&score_us));
    report.set("trace.overhead_ms", traced_p50 - untraced_p50);
    report.notes.push(format!(
        "p50 latency: traced session {traced_p50:.4} ms, untraced session {untraced_p50:.4} ms"
    ));
    tr.write_json(&args.trace_path())
        .map_err(|e| format!("writing trace: {e}"))
}
