//! End-to-end benchmark of the NeuroRule workspace.
//!
//! ```text
//! e2ebench --workload mine|scan|serve [--seed N] [--seconds S] [--trace 0|1]
//! e2ebench regen-fixture [PATH]
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every answer, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! run records spans around each call into a layer and reports the
//! per-layer ones ([`PER_LAYER`]). README.md explains every metric.

mod host;
mod mine;
mod scan;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default workload seed; `7` is the second seed for checking claims.
pub const DEFAULT_SEED: u64 = 42;

/// Every end-to-end metric with its unit; every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("accuracy", "share"),
    ("rules", "count"),
    ("fidelity", "share"),
    ("rows_s", "rows/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
];

/// Every per-layer metric with its unit. A workload that does not call a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // mine: nr-encode, nr-nn/nr-opt, nr-prune, nr-rulex, nr-rules
    ("encode.ms", "ms"),
    ("train.ms", "ms"),
    ("train.iterations", "count"),
    ("train.evaluations", "count"),
    ("prune.ms", "ms"),
    ("prune.rounds", "count"),
    ("prune.links_removed", "count"),
    ("rulex.ms", "ms"),
    ("rulex.clusters", "count"),
    ("rulex.bit_rules", "count"),
    ("reduce.ms", "ms"),
    ("reduce.rules_in", "count"),
    ("reduce.rules_out", "count"),
    // scan: nr-tabular/nr-store, nr-serve (rules sweep, fallback), nr-encode, nr-nn
    ("csv.bytes", "bytes"),
    ("store.ingest_ms", "ms"),
    ("store.segments", "count"),
    ("store.spill_bytes", "bytes"),
    ("serve.rules_ms", "ms"),
    ("serve.fallback_rows", "count"),
    ("serve.fallback_share", "share"),
    ("nn.ms", "ms"),
    ("score.ms", "ms"),
    // serve: nr-serve one-row batches, nr-daemon lane and registry
    ("session.p50_ms", "ms"),
    ("session.p99_ms", "ms"),
    ("score.us", "us"),
    ("gen.late_ms", "ms"),
    ("lane.batches", "count"),
    ("lane.rows_per_batch", "rows"),
    ("lane.largest_batch", "rows"),
    ("lane.shed", "count"),
    ("lane.service_us", "us"),
    ("registry.commit_ms", "ms"),
    ("daemon.boot_ms", "ms"),
    // every workload: the trace itself and the host
    ("trace.coverage", "share"),
    ("trace.overhead_ms", "ms"),
    ("host.steal_ticks", "count"),
    ("host.runq_wait_ms", "ms"),
    ("host.nproc", "count"),
];

/// Settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, inside the working directory.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra lines printed before the result (sample counts, details).
    pub notes: Vec<String>,
}

impl Args {
    /// Where a traced run writes its spans; kept after the run.
    pub fn trace_path(&self) -> PathBuf {
        Path::new(".bench_work")
            .join("traces")
            .join(format!("{}-seed{}.json", self.workload, self.seed))
    }
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds `value` to a metric summed over several operations.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload mine|scan|serve [--seed N] [--seconds S] [--trace 0|1]\n       \
         e2ebench regen-fixture [PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let work = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Args {
        workload,
        seed,
        seconds,
        trace,
        work,
    }
}

fn main() {
    let first = std::env::args().nth(1);
    if first.as_deref() == Some("regen-fixture") {
        let path = std::env::args()
            .nth(2)
            .map_or_else(|| PathBuf::from(scan::FIXTURE_PATH), PathBuf::from);
        match scan::regen_fixture(&path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse_args();
    let fp = host::fingerprint();
    let before = host::noise();
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("e2ebench: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "mine" => mine::run(&args),
        "scan" => scan::run(&args),
        "serve" => serve::run(&args),
        _ => usage(),
    };
    let after = host::noise();
    // Keep traces; drop the run's inputs and spill files.
    let _ = std::fs::remove_dir_all(&args.work);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let steal = after.steal_ticks.saturating_sub(before.steal_ticks);
    let runq_ms = after.runq_wait_ns.saturating_sub(before.runq_wait_ns) as f64 / 1e6;
    println!(
        "# host nproc={} cpu=\"{}\" simd={} steal_ticks={steal} runq_wait_ms={runq_ms:.3}",
        fp.nproc, fp.cpu_model, fp.simd_tier
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let wanted = if args.trace {
        report.set("host.steal_ticks", steal as f64);
        report.set("host.runq_wait_ms", runq_ms);
        report.set("host.nproc", fp.nproc as f64);
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        // Layers a workload never calls did no work.
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("{} did not measure {name}", args.workload),
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            stats::json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
