//! Serving-throughput benchmark: compiled rules vs the interpreted rule
//! path vs the network batch path, plus multi-thread scaling through one
//! shared `Arc<ServeModel>`.
//!
//! This is the scoreboard for the paper's §1 claim that extracted rules
//! are cheap to apply to large databases, measured on the serving
//! surfaces a deployment would actually use:
//!
//! * `compiled-rules` — [`nr_serve::CompiledRules`]'s production path:
//!   shared-prefix decision DAG, fused column sweeps, chunk-parallel
//!   batches (the group name is stable across engine generations so the
//!   repro history stays comparable);
//! * `compiled-rules-1-thread` — the same program pinned to one thread,
//!   so its margin over the interpreted path is prefix sharing and fused
//!   sweeps, not parallelism;
//! * `interpreted-rules` — the reference `RuleSet::predict_row` loop
//!   (per row: walk rules, short-circuit conditions);
//! * `network-batch` — [`nr_serve::NetworkScorer`]: the pruned network
//!   scored from the raw columns of its live input bits (what serving
//!   the *network* to the same database costs);
//! * `network-reference` — the same answers the long way: `encode_view`
//!   into the dense bit matrix, then `Mlp::classify_batch`;
//! * `hybrid` — compiled rules with network fallback for unmatched rows.
//!
//! The shared-model group scores the same 100k rows split into disjoint
//! chunks across N jobs through one `Arc<ServeModel>` — the lock-free
//! scaling story (results stay bit-identical; the workspace concurrency
//! test pins that). The jobs run on the persistent `nr-nn` worker pool,
//! so the group times scoring rather than thread spawns; a job never
//! fans out again, so each chunk is scored on one thread.
//!
//! In full (non-quick) mode the run **asserts** the acceptance bars, best
//! of five at 100k rows: `compiled-rules` must beat the interpreted
//! per-row path by ≥ 2×, `compiled-rules-1-thread` must beat it by ≥ 12×,
//! and `network-batch` must beat `network-reference` by ≥ 2×.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nr_bench::{bench_dataset, pruned_network};
use nr_rules::Predictor;
use nr_rulex::{extract, RxConfig};
use nr_serve::{ServeMode, ServeModel};
use nr_tabular::Dataset;

/// Fits the serving fixture: a rule set extracted from the standard
/// pruned network, bundled with that network into a `ServeModel`.
fn fixture() -> (ServeModel, nr_rules::RuleSet) {
    let train = bench_dataset(500);
    let (enc, data, net) = pruned_network(500);
    let rx = extract(&net, &enc, &data, train.class_names(), &RxConfig::default())
        .expect("extraction succeeds on the bench fixture");
    let model = ServeModel::new(&rx.ruleset, enc, net, ServeMode::Rules);
    (model, rx.ruleset)
}

fn workload_rows() -> usize {
    if criterion::quick_mode() {
        10_000
    } else {
        100_000
    }
}

fn serving(c: &mut Criterion) {
    let rows = workload_rows();
    let (model, ruleset) = fixture();
    let test = bench_dataset(rows);
    let view = test.view();

    let mut group = c.benchmark_group(format!("serving-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("compiled-rules", |b| {
        b.iter(|| model.rules().predict_batch(&view).len());
    });
    group.bench_function("compiled-rules-1-thread", |b| {
        b.iter(|| model.rules().predict_batch_with(&view, 1, 8192).len());
    });
    group.bench_function("interpreted-rules", |b| {
        b.iter(|| interpreted(&ruleset, &test));
    });
    group.bench_function("network-batch", |b| {
        b.iter(|| model.network().predict_batch(&view).len());
    });
    group.bench_function("network-reference", |b| {
        b.iter(|| network_reference(&model, &view).len());
    });
    let hybrid = model.clone().with_mode(ServeMode::Hybrid);
    group.bench_function("hybrid", |b| {
        b.iter(|| hybrid.predict_batch(&view).len());
    });
    group.finish();

    if !criterion::quick_mode() {
        assert_compiled_beats_interpreted(&model, &ruleset, &test);
        assert_network_beats_the_reference(&model, &test);
    }
}

/// The network answers the pre-plan way: encode the view into the dense
/// bit matrix, then classify on the `nr-nn` batch kernels.
fn network_reference(model: &ServeModel, view: &nr_tabular::DatasetView<'_>) -> Vec<usize> {
    let scorer = model.network();
    let encoded = scorer.encoder().encode_view(view);
    scorer.network().classify_batch(&encoded)
}

/// The interpreted reference: `RuleSet::predict_row` over every row.
fn interpreted(ruleset: &nr_rules::RuleSet, test: &Dataset) -> usize {
    (0..test.len())
        .map(|i| ruleset.predict_row(test, i))
        .sum::<usize>()
}

/// Best of five timed runs of `f`.
fn best_of_five(f: &mut dyn FnMut() -> usize) -> std::time::Duration {
    (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            criterion::black_box(f());
            t0.elapsed()
        })
        .min()
        .expect("non-empty reps")
}

/// The rule engine's bars, self-enforced like the `ingest` bench's
/// allocation assertion: at 100k rows the compiled batch path must be at
/// least 2× the interpreted per-row path, and pinned to **one thread**
/// (so the margin is prefix sharing + fused sweeps, not parallelism) at
/// least 12× (best of five each, so scheduler noise can't fail a healthy
/// build).
fn assert_compiled_beats_interpreted(
    model: &ServeModel,
    ruleset: &nr_rules::RuleSet,
    test: &Dataset,
) {
    let view = test.view();
    let compiled = best_of_five(&mut || model.rules().predict_batch(&view).len());
    let one_thread = best_of_five(&mut || model.rules().predict_batch_with(&view, 1, 8192).len());
    let per_row = best_of_five(&mut || interpreted(ruleset, test));
    let speedup = per_row.as_secs_f64() / compiled.as_secs_f64();
    let speedup_1 = per_row.as_secs_f64() / one_thread.as_secs_f64();
    eprintln!("compiled {compiled:.2?} vs interpreted {per_row:.2?} -> {speedup:.2}x (bar: 2x)");
    eprintln!(
        "compiled 1 thread {one_thread:.2?} vs interpreted {per_row:.2?} -> {speedup_1:.2}x (bar: 12x)"
    );
    assert!(
        speedup >= 2.0,
        "compiled rule scoring must beat the interpreted path by >= 2x, got {speedup:.2}x"
    );
    assert!(
        speedup_1 >= 12.0,
        "one-thread compiled rule scoring must beat the interpreted path by >= 12x, \
         got {speedup_1:.2}x"
    );
}

/// The live-input plan's bar: at 100k rows, scoring the network from its
/// live input bits must be at least 2× encoding the view and running the
/// batch kernels — the same answers bit for bit (the serving equivalence
/// suite pins that).
fn assert_network_beats_the_reference(model: &ServeModel, test: &Dataset) {
    let view = test.view();
    let planned = best_of_five(&mut || model.network().predict_batch(&view).len());
    let reference = best_of_five(&mut || network_reference(model, &view).len());
    let speedup = reference.as_secs_f64() / planned.as_secs_f64();
    eprintln!(
        "network-batch {planned:.2?} vs network-reference {reference:.2?} -> {speedup:.2}x (bar: 2x)"
    );
    assert!(
        speedup >= 2.0,
        "live-input network scoring must beat encode -> classify by >= 2x, got {speedup:.2}x"
    );
}

/// Multi-thread scaling: disjoint chunks of the same workload scored
/// through one shared `Arc<ServeModel>`, one pool job per chunk.
fn shared_model(c: &mut Criterion) {
    let rows = workload_rows();
    let (model, _) = fixture();
    let model = Arc::new(model);
    let test = bench_dataset(rows);

    let mut group = c.benchmark_group(format!("serving-shared-arc-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    for threads in [1usize, 2, 4] {
        // Disjoint contiguous chunks, one per job.
        let chunks = test.view().chunks(threads);
        group.bench_function(format!("{threads}-threads"), |b| {
            b.iter(|| {
                nr_nn::map_indexed_scoped(threads, threads, |t| {
                    model.predict_batch(&chunks[t]).len()
                })
                .into_iter()
                .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, serving, shared_model);
criterion_main!(benches);
