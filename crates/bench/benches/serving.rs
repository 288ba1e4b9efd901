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
//! * `interpreted-rules` — the reference `RuleSet::predict_row` loop
//!   (per row: walk rules, short-circuit conditions);
//! * `network-batch` — [`nr_serve::NetworkScorer`]: the pruned network
//!   scored from the raw columns of its live input bits (what serving
//!   the *network* to the same database costs);
//! * `network-reference` — the same answers the long way: `encode_view`
//!   into the dense bit matrix, then `Mlp::classify_batch`;
//! * `hybrid` — compiled rules with network fallback for unmatched rows.
//!
//! The `dag-vs-table-vs-interpreted` group is the engine-generation
//! scoreboard: the DAG program (auto-parallel and pinned to one thread)
//! against the retained pre-DAG predicate-table engine and the
//! interpreted loop, same workload.
//!
//! The shared-model group scores the same 100k rows split into disjoint
//! chunks across N jobs through one `Arc<ServeModel>` — the lock-free
//! scaling story (results stay bit-identical; the workspace concurrency
//! test pins that). The jobs run on the persistent `nr-nn` worker pool,
//! so the group times scoring rather than thread spawns; a job never
//! fans out again, so each chunk is scored on one thread.
//!
//! In full (non-quick) mode the run **asserts** the acceptance bars:
//! compiled batch scoring must beat the interpreted per-row path by ≥ 2×,
//! the DAG program must beat the predicate-table engine by ≥ 1.5×, both
//! at 100k rows on one core, and `network-batch` must beat
//! `network-reference` by ≥ 2×.

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
    group.bench_function("interpreted-rules", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| ruleset.predict_row(&test, i))
                .sum::<usize>()
        });
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

    // Engine-generation scoreboard: DAG (auto threads and pinned to one)
    // vs the retained predicate-table engine vs the interpreted loop.
    let mut group = c.benchmark_group(format!("dag-vs-table-vs-interpreted-{rows}-rows"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("dag", |b| {
        b.iter(|| model.rules().predict_batch(&view).len());
    });
    group.bench_function("dag-1-thread", |b| {
        b.iter(|| model.rules().predict_batch_with(&view, 1, 8192).len());
    });
    group.bench_function("predicate-table", |b| {
        b.iter(|| model.rules().predict_batch_table(&view).len());
    });
    group.bench_function("interpreted", |b| {
        b.iter(|| {
            (0..test.len())
                .map(|i| ruleset.predict_row(&test, i))
                .sum::<usize>()
        });
    });
    group.finish();

    if !criterion::quick_mode() {
        assert_compiled_beats_interpreted(&model, &ruleset, &test);
        assert_dag_beats_the_table(&model, &test);
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

/// The acceptance bar, self-enforced like the `ingest` bench's allocation
/// assertion: at 100k rows on one core, the compiled batch path must be
/// at least 2× the interpreted per-row path (best of a few reps each, so
/// scheduler noise can't fail a healthy build).
fn assert_compiled_beats_interpreted(
    model: &ServeModel,
    ruleset: &nr_rules::RuleSet,
    test: &Dataset,
) {
    let view = test.view();
    let compiled = best_of_five(&mut || model.rules().predict_batch(&view).len());
    let interpreted = best_of_five(&mut || {
        (0..test.len())
            .map(|i| ruleset.predict_row(test, i))
            .sum::<usize>()
    });
    let speedup = interpreted.as_secs_f64() / compiled.as_secs_f64();
    eprintln!(
        "compiled {compiled:.2?} vs interpreted {interpreted:.2?} -> {speedup:.2}x (bar: 2x)"
    );
    assert!(
        speedup >= 2.0,
        "compiled rule scoring must beat the interpreted path by >= 2x, got {speedup:.2}x"
    );
}

/// The DAG-generation bar: at 100k rows on **one thread** (so the margin
/// is prefix sharing + fused sweeps, not parallelism), the DAG program
/// must be at least 1.5× the retained predicate-table engine.
fn assert_dag_beats_the_table(model: &ServeModel, test: &Dataset) {
    let view = test.view();
    let dag = best_of_five(&mut || model.rules().predict_batch_with(&view, 1, 8192).len());
    let table = best_of_five(&mut || model.rules().predict_batch_table(&view).len());
    let speedup = table.as_secs_f64() / dag.as_secs_f64();
    eprintln!("dag {dag:.2?} vs predicate-table {table:.2?} -> {speedup:.2}x (bar: 1.5x)");
    assert!(
        speedup >= 1.5,
        "the DAG program must beat the predicate-table engine by >= 1.5x, got {speedup:.2}x"
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
