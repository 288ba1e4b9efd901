//! The compiled-serving equivalence suite: `nr_serve::CompiledRules` is
//! pinned **bit-identical** to the interpreted `RuleSet::predict_row`
//! reference on every fixture — pipeline-extracted rule sets (binary and
//! m ≥ 3) and randomized rule sets exercising every condition shape —
//! and the hybrid engine equals its per-row composition.
//!
//! The network half is pinned the same way: `ServeMode::Network` and
//! `ServeMode::Hybrid` answer `(class, score bits)` exactly like the
//! reference `encoder.encode_view` → `network.classify_scored_batch` on
//! pipeline fits, the committed benchmark fixture, random pruned nets,
//! non-finite and on-threshold values, repeated-row and empty views, and
//! hand-built nets with dead, half-dead and bias-only hidden units.

use neurorule::NeuroRule;
use nr_datagen::{Function, Generator};
use nr_encode::AttrCoding;
use nr_encode::Encoder;
use nr_nn::{LinkId, Mlp, Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::PruneConfig;
use nr_rules::{Condition, Predictor, Rule, RuleSet, Scored};
use nr_serve::{CompiledRules, NetworkScorer, ServeError, ServeMode, ServeModel};
use nr_tabular::{Attribute, Dataset, DatasetView, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper-shaped pipeline with the cheaper retraining budget the other
/// suites use.
fn pipeline(seed: u64) -> NeuroRule {
    let prune = PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(60).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    };
    NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(seed)
        .with_prune(prune)
}

/// Asserts compiled == interpreted on the full view, a reversed/strided
/// selection, and an empty selection of `ds` — and that the answer is
/// invariant across 1/2/4 worker threads and shard grids (the DAG
/// engine's determinism contract), and equal to the retained
/// predicate-table engine (an independent witness).
fn assert_equivalent(rs: &RuleSet, ds: &Dataset) {
    let compiled = CompiledRules::compile(rs);
    let per_row: Vec<_> = (0..ds.len()).map(|i| rs.predict_row(ds, i)).collect();
    assert_eq!(compiled.predict_batch(&ds.view()), per_row, "full view");
    assert_eq!(
        compiled.predict_batch_table(&ds.view()),
        per_row,
        "predicate-table engine"
    );
    // 128-row shards force multi-shard execution on every non-trivial
    // fixture; the stitched answer must be bit-identical at any width.
    for threads in [1usize, 2, 4] {
        assert_eq!(
            compiled.predict_batch_with(&ds.view(), threads, 128),
            per_row,
            "sharded, {threads} worker thread(s)"
        );
    }

    let sel: Vec<usize> = (0..ds.len()).rev().step_by(3).collect();
    let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(ds, r)).collect();
    assert_eq!(
        compiled.predict_batch(&ds.view_of(sel)),
        want,
        "selected view"
    );

    assert!(compiled.predict_batch(&ds.view_of(Vec::new())).is_empty());

    // Scored output agrees with the interpreted first-match report.
    let scored = compiled.predict_scored_batch(&ds.view());
    for (i, s) in scored.iter().enumerate() {
        assert_eq!(s.class, per_row[i]);
        let explicit = rs.first_match_row(ds, i).is_some();
        assert_eq!(s.score, if explicit { 1.0 } else { 0.0 }, "row {i} score");
    }
}

#[test]
fn binary_pipeline_rules_compile_bit_identically() {
    // m = 2: rules the real pipeline extracts for F1 and F2.
    let gen = Generator::new(42).with_perturbation(0.05);
    for (function, n) in [(Function::F1, 500), (Function::F2, 600)] {
        let (train, test) = gen.train_test(function, n, n);
        let model = pipeline(1).fit(&train).expect("pipeline fits");
        assert!(!model.ruleset.is_empty(), "fixture must extract rules");
        assert_equivalent(&model.ruleset, &train);
        assert_equivalent(&model.ruleset, &test);
    }
}

#[test]
fn multiclass_pipeline_rules_compile_bit_identically() {
    // m = 3: the three-band fixture of the multiclass suite.
    let schema = Schema::new(vec![
        Attribute::numeric("x"),
        Attribute::nominal_anon("noise", 3),
    ]);
    let mut train = Dataset::new(schema, vec!["low".into(), "mid".into(), "high".into()]);
    for i in 0..600 {
        let x = 30.0 * (i as f64 + 0.5) / 600.0;
        train
            .push(
                vec![Value::Num(x), Value::Nominal((i % 3) as u32)],
                (x / 10.0) as usize,
            )
            .unwrap();
    }
    let model = NeuroRule::default()
        .with_encoder_bins(6)
        .with_hidden_nodes(6)
        .with_seed(3)
        .fit(&train)
        .expect("m = 3 pipeline fits");
    assert!(model.ruleset.n_classes() == 3);
    assert_equivalent(&model.ruleset, &train);
}

/// Random rule sets over a mixed schema: every condition shape
/// (intervals with 0/1/2 bounds, numeric equality, nominal equality and
/// exclusion), shared conditions across rules, unreachable rules, empty
/// antecedents — compiled must equal interpreted on all of them.
#[test]
fn randomized_rulesets_compile_bit_identically() {
    let schema = Schema::new(vec![
        Attribute::numeric("a"),
        Attribute::numeric("b"),
        Attribute::nominal_anon("c", 4),
        Attribute::nominal_anon("d", 2),
    ]);
    let class_names: Vec<String> = vec!["x".into(), "y".into(), "z".into()];
    let mut rng = StdRng::seed_from_u64(20260728);

    for round in 0..40 {
        // A dataset whose numeric values collide often enough that NumEq
        // and interval boundaries are actually exercised.
        let n = 1 + (round * 37) % 300;
        let mut ds = Dataset::new(schema.clone(), class_names.clone());
        for _ in 0..n {
            ds.push(
                vec![
                    Value::Num(rng.gen_range(0..20) as f64),
                    Value::Num(rng.gen_range(-5.0..5.0)),
                    Value::Nominal(rng.gen_range(0..4) as u32),
                    Value::Nominal(rng.gen_range(0..2) as u32),
                ],
                rng.gen_range(0..3),
            )
            .unwrap();
        }

        let random_condition = |rng: &mut StdRng| -> Condition {
            match rng.gen_range(0..6) {
                0 => Condition::num_ge(0, rng.gen_range(0..20) as f64),
                1 => Condition::num_lt(0, rng.gen_range(0..20) as f64),
                2 => {
                    let lo = rng.gen_range(0..20) as f64;
                    Condition::num_range(1, lo - 5.0, lo + rng.gen_range(-2.0..4.0))
                }
                3 => Condition::NumEq {
                    attribute: 0,
                    value: rng.gen_range(0..20) as f64,
                },
                4 => Condition::CatEq {
                    attribute: 2,
                    code: rng.gen_range(0..4) as u32,
                },
                _ => {
                    let k = rng.gen_range(0..3);
                    Condition::CatNotIn {
                        attribute: if rng.gen_range(0..2) == 0 { 2 } else { 3 },
                        codes: (0..k).map(|_| rng.gen_range(0..4) as u32).collect(),
                    }
                }
            }
        };

        let n_rules = rng.gen_range(0..10);
        let rules: Vec<Rule> = (0..n_rules)
            .map(|_| {
                let n_conds = rng.gen_range(0..5);
                Rule::new(
                    (0..n_conds).map(|_| random_condition(&mut rng)).collect(),
                    rng.gen_range(0..3),
                )
            })
            .collect();
        let rs = RuleSet::new(rules, rng.gen_range(0..3), class_names.clone());
        assert_equivalent(&rs, &ds);
    }
}

/// Word-boundary batch sizes: the bitmap engine packs 64 rows per word,
/// so sizes one below/at/above a word boundary (and a multi-word partial
/// tail) are where a stray tail bit would corrupt `not()` complements and
/// first-match arbitration. Pins compiled == interpreted exactly there.
#[test]
fn word_boundary_batch_sizes_stay_equivalent() {
    let schema = Schema::new(vec![
        Attribute::numeric("x"),
        Attribute::nominal_anon("c", 3),
    ]);
    let class_names: Vec<String> = vec!["A".into(), "B".into()];
    // Rules chosen so every size leaves some rows matched, some claimed by
    // a later rule, and some falling through to the default — all three
    // arbitration outcomes live in the partial final word.
    let rs = RuleSet::new(
        vec![
            Rule::new(
                vec![
                    Condition::num_range(0, 10.0, 90.0),
                    Condition::CatEq {
                        attribute: 1,
                        code: 0,
                    },
                ],
                1,
            ),
            Rule::new(vec![Condition::num_lt(0, 60.0)], 0),
            Rule::new(
                vec![Condition::CatNotIn {
                    attribute: 1,
                    codes: [1].into_iter().collect(),
                }],
                1,
            ),
        ],
        0,
        class_names.clone(),
    );

    for n in [1usize, 63, 64, 65, 127, 128] {
        let mut ds = Dataset::new(schema.clone(), class_names.clone());
        for i in 0..n {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        assert_equivalent(&rs, &ds);

        // The same sizes as *sub-batches* of a larger dataset (gathered
        // views exercise the index-sweep arm of the bitmap fill).
        let mut big = Dataset::new(schema.clone(), class_names.clone());
        for i in 0..256usize {
            big.push(
                vec![Value::Num((i % 100) as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        let sel: Vec<usize> = (0..n).map(|i| (i * 7) % 256).collect();
        let compiled = CompiledRules::compile(&rs);
        let want: Vec<_> = sel.iter().map(|&r| rs.predict_row(&big, r)).collect();
        assert_eq!(
            compiled.predict_batch(&big.view_of(sel)),
            want,
            "gathered sub-batch of {n} rows"
        );
    }
}

#[test]
fn hybrid_equals_its_per_row_composition() {
    let gen = Generator::new(42).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F1, 500, 500);
    let model = pipeline(1).fit(&train).expect("pipeline fits");
    let served = model.compile().with_mode(ServeMode::Hybrid);
    let net_batch = served.network().predict_batch(&test.view());
    let hybrid = served.predict_batch(&test.view());
    for i in 0..test.len() {
        let want = match model.ruleset.first_match_row(&test, i) {
            Some(r) => model.ruleset.rules[r].class,
            None => net_batch[i],
        };
        assert_eq!(hybrid[i], want, "row {i}");
    }
    // Rules mode equals the interpreted reference end to end.
    let rules_mode = served.with_mode(ServeMode::Rules);
    let per_row: Vec<_> = (0..test.len())
        .map(|i| model.ruleset.predict_row(&test, i))
        .collect();
    assert_eq!(rules_mode.predict_batch(&test.view()), per_row);
}

// ---------------------------------------------------------------------------
// The network path: live-input scoring against encode → classify.
// ---------------------------------------------------------------------------

/// `(class, score bits)` per row.
type Answers = Vec<(usize, u64)>;

fn answers(scored: &[Scored]) -> Answers {
    scored
        .iter()
        .map(|s| (s.class, s.score.to_bits()))
        .collect()
}

/// The reference network path: encode the view into the dense bit
/// matrix, then run the `nr-nn` batch kernels.
fn reference(scorer: &NetworkScorer, view: &DatasetView<'_>) -> Answers {
    let encoded = scorer.encoder().encode_view(view);
    scorer
        .network()
        .classify_scored_batch(&encoded)
        .into_iter()
        .map(|(class, score)| (class, score.to_bits()))
        .collect()
}

/// Asserts `Network` and `Hybrid` modes equal the reference on `view`,
/// scored and unscored.
fn assert_network_view(model: &ServeModel, view: &DatasetView<'_>, what: &str) {
    let want = reference(model.network(), view);
    let classes = |a: &Answers| a.iter().map(|&(c, _)| c).collect::<Vec<_>>();

    let network = model.clone().with_mode(ServeMode::Network);
    assert_eq!(
        answers(&network.predict_scored_batch(view)),
        want,
        "{what}: network scored"
    );
    assert_eq!(
        network.predict_batch(view),
        classes(&want),
        "{what}: network classes"
    );

    // Hybrid: explicit rule matches score 1.0, every other row is the
    // reference network answer.
    let rules = model.rules().predict_scored_batch(view);
    let hybrid_want: Answers = rules
        .iter()
        .zip(&want)
        .map(|(r, &net)| {
            if r.score == 1.0 {
                (r.class, 1f64.to_bits())
            } else {
                net
            }
        })
        .collect();
    let hybrid = model.clone().with_mode(ServeMode::Hybrid);
    assert_eq!(
        answers(&hybrid.predict_scored_batch(view)),
        hybrid_want,
        "{what}: hybrid scored"
    );
    assert_eq!(
        hybrid.predict_batch(view),
        classes(&hybrid_want),
        "{what}: hybrid classes"
    );
}

/// [`assert_network_view`] on the full view, a reversed selection with
/// repeated row ids, and an empty view.
fn assert_network_equivalent(model: &ServeModel, ds: &Dataset, what: &str) {
    assert_network_view(model, &ds.view(), &format!("{what}, full view"));
    let mut sel: Vec<usize> = (0..ds.len()).rev().step_by(2).collect();
    sel.extend((0..ds.len()).step_by(5));
    sel.extend([0, 0, ds.len() - 1, ds.len() - 1]);
    assert_network_view(model, &ds.view_of(sel), &format!("{what}, repeated rows"));
    assert_network_view(
        model,
        &ds.view_of(Vec::new()),
        &format!("{what}, empty view"),
    );
}

/// A rule that claims some rows and leaves the rest to the fallback
/// (attribute 0 is numeric in every schema below).
fn partial_rules(class_names: &[String]) -> RuleSet {
    RuleSet::new(
        vec![Rule::new(vec![Condition::num_lt(0, 60_000.0)], 0)],
        1,
        class_names.to_vec(),
    )
}

/// A random network with each link pruned with probability `prune`.
fn random_pruned(n_in: usize, hidden: usize, out: usize, prune: f64, seed: u64) -> Mlp {
    let mut net = Mlp::random(n_in, hidden, out, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    for link in net.active_links() {
        if rng.gen_bool(prune) {
            net.prune(link);
        }
    }
    net
}

/// The finite thresholds of `attribute`'s thermometer coding (none for
/// a one-hot coding).
fn thresholds(encoder: &Encoder, attribute: usize) -> Vec<f64> {
    match &encoder.codings()[attribute] {
        AttrCoding::Thermometer { thresholds, .. } => thresholds
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect(),
        AttrCoding::OneHot { .. } => Vec::new(),
    }
}

/// Rows over `encoder`'s schema whose numeric values sit exactly on a
/// threshold, just below one, at random in range, or — via sentinel
/// cells rewritten in the JSON form, since every validated constructor
/// refuses them — NaN, +∞ and −∞.
fn edge_rows(encoder: &Encoder, n: usize, seed: u64) -> Dataset {
    const NAN: f64 = 7_777_771.0;
    const POS_INF: f64 = 7_777_772.0;
    const NEG_INF: f64 = 7_777_773.0;
    let schema = encoder.schema().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(schema.clone(), vec!["A".into(), "B".into()]);
    for i in 0..n {
        let row = schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(a, attr)| match attr.cardinality() {
                Some(card) => Value::Nominal(rng.gen_range(0..card as u32)),
                None => {
                    let ts = thresholds(encoder, a);
                    let t = ts[rng.gen_range(0..ts.len())];
                    Value::Num(match rng.gen_range(0..8) {
                        0 => [NAN, POS_INF, NEG_INF][i % 3],
                        1..=3 => t,
                        4 => t - 1e-9 * t.abs().max(1.0),
                        _ => rng.gen_range(ts[0] - 1.0..ts[ts.len() - 1] + 1.0),
                    })
                }
            })
            .collect();
        ds.push(row, i % 2).unwrap();
    }
    let json = serde_json::to_string(&ds).unwrap();
    for sentinel in [NAN, POS_INF, NEG_INF] {
        assert!(
            json.contains(&format!("{sentinel:?}")),
            "sentinel {sentinel} not in the JSON"
        );
    }
    let json = json
        .replace(&format!("{NAN:?}"), "null")
        .replace(&format!("{POS_INF:?}"), "1e999")
        .replace(&format!("{NEG_INF:?}"), "-1e999");
    let ds: Dataset = serde_json::from_str(&json).unwrap();
    let col = ds.num_column(0);
    assert!(col.iter().any(|x| x.is_nan()) && col.contains(&f64::INFINITY));
    ds
}

/// A mixed numeric/nominal table and the generic encoder fitted to it.
fn generic_table(n: usize, bins: usize, seed: u64) -> (Encoder, Dataset) {
    let schema = Schema::new(vec![
        Attribute::numeric("a"),
        Attribute::nominal_anon("c", 4),
        Attribute::numeric("b"),
        Attribute::nominal_anon("d", 2),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
    for i in 0..n {
        ds.push(
            vec![
                Value::Num(rng.gen_range(0.0..120_000.0)),
                Value::Nominal(rng.gen_range(0..4)),
                Value::Num(rng.gen_range(-5.0..5.0)),
                Value::Nominal(rng.gen_range(0..2)),
            ],
            i % 2,
        )
        .unwrap();
    }
    (Encoder::fit(&ds, bins).unwrap(), ds)
}

#[test]
fn pipeline_networks_serve_bit_identically() {
    let gen = Generator::new(42).with_perturbation(0.05);
    for function in [Function::F1, Function::F2, Function::F3, Function::F4] {
        let (train, test) = gen.train_test(function, 400, 2500);
        let model = pipeline(1).fit(&train).expect("pipeline fits");
        let served = model.compile();
        let what = format!("{function:?}");
        assert_network_equivalent(&served, &test, &what);
        assert_network_equivalent(&served, &edge_rows(&model.encoder, 300, 5), &what);
    }
}

#[test]
fn committed_benchmark_fixture_serves_bit_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/e2ebench/fixtures/f2_hybrid.model.json"
    );
    let model = ServeModel::load(path).expect("fixture loads");
    let test = Generator::new(42).dataset(Function::F2, 5000);
    assert_network_equivalent(&model, &test, "fixture");
    let edges = edge_rows(model.network().encoder(), 500, 11);
    assert_network_equivalent(&model, &edges, "fixture, edge values");
}

#[test]
fn inconsistent_fixture_edits_are_refused_at_load() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/e2ebench/fixtures/f2_hybrid.model.json"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let json = text.lines().next().expect("bundle JSON line");
    assert!(
        ServeModel::from_json(json).is_ok(),
        "the fixture itself loads"
    );
    for (from, to) in [
        // The encoder still lays out 87 bits: scoring it used to panic in
        // the kernels ("B shape mismatch").
        ("\"n_in\":87", "\"n_in\":86"),
        // Weight and mask shapes no longer match the topology.
        ("\"n_hidden\":4", "\"n_hidden\":5"),
    ] {
        assert!(json.contains(from), "fixture lacks {from}");
        match ServeModel::from_json(&json.replacen(from, to, 1)) {
            Err(ServeError::Inconsistent(why)) => eprintln!("{to}: {why}"),
            other => panic!("{to}: expected Inconsistent, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_pruned_nets_serve_bit_identically(
        (seed, hidden, out, prune_pct, bins) in (0u64..100_000, 1usize..7, 2usize..5, 50u32..98, 2usize..9)
    ) {
        let prune = prune_pct as f64 / 100.0;
        let class_names: Vec<String> = vec!["A".into(), "B".into()];

        // The paper's Agrawal coding.
        let encoder = Encoder::agrawal();
        let net = random_pruned(encoder.n_inputs(), hidden, out, prune, seed);
        let model = ServeModel::new(&partial_rules(&class_names), encoder.clone(), net, ServeMode::Hybrid);
        let rows = Generator::new(seed).dataset(Function::F2, 1500);
        assert_network_equivalent(&model, &rows, "agrawal");
        assert_network_equivalent(&model, &edge_rows(&encoder, 200, seed), "agrawal, edge values");

        // A generic fitted encoder.
        let (encoder, rows) = generic_table(1200, bins, seed);
        let net = random_pruned(encoder.n_inputs(), hidden, out, prune, seed + 1);
        let model = ServeModel::new(&partial_rules(&class_names), encoder.clone(), net, ServeMode::Hybrid);
        assert_network_equivalent(&model, &rows, "generic");
        assert_network_equivalent(&model, &edge_rows(&encoder, 200, seed), "generic, edge values");
    }
}

/// Hand-built nets over the Agrawal coding: every hidden-unit shape the
/// live-input plan distinguishes.
#[test]
fn degenerate_hidden_units_serve_bit_identically() {
    let encoder = Encoder::agrawal();
    let n_in = encoder.n_inputs();
    let bias = encoder.bias_bit();
    let class_names: Vec<String> = vec!["A".into(), "B".into()];
    let rows = Generator::new(3).dataset(Function::F2, 1500);
    let edges = edge_rows(&encoder, 300, 3);
    let prune_inputs = |net: &mut Mlp, m: usize, keep: &dyn Fn(usize) -> bool| {
        for l in 0..n_in {
            if !keep(l) {
                net.prune(LinkId::InputHidden {
                    hidden: m,
                    input: l,
                });
            }
        }
    };
    let prune_outputs = |net: &mut Mlp, m: usize| {
        for p in 0..net.n_outputs() {
            net.prune(LinkId::HiddenOutput {
                output: p,
                hidden: m,
            });
        }
    };

    let mut cases: Vec<(&str, Mlp)> = Vec::new();
    // No outputs anywhere: every unit has inputs but no outputs.
    let mut net = Mlp::random(n_in, 3, 2, 1);
    (0..3).for_each(|m| prune_outputs(&mut net, m));
    cases.push(("inputs without outputs, zero live units", net));
    // No inputs anywhere: every unit has outputs but no inputs.
    let mut net = Mlp::random(n_in, 3, 3, 2);
    (0..3).for_each(|m| prune_inputs(&mut net, m, &|_| false));
    cases.push(("outputs without inputs, zero live units", net));
    // Unit 0 is a bias-only unit; unit 1 is live on salary and car.
    let mut net = Mlp::random(n_in, 2, 2, 3);
    prune_inputs(&mut net, 0, &|l| l == bias);
    prune_inputs(&mut net, 1, &|l| l < 6 || (23..43).contains(&l));
    cases.push(("live bias-only unit", net));
    // One of each: live, inputs-only, outputs-only, fully dead.
    let mut net = Mlp::random(n_in, 4, 3, 4);
    prune_inputs(&mut net, 0, &|l| l % 3 == 0 || l == bias);
    prune_inputs(&mut net, 1, &|l| l % 2 == 0);
    prune_outputs(&mut net, 1);
    prune_inputs(&mut net, 2, &|_| false);
    prune_inputs(&mut net, 3, &|_| false);
    prune_outputs(&mut net, 3);
    cases.push(("mixed unit shapes", net));
    // The bias alone drives the only live unit.
    let mut net = Mlp::random(n_in, 1, 2, 5);
    prune_inputs(&mut net, 0, &|l| l == bias);
    cases.push(("bias-only network", net));

    for (what, net) in cases {
        let model = ServeModel::new(
            &partial_rules(&class_names),
            encoder.clone(),
            net,
            ServeMode::Hybrid,
        );
        assert_network_equivalent(&model, &rows, what);
        assert_network_equivalent(&model, &edges, what);
        // The bundle round-trips and the reloaded plan answers alike.
        let back = ServeModel::from_json(&model.to_json().unwrap()).unwrap();
        assert_eq!(
            answers(&back.predict_scored_batch(&rows.view())),
            answers(&model.predict_scored_batch(&rows.view())),
            "{what}: reloaded"
        );
    }
}
