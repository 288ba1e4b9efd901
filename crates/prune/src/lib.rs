//! Network pruning — algorithm NP (NeuroRule §2.2, Figure 2).
//!
//! A trained, fully connected network has `h(n+m)` links; rules cannot be
//! articulated from that. NP removes links whose influence on the outputs is
//! provably small, retraining between removals, until the accuracy would drop
//! below an acceptable level (the paper uses 90%):
//!
//! 1. remove every input-side link with `max_p |v_p^m · w_ℓ^m| ≤ 4η₂`
//!    (condition 4) and every output-side link with `|v_p^m| ≤ 4η₂`
//!    (condition 5), where `η₁ + η₂ < 0.5`;
//! 2. if nothing qualifies, remove the single input-side link with the
//!    smallest saliency `max_p |v_p^m · w_ℓ^m|` (step 5 of Figure 2);
//! 3. retrain; if accuracy falls below the floor, roll back and stop
//!    (one refinement over the paper: when a *batch* removal fails we retry
//!    with a single-link removal before giving up, which avoids stopping
//!    early just because the batch was too aggressive).
//!
//! Afterwards, hidden nodes with no remaining input or output links are
//! removed, and inputs with no links are reported as de-selected features.
//!
//! Two execution modes implement those semantics ([`PruneMode`]):
//!
//! * [`PruneMode::Strict`] — the reference engine (module `strict`): a full
//!   retrain after every removal, a full saliency rescan per round, and a
//!   whole-network rollback checkpoint. Its trace is bit-compatible with
//!   the original implementation and is what the incremental engine is
//!   pinned against.
//! * [`PruneMode::Fast`] — the incremental engine (module `fast`): removals are
//!   first gated on a batched accuracy check and the optimizer only runs
//!   when the floor is actually violated (then warm-started with carried
//!   curvature and a small per-round budget, escalating to a full run
//!   before giving up); link saliencies live in an incrementally
//!   invalidated cache ([`SaliencyCache`]) instead of a per-round O(links)
//!   rescan; rollback uses compact [`nr_nn::UndoLog`] delta checkpoints
//!   instead of cloning the network; and single-link fallback candidates
//!   are accuracy-gated in parallel on the shared `nr-nn` worker pool
//!   ([`nr_nn::Mlp::accuracy_many`]). Same accuracy floor, same candidate
//!   conditions — the removal *order* may differ from strict mode, never
//!   the invariants (floor respected, strictly shrinking trace).
//!
//! ```no_run
//! use nr_prune::{prune, PruneConfig};
//! # let mut net = nr_nn::Mlp::random(87, 4, 2, 0);
//! # let data = nr_encode::EncodedDataset::from_parts(vec![0.0; 87], 87, vec![0], 2);
//! let outcome = prune(&mut net, &data, &PruneConfig::fast());
//! println!("{} of {} links left", outcome.remaining_links, outcome.initial_links);
//! ```

#![deny(missing_docs)]

mod fast;
mod saliency;
mod strict;

pub use saliency::SaliencyCache;

use nr_encode::EncodedDataset;
use nr_nn::{LinkId, Mlp, Trainer};
use nr_opt::Bfgs;
use serde::{Deserialize, Serialize};

/// Which engine executes algorithm NP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneMode {
    /// Reference engine: full retrain every round, full saliency rescan,
    /// whole-network checkpoints. Bit-compatible with the original
    /// implementation's trace.
    Strict,
    /// Incremental engine: retrain-on-demand with warm-started budgets,
    /// cached saliencies, delta checkpoints, parallel candidate gating.
    Fast,
}

/// Parameters of the NP algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// η₂ of conditions (4)/(5); links with saliency ≤ `4·η₂` are removable.
    /// Must satisfy `η₁ + η₂ < 0.5` with the training η₁.
    pub eta2: f64,
    /// Lowest acceptable (argmax) training accuracy; pruning stops rather
    /// than sink below this (the paper sets 90%).
    pub accuracy_floor: f64,
    /// Upper bound on pruning rounds (safety valve).
    pub max_rounds: usize,
    /// Trainer used for retraining between removals (short BFGS budget).
    /// In fast mode this is the *escalation* budget; routine retrains run
    /// warm-started under [`PruneConfig::warm_budget`].
    pub retrain: Trainer,
    /// Execution engine (see [`PruneMode`]).
    pub mode: PruneMode,
    /// Fast mode: per-round optimizer iteration cap for warm-started
    /// retraining. Only when a warm leg cannot recover the floor does the
    /// engine escalate to the full `retrain` budget.
    pub warm_budget: usize,
    /// Fast mode: how many lowest-saliency single-link candidates are
    /// accuracy-gated in parallel when no batch removal applies.
    pub gate_width: usize,
    /// Fast mode: when the last accepted removal left training accuracy
    /// within this margin of the floor (and nothing has retrained the
    /// weights since), the engine **consolidates** — one full retrain
    /// with no removal — before attempting further removals. This
    /// restores the optimization slack the reference engine rebuilds
    /// every round, at one retrain amortized over many removals.
    pub slack_margin: f64,
    /// Fast mode: the staleness budget — after this many links removed
    /// without any optimizer run, the engine consolidates even while
    /// ample accuracy slack remains. Keeps the weights tracking the
    /// shrinking topology (the reference engine re-optimizes every round;
    /// unbounded staleness lets the trajectory drift into dead ends that
    /// retraining can no longer rescue).
    pub stale_limit: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            eta2: 0.1,
            accuracy_floor: 0.9,
            max_rounds: 300,
            retrain: Trainer::new(nr_nn::TrainingAlgorithm::Bfgs(
                Bfgs::default().with_max_iters(80).with_grad_tol(1e-4),
            )),
            mode: PruneMode::Strict,
            warm_budget: 8,
            gate_width: 8,
            slack_margin: 0.01,
            stale_limit: 48,
        }
    }
}

impl PruneConfig {
    /// The default configuration on the incremental engine.
    pub fn fast() -> Self {
        PruneConfig {
            mode: PruneMode::Fast,
            ..PruneConfig::default()
        }
    }

    /// Same parameters, different engine.
    pub fn with_mode(mut self, mode: PruneMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One pruning round in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneRound {
    /// Links removed this round.
    pub removed: usize,
    /// Whether this was a batch (conditions 4/5) or single-smallest round.
    pub batch: bool,
    /// Training accuracy after the round (post-retrain when one ran, the
    /// gate accuracy when the removal was accepted without retraining).
    pub accuracy: f64,
    /// Active links remaining after the round.
    pub links_left: usize,
    /// Whether the optimizer ran this round (always true in strict mode;
    /// the incremental engine skips retraining while the accuracy floor
    /// holds).
    pub retrained: bool,
}

/// Result of running NP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneOutcome {
    /// Rounds that were kept (rolled-back rounds not counted).
    pub rounds: usize,
    /// Active links before pruning.
    pub initial_links: usize,
    /// Active links after pruning.
    pub remaining_links: usize,
    /// Hidden nodes removed as dead.
    pub dead_hidden: Vec<usize>,
    /// Inputs left with no connections (de-selected features).
    pub unused_inputs: Vec<usize>,
    /// Final training accuracy of the pruned network — the last accepted
    /// round's accuracy (the dead-hidden sweep cannot change the network
    /// function: a dead node contributes exactly 0 either way).
    pub final_accuracy: f64,
    /// Per-round log.
    pub trace: Vec<PruneRound>,
}

/// Saliency of every active input-side link: `max_p |v_p^m · w_ℓ^m|`
/// over the active output-side links of hidden node `m`. Hidden nodes with
/// no active output links give saliency 0 (they cannot affect the outputs).
pub fn input_link_saliencies(net: &Mlp) -> Vec<(LinkId, f64)> {
    let mut out = Vec::new();
    for m in 0..net.n_hidden() {
        let vmax = hidden_vmax(net, m);
        for l in net.hidden_inputs(m) {
            let link = LinkId::InputHidden {
                hidden: m,
                input: l,
            };
            out.push((link, vmax * net.weight(link).abs()));
        }
    }
    out
}

/// `max_p |v_p^m|` over the active output links of hidden node `m` (0 when
/// none remain) — the per-hidden factor of every input-link saliency.
pub(crate) fn hidden_vmax(net: &Mlp, m: usize) -> f64 {
    net.hidden_outputs(m)
        .into_iter()
        .map(|p| {
            net.weight(LinkId::HiddenOutput {
                output: p,
                hidden: m,
            })
            .abs()
        })
        .fold(0.0f64, f64::max)
}

/// Output-side links qualifying under condition (5): active and
/// `|v_p^m| ≤ threshold`, in canonical (output-major) order.
pub(crate) fn output_candidates(net: &Mlp, threshold: f64) -> Vec<LinkId> {
    let mut out = Vec::new();
    for p in 0..net.n_outputs() {
        for m in 0..net.n_hidden() {
            let link = LinkId::HiddenOutput {
                output: p,
                hidden: m,
            };
            if net.is_active(link) && net.weight(link).abs() <= threshold {
                out.push(link);
            }
        }
    }
    out
}

/// Runs NP on `net` in place, on the engine selected by `config.mode`.
pub fn prune(net: &mut Mlp, data: &EncodedDataset, config: &PruneConfig) -> PruneOutcome {
    match config.mode {
        PruneMode::Strict => strict::run(net, data, config),
        PruneMode::Fast => fast::run(net, data, config),
    }
}

/// Assembles the outcome after either engine's removal loop: sweeps dead
/// hidden nodes and reuses the last accepted round's accuracy (recomputing
/// only when no round was kept).
pub(crate) fn finish(
    net: &mut Mlp,
    data: &EncodedDataset,
    initial_links: usize,
    trace: Vec<PruneRound>,
) -> PruneOutcome {
    let dead_hidden = net.remove_dead_hidden();
    let final_accuracy = trace
        .last()
        .map(|round| round.accuracy)
        .unwrap_or_else(|| net.accuracy(data));
    PruneOutcome {
        rounds: trace.len(),
        initial_links,
        remaining_links: net.n_active(),
        dead_hidden,
        unused_inputs: net.unused_inputs(),
        final_accuracy,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_nn::TrainingAlgorithm;

    /// Dataset where class = bit 0 and bit 1 is pure noise.
    fn noisy_separable(n: usize) -> EncodedDataset {
        let mut data = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let b0 = (i % 2) as f64;
            let b1 = ((i * 7 + 3) % 5 < 2) as u8 as f64; // junk
            data.extend_from_slice(&[b0, b1, 1.0]);
            targets.push(if b0 == 1.0 { 0 } else { 1 });
        }
        EncodedDataset::from_parts(data, 3, targets, 2)
    }

    fn quick_config() -> PruneConfig {
        PruneConfig {
            retrain: Trainer::new(TrainingAlgorithm::Bfgs(
                Bfgs::default().with_max_iters(40).with_grad_tol(1e-4),
            )),
            ..PruneConfig::default()
        }
    }

    fn both_modes() -> [PruneConfig; 2] {
        [quick_config(), quick_config().with_mode(PruneMode::Fast)]
    }

    #[test]
    fn saliency_matches_definition() {
        let mut net = Mlp::random(2, 2, 2, 1);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            0.5,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            -0.2,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            2.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 1,
                hidden: 0,
            },
            -3.0,
        );
        let sal = input_link_saliencies(&net);
        let s00 = sal
            .iter()
            .find(|(l, _)| {
                *l == LinkId::InputHidden {
                    hidden: 0,
                    input: 0,
                }
            })
            .unwrap()
            .1;
        assert!((s00 - 1.5).abs() < 1e-12); // max(|2*0.5|, |-3*0.5|) = 1.5
        let s01 = sal
            .iter()
            .find(|(l, _)| {
                *l == LinkId::InputHidden {
                    hidden: 0,
                    input: 1,
                }
            })
            .unwrap()
            .1;
        assert!((s01 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn saliency_zero_for_outputless_hidden() {
        let mut net = Mlp::random(2, 1, 2, 2);
        net.prune(LinkId::HiddenOutput {
            output: 0,
            hidden: 0,
        });
        net.prune(LinkId::HiddenOutput {
            output: 1,
            hidden: 0,
        });
        for (_, s) in input_link_saliencies(&net) {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn prunes_noise_input_and_keeps_accuracy() {
        for config in both_modes() {
            let data = noisy_separable(60);
            let mut net = Mlp::random(3, 3, 2, 7);
            let trainer = Trainer::default();
            let report = trainer.train(&mut net, &data);
            assert_eq!(report.accuracy, 1.0);

            let outcome = prune(&mut net, &data, &config);
            assert!(outcome.final_accuracy >= 0.9, "{outcome:?}");
            assert!(
                outcome.remaining_links < outcome.initial_links,
                "{outcome:?}"
            );
            // The junk input should be disconnected.
            assert!(outcome.unused_inputs.contains(&1), "{outcome:?}");
        }
    }

    #[test]
    fn trace_is_monotonically_decreasing() {
        for config in both_modes() {
            let data = noisy_separable(60);
            let mut net = Mlp::random(3, 4, 2, 11);
            Trainer::default().train(&mut net, &data);
            let outcome = prune(&mut net, &data, &config);
            let mut last = outcome.initial_links;
            for round in &outcome.trace {
                assert!(round.links_left < last);
                assert!(round.accuracy >= 0.9);
                last = round.links_left;
            }
            assert_eq!(outcome.rounds, outcome.trace.len());
        }
    }

    #[test]
    fn respects_max_rounds() {
        for config in both_modes() {
            let data = noisy_separable(40);
            let mut net = Mlp::random(3, 3, 2, 13);
            Trainer::default().train(&mut net, &data);
            let config = PruneConfig {
                max_rounds: 1,
                ..config
            };
            let outcome = prune(&mut net, &data, &config);
            assert!(outcome.rounds <= 1);
        }
    }

    #[test]
    fn impossible_floor_keeps_network_intact() {
        for config in both_modes() {
            let data = noisy_separable(40);
            let mut net = Mlp::random(3, 3, 2, 17);
            Trainer::default().train(&mut net, &data);
            let before = net.clone();
            let config = PruneConfig {
                accuracy_floor: 1.01,
                ..config
            };
            let outcome = prune(&mut net, &data, &config);
            assert_eq!(outcome.rounds, 0);
            // Rollback restored the exact weights (dead-hidden sweep may
            // still have run but finds nothing to change on an intact net).
            assert_eq!(net, before);
            assert_eq!(outcome.remaining_links, outcome.initial_links);
        }
    }

    #[test]
    fn dead_hidden_nodes_are_swept() {
        for config in both_modes() {
            let data = noisy_separable(60);
            let mut net = Mlp::random(3, 4, 2, 19);
            Trainer::default().train(&mut net, &data);
            let outcome = prune(&mut net, &data, &config);
            for m in 0..net.n_hidden() {
                if outcome.dead_hidden.contains(&m) {
                    assert!(net.hidden_inputs(m).is_empty());
                    assert!(net.hidden_outputs(m).is_empty());
                }
            }
        }
    }

    #[test]
    fn final_accuracy_equals_last_round_accuracy() {
        for config in both_modes() {
            let data = noisy_separable(60);
            let mut net = Mlp::random(3, 4, 2, 11);
            Trainer::default().train(&mut net, &data);
            let outcome = prune(&mut net, &data, &config);
            assert!(outcome.rounds > 0, "fixture must actually prune");
            // The cached value is also exactly what a recomputation gives
            // (dead-hidden sweeps never change the network function).
            assert_eq!(outcome.final_accuracy, net.accuracy(&data));
            assert_eq!(
                outcome.final_accuracy,
                outcome.trace.last().unwrap().accuracy
            );
        }
    }

    #[test]
    fn fast_mode_prunes_at_least_as_far_as_strict() {
        let data = noisy_separable(80);
        for seed in [7, 11, 19, 23] {
            let mut trained = Mlp::random(3, 4, 2, seed);
            Trainer::default().train(&mut trained, &data);

            let mut strict_net = trained.clone();
            let strict = prune(&mut strict_net, &data, &quick_config());
            let mut fast_net = trained.clone();
            let fast = prune(
                &mut fast_net,
                &data,
                &quick_config().with_mode(PruneMode::Fast),
            );
            assert!(
                fast.remaining_links <= strict.remaining_links,
                "seed {seed}: fast {} vs strict {}",
                fast.remaining_links,
                strict.remaining_links
            );
            assert!(fast.final_accuracy >= 0.9, "seed {seed}: {fast:?}");
        }
    }

    #[test]
    fn fast_mode_skips_retraining_when_floor_holds() {
        let data = noisy_separable(60);
        let mut net = Mlp::random(3, 4, 2, 11);
        Trainer::default().train(&mut net, &data);
        let outcome = prune(&mut net, &data, &PruneConfig::fast());
        assert!(outcome.rounds > 0);
        let skipped = outcome.trace.iter().filter(|r| !r.retrained).count();
        assert!(
            skipped > 0,
            "the incremental engine should skip some retrains: {outcome:?}"
        );
    }

    #[test]
    fn fast_mode_is_deterministic() {
        let data = noisy_separable(60);
        let mut a = Mlp::random(3, 4, 2, 11);
        let mut b = Mlp::random(3, 4, 2, 11);
        Trainer::default().train(&mut a, &data);
        Trainer::default().train(&mut b, &data);
        let oa = prune(&mut a, &data, &PruneConfig::fast());
        let ob = prune(&mut b, &data, &PruneConfig::fast());
        assert_eq!(oa, ob);
        assert_eq!(a, b);
    }
}
