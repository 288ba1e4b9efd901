//! Incrementally maintained input-link saliencies.
//!
//! The reference engine recomputes `max_p |v_p^m · w_ℓ^m|` for every
//! active input link from scratch each round — O(links) per round even
//! when the round changed two of them. This cache keeps the per-hidden
//! factor `vmax_m = max_p |v_p^m|` and every link's saliency product, and
//! invalidates only what a removal actually touched:
//!
//! * removing an input link deactivates its entry — nothing else moves;
//! * removing an output link of hidden node `m` recomputes `vmax_m` and
//!   the saliencies of `m`'s remaining input links (one cache row);
//! * a retrain changes every weight, so the whole cache rebuilds — which
//!   is exactly as expensive as one reference-engine rescan, and the
//!   incremental engine retrains rarely.
//!
//! Every cached value is computed by the same expression as
//! [`input_link_saliencies`], so the cache is **bit-identical** to a fresh
//! rescan at all times (asserted by `SaliencyCache::assert_consistent` in
//! tests).

use nr_nn::{LinkId, Mlp};

use crate::hidden_vmax;
#[cfg(test)]
use crate::input_link_saliencies;

/// Cached saliencies of the active input-side links of one network.
///
/// The cache tracks a specific [`Mlp`]; call [`SaliencyCache::apply_removal`]
/// after pruning links and [`SaliencyCache::rebuild`] after anything that
/// rewrites weights wholesale (a retrain).
#[derive(Debug, Clone)]
pub struct SaliencyCache {
    n_in: usize,
    n_hidden: usize,
    /// Per-hidden `max_p |v_p^m|` over active output links.
    vmax: Vec<f64>,
    /// Per input link `vmax_m · |w_ℓ^m|`, indexed `m * n_in + l`.
    sal: Vec<f64>,
    /// Whether the input link is still active (and its entry valid).
    active: Vec<bool>,
}

impl SaliencyCache {
    /// Builds the cache with a full scan of `net`.
    pub fn new(net: &Mlp) -> Self {
        let (n_in, n_hidden) = (net.n_inputs(), net.n_hidden());
        let mut cache = SaliencyCache {
            n_in,
            n_hidden,
            vmax: vec![0.0; n_hidden],
            sal: vec![0.0; n_hidden * n_in],
            active: vec![false; n_hidden * n_in],
        };
        for m in 0..n_hidden {
            cache.refresh_hidden(net, m);
        }
        cache
    }

    /// Recomputes everything — required after a retrain rewrote weights.
    pub fn rebuild(&mut self, net: &Mlp) {
        *self = SaliencyCache::new(net);
    }

    /// Recomputes `vmax` and the saliency row of hidden node `m` from the
    /// network (same expressions as [`input_link_saliencies`]).
    fn refresh_hidden(&mut self, net: &Mlp, m: usize) {
        let vmax = hidden_vmax(net, m);
        self.vmax[m] = vmax;
        for l in 0..self.n_in {
            let link = LinkId::InputHidden {
                hidden: m,
                input: l,
            };
            let idx = m * self.n_in + l;
            self.active[idx] = net.is_active(link);
            self.sal[idx] = if self.active[idx] {
                vmax * net.weight(link).abs()
            } else {
                0.0
            };
        }
    }

    /// Invalidates exactly the entries a removal touched: pruned input
    /// links are deactivated; for every hidden node that lost an output
    /// link, `vmax` and the node's saliency row are recomputed. `net` must
    /// already reflect the removal.
    pub fn apply_removal(&mut self, net: &Mlp, removed: &[LinkId]) {
        let mut touched_hidden: Vec<usize> = Vec::new();
        for &link in removed {
            match link {
                LinkId::InputHidden { hidden, input } => {
                    self.active[hidden * self.n_in + input] = false;
                    self.sal[hidden * self.n_in + input] = 0.0;
                }
                LinkId::HiddenOutput { hidden, .. } => {
                    if !touched_hidden.contains(&hidden) {
                        touched_hidden.push(hidden);
                    }
                }
            }
        }
        for m in touched_hidden {
            self.refresh_hidden(net, m);
        }
    }

    /// Condition-(4) candidates: active input links with saliency ≤
    /// `threshold`, in canonical (hidden-major) order — the same set and
    /// order a fresh [`crate::input_link_saliencies`] filter produces.
    pub fn candidates_at_most(&self, threshold: f64) -> Vec<LinkId> {
        let mut out = Vec::new();
        for m in 0..self.n_hidden {
            for l in 0..self.n_in {
                let idx = m * self.n_in + l;
                if self.active[idx] && self.sal[idx] <= threshold {
                    out.push(LinkId::InputHidden {
                        hidden: m,
                        input: l,
                    });
                }
            }
        }
        out
    }

    /// The `k` active input links with the smallest saliencies, ascending
    /// (ties broken by canonical order, matching the reference engine's
    /// `min_by` pick for the first element).
    pub fn k_smallest(&self, k: usize) -> Vec<LinkId> {
        let mut entries: Vec<(f64, usize)> = (0..self.sal.len())
            .filter(|&idx| self.active[idx])
            .map(|idx| (self.sal[idx], idx))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        entries
            .into_iter()
            .take(k)
            .map(|(_, idx)| LinkId::InputHidden {
                hidden: idx / self.n_in,
                input: idx % self.n_in,
            })
            .collect()
    }

    /// Number of active entries currently cached.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Asserts the cache equals a fresh full rescan of `net`, bit for bit.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self, net: &Mlp) {
        let fresh = input_link_saliencies(net);
        assert_eq!(fresh.len(), self.n_active(), "active-entry count drifted");
        for (link, expected) in fresh {
            let LinkId::InputHidden { hidden, input } = link else {
                unreachable!("input_link_saliencies yields input links only");
            };
            let idx = hidden * self.n_in + input;
            assert!(self.active[idx], "cache lost active link {link:?}");
            assert_eq!(
                self.sal[idx].to_bits(),
                expected.to_bits(),
                "saliency of {link:?} drifted: cached {} vs fresh {}",
                self.sal[idx],
                expected
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_nn::Mlp;

    #[test]
    fn fresh_cache_matches_full_scan() {
        let net = Mlp::random(6, 3, 2, 5);
        let cache = SaliencyCache::new(&net);
        cache.assert_consistent(&net);
        assert_eq!(cache.n_active(), 6 * 3);
    }

    #[test]
    fn input_removals_invalidate_only_their_entry() {
        let mut net = Mlp::random(6, 3, 2, 5);
        let mut cache = SaliencyCache::new(&net);
        let removed = [
            LinkId::InputHidden {
                hidden: 1,
                input: 3,
            },
            LinkId::InputHidden {
                hidden: 2,
                input: 0,
            },
        ];
        for &l in &removed {
            net.prune(l);
        }
        cache.apply_removal(&net, &removed);
        cache.assert_consistent(&net);
        assert_eq!(cache.n_active(), 6 * 3 - 2);
    }

    #[test]
    fn output_removals_refresh_the_hidden_row() {
        let mut net = Mlp::random(6, 3, 2, 5);
        let mut cache = SaliencyCache::new(&net);
        let removed = [LinkId::HiddenOutput {
            output: 0,
            hidden: 1,
        }];
        net.prune(removed[0]);
        cache.apply_removal(&net, &removed);
        cache.assert_consistent(&net);
        // Removing the remaining output link zeroes the whole row.
        let removed = [LinkId::HiddenOutput {
            output: 1,
            hidden: 1,
        }];
        net.prune(removed[0]);
        cache.apply_removal(&net, &removed);
        cache.assert_consistent(&net);
        for l in cache.candidates_at_most(0.0) {
            let LinkId::InputHidden { hidden, .. } = l else {
                unreachable!();
            };
            assert_eq!(hidden, 1, "only the dead node's links have saliency 0");
        }
    }

    #[test]
    fn candidates_match_reference_filter() {
        let net = Mlp::random(8, 4, 2, 9);
        let cache = SaliencyCache::new(&net);
        for threshold in [0.0, 0.2, 0.5, 2.0] {
            let expected: Vec<LinkId> = input_link_saliencies(&net)
                .into_iter()
                .filter(|&(_, s)| s <= threshold)
                .map(|(l, _)| l)
                .collect();
            assert_eq!(cache.candidates_at_most(threshold), expected);
        }
    }

    #[test]
    fn k_smallest_is_ascending_and_starts_at_the_global_minimum() {
        let net = Mlp::random(8, 4, 2, 9);
        let cache = SaliencyCache::new(&net);
        let reference = input_link_saliencies(&net);
        let global_min = reference
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        let picks = cache.k_smallest(5);
        assert_eq!(picks.len(), 5);
        assert_eq!(picks[0], global_min);
        let sal_of = |l: LinkId| reference.iter().find(|(x, _)| *x == l).unwrap().1;
        for pair in picks.windows(2) {
            assert!(sal_of(pair[0]) <= sal_of(pair[1]));
        }
        // k larger than the link count truncates.
        assert_eq!(cache.k_smallest(1000).len(), 8 * 4);
    }

    #[test]
    fn rebuild_resyncs_after_weight_changes() {
        let mut net = Mlp::random(6, 3, 2, 5);
        let mut cache = SaliencyCache::new(&net);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            9.0,
        );
        cache.rebuild(&net);
        cache.assert_consistent(&net);
    }
}
