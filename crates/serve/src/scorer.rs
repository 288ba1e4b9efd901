//! The network engine: the pruned MLP scored straight from the raw
//! columns of its live input bits, behind the batch [`Predictor`] trait.

use nr_encode::{BitMeaning, Encoder};
use nr_nn::{argmax, Activation, Mlp};
use nr_rules::{Predictor, Scored};
use nr_tabular::{ClassId, DatasetView};
use serde::{Deserialize, Deserializer, Serialize};

use crate::ServeError;

/// A fitted network packaged for serving: the input [`Encoder`] plus the
/// (typically pruned) [`Mlp`].
///
/// Construction (and deserialization) compiles a *live-input plan*: the
/// hidden units that still have an active input and an active output
/// link, the union of their active input bits — each turned into a test
/// on the raw value through [`Encoder::bit_meaning`] — and their weight
/// rows compacted to those bits. Scoring reads only the live attributes'
/// typed columns; it never builds the encoder's dense bit matrix.
///
/// Answers are bit-identical in class and winning activation to
/// `encoder.encode_view` → `network.classify_scored_batch` for finite
/// weights: a pruned link stores exactly `+0.0`, every forward kernel sums
/// one sequential accumulator starting at `+0.0` in ascending bit order,
/// and adding `+0.0` to such a sum never changes it — so dropping those
/// terms leaves every partial sum, and therefore every activation, as is.
///
/// Immutable after construction — share one instance behind an `Arc`
/// across scoring threads.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkScorer {
    encoder: Encoder,
    network: Mlp,
    #[serde(skip)]
    plan: LivePlan,
}

/// Wire-field equality: the plan is a pure function of the encoder and
/// the network.
impl PartialEq for NetworkScorer {
    fn eq(&self, other: &Self) -> bool {
        self.encoder == other.encoder && self.network == other.network
    }
}

/// The serialized fields of a [`NetworkScorer`]; [`NetworkParts::build`]
/// is the one place a scorer is assembled and validated.
#[derive(Deserialize)]
pub(crate) struct NetworkParts {
    encoder: Encoder,
    network: Mlp,
}

impl NetworkParts {
    /// Validates the parts and compiles the live-input plan.
    pub(crate) fn build(self) -> Result<NetworkScorer, ServeError> {
        let plan =
            LivePlan::compile(&self.encoder, &self.network).map_err(ServeError::Inconsistent)?;
        Ok(NetworkScorer {
            encoder: self.encoder,
            network: self.network,
            plan,
        })
    }
}

impl<'de> Deserialize<'de> for NetworkScorer {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        NetworkParts::deserialize(d)?
            .build()
            .map_err(serde::de::Error::custom)
    }
}

impl NetworkScorer {
    /// Packages an encoder and a network. Panics when they are
    /// inconsistent: the encoder's bit layout must match the network's
    /// input width, and the network must pass [`Mlp::validate`]. A loaded
    /// bundle reports the same conditions as [`ServeError::Inconsistent`].
    pub fn new(encoder: Encoder, network: Mlp) -> Self {
        NetworkParts { encoder, network }
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The input encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The network.
    pub fn network(&self) -> &Mlp {
        &self.network
    }

    /// Runs the network over every view row on the fixed-chunk `nr-nn`
    /// pool traversal (the one `Mlp::classify_batch` uses), handing each
    /// row's output activations to `f` and returning the results in view
    /// order.
    fn score_rows<T: Send>(
        &self,
        view: &DatasetView<'_>,
        f: impl Fn(&[f64]) -> T + Send + Sync,
    ) -> Vec<T> {
        let chunks = nr_nn::map_chunks(view.len(), 0, |_, range| {
            self.plan.score_chunk(&self.network, view, range, &f)
        });
        chunks.into_iter().flatten().collect()
    }
}

impl Predictor for NetworkScorer {
    fn n_classes(&self) -> usize {
        self.network.n_outputs()
    }

    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
        out.extend(self.score_rows(view, argmax));
    }

    /// Score = the winning output node's sigmoid activation (in `(0, 1)`).
    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        self.score_rows(view, |out| {
            let class = argmax(out);
            Scored {
                class,
                score: out[class],
            }
        })
    }
}

/// One live attribute: the column to read and, per live bit of it, the
/// bit's position in the compacted layout plus its test on the raw value.
#[derive(Debug, Clone)]
enum AttrTests {
    /// Thermometer bits: set iff `x >= threshold`.
    Threshold {
        attribute: usize,
        bits: Vec<(usize, f64)>,
    },
    /// One-hot bits: set iff `code == c`.
    Category {
        attribute: usize,
        bits: Vec<(usize, u32)>,
    },
}

/// The compiled live-input plan of a [`NetworkScorer`] (see its docs).
#[derive(Debug, Clone, Default)]
struct LivePlan {
    /// Live hidden units, ascending.
    units: Vec<usize>,
    /// Number of live input bits (the compacted width).
    n_bits: usize,
    /// Live attributes in schema order, their bits ascending.
    attrs: Vec<AttrTests>,
    /// Compacted position of the bias bit, when it is live.
    bias: Option<usize>,
    /// `units.len() × n_bits` input weights, row-major, live bits only.
    w: Vec<f64>,
}

impl LivePlan {
    /// Validates the pair and extracts the plan.
    fn compile(encoder: &Encoder, net: &Mlp) -> Result<LivePlan, String> {
        if encoder.n_inputs() != net.n_inputs() {
            return Err(format!(
                "encoder bit layout ({} inputs) must match the network's input width ({})",
                encoder.n_inputs(),
                net.n_inputs()
            ));
        }
        net.validate()?;
        let units = net.live_hidden();
        let mut live = vec![false; net.n_inputs()];
        for &m in &units {
            for l in net.hidden_inputs(m) {
                live[l] = true;
            }
        }
        let bits: Vec<usize> = (0..live.len()).filter(|&l| live[l]).collect();
        let w = units
            .iter()
            .flat_map(|&m| bits.iter().map(move |&l| net.w()[(m, l)]))
            .collect();
        let mut plan = LivePlan {
            units,
            n_bits: bits.len(),
            w,
            ..LivePlan::default()
        };
        for (k, &l) in bits.iter().enumerate() {
            match encoder.bit_meaning(l) {
                BitMeaning::Bias => plan.bias = Some(k),
                BitMeaning::Threshold {
                    attribute,
                    threshold,
                    ..
                } => match plan.attrs.last_mut() {
                    Some(AttrTests::Threshold { attribute: a, bits }) if *a == attribute => {
                        bits.push((k, threshold))
                    }
                    _ => plan.attrs.push(AttrTests::Threshold {
                        attribute,
                        bits: vec![(k, threshold)],
                    }),
                },
                BitMeaning::Category { attribute, code } => match plan.attrs.last_mut() {
                    Some(AttrTests::Category { attribute: a, bits }) if *a == attribute => {
                        bits.push((k, code))
                    }
                    _ => plan.attrs.push(AttrTests::Category {
                        attribute,
                        bits: vec![(k, code)],
                    }),
                },
            }
        }
        Ok(plan)
    }

    /// Scores view positions `range`: sets each row's live bits from the
    /// typed columns, then runs the live units (compacted weights summed
    /// in ascending bit order) and the output layer over every hidden
    /// unit in its original order, non-live units at `0.0`.
    fn score_chunk<T>(
        &self,
        net: &Mlp,
        view: &DatasetView<'_>,
        range: std::ops::Range<usize>,
        f: impl Fn(&[f64]) -> T,
    ) -> Vec<T> {
        let n = range.len();
        let words = self.n_bits.div_ceil(64);
        let mut set = vec![0u64; n * words];
        let mut mark = |i: usize, k: usize| set[i * words + k / 64] |= 1 << (k % 64);
        let ds = view.dataset();
        for attr in &self.attrs {
            match attr {
                AttrTests::Threshold { attribute, bits } => {
                    for_each_value(view, ds.num_column(*attribute), &range, |i, x| {
                        for &(k, threshold) in bits {
                            if x >= threshold {
                                mark(i, k);
                            }
                        }
                    })
                }
                AttrTests::Category { attribute, bits } => {
                    for_each_value(view, ds.nominal_column(*attribute), &range, |i, c| {
                        for &(k, code) in bits {
                            if c == code {
                                mark(i, k);
                            }
                        }
                    })
                }
            }
        }
        if let Some(k) = self.bias {
            (0..n).for_each(|i| mark(i, k));
        }

        let v = net.v();
        let mut hidden = vec![0.0; net.n_hidden()];
        let mut out = vec![0.0; net.n_outputs()];
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            let row = &set[i * words..(i + 1) * words];
            for (j, &m) in self.units.iter().enumerate() {
                let w = &self.w[j * self.n_bits..(j + 1) * self.n_bits];
                let mut z = 0.0;
                for (base, &word) in row.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        z += w[base * 64 + word.trailing_zeros() as usize];
                        word &= word - 1;
                    }
                }
                hidden[m] = Activation::Tanh.apply(z);
            }
            for (p, s) in out.iter_mut().enumerate() {
                let mut u = 0.0;
                for (vi, ai) in v.row(p).iter().zip(&hidden) {
                    u += vi * ai;
                }
                *s = Activation::Sigmoid.apply(u);
            }
            results.push(f(&out));
        }
        results
    }
}

/// Calls `f(i, value)` for view positions `range` of one typed column,
/// `i` counted from the start of the range.
fn for_each_value<T: Copy>(
    view: &DatasetView<'_>,
    col: &[T],
    range: &std::ops::Range<usize>,
    mut f: impl FnMut(usize, T),
) {
    match view.row_ids() {
        Some(ids) => {
            for (i, &r) in ids[range.clone()].iter().enumerate() {
                f(i, col[r]);
            }
        }
        None => {
            for (i, &x) in col[range.clone()].iter().enumerate() {
                f(i, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_datagen::{Function, Generator};
    use nr_nn::LinkId;

    #[test]
    fn batch_matches_per_row_classify() {
        let ds = Generator::new(7).dataset(Function::F1, 64);
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 2, 3);
        let scorer = NetworkScorer::new(encoder.clone(), net.clone());
        let preds = scorer.predict_batch(&ds.view());
        let encoded = encoder.encode_dataset(&ds);
        for i in 0..ds.len() {
            assert_eq!(preds[i], net.classify(encoded.input(i)), "row {i}");
        }
        // Scored predictions agree on the class and report the winning
        // activation.
        let scored = scorer.predict_scored_batch(&ds.view());
        for (i, s) in scored.iter().enumerate() {
            assert_eq!(s.class, preds[i]);
            assert!(s.score > 0.0 && s.score < 1.0);
            let (_, out) = net.forward(encoded.input(i));
            assert_eq!(s.score.to_bits(), out[s.class].to_bits());
        }
    }

    #[test]
    fn selected_views_score_in_view_order() {
        let ds = Generator::new(9).dataset(Function::F2, 40);
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 2, 5);
        let scorer = NetworkScorer::new(encoder, net);
        let full = scorer.predict_batch(&ds.view());
        let sel = vec![30usize, 2, 17, 2];
        let picked = scorer.predict_batch(&ds.view_of(sel.clone()));
        for (pos, &r) in sel.iter().enumerate() {
            assert_eq!(picked[pos], full[r]);
        }
        assert!(scorer.predict_batch(&ds.view_of(Vec::new())).is_empty());
    }

    #[test]
    fn plan_keeps_only_live_units_and_their_bits() {
        let encoder = Encoder::agrawal();
        let mut net = Mlp::random(encoder.n_inputs(), 3, 2, 1);
        for m in 0..3 {
            for l in 0..encoder.n_inputs() {
                // Unit 0 keeps salary's top bit and the bias; unit 1 keeps
                // car code 4; unit 2 keeps age bits but loses its outputs.
                let keep = matches!((m, l), (0, 0) | (0, 86) | (1, 27) | (2, 13..=15));
                if !keep {
                    net.prune(LinkId::InputHidden {
                        hidden: m,
                        input: l,
                    });
                }
            }
        }
        for p in 0..2 {
            net.prune(LinkId::HiddenOutput {
                output: p,
                hidden: 2,
            });
        }
        let plan = NetworkScorer::new(encoder, net).plan;
        assert_eq!(plan.units, vec![0, 1]);
        assert_eq!(plan.n_bits, 3);
        assert_eq!(plan.bias, Some(2));
        assert_eq!(plan.w.len(), 2 * 3);
        match &plan.attrs[..] {
            [AttrTests::Threshold {
                attribute: 0,
                bits: salary,
            }, AttrTests::Category {
                attribute: 4,
                bits: car,
            }] => {
                assert_eq!(salary, &vec![(0, 125_000.0)]);
                assert_eq!(car, &vec![(1, 4)]);
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn mismatched_widths_panic() {
        let _ = NetworkScorer::new(Encoder::agrawal(), Mlp::random(10, 4, 2, 0));
    }

    #[test]
    fn inconsistent_pairs_are_typed_errors() {
        let parts = NetworkParts {
            encoder: Encoder::agrawal(),
            network: Mlp::random(86, 4, 2, 0),
        };
        let err = parts.build().expect_err("width mismatch");
        assert!(matches!(err, ServeError::Inconsistent(_)), "{err:?}");
    }
}
