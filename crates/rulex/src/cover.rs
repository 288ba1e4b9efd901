//! Perfect rule generation from decision tables.
//!
//! RX needs "perfect rules that have a perfect cover of all the tuples"
//! (Figure 4, steps 2–3): conjunctions over `column = value` conditions
//! that together cover every row of the target class and no row of any
//! other class. The paper delegates this to the X2R rule generator \[12\];
//! X2R was never released, so this module implements an equivalent:
//!
//! * an **exact** engine for small tables — enumerate all prime implicants
//!   (conjunctions that cover no negative and lose that property if any
//!   condition is dropped), then greedy minimal set cover;
//! * a **greedy sequential covering** fallback (X2R's own strategy) for
//!   tables with many columns, where subset enumeration is infeasible.
//!
//! Both guarantee a perfect cover; the exact engine additionally finds very
//! small rule sets, matching the paper's compact results (3 rules for the
//! 18-row table of §3.1).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::{DecisionTable, TableRow};

/// Resource limits for the cover engines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverLimits {
    /// Use the exact prime-implicant engine up to this many columns.
    pub max_exact_cols: usize,
    /// Also require `positives · 2^cols · rows` below this before going
    /// exact — wide *and* tall tables would take minutes otherwise.
    pub max_exact_work: u64,
}

impl Default for CoverLimits {
    fn default() -> Self {
        CoverLimits {
            max_exact_cols: 16,
            max_exact_work: 200_000_000,
        }
    }
}

/// One rule over table columns: `∧ (column = value) ⇒ class`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableRule {
    /// Conditions, sorted by column, at most one per column.
    pub conditions: Vec<(usize, usize)>,
    /// Implied class.
    pub class: usize,
}

impl TableRule {
    /// True when the rule's conditions all hold on `values`.
    pub fn covers(&self, values: &[usize]) -> bool {
        self.conditions.iter().all(|&(c, v)| values[c] == v)
    }
}

/// Generates a perfect rule cover for `target` in `table`.
///
/// Guarantees: every row with `class == target` is covered by some returned
/// rule, and no returned rule covers a row of another class. Returns an
/// empty vector when the class has no rows.
pub fn perfect_rules(table: &DecisionTable, target: usize, limits: &CoverLimits) -> Vec<TableRule> {
    let positives: Vec<&TableRow> = table.rows.iter().filter(|r| r.class == target).collect();
    if positives.is_empty() {
        return Vec::new();
    }
    let negatives: Vec<&TableRow> = table.rows.iter().filter(|r| r.class != target).collect();
    if negatives.is_empty() {
        return vec![TableRule {
            conditions: Vec::new(),
            class: target,
        }];
    }
    let work = (positives.len() as u64)
        .saturating_mul(1u64 << table.n_cols().min(63))
        .saturating_mul(table.n_rows() as u64);
    let rules = if table.n_cols() <= limits.max_exact_cols && work <= limits.max_exact_work {
        exact_cover(table.n_cols(), &positives, &negatives, target)
    } else {
        greedy_cover(table.n_cols(), &positives, &negatives, target)
    };
    debug_assert!(is_perfect_cover(&rules, table, target));
    rules
}

/// Checks the perfect-cover property (used by tests and debug assertions).
pub fn is_perfect_cover(rules: &[TableRule], table: &DecisionTable, target: usize) -> bool {
    table.rows.iter().all(|row| {
        let covered = rules.iter().any(|r| r.covers(&row.values));
        if row.class == target {
            covered
        } else {
            !covered
        }
    })
}

/// Exact engine: prime implicants + greedy minimal cover.
fn exact_cover(
    n_cols: usize,
    positives: &[&TableRow],
    negatives: &[&TableRow],
    target: usize,
) -> Vec<TableRule> {
    // A conjunction is identified by the subset of columns it pins (to the
    // values of some positive row). Collect prime implicants: conjunctions
    // covering no negative whose every single-condition relaxation covers
    // one.
    let mut primes: BTreeSet<Vec<(usize, usize)>> = BTreeSet::new();
    for row in positives {
        for mask in 1u32..(1 << n_cols) {
            let conds: Vec<(usize, usize)> = (0..n_cols)
                .filter(|c| mask & (1 << c) != 0)
                .map(|c| (c, row.values[c]))
                .collect();
            if covers_no_negative(&conds, negatives) && is_prime(&conds, negatives) {
                primes.insert(conds);
            }
        }
    }

    // Greedy minimal cover over the positives.
    let mut uncovered: Vec<bool> = vec![true; positives.len()];
    let mut chosen: Vec<TableRule> = Vec::new();
    while uncovered.iter().any(|&u| u) {
        let best = primes
            .iter()
            .map(|conds| {
                let gain = positives
                    .iter()
                    .enumerate()
                    .filter(|(i, p)| uncovered[*i] && conds_cover(conds, &p.values))
                    .count();
                (gain, conds)
            })
            // Max coverage; ties -> fewest conditions, then lexicographic
            // (BTreeSet iteration order) for determinism.
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.len().cmp(&a.1.len())))
            .expect("primes cover every positive: each full positive row is consistent");
        assert!(best.0 > 0, "greedy cover stalled");
        let conds = best.1.clone();
        for (i, p) in positives.iter().enumerate() {
            if conds_cover(&conds, &p.values) {
                uncovered[i] = false;
            }
        }
        chosen.push(TableRule {
            conditions: conds,
            class: target,
        });
    }
    chosen
}

/// Greedy sequential covering (X2R-style) for wide tables.
fn greedy_cover(
    n_cols: usize,
    positives: &[&TableRow],
    negatives: &[&TableRow],
    target: usize,
) -> Vec<TableRule> {
    let mut uncovered: Vec<bool> = vec![true; positives.len()];
    let mut rules = Vec::new();
    while let Some(seed_idx) = uncovered.iter().position(|&u| u) {
        let seed = positives[seed_idx];
        // Grow a conjunction from the seed row until no negative is covered:
        // at each step add the seed literal that excludes the most remaining
        // negatives.
        let mut conds: Vec<(usize, usize)> = Vec::new();
        let mut remaining_neg: Vec<&TableRow> = negatives.to_vec();
        let mut available: Vec<usize> = (0..n_cols).collect();
        while !remaining_neg.is_empty() {
            let col = available
                .iter()
                .copied()
                .max_by_key(|&c| {
                    let excluded = remaining_neg
                        .iter()
                        .filter(|n| n.values[c] != seed.values[c])
                        .count();
                    (excluded, usize::MAX - c) // prefer earlier columns on ties
                })
                .expect("columns remain while negatives remain");
            conds.push((col, seed.values[col]));
            remaining_neg.retain(|n| n.values[col] == seed.values[col]);
            available.retain(|&c| c != col);
            if available.is_empty() && !remaining_neg.is_empty() {
                unreachable!("full seed row must be consistent: combinations are unique");
            }
        }
        // Prune redundant conditions (reverse order so early strong picks
        // get a chance to subsume later ones).
        let mut k = conds.len();
        while k > 0 {
            k -= 1;
            let mut trial = conds.clone();
            trial.remove(k);
            if covers_no_negative(&trial, negatives) {
                conds = trial;
            }
        }
        conds.sort_unstable();
        for (i, p) in positives.iter().enumerate() {
            if conds_cover(&conds, &p.values) {
                uncovered[i] = false;
            }
        }
        rules.push(TableRule {
            conditions: conds,
            class: target,
        });
    }
    // Dedup (different seeds can yield the same pruned rule).
    rules.sort();
    rules.dedup();
    rules
}

#[inline]
fn conds_cover(conds: &[(usize, usize)], values: &[usize]) -> bool {
    conds.iter().all(|&(c, v)| values[c] == v)
}

fn covers_no_negative(conds: &[(usize, usize)], negatives: &[&TableRow]) -> bool {
    negatives.iter().all(|n| !conds_cover(conds, &n.values))
}

/// Prime = dropping any one condition makes it cover a negative.
fn is_prime(conds: &[(usize, usize)], negatives: &[&TableRow]) -> bool {
    (0..conds.len()).all(|k| {
        let mut relaxed = conds.to_vec();
        relaxed.remove(k);
        !covers_no_negative(&relaxed, negatives)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_table() -> DecisionTable {
        let mut t = DecisionTable::new(vec![2, 2]);
        for a in 0..2 {
            for b in 0..2 {
                t.push(vec![a, b], usize::from(a == 1 && b == 1));
            }
        }
        t
    }

    #[test]
    fn and_function_single_rule() {
        let rules = perfect_rules(&and_table(), 1, &CoverLimits::default());
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].conditions, vec![(0, 1), (1, 1)]);
        assert!(is_perfect_cover(&rules, &and_table(), 1));
    }

    #[test]
    fn and_complement_two_rules() {
        let rules = perfect_rules(&and_table(), 0, &CoverLimits::default());
        // a=0 and b=0 each suffice; a minimal cover has 2 rules.
        assert_eq!(rules.len(), 2);
        assert!(is_perfect_cover(&rules, &and_table(), 0));
        for r in &rules {
            assert_eq!(r.conditions.len(), 1);
        }
    }

    #[test]
    fn empty_class_no_rules() {
        let rules = perfect_rules(&and_table(), 7, &CoverLimits::default());
        assert!(rules.is_empty());
    }

    #[test]
    fn uniform_table_gives_tautology() {
        let mut t = DecisionTable::new(vec![2]);
        t.push(vec![0], 3);
        t.push(vec![1], 3);
        let rules = perfect_rules(&t, 3, &CoverLimits::default());
        assert_eq!(rules.len(), 1);
        assert!(rules[0].conditions.is_empty());
    }

    /// The 18-row activation table of §3.1 (values index the paper's
    /// cluster values: α1 ∈ {−1,1,0}, α2 ∈ {1,0}, α3 ∈ {−1,1,0.24}).
    fn paper_table() -> DecisionTable {
        // class 0 = (C1=1,C2=0), class 1 = (C1=0,C2=1).
        let c1_rows = [
            vec![0usize, 0, 0], // (-1, 1, -1)   [0.92, 0.08]
            vec![0, 1, 0],      // (-1, 0, -1)   [1.00, 0.00]
            vec![0, 1, 2],      // (-1, 0, 0.24) [0.93, 0.07]
            vec![1, 1, 0],      // ( 1, 0, -1)   [0.89, 0.11]
            vec![2, 1, 0],      // ( 0, 0, -1)   [1.00, 0.00]
        ];
        let mut t = DecisionTable::new(vec![3, 2, 3]);
        for a1 in 0..3 {
            for a2 in 0..2 {
                for a3 in 0..3 {
                    let v = vec![a1, a2, a3];
                    let class = usize::from(!c1_rows.contains(&v));
                    t.push(v, class);
                }
            }
        }
        t
    }

    #[test]
    fn paper_example_three_rules() {
        // The paper's R11–R13 cover C1 with 3 rules; our minimal cover must
        // be exactly as compact.
        let t = paper_table();
        let rules = perfect_rules(&t, 0, &CoverLimits::default());
        assert!(is_perfect_cover(&rules, &t, 0));
        assert_eq!(rules.len(), 3, "{rules:?}");
        // R11 (α2=0, α3=−1) is the only 2-condition implicant covering three
        // rows; the greedy cover must pick it.
        assert!(
            rules.iter().any(|r| r.conditions == vec![(1, 1), (2, 0)]),
            "expected the paper's R11 among {rules:?}"
        );
    }

    #[test]
    fn greedy_matches_exact_on_paper_table() {
        let t = paper_table();
        let exact = perfect_rules(&t, 0, &CoverLimits::default());
        let greedy = perfect_rules(
            &t,
            0,
            &CoverLimits {
                max_exact_cols: 0,
                ..CoverLimits::default()
            },
        );
        assert!(is_perfect_cover(&greedy, &t, 0));
        // Greedy may produce a slightly different set but stays small.
        assert!(
            greedy.len() <= exact.len() + 1,
            "greedy {greedy:?} vs exact {exact:?}"
        );
    }

    #[test]
    fn greedy_on_wide_table() {
        // 20 binary columns: class = col0 AND col7. Exact would enumerate
        // 2^20 subsets; greedy must handle it.
        let mut t = DecisionTable::new(vec![2; 20]);
        for i in 0..200usize {
            let values: Vec<usize> = (0..20).map(|c| (i >> (c % 8)) & 1).collect();
            let class = usize::from(values[0] == 1 && values[7] == 1);
            t.push(values, class);
        }
        // Dedup rows (the generator above repeats combinations).
        t.rows.sort_by(|a, b| a.values.cmp(&b.values));
        t.rows.dedup();
        let rules = perfect_rules(&t, 1, &CoverLimits::default());
        assert!(is_perfect_cover(&rules, &t, 1), "{rules:?}");
    }

    #[test]
    fn rules_are_deterministic() {
        let t = paper_table();
        let a = perfect_rules(&t, 0, &CoverLimits::default());
        let b = perfect_rules(&t, 0, &CoverLimits::default());
        assert_eq!(a, b);
    }

    #[test]
    fn covers_checks_conditions() {
        let r = TableRule {
            conditions: vec![(0, 1), (2, 0)],
            class: 0,
        };
        assert!(r.covers(&[1, 9, 0]));
        assert!(!r.covers(&[0, 9, 0]));
        assert!(!r.covers(&[1, 9, 1]));
    }
}
