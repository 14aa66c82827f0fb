//! Q-fold cross-validation splitting (Fig. 2 of the paper).
//!
//! A `Q`-fold split partitions the `K` sample indices into `Q` disjoint
//! groups. Run `q` holds out group `q` for error estimation and trains
//! on the remaining `Q−1` groups; the per-run errors are averaged into
//! the final error estimate `ε(λ)` used to pick the model order.
//!
//! [`EarlyStopRule`] / [`EarlyStopMonitor`] implement the flattening
//! test that cross-validation (`rsm_core::select::CvConfig::early_stop`)
//! applies to the fold-mean error curve `ε(λ)`: walked in increasing
//! `λ`, the curve is cut at the first observation where it has stopped
//! improving, and `λ*` is chosen from the kept prefix.

use crate::rng::NormalSampler;

/// A Q-fold partition of `0..n`.
///
/// # Example
///
/// ```
/// use rsm_stats::QFold;
/// let folds = QFold::new(8, 4).unwrap();
/// assert_eq!(folds.q(), 4);
/// let (train, test) = folds.split(0);
/// assert_eq!(train.len() + test.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct QFold {
    /// `assignment[i]` is the fold that sample `i` belongs to.
    assignment: Vec<usize>,
    q: usize,
}

impl QFold {
    /// Deterministic partition: sample `i` goes to fold `i % q`
    /// (round-robin, so folds differ in size by at most one).
    ///
    /// Returns `None` if `q < 2` or `q > n`.
    pub fn new(n: usize, q: usize) -> Option<Self> {
        if q < 2 || q > n {
            return None;
        }
        Some(QFold {
            assignment: (0..n).map(|i| i % q).collect(),
            q,
        })
    }

    /// Randomly shuffled partition (recommended when the sample order
    /// carries structure).
    ///
    /// Returns `None` if `q < 2` or `q > n`.
    pub fn shuffled(n: usize, q: usize, sampler: &mut NormalSampler) -> Option<Self> {
        let mut folds = Self::new(n, q)?;
        sampler.shuffle(&mut folds.assignment);
        Some(folds)
    }

    /// Number of folds.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` if the partition covers zero samples (never constructed
    /// by [`Self::new`], provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Train/test index lists for run `fold` (test = samples assigned
    /// to `fold`).
    ///
    /// # Panics
    ///
    /// Panics if `fold >= q`.
    pub fn split(&self, fold: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(fold < self.q, "fold {fold} out of range (q = {})", self.q);
        let mut train = Vec::with_capacity(self.len());
        let mut test = Vec::with_capacity(self.len() / self.q + 1);
        for (i, &a) in self.assignment.iter().enumerate() {
            if a == fold {
                test.push(i);
            } else {
                train.push(i);
            }
        }
        (train, test)
    }

    /// Iterates over all `(train, test)` splits.
    pub fn splits(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.q).map(move |f| self.split(f))
    }
}

/// When to stop walking the cross-validation error curve `ε(λ)`.
///
/// The curve is observed one `λ` at a time (in increasing order); the
/// walk stops once `patience` consecutive observations fail to improve
/// on the best error seen so far by at least a relative
/// `min_rel_improvement`. The decision depends only on the observed
/// error sequence — never on timing or worker count — so early-stopped
/// runs stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopRule {
    /// Number of consecutive non-improving observations tolerated
    /// before stopping.
    pub patience: usize,
    /// An observation counts as an improvement only if it is below
    /// `best · (1 − min_rel_improvement)`.
    pub min_rel_improvement: f64,
}

impl EarlyStopRule {
    /// Practical defaults: stop after 3 flat observations, requiring
    /// 0.1 % relative improvement to reset the counter.
    pub fn new() -> Self {
        EarlyStopRule {
            patience: 3,
            min_rel_improvement: 1e-3,
        }
    }

    /// Overrides the patience.
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = patience;
        self
    }

    /// Overrides the improvement threshold.
    pub fn with_min_rel_improvement(mut self, thresh: f64) -> Self {
        self.min_rel_improvement = thresh;
        self
    }
}

impl Default for EarlyStopRule {
    fn default() -> Self {
        Self::new()
    }
}

/// Stateful observer applying an [`EarlyStopRule`] to a sequence of
/// error observations.
#[derive(Debug, Clone)]
pub struct EarlyStopMonitor {
    rule: EarlyStopRule,
    best: f64,
    best_index: usize,
    observed: usize,
    since_best: usize,
}

impl EarlyStopMonitor {
    /// A fresh monitor; nothing observed yet.
    pub fn new(rule: EarlyStopRule) -> Self {
        EarlyStopMonitor {
            rule,
            best: f64::INFINITY,
            best_index: 0,
            observed: 0,
            since_best: 0,
        }
    }

    /// Feeds the next error observation; returns `true` when the walk
    /// should stop (the curve has been flat for `patience` steps).
    ///
    /// Non-finite observations never count as improvements.
    pub fn observe(&mut self, err: f64) -> bool {
        // Any finite error beats an infinite `best`, so the first
        // finite observation always resets the counter.
        let improved = err.is_finite() && err < self.best * (1.0 - self.rule.min_rel_improvement);
        if improved {
            self.best = err;
            self.best_index = self.observed;
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
        self.observed += 1;
        self.since_best >= self.rule.patience
    }

    /// Best (smallest finite) error observed so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// 0-based index of the best observation.
    pub fn best_index(&self) -> usize {
        self.best_index
    }

    /// Number of observations fed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(QFold::new(10, 1).is_none());
        assert!(QFold::new(3, 4).is_none());
        assert!(QFold::new(0, 2).is_none());
        assert!(QFold::new(4, 4).is_some());
    }

    #[test]
    fn folds_partition_everything_exactly_once() {
        let folds = QFold::new(103, 4).unwrap();
        let mut seen = BTreeSet::new();
        for (_, test) in folds.splits() {
            for i in test {
                assert!(seen.insert(i), "index {i} in two folds");
            }
        }
        assert_eq!(seen.len(), 103);
    }

    #[test]
    fn train_and_test_are_disjoint_and_complete() {
        let folds = QFold::new(20, 5).unwrap();
        for (train, test) in folds.splits() {
            let tr: BTreeSet<_> = train.iter().collect();
            assert!(test.iter().all(|i| !tr.contains(i)));
            assert_eq!(train.len() + test.len(), 20);
        }
    }

    #[test]
    fn fold_sizes_balanced() {
        let folds = QFold::new(10, 4).unwrap();
        let sizes: Vec<usize> = (0..4).map(|f| folds.split(f).1.len()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(mx - mn <= 1, "{sizes:?}");
    }

    #[test]
    fn four_fold_matches_paper_figure() {
        // Fig. 2: 4 groups, 4 runs, each run holds out exactly one group.
        let folds = QFold::new(400, 4).unwrap();
        assert_eq!(folds.q(), 4);
        for f in 0..4 {
            let (train, test) = folds.split(f);
            assert_eq!(test.len(), 100);
            assert_eq!(train.len(), 300);
        }
    }

    #[test]
    fn shuffled_is_still_a_partition() {
        let mut s = NormalSampler::seed_from_u64(11);
        let folds = QFold::shuffled(57, 3, &mut s).unwrap();
        let mut seen = BTreeSet::new();
        for (_, test) in folds.splits() {
            for i in test {
                assert!(seen.insert(i));
            }
        }
        assert_eq!(seen.len(), 57);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_out_of_range_panics() {
        let folds = QFold::new(10, 2).unwrap();
        let _ = folds.split(2);
    }

    #[test]
    fn early_stop_fires_after_patience_flat_steps() {
        let mut m = EarlyStopMonitor::new(EarlyStopRule::new().with_patience(2));
        assert!(!m.observe(1.0));
        assert!(!m.observe(0.5)); // improvement resets
        assert!(!m.observe(0.5001)); // flat 1
        assert!(m.observe(0.52)); // flat 2 → stop
        assert_eq!(m.best_index(), 1);
        assert!((m.best() - 0.5).abs() < 1e-12);
        assert_eq!(m.observed(), 4);
    }

    #[test]
    fn early_stop_requires_relative_improvement() {
        // A 0.01% improvement does not reset a 1%-threshold monitor.
        let rule = EarlyStopRule::new()
            .with_patience(1)
            .with_min_rel_improvement(0.01);
        let mut m = EarlyStopMonitor::new(rule);
        assert!(!m.observe(1.0));
        assert!(m.observe(0.9999));
    }

    #[test]
    fn early_stop_ignores_non_finite_errors() {
        let mut m = EarlyStopMonitor::new(EarlyStopRule::new().with_patience(3));
        assert!(!m.observe(f64::INFINITY));
        assert!(!m.observe(f64::NAN));
        assert!(!m.observe(0.7)); // first finite → best
        assert!((m.best() - 0.7).abs() < 1e-12);
        assert_eq!(m.best_index(), 2);
    }

    #[test]
    fn early_stop_never_fires_on_steady_improvement() {
        let mut m = EarlyStopMonitor::new(EarlyStopRule::new().with_patience(1));
        let mut err = 1.0;
        for _ in 0..50 {
            assert!(!m.observe(err));
            err *= 0.9;
        }
    }
}
