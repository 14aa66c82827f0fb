//! Q-fold cross-validation splitting (Fig. 2 of the paper).
//!
//! A `Q`-fold split partitions the `K` sample indices into `Q` disjoint
//! groups. Run `q` holds out group `q` for error estimation and trains
//! on the remaining `Q−1` groups; the per-run errors are averaged into
//! the final error estimate `ε(λ)` used to pick the model order.

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
    n: usize,
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
        Some(QFold { n, q })
    }

    /// Number of folds.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the partition covers zero samples (never constructed
    /// by [`Self::new`], provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Train/test index lists for run `fold` (test = samples assigned
    /// to `fold`).
    ///
    /// # Panics
    ///
    /// Panics if `fold >= q`.
    pub fn split(&self, fold: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(fold < self.q, "fold {fold} out of range (q = {})", self.q);
        (0..self.n).partition(|&i| i % self.q != fold)
    }

    /// Iterates over all `(train, test)` splits.
    pub fn splits(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.q).map(move |f| self.split(f))
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
    #[should_panic(expected = "out of range")]
    fn split_out_of_range_panics() {
        let folds = QFold::new(10, 2).unwrap();
        let _ = folds.split(2);
    }
}
