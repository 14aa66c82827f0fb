//! Monte-Carlo sample generation.
//!
//! The paper generates two independent random sampling sets (training
//! and testing) by drawing from the joint PDF of the post-PCA
//! variables — i.i.d. standard normals — and running the circuit
//! simulator at each point. These helpers do exactly that against any
//! [`PerformanceCircuit`].

use crate::PerformanceCircuit;
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;

/// A sampled data set: inputs `ΔY` (K × N) and metric outputs
/// (K × num_metrics).
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// Variation samples, one row per sample.
    pub inputs: Matrix,
    /// Metric values, one row per sample (columns follow
    /// [`PerformanceCircuit::metric_names`]).
    pub outputs: Matrix,
}

impl SampleSet {
    /// Number of samples `K`.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.rows() == 0
    }

    /// The response vector for one metric (a column of `outputs`).
    pub fn metric(&self, m: usize) -> Vec<f64> {
        self.outputs.col(m)
    }

    /// Restricts the set to the first `k` samples (cheap way to sweep
    /// training-set size over a single generated pool, as Fig. 4 does).
    ///
    /// # Panics
    ///
    /// Panics if `k > len()`.
    pub fn truncated(&self, k: usize) -> SampleSet {
        assert!(k <= self.len(), "cannot truncate {} to {k}", self.len());
        let idx: Vec<usize> = (0..k).collect();
        SampleSet {
            inputs: self.inputs.select_rows(&idx),
            outputs: self.outputs.select_rows(&idx),
        }
    }
}

/// Draws `k` samples of `circuit` with a seeded RNG.
///
/// Deterministic: the same `(circuit, k, seed)` always produces the
/// same set, so experiments are exactly reproducible.
pub fn sample<C: PerformanceCircuit + ?Sized>(circuit: &C, k: usize, seed: u64) -> SampleSet {
    let n = circuit.num_vars();
    let nm = circuit.num_metrics();
    let mut rng = NormalSampler::seed_from_u64(seed);
    let mut inputs = Matrix::zeros(k, n);
    let mut outputs = Matrix::zeros(k, nm);
    let mut dy = vec![0.0; n];
    for r in 0..k {
        rng.fill(&mut dy);
        inputs.row_mut(r).copy_from_slice(&dy);
        let m = circuit.evaluate(&dy);
        debug_assert_eq!(m.len(), nm);
        outputs.row_mut(r).copy_from_slice(&m);
    }
    SampleSet { inputs, outputs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial analytic circuit for the sampling tests.
    struct Toy;
    impl PerformanceCircuit for Toy {
        fn num_vars(&self) -> usize {
            3
        }
        fn metric_names(&self) -> &'static [&'static str] {
            &["sum", "prod"]
        }
        fn evaluate(&self, dy: &[f64]) -> Vec<f64> {
            vec![dy.iter().sum(), dy[0] * dy[1] + 2.0]
        }
    }

    #[test]
    fn shapes_and_determinism() {
        let a = sample(&Toy, 50, 7);
        let b = sample(&Toy, 50, 7);
        assert_eq!(a.inputs.shape(), (50, 3));
        assert_eq!(a.outputs.shape(), (50, 2));
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.outputs, b.outputs);
        let c = sample(&Toy, 50, 8);
        assert_ne!(a.inputs, c.inputs);
    }

    #[test]
    fn outputs_match_circuit() {
        let s = sample(&Toy, 10, 1);
        for r in 0..10 {
            let dy = s.inputs.row(r);
            assert!((s.outputs[(r, 0)] - dy.iter().sum::<f64>()).abs() < 1e-15);
            assert!((s.outputs[(r, 1)] - (dy[0] * dy[1] + 2.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn metric_extracts_column() {
        let s = sample(&Toy, 5, 2);
        let prod = s.metric(1);
        assert_eq!(prod.len(), 5);
        for (r, &v) in prod.iter().enumerate() {
            assert_eq!(v, s.outputs[(r, 1)]);
        }
    }

    #[test]
    fn truncation_preserves_prefix() {
        let s = sample(&Toy, 20, 3);
        let t = s.truncated(8);
        assert_eq!(t.len(), 8);
        for r in 0..8 {
            assert_eq!(t.inputs.row(r), s.inputs.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn over_truncation_panics() {
        let s = sample(&Toy, 4, 1);
        let _ = s.truncated(5);
    }
}
