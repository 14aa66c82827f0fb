//! Sessions that were never fed a sample row. Stepping one finishes at
//! once (the zero response is fitted exactly by the zero model), and
//! asking a never-stepped session for its path returns a structured
//! `CoreError` — neither call panics.

use rsm_core::lar::LarConfig;
use rsm_core::lasso_cd::LassoCdConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::session::{
    FitSession, LarSession, LassoCdSession, MethodSession, OmpSession, StepOutcome,
};
use rsm_core::{CoreError, Method, SparsePath};
use rsm_linalg::Matrix;

/// Dictionary size of every session below.
const M: usize = 7;

/// The data an unfed session covers: zero rows of an `M`-atom source.
fn no_rows() -> Matrix {
    Matrix::zeros(0, M)
}

fn assert_unsolvable(r: Result<SparsePath, CoreError>) {
    match r {
        Err(CoreError::Unsolvable(_)) => {}
        other => panic!("expected CoreError::Unsolvable, got {other:?}"),
    }
}

fn assert_zero_path(path: &SparsePath) {
    assert_eq!(path.len(), 1);
    assert_eq!(path.final_model().num_nonzeros(), 0);
    assert_eq!(path.residual_norms(), &[0.0]);
}

#[test]
fn unfed_lar_session_finishes_at_once() {
    let g = no_rows();
    for cfg in [LarConfig::new(5), LarConfig::new(5).with_lasso()] {
        assert_unsolvable(LarSession::new(cfg.clone(), M).unwrap().into_path());

        let mut s = LarSession::new(cfg, M).unwrap();
        assert_eq!(s.step(&g, &[]).unwrap(), StepOutcome::Finished);
        assert_eq!(s.step(&g, &[]).unwrap(), StepOutcome::Finished);
        assert!(s.is_finished());
        assert_eq!(s.steps_taken(), 0);
        assert_eq!(s.rows_seen(), 0);
        assert_zero_path(&s.into_path().unwrap());
    }
}

#[test]
fn unfed_omp_session_finishes_at_once() {
    let g = no_rows();
    for cfg in [OmpConfig::new(5), OmpConfig::new(5).with_normalized_atoms()] {
        assert_unsolvable(OmpSession::new(cfg.clone(), M).unwrap().into_path());

        let mut s = OmpSession::new(cfg, M).unwrap();
        assert_eq!(s.step(&g, &[]).unwrap(), StepOutcome::Finished);
        assert_eq!(s.step(&g, &[]).unwrap(), StepOutcome::Finished);
        assert!(s.is_finished());
        assert!(s.selected().is_empty());
        assert_eq!(s.rows_seen(), 0);
        assert_zero_path(&s.into_path().unwrap());
    }
}

#[test]
fn unfed_lasso_cd_session_converges_to_the_zero_model() {
    let g = no_rows();
    let mut s = LassoCdSession::new(LassoCdConfig::new(0.1), M, None).unwrap();
    assert_eq!(s.step(&g, &[]).unwrap(), StepOutcome::Finished);
    assert!(s.is_converged());
    assert_eq!(s.sweeps_done(), 1);
    assert_eq!(s.model().num_nonzeros(), 0);
    s.run(&g, &[]).unwrap();
    assert_eq!(s.sweeps_done(), 1);
}

#[test]
fn unfed_method_session_finishes_at_once() {
    let g = no_rows();
    for method in [Method::Lar, Method::LarLasso, Method::Omp] {
        assert_unsolvable(MethodSession::new(method, 5, M).unwrap().path());

        let mut s = MethodSession::new(method, 5, M).unwrap();
        s.run_to(&g, &[], 5).unwrap();
        assert!(s.is_finished());
        assert_zero_path(&s.path().unwrap());
    }
}
