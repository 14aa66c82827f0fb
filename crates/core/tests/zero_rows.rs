//! Fits over a source with zero sample rows. The empty response is
//! fitted exactly by the zero model, so every path-producing fit
//! returns the one-step zero path; cross-validation cannot cut folds
//! from zero rows and says so with a structured `CoreError`. Nothing
//! panics.

use rsm_core::lar::LarConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::select::CvConfig;
use rsm_core::{solver, CoreError, Method, ModelOrder, SparsePath};
use rsm_linalg::Matrix;

/// Dictionary size of every source below.
const M: usize = 7;

/// Zero rows of an `M`-atom source.
fn no_rows() -> Matrix {
    Matrix::zeros(0, M)
}

fn assert_zero_path(path: &SparsePath) {
    assert_eq!(path.len(), 1);
    assert_eq!(path.final_model().num_nonzeros(), 0);
    assert_eq!(path.residual_norms(), &[0.0]);
}

#[test]
fn zero_row_lar_and_omp_fits_give_the_zero_path() {
    let g = no_rows();
    for path in [
        LarConfig::new(5).fit(&g, &[]),
        LarConfig::new(5).with_lasso().fit(&g, &[]),
        OmpConfig::new(5).fit(&g, &[]),
        OmpConfig::new(5).with_normalized_atoms().fit(&g, &[]),
    ] {
        assert_zero_path(&path.unwrap());
    }
}

#[test]
fn zero_row_fits_give_the_zero_model_or_a_structured_error() {
    let g = no_rows();
    let cv = ModelOrder::CrossValidated(CvConfig::new(5));
    for method in [Method::Star, Method::Lar, Method::LarLasso, Method::Omp] {
        assert_zero_path(&solver::fit_path(method, &g, &[], 5).unwrap());
        let rep = solver::fit(&g, &[], method, &ModelOrder::Fixed(5)).unwrap();
        assert_eq!(rep.model.num_nonzeros(), 0, "{method:?}");
        assert!(
            matches!(
                solver::fit(&g, &[], method, &cv),
                Err(CoreError::BadConfig(_))
            ),
            "{method:?}: four folds from zero rows"
        );
    }
    assert!(matches!(
        solver::fit(&g, &[], Method::Ls, &ModelOrder::Fixed(5)),
        Err(CoreError::Unsolvable(_))
    ));
}
