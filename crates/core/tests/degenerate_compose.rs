//! Degenerate-input regression suite for the composer pipeline.
//!
//! `LiteForm::compose` / `prepare` / `spmm` must accept zero-row,
//! zero-column, fully empty, and zero-width-`B` inputs without panicking:
//! each either returns a valid degenerate plan (empty output of the right
//! shape) or a documented dimension error — never an abort inside feature
//! extraction, model inference, width search, or CELL construction.

use lf_sparse::{CsrMatrix, DenseMatrix};
use liteform_core::{LiteForm, ModelBundle};

/// The checked-in pretrained bundle — the same models the benchmarks use,
/// loaded instead of retrained so this suite stays fast.
fn pipeline() -> LiteForm {
    ModelBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/liteform-models.json"
    ))
    .expect("checked-in model bundle must load")
    .into_liteform()
}

#[test]
fn compose_handles_zero_dimension_matrices() {
    let lf = pipeline();
    for (rows, cols) in [(0usize, 0usize), (0, 7), (7, 0), (25, 25)] {
        let csr = CsrMatrix::<f32>::empty(rows, cols);
        for j in [0usize, 1, 32] {
            let plan = lf.compose(&csr, j);
            let prepared = plan.into_prepared(&csr, j);
            assert_eq!(prepared.shape(), (rows, cols), "{rows}x{cols} J={j}");
            let b = DenseMatrix::zeros(cols, j);
            let c = prepared.run(&b).unwrap();
            assert_eq!(c.shape(), (rows, j), "{rows}x{cols} J={j}");
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
        }
    }
}

#[test]
fn spmm_on_degenerate_inputs_returns_empty_results() {
    let lf = pipeline();
    for (rows, cols) in [(0usize, 0usize), (0, 7), (7, 0)] {
        let csr = CsrMatrix::<f32>::empty(rows, cols);
        let b = DenseMatrix::zeros(cols, 4);
        let (c, _profile, preprocess) = lf.spmm(&csr, &b).unwrap();
        assert_eq!(c.shape(), (rows, 4), "{rows}x{cols}");
        assert!(preprocess.total().wall_s >= 0.0);
    }
}

#[test]
fn mismatched_b_is_an_error_not_a_panic() {
    let lf = pipeline();
    let csr = CsrMatrix::<f32>::empty(8, 6);
    let b = DenseMatrix::zeros(5, 4); // b.rows() != csr.cols()
    let prepared = lf.prepare(&csr, 4);
    assert!(prepared.run(&b).is_err());
}

#[test]
fn zero_width_b_round_trips_through_every_plan_kind() {
    let lf = pipeline();
    let csr = CsrMatrix::<f32>::empty(12, 12);
    let b = DenseMatrix::zeros(12, 0);
    let (c, _profile, _preprocess) = lf.spmm(&csr, &b).unwrap();
    assert_eq!(c.shape(), (12, 0));
}
