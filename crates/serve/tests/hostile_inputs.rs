//! Hostile-input suite: the serving engine's ingress contract.
//!
//! Malformed payloads (broken row-pointer monotonicity, out-of-range
//! column indices, length mismatches, non-finite values) must be
//! rejected with a typed [`LfError::InvalidInput`] **before** the
//! fingerprinter or the cache is touched: no cache entry, no hit/miss
//! counter movement, only the `rejected` ledger class — and never a
//! panic or a wrong answer. The malformed corpus is the same 12-class
//! rotation the kernel differential fuzzer draws from
//! (`lf_sparse::gen::fuzz_case`), so the two suites share one definition
//! of "hostile".

use lf_serve::{FixedCellPlanner, MatrixHandle, ServeConfig, ServeEngine};
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES, MALFORMED_CLASS};
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::LfError;

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn engine() -> ServeEngine<f64, FixedCellPlanner> {
    ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default())
}

/// Every malformed corpus case is rejected with a typed error and zero
/// cache-side effects — across enough seeds to hit all corruption
/// sub-modes.
#[test]
fn malformed_payloads_are_typed_rejections_with_no_cache_effects() {
    let e = engine();
    let mut rejected = 0u64;
    for k in 0..32u64 {
        let case = fuzz_case::<f64>(MALFORMED_CLASS + k * FUZZ_CLASSES);
        assert!(case.malformed);
        let b = DenseMatrix::<f64>::zeros(case.csr.cols(), case.j.max(1));
        let err = e
            .serve(&case.csr, &b)
            .expect_err(&format!("[{}] must be rejected", case.label));
        assert!(
            matches!(err, LfError::InvalidInput(_)),
            "[{}] wrong error class: {err}",
            case.label
        );
        assert!(err.is_rejection());
        rejected += 1;

        let s = e.stats();
        assert_eq!(s.rejected, rejected, "[{}]", case.label);
        assert_eq!(
            (s.hits, s.misses, s.degraded, s.failed),
            (0, 0, 0, 0),
            "[{}] hostile input moved a non-rejection counter",
            case.label
        );
        assert_eq!(
            s.cached_plans, 0,
            "[{}] hostile input was cached",
            case.label
        );
        assert_eq!(s.requests(), rejected, "[{}] ledger identity", case.label);
    }
}

/// The full fuzz rotation through the engine: well-formed cases serve
/// correctly, malformed cases reject typed — one process, no panics.
#[test]
fn fuzz_corpus_differential_serve_never_panics() {
    let e = engine();
    for seed in 0..4 * FUZZ_CLASSES {
        let case = fuzz_case::<f64>(seed);
        let mut rng = Pcg32::new(seed, 0x5E12);
        let b = DenseMatrix::random(case.csr.cols(), case.j.max(1), &mut rng);
        match e.serve(&case.csr, &b) {
            Ok(out) => {
                assert!(!case.malformed, "seed {seed} [{}] must reject", case.label);
                let want = case.csr.spmm_reference(&b).unwrap();
                assert_eq!(
                    bits(&out.result),
                    bits(&want),
                    "seed {seed} [{}]: served result diverges",
                    case.label
                );
            }
            Err(err) => {
                assert!(
                    case.malformed,
                    "seed {seed} [{}] rejected a valid payload: {err}",
                    case.label
                );
                assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
            }
        }
    }
    let s = e.stats();
    assert_eq!(
        s.requests(),
        s.hits + s.misses + s.rejected + s.degraded + s.failed
    );
    assert!(s.rejected >= 4, "the malformed class rotated through");
    assert_eq!((s.degraded, s.failed), (0, 0), "no faults were injected");
}

/// Handle registration applies the strict policy up front: a malformed
/// matrix never becomes a handle (so `serve_handle` can skip
/// re-validation), and a valid one round-trips.
#[test]
fn handle_registration_rejects_malformed_matrices() {
    for k in 0..8u64 {
        let case = fuzz_case::<f64>(MALFORMED_CLASS + k * FUZZ_CLASSES);
        let err = MatrixHandle::new(case.csr).expect_err(case.label);
        assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
    }
    let ok = fuzz_case::<f64>(0);
    assert!(!ok.malformed);
    MatrixHandle::new(ok.csr).expect("valid matrix must register");
}

/// The strict NaN policy is the handle's even when the engine is
/// lenient; raw payloads follow the engine's config.
#[test]
fn nan_policy_is_strict_for_handles_lenient_only_for_raw_serves() {
    let nan_matrix =
        || CsrMatrix::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 1], vec![f64::NAN, 1.0]);
    assert!(MatrixHandle::new(nan_matrix()).is_err());

    let lenient = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            reject_nonfinite: false,
            ..ServeConfig::default()
        },
    );
    let b = DenseMatrix::<f64>::zeros(2, 3);
    let out = lenient.serve(&nan_matrix(), &b).unwrap();
    assert!(out.result.get(0, 0).is_nan(), "NaN propagates IEEE-style");
}
