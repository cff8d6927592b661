//! Allocation discipline for the numeric hot paths.
//!
//! The execution engine's contract (PR 2) is that a kernel's inner loops
//! are allocation-free: per `run` call a kernel may allocate its output
//! buffer, its per-worker scratch, and bounded bookkeeping (work-item
//! lists), but never O(rows) or O(nnz) allocations. This test pins that
//! down with the real counting global allocator (`lf_sim::alloc`): the
//! per-run allocation *call* count must stay under a small constant
//! bound, and must not grow with the operand (a ~40× larger matrix gets
//! only a logarithmic work-item-list slack).
//!
//! Release builds only: in debug builds the shadow race detector
//! legitimately allocates per claimed range, which is exactly the
//! debug/release split the detector is designed around.

#![cfg(not(debug_assertions))]

use lf_cell::{build_cell, CellConfig};
use lf_kernels::cell::CellKernel;
use lf_kernels::{
    BcsrKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel, SellKernel,
    SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule,
};
use lf_sim::alloc::{since, snapshot};
use lf_sim::parallel::default_workers;
use lf_sparse::gen::uniform_random;
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};

fn all_kernels(csr: &CsrMatrix<f64>) -> Vec<Box<dyn SpmmKernel<f64>>> {
    vec![
        Box::new(CsrScalarKernel::new(csr.clone())),
        Box::new(CsrVectorKernel::new(csr.clone())),
        Box::new(DgSparseKernel::new(csr.clone())),
        Box::new(SputnikKernel::new(csr.clone())),
        Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default())),
        Box::new(EllKernel::new(EllMatrix::from_csr(csr))),
        Box::new(SellKernel::new(SellMatrix::from_csr(csr, 16).unwrap())),
        Box::new(BcsrKernel::new(BcsrMatrix::from_csr(csr, 4, 4).unwrap())),
        Box::new(CellKernel::new(
            build_cell(csr, &CellConfig::with_partitions(3)).unwrap(),
        )),
        Box::new(CellKernel::new(
            build_cell(csr, &CellConfig::default().with_max_widths(vec![8])).unwrap(),
        )),
    ]
}

/// Allocation calls for one warmed `run`.
fn measured_run(k: &dyn SpmmKernel<f64>, b: &DenseMatrix<f64>) -> u64 {
    // Warm runs: spawn the global pool, fault in lazy statics.
    for _ in 0..2 {
        k.run(b).unwrap();
    }
    let before = snapshot();
    let c = k.run(b).unwrap();
    let delta = since(before);
    std::hint::black_box(&c);
    delta.calls
}

/// The serve hot path resolves an execution tile per request via
/// `lf_cost::plan_tile`. The first lookup per (matrix-family, J) key
/// pays the candidate-grid search; every subsequent lookup is a cache
/// hit and must allocate **nothing** — the whole point of memoizing the
/// winners is that a warmed serving loop stays alloc-free.
#[test]
fn tile_plan_cache_hit_is_alloc_free() {
    use lf_cost::tile::TileFeatures;
    let f = TileFeatures::new(512, 60_000, 8);
    // Warm: the miss runs the search and inserts (also faults in the
    // one-time calibration measurement).
    let first = lf_cost::plan_tile(f, 32);
    let before = snapshot();
    let again = lf_cost::plan_tile(f, 32);
    // A different matrix in the same quantized family hits the same key.
    let sibling = lf_cost::plan_tile(TileFeatures::new(530, 62_000, 8), 32);
    let delta = since(before);
    std::hint::black_box((again, sibling));
    assert_eq!(first, again);
    assert_eq!(first, sibling);
    assert_eq!(
        delta.calls, 0,
        "warmed tile-plan lookups must not allocate ({} calls)",
        delta.calls
    );
}

/// Every kernel `run` and every tile-cost prediction asks for the
/// worker count; once warmed, asking must cost no allocation (the OS
/// query behind it reads cgroup files and allocates on each call).
/// The counters are process-wide and sibling tests allocate
/// concurrently, so the fewest calls over a few tries is the reading:
/// an allocating query allocates on every try.
#[test]
fn warmed_default_workers_is_alloc_free() {
    let first = default_workers();
    let calls = (0..8)
        .map(|_| {
            let before = snapshot();
            let again = default_workers();
            let delta = since(before);
            assert_eq!(first, again);
            delta.calls
        })
        .min()
        .unwrap_or(0);
    assert_eq!(
        calls, 0,
        "a warmed default_workers() must not allocate ({calls} calls)"
    );
}

#[test]
fn kernel_runs_allocate_a_bounded_constant() {
    let mut rng = Pcg32::seed_from_u64(7);
    let small = CsrMatrix::from_coo(&uniform_random::<f64>(64, 64, 1500, &mut rng));
    let big = CsrMatrix::from_coo(&uniform_random::<f64>(512, 512, 60_000, &mut rng));
    let j = 32;
    let b_small = DenseMatrix::random(small.cols(), j, &mut rng);
    let b_big = DenseMatrix::random(big.cols(), j, &mut rng);

    // Output buffer + per-worker scratch + job bookkeeping + work-item
    // list growth. Deliberately generous in absolute terms — the bug
    // being guarded against is per-row/per-nnz allocation, which shows
    // up in the thousands.
    let budget = 192 + 16 * default_workers() as u64;

    for (ks, kb) in all_kernels(&small).iter().zip(all_kernels(&big).iter()) {
        let calls_small = measured_run(ks.as_ref(), &b_small);
        let calls_big = measured_run(kb.as_ref(), &b_big);
        assert!(
            calls_small <= budget,
            "{}: {calls_small} allocation calls on the small operand (budget {budget})",
            ks.name()
        );
        assert!(
            calls_big <= budget,
            "{}: {calls_big} allocation calls on the big operand (budget {budget})",
            kb.name()
        );
        // Scale independence: 40× the nnz must not buy more than
        // work-item-list growth (logarithmic) worth of extra calls.
        assert!(
            calls_big <= calls_small + 48,
            "{}: allocation calls grew with the operand ({calls_small} -> {calls_big})",
            kb.name()
        );
    }
}
