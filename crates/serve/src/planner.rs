//! Plan sources for the serving engine.
//!
//! The engine is agnostic to *how* a plan is produced: the trained
//! LiteForm pipeline is the production planner, and
//! [`FixedCellPlanner`] composes a hand-picked configuration — used by
//! benchmarks and tests that need a specific partition count without
//! training models first. What happens when a composition fails — the
//! degradation ladder of DESIGN.md §10 — is the engine's business, not
//! the planner's.

use lf_cell::span::effective_partitions;
use lf_sim::atomicf::AtomicScalar;
use lf_sparse::CsrMatrix;
use liteform_core::{compose_cell, LfResult, LiteForm, PreparedPlan, PreprocessProfile};

/// Produces an executable composition for a matrix and dense width `j`.
///
/// Implementations must be thread-safe: the engine calls `prepare`
/// concurrently from every serving thread that misses the cache.
pub trait Planner<T: AtomicScalar>: Send + Sync {
    /// Build the full plan (the cold path a cache hit amortizes away).
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>>;
}

impl<T: AtomicScalar> Planner<T> for LiteForm {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        Ok(LiteForm::prepare(self, csr, j))
    }
}

/// Compose CELL with a fixed partition count (clamped to the column
/// count) and the Algorithm-3 width search.
///
/// This is the "autotuner pinned one config" planner: no trained models,
/// but the same width search and construction cost a cold LiteForm
/// compose pays, so cache-hit speedups measured against it are honest.
#[derive(Debug, Clone)]
pub struct FixedCellPlanner {
    /// Requested column partition count.
    pub partitions: usize,
}

impl FixedCellPlanner {
    /// Planner with `partitions` partitions and tuned widths.
    pub fn tuned(partitions: usize) -> Self {
        FixedCellPlanner { partitions }
    }
}

impl<T: AtomicScalar> Planner<T> for FixedCellPlanner {
    fn prepare(&self, csr: &CsrMatrix<T>, j: usize) -> LfResult<PreparedPlan<T>> {
        let mut profile = PreprocessProfile::default();
        // Clamp up front: `p > cols` would otherwise desync the width
        // vector length from the config's partition count.
        let p = effective_partitions(csr.cols(), self.partitions);
        let (config, cell) = compose_cell(csr, p, j, &mut profile);
        Ok(PreparedPlan::from_cell(config, cell, profile).with_tuned_j(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::{DenseMatrix, Pcg32};

    fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fixed_planner_is_correct_and_instrumented() {
        let mut rng = Pcg32::seed_from_u64(31);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(200, 200, 4000, 4, &mut rng));
        let b = DenseMatrix::random(200, 16, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        let plan = Planner::prepare(&FixedCellPlanner::tuned(4), &csr, 16).unwrap();
        assert!(plan.uses_cell());
        assert_eq!(plan.cell_config().unwrap().num_partitions, 4);
        assert_eq!(plan.tuned_j, 16);
        assert!(plan.profile.build.alloc_bytes > 0);
        assert_eq!(bits(&plan.run(&b).unwrap()), bits(&want));
    }

    #[test]
    fn fixed_planner_clamps_excess_partitions() {
        let mut rng = Pcg32::seed_from_u64(32);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(40, 10, 120, 2, &mut rng));
        let plan = Planner::prepare(&FixedCellPlanner::tuned(64), &csr, 8).unwrap();
        assert_eq!(plan.cell_config().unwrap().num_partitions, 10);
        let b = DenseMatrix::random(10, 8, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        assert_eq!(bits(&plan.run(&b).unwrap()), bits(&want));
    }
}
