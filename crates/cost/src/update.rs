//! Churn crossover: incremental CELL maintenance vs. full rebuild.
//!
//! `lf_cell::update_cell` re-buckets only the touched rows, but every
//! bucket holding a touched row is rewritten wholesale — so as churn
//! grows, the incremental path degenerates into a serial copy of most
//! of the matrix while [`build_cell`](lf_cell::build_cell) amortizes
//! its sweep across the worker pool. Somewhere in between sits a
//! crossover; this module predicts it from the machine's measured
//! [`calibration`] constants plus one measured per-nonzero CELL build
//! cost, and memoizes the resulting *churn threshold* (touched-row
//! count above which rebuilding is predicted cheaper) per matrix
//! family — the same probe-once-then-cache discipline as
//! [`plan_tile`](crate::tile::plan_tile).
//!
//! Like every `lf-cost` prediction, the numbers only *rank* the two
//! strategies; correctness never depends on them (both paths produce
//! bitwise-identical CELLs).

use crate::tile::TileFeatures;
use lf_cell::build::workers_for;
use lf_cell::{build_cell, CellConfig};
use lf_sim::calibration;
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, Pcg32};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static CACHE: Mutex<Option<HashMap<TileFeatures, usize>>> = Mutex::new(None);
static HITS: AtomicUsize = AtomicUsize::new(0);
static MISSES: AtomicUsize = AtomicUsize::new(0);

/// `(hits, misses)` of the process-wide churn-threshold cache.
pub fn churn_cache_stats() -> (usize, usize) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Representative row count for a quantized family.
fn rows_of(f: TileFeatures) -> usize {
    1usize << f.rows_log2
}

/// Representative non-zero count for a quantized family.
fn nnz_of(f: TileFeatures) -> f64 {
    (rows_of(f) << f.avg_nnz_log2) as f64
}

/// Estimated distinct bucket count across the matrix: one bucket per
/// populated power-of-two width, which tracks `log2` of the typical
/// row length plus the tail widths around it.
fn buckets_of(f: TileFeatures) -> f64 {
    (f.avg_nnz_log2 + 2) as f64
}

/// Measured nanoseconds per non-zero of a single-threaded
/// [`build_cell`]: best of five builds of a fixed probe small enough
/// that the builder runs on the calling thread. Timed once per process.
/// Building is far more than copying — segment split, width binning,
/// fragment bookkeeping, padded block layout — so a model in copy
/// units undercounts it by an order of magnitude.
fn build_ns_per_nnz() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut rng = Pcg32::seed_from_u64(0xB11D);
        let csr: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(512, 512, 6000, 4, &mut rng));
        let config = CellConfig::with_partitions(4);
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            drop(build_cell(&csr, &config));
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        (best / csr.nnz().max(1) as f64).clamp(0.5, 1e3)
    })
}

/// Predicted nanoseconds for a from-scratch `build_cell`: every
/// non-zero at the measured build cost, split across the workers the
/// builder uses for this size (one below its parallel cutoff), plus
/// one region dispatch.
pub fn predict_rebuild_ns(f: TileFeatures) -> f64 {
    let nnz = nnz_of(f);
    let work = nnz * build_ns_per_nnz();
    calibration().pool_dispatch_ns + work / workers_for(nnz as usize) as f64
}

/// Predicted nanoseconds for `update_cell` with `touched` distinct
/// touched rows: each touched row re-materializes its fragments
/// serially, at the builder's per-non-zero cost, and the untouched
/// slots of every affected bucket (at most two per touched row — the
/// width it left and the width it joined — capped by the bucket count)
/// are moved, slot by slot.
pub fn predict_update_ns(f: TileFeatures, touched: usize) -> f64 {
    let cal = calibration();
    let rows = rows_of(f).max(1) as f64;
    let touched = (touched as f64).min(rows);
    let avg_len = (1usize << f.avg_nnz_log2) as f64;
    let rematerialize = touched * avg_len * build_ns_per_nnz();
    let buckets = buckets_of(f);
    let affected = (2.0 * touched).min(buckets) / buckets;
    let untouched = 1.0 - touched / rows;
    let splice = affected * untouched * nnz_of(f) * 2.0 * cal.copy_ns;
    rematerialize + splice
}

/// The predicted crossover (uncached): the smallest touched-row count
/// at which a rebuild is no slower than incremental maintenance,
/// clamped to `[1, rows]`. A threshold equal to the row count means
/// the family always favors the incremental path.
pub fn search_churn_threshold(f: TileFeatures) -> usize {
    let rows = rows_of(f).max(1);
    let rebuild = predict_rebuild_ns(f);
    // `predict_update_ns` is non-decreasing in `touched`, so binary
    // search for the first count the rebuild beats.
    let (mut lo, mut hi) = (1usize, rows);
    if predict_update_ns(f, rows) < rebuild {
        return rows;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if predict_update_ns(f, mid) >= rebuild {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The memoized churn threshold for a matrix family: touched-row
/// counts **at or above** this favor a full rebuild. Cache hits take a
/// mutex and a hash lookup — safe on the serving mutation path.
pub fn churn_threshold(f: TileFeatures) -> usize {
    let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(&t) = cache.get(&f) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return t;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let t = search_churn_threshold(f);
    cache.insert(f, t);
    t
}

/// `true` when a batch touching `touched` distinct rows of a `f`-family
/// matrix should fall back to a full rebuild.
pub fn should_rebuild(f: TileFeatures, touched: usize) -> bool {
    touched >= churn_threshold(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_gate;

    #[test]
    fn update_cost_is_monotone_in_touched_rows() {
        let f = TileFeatures::new(1 << 14, 1 << 18, 8);
        let mut last = 0.0;
        for t in [1, 4, 16, 64, 256, 1024] {
            let ns = predict_update_ns(f, t);
            assert!(ns >= last, "touched {t}: {ns} < {last}");
            last = ns;
        }
    }

    #[test]
    fn threshold_splits_the_strategies() {
        let f = TileFeatures::new(1 << 14, 1 << 18, 8);
        let t = search_churn_threshold(f);
        assert!((1..=1 << 14).contains(&t));
        let rebuild = predict_rebuild_ns(f);
        if t > 1 {
            assert!(predict_update_ns(f, t - 1) < rebuild);
        }
        if t < 1 << 14 {
            assert!(predict_update_ns(f, t) >= rebuild);
        }
    }

    #[test]
    fn tiny_matrices_never_rebuild() {
        // Below the builder's parallel cutoff a rebuild runs on one
        // thread and pays the pool dispatch; rewriting even every row
        // costs no more than the build itself, so the threshold must
        // land at the row count (incremental always wins).
        let f = TileFeatures::new(256, 4096, 8);
        assert_eq!(search_churn_threshold(f), 256);
        let _gate = cache_gate();
        assert!(!should_rebuild(f, 255));
    }

    #[test]
    fn heavy_churn_on_large_matrices_rebuilds() {
        let f = TileFeatures::new(1 << 20, 1 << 24, 8);
        let _gate = cache_gate();
        assert!(should_rebuild(f, 1 << 20), "full-matrix churn must rebuild");
    }

    #[test]
    fn cache_hits_after_first_search() {
        let f = TileFeatures::new(1 << 13, 1 << 16, 4);
        let _gate = cache_gate();
        let first = churn_threshold(f);
        let (_, m0) = churn_cache_stats();
        let second = churn_threshold(f);
        let (h1, m1) = churn_cache_stats();
        assert_eq!(first, second);
        assert_eq!(m1, m0, "second lookup must not re-search");
        assert!(h1 >= 1);
    }
}
