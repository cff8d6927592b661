//! Output and ledger checks.

use crate::inputs::T;
use lf_serve::{ServeOutcome, ServeStats};
use lf_sparse::{CsrMatrix, DenseMatrix};
use liteform_core::LfResult;

/// Allowed error of a served element against `CsrMatrix::spmm_reference`:
/// `|c_ij - ref_ij| <= TOLERANCE * sum_k |a_ik| * max|B| + ABS_FLOOR`.
/// Kernels may sum in any order (atomics, folded rows), so the bound
/// scales with the row's absolute mass rather than with `|ref_ij|`.
pub const TOLERANCE: f64 = 1e-4;
const ABS_FLOOR: f64 = 1e-6;

/// Whether `c` equals `a · b` within [`TOLERANCE`].
pub fn output_ok(a: &CsrMatrix<T>, b: &DenseMatrix<T>, c: &DenseMatrix<T>) -> bool {
    let Ok(reference) = a.spmm_reference(b) else {
        return false;
    };
    if c.shape() != reference.shape() {
        return false;
    }
    let b_max = b
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &x| m.max((x as f64).abs()));
    (0..a.rows()).all(|i| {
        let mass: f64 = a.row_values(i).iter().map(|&v| (v as f64).abs()).sum();
        let bound = TOLERANCE * mass * b_max + ABS_FLOOR;
        c.row(i)
            .iter()
            .zip(reference.row(i))
            .all(|(&x, &y)| ((x as f64) - (y as f64)).abs() <= bound)
    })
}

/// Client-side outcome tally, mirroring the engine's five disjoint
/// ledger classes, plus the output checks made.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub hits: u64,
    pub misses: u64,
    pub rejected: u64,
    pub degraded: u64,
    pub failed: u64,
    /// Outputs compared against the reference.
    pub checked: u64,
    /// Outputs that failed the comparison.
    pub wrong: u64,
}

impl Tally {
    /// Classify one `serve`/`serve_handle` result the way the engine does.
    pub fn record(&mut self, r: &LfResult<ServeOutcome<T>>) {
        match r {
            Ok(o) if o.degraded => self.degraded += 1,
            Ok(o) if o.hit => self.hits += 1,
            Ok(_) => self.misses += 1,
            Err(e) if e.is_rejection() => self.rejected += 1,
            Err(_) => self.failed += 1,
        }
    }

    /// Record one output comparison.
    pub fn checked(&mut self, ok: bool) {
        self.checked += 1;
        if !ok {
            self.wrong += 1;
        }
    }

    /// Requests tallied.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.rejected + self.degraded + self.failed
    }

    /// Calls that returned `Err`.
    pub fn errors(&self) -> u64 {
        self.rejected + self.failed
    }

    /// Whether the engine's ledger equals this tally class by class.
    pub fn matches(&self, s: &ServeStats) -> bool {
        s.requests() == self.requests()
            && s.hits == self.hits
            && s.misses == self.misses
            && s.rejected == self.rejected
            && s.degraded == self.degraded
            && s.failed == self.failed
    }
}
