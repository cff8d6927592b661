//! Lock-free atomic floating-point accumulation buffers.
//!
//! The CELL kernel's folded rows and multi-partition updates translate to
//! `atomicAdd` on the GPU (Algorithm 2, line 12). The numeric CPU path
//! mirrors that with compare-exchange loops over bit-cast floats, so the
//! parallel execution is race-free for exactly the same updates the GPU
//! would serialize.

use lf_sparse::Scalar;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A scalar that supports lock-free atomic accumulation through a bit-cast
/// atomic integer cell. Lets SpMM kernels stay generic over `f32`/`f64`
/// while mirroring GPU `atomicAdd` semantics on the CPU.
pub trait AtomicScalar: Scalar {
    /// The atomic integer type holding this scalar's bits.
    type Cell: Sync;

    /// Reinterpret an exclusively borrowed scalar slice as atomic cells.
    fn as_cells(data: &mut [Self]) -> &[Self::Cell];

    /// Atomic `cell += v` (CAS loop).
    fn atomic_add(cell: &Self::Cell, v: Self);

    /// Plain (relaxed) `cell = v` — the single-writer fast path. On
    /// mainstream ISAs a relaxed atomic store compiles to an ordinary
    /// store, so output elements with exactly one writer (TACO's
    /// segment-interior rows) skip the CAS loop entirely.
    fn store_cell(cell: &Self::Cell, v: Self);

    /// Read a cell (safe once writers have joined).
    fn load_cell(cell: &Self::Cell) -> Self;
}

impl AtomicScalar for f64 {
    type Cell = AtomicU64;

    fn as_cells(data: &mut [Self]) -> &[AtomicU64] {
        let ptr = data.as_mut_ptr() as *const AtomicU64;
        // SAFETY: exclusive borrow for the output lifetime; AtomicU64 is
        // layout-compatible with u64/f64 bits; all access is atomic.
        unsafe { std::slice::from_raw_parts(ptr, data.len()) }
    }

    #[inline]
    fn atomic_add(cell: &AtomicU64, v: f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    fn store_cell(cell: &AtomicU64, v: f64) {
        cell.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn load_cell(cell: &AtomicU64) -> f64 {
        f64::from_bits(cell.load(Ordering::Relaxed))
    }
}

impl AtomicScalar for f32 {
    type Cell = AtomicU32;

    fn as_cells(data: &mut [Self]) -> &[AtomicU32] {
        let ptr = data.as_mut_ptr() as *const AtomicU32;
        // SAFETY: as for f64.
        unsafe { std::slice::from_raw_parts(ptr, data.len()) }
    }

    #[inline]
    fn atomic_add(cell: &AtomicU32, v: f32) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    fn store_cell(cell: &AtomicU32, v: f32) {
        cell.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn load_cell(cell: &AtomicU32) -> f32 {
        f32::from_bits(cell.load(Ordering::Relaxed))
    }
}

/// A `&mut [f64]` exposed as atomically updatable cells.
pub struct AtomicF64Slice<'a> {
    cells: &'a [AtomicU64],
}

impl<'a> AtomicF64Slice<'a> {
    /// Wrap a mutable slice. The wrapper owns exclusive access for its
    /// lifetime, so the transmute to atomic cells is sound (same layout,
    /// `AtomicU64` has the same size/alignment as `u64`/`f64`).
    pub fn new(data: &'a mut [f64]) -> Self {
        let ptr = data.as_mut_ptr() as *const AtomicU64;
        // SAFETY: we hold the unique &mut borrow for 'a; AtomicU64 is
        // layout-compatible with u64 which is layout-compatible with f64
        // bits. All access goes through atomic ops.
        let cells = unsafe { std::slice::from_raw_parts(ptr, data.len()) };
        AtomicF64Slice { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic `cells[i] += v` via CAS loop.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Non-atomic read (valid once parallel writers have joined).
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Relaxed))
    }
}

/// A `&mut [f32]` exposed as atomically updatable cells.
pub struct AtomicF32Slice<'a> {
    cells: &'a [AtomicU32],
}

impl<'a> AtomicF32Slice<'a> {
    /// Wrap a mutable slice (see [`AtomicF64Slice::new`] for safety).
    pub fn new(data: &'a mut [f32]) -> Self {
        let ptr = data.as_mut_ptr() as *const AtomicU32;
        // SAFETY: as for AtomicF64Slice.
        let cells = unsafe { std::slice::from_raw_parts(ptr, data.len()) };
        AtomicF32Slice { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomic `cells[i] += v` via CAS loop.
    #[inline]
    pub fn add(&self, i: usize, v: f32) {
        let cell = &self.cells[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Non-atomic read (valid once parallel writers have joined).
    #[inline]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.cells[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::parallel_for;

    #[test]
    fn single_threaded_adds() {
        let mut data = vec![0.0f64; 4];
        {
            let a = AtomicF64Slice::new(&mut data);
            a.add(0, 1.5);
            a.add(0, 2.5);
            a.add(3, -1.0);
            assert_eq!(a.load(0), 4.0);
            assert_eq!(a.len(), 4);
        }
        assert_eq!(data, vec![4.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let mut data = vec![0.0f64; 8];
        {
            let a = AtomicF64Slice::new(&mut data);
            // 64 tasks × 100 adds of 1.0 across 8 cells.
            parallel_for(64, 8, |task| {
                for k in 0..100 {
                    a.add((task + k) % 8, 1.0);
                }
            });
        }
        let total: f64 = data.iter().sum();
        assert_eq!(total, 6400.0);
    }

    #[test]
    fn f32_concurrent_adds() {
        let mut data = vec![0.0f32; 4];
        {
            let a = AtomicF32Slice::new(&mut data);
            parallel_for(32, 4, |_| {
                for _ in 0..50 {
                    a.add(2, 1.0);
                }
            });
        }
        assert_eq!(data[2], 1600.0);
        assert_eq!(data[0], 0.0);
    }

    #[test]
    fn empty_slice() {
        let mut data: Vec<f64> = vec![];
        let a = AtomicF64Slice::new(&mut data);
        assert!(a.is_empty());
    }
}

#[cfg(test)]
mod atomic_scalar_tests {
    use super::*;
    use crate::parallel::parallel_for;

    fn hammer<T: AtomicScalar>() -> T {
        let mut data = vec![T::ZERO; 4];
        {
            let cells = T::as_cells(&mut data);
            parallel_for(64, 8, |_| {
                for _ in 0..100 {
                    T::atomic_add(&cells[1], T::ONE);
                }
            });
            assert_eq!(T::load_cell(&cells[1]), T::from_f64(6400.0));
        }
        data[1]
    }

    #[test]
    fn generic_atomic_add_f64() {
        assert_eq!(hammer::<f64>(), 6400.0);
    }

    #[test]
    fn generic_atomic_add_f32() {
        assert_eq!(hammer::<f32>(), 6400.0);
    }
}
