//! Edge-delta updates on CSR matrices.
//!
//! Graph serving sees continuous edge churn: insertions, deletions and
//! weight changes. [`EdgeUpdate`] is the wire form of one such change and
//! [`CsrMatrix::apply_updates`] applies a *batch* of them atomically —
//! the whole batch is validated against the current matrix first, and
//! only then is a new matrix produced, so a rejected batch leaves
//! nothing half-applied. The input matrix is never mutated; callers
//! (the serving layer's handle epochs) swap the result in under their
//! own synchronization.
//!
//! Validation is strict and every failure is a typed [`SparseError`]:
//!
//! * coordinates must be in bounds ([`SparseError::IndexOutOfBounds`]);
//! * inserted / assigned values must be finite and non-zero
//!   ([`SparseError::NonFiniteValue`], [`SparseError::InvalidFormat`]) —
//!   a zero insert would silently desynchronize `nnz` from the stored
//!   pattern;
//! * a batch may touch each `(row, col)` at most once
//!   ([`SparseError::DuplicateUpdate`]) — batches are unordered sets, so
//!   two updates on one coordinate are ambiguous;
//! * inserts require the entry to be absent, deletes and value changes
//!   require it to be present ([`SparseError::UpdateConflict`]).

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{Index, Result};

/// One edge-level change to a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate<T> {
    /// Add a new stored entry at `(row, col)`; the slot must be absent.
    Insert {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
        /// New value (finite, non-zero).
        value: T,
    },
    /// Remove the stored entry at `(row, col)`; the slot must be present.
    Delete {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
    },
    /// Replace the value of the stored entry at `(row, col)`; the slot
    /// must be present. The pattern is unchanged.
    SetValue {
        /// Target row.
        row: usize,
        /// Target column.
        col: usize,
        /// Replacement value (finite, non-zero).
        value: T,
    },
}

impl<T: Scalar> EdgeUpdate<T> {
    /// The `(row, col)` coordinate this update targets.
    pub fn coord(&self) -> (usize, usize) {
        match *self {
            EdgeUpdate::Insert { row, col, .. }
            | EdgeUpdate::Delete { row, col }
            | EdgeUpdate::SetValue { row, col, .. } => (row, col),
        }
    }
}

/// Internal per-coordinate operation after validation.
#[derive(Clone, Copy)]
enum Op<T> {
    Insert(T),
    Delete,
    Set(T),
}

/// Validate `updates` against `csr` without applying anything.
///
/// Checks bounds, value finiteness/non-zeroness, batch uniqueness, and
/// the pattern preconditions (insert ⇒ absent, delete / set ⇒ present).
/// On success the batch is guaranteed to apply cleanly.
pub fn validate_updates<T: Scalar>(csr: &CsrMatrix<T>, updates: &[EdgeUpdate<T>]) -> Result<()> {
    let shape = csr.shape();
    let mut seen: Vec<(usize, usize)> = Vec::with_capacity(updates.len());
    for u in updates {
        let (row, col) = u.coord();
        if row >= shape.0 || col >= shape.1 {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape,
            });
        }
        match *u {
            EdgeUpdate::Insert { value, .. } | EdgeUpdate::SetValue { value, .. } => {
                if !value.is_finite() {
                    return Err(SparseError::NonFiniteValue { index: (row, col) });
                }
                if value == T::ZERO {
                    return Err(SparseError::InvalidFormat(format!(
                        "explicit zero update at ({row}, {col}): delete the entry instead"
                    )));
                }
            }
            EdgeUpdate::Delete { .. } => {}
        }
        let present = csr.row_cols(row).binary_search(&(col as Index)).is_ok();
        match *u {
            EdgeUpdate::Insert { .. } if present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "insert requires the entry to be absent",
                });
            }
            EdgeUpdate::Delete { .. } if !present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "delete requires the entry to be present",
                });
            }
            EdgeUpdate::SetValue { .. } if !present => {
                return Err(SparseError::UpdateConflict {
                    index: (row, col),
                    expected: "set-value requires the entry to be present",
                });
            }
            _ => {}
        }
        seen.push((row, col));
    }
    seen.sort_unstable();
    if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
        return Err(SparseError::DuplicateUpdate { index: w[0] });
    }
    Ok(())
}

impl<T: Scalar> CsrMatrix<T> {
    /// Apply a batch of edge updates, returning the updated matrix.
    ///
    /// The batch is atomic: it is validated in full first (see
    /// [`validate_updates`]) and an `Err` leaves `self` untouched with
    /// nothing half-applied. `self` is never mutated either way — the
    /// result is a freshly built matrix, so callers can publish it with
    /// a pointer swap.
    pub fn apply_updates(&self, updates: &[EdgeUpdate<T>]) -> Result<CsrMatrix<T>> {
        validate_updates(self, updates)?;
        // Sorted (row, col, op) stream for a single merge pass.
        let mut ops: Vec<(usize, usize, Op<T>)> = updates
            .iter()
            .map(|u| {
                let (r, c) = u.coord();
                let op = match *u {
                    EdgeUpdate::Insert { value, .. } => Op::Insert(value),
                    EdgeUpdate::Delete { .. } => Op::Delete,
                    EdgeUpdate::SetValue { value, .. } => Op::Set(value),
                };
                (r, c, op)
            })
            .collect();
        ops.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let inserts = ops
            .iter()
            .filter(|(_, _, op)| matches!(op, Op::Insert(_)))
            .count();
        let deletes = ops
            .iter()
            .filter(|(_, _, op)| matches!(op, Op::Delete))
            .count();
        let new_nnz = self.nnz() + inserts - deletes;
        let (rows, cols) = self.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_ind: Vec<Index> = Vec::with_capacity(new_nnz);
        let mut values: Vec<T> = Vec::with_capacity(new_nnz);
        row_ptr.push(0usize);

        let mut k = 0; // cursor into `ops`
        for r in 0..rows {
            let old_cols = self.row_cols(r);
            let old_vals = self.row_values(r);
            let row_ops_start = k;
            while k < ops.len() && ops[k].0 == r {
                k += 1;
            }
            let row_ops = &ops[row_ops_start..k];
            if row_ops.is_empty() {
                col_ind.extend_from_slice(old_cols);
                values.extend_from_slice(old_vals);
            } else {
                // Two-pointer merge of the existing row with its sorted ops.
                let mut i = 0;
                let mut j = 0;
                while i < old_cols.len() || j < row_ops.len() {
                    let next_old = old_cols.get(i).map(|&c| c as usize);
                    let next_op = row_ops.get(j).map(|&(_, c, _)| c);
                    match (next_old, next_op) {
                        (Some(oc), Some(uc)) if oc < uc => {
                            col_ind.push(old_cols[i]);
                            values.push(old_vals[i]);
                            i += 1;
                        }
                        (Some(oc), Some(uc)) if oc == uc => {
                            match row_ops[j].2 {
                                Op::Delete => {}
                                Op::Set(v) => {
                                    col_ind.push(old_cols[i]);
                                    values.push(v);
                                }
                                // Validation rejected inserts on present
                                // entries.
                                Op::Insert(_) => unreachable!("validated batch"),
                            }
                            i += 1;
                            j += 1;
                        }
                        (_, Some(uc)) => {
                            match row_ops[j].2 {
                                Op::Insert(v) => {
                                    col_ind.push(uc as Index);
                                    values.push(v);
                                }
                                // Validation rejected delete/set on absent
                                // entries.
                                _ => unreachable!("validated batch"),
                            }
                            j += 1;
                        }
                        (Some(_), None) => {
                            col_ind.push(old_cols[i]);
                            values.push(old_vals[i]);
                            i += 1;
                        }
                        (None, None) => break,
                    }
                }
            }
            row_ptr.push(col_ind.len());
        }
        debug_assert_eq!(col_ind.len(), new_nnz);
        Ok(CsrMatrix::from_raw_unchecked(
            rows, cols, row_ptr, col_ind, values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix<f64> {
        let coo = CooMatrix::from_triplets(
            4,
            6,
            vec![
                (0, 1, 1.0),
                (0, 4, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (2, 3, 5.0),
                (2, 5, 6.0),
            ],
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn mixed_batch_applies_atomically() {
        let a = sample();
        let b = a
            .apply_updates(&[
                EdgeUpdate::Insert {
                    row: 3,
                    col: 0,
                    value: 7.0,
                },
                EdgeUpdate::Delete { row: 0, col: 4 },
                EdgeUpdate::SetValue {
                    row: 2,
                    col: 3,
                    value: -5.0,
                },
                EdgeUpdate::Insert {
                    row: 0,
                    col: 0,
                    value: 8.0,
                },
            ])
            .unwrap();
        assert_eq!(b.nnz(), 7);
        assert_eq!(b.row_cols(0), &[0, 1]);
        assert_eq!(b.row_values(0), &[8.0, 1.0]);
        assert_eq!(b.row_values(2), &[4.0, -5.0, 6.0]);
        assert_eq!(b.row_cols(3), &[0]);
        b.validate_finite().unwrap();
        // The source is untouched.
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.row_cols(0), &[1, 4]);
    }

    #[test]
    fn delete_to_empty_row_and_refill() {
        let a = sample();
        let b = a
            .apply_updates(&[EdgeUpdate::Delete { row: 1, col: 0 }])
            .unwrap();
        assert_eq!(b.row_len(1), 0);
        b.validate_finite().unwrap();
        let c = b
            .apply_updates(&[EdgeUpdate::Insert {
                row: 1,
                col: 5,
                value: 9.0,
            }])
            .unwrap();
        assert_eq!(c.row_cols(1), &[5]);
    }

    #[test]
    fn out_of_range_is_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[EdgeUpdate::Delete { row: 9, col: 0 }])
            .unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::Insert {
                row: 0,
                col: 6,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "{err}");
    }

    #[test]
    fn duplicate_coordinate_is_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[
                EdgeUpdate::SetValue {
                    row: 2,
                    col: 2,
                    value: 1.0,
                },
                EdgeUpdate::Delete { row: 2, col: 2 },
            ])
            .unwrap_err();
        assert!(
            matches!(err, SparseError::DuplicateUpdate { index: (2, 2) }),
            "{err}"
        );
    }

    #[test]
    fn pattern_preconditions_are_typed() {
        let a = sample();
        let err = a
            .apply_updates(&[EdgeUpdate::Insert {
                row: 0,
                col: 1,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::Delete { row: 0, col: 0 }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
        let err = a
            .apply_updates(&[EdgeUpdate::SetValue {
                row: 3,
                col: 3,
                value: 1.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::UpdateConflict { .. }), "{err}");
    }

    #[test]
    fn hostile_values_are_typed_and_nothing_is_applied() {
        let a = sample();
        for v in [f64::NAN, f64::INFINITY] {
            let err = a
                .apply_updates(&[
                    EdgeUpdate::Delete { row: 0, col: 1 },
                    EdgeUpdate::Insert {
                        row: 3,
                        col: 0,
                        value: v,
                    },
                ])
                .unwrap_err();
            assert!(matches!(err, SparseError::NonFiniteValue { .. }), "{err}");
        }
        let err = a
            .apply_updates(&[EdgeUpdate::SetValue {
                row: 0,
                col: 1,
                value: 0.0,
            }])
            .unwrap_err();
        assert!(matches!(err, SparseError::InvalidFormat(_)), "{err}");
        // Atomicity: the passing prefix of a failed batch left no trace.
        assert_eq!(a.row_cols(0), &[1, 4]);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn empty_batch_is_identity() {
        let a = sample();
        let b = a.apply_updates(&[]).unwrap();
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_ind(), b.col_ind());
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn result_matches_coo_rebuild() {
        // Differential check: apply_updates equals rebuilding from
        // triplets with the same edits.
        let a = sample();
        let b = a
            .apply_updates(&[
                EdgeUpdate::Delete { row: 2, col: 3 },
                EdgeUpdate::Insert {
                    row: 1,
                    col: 4,
                    value: 2.5,
                },
            ])
            .unwrap();
        let mut trips: Vec<(usize, usize, f64)> =
            a.iter().filter(|&(r, c, _)| (r, c) != (2, 3)).collect();
        trips.push((1, 4, 2.5));
        let want = CsrMatrix::from_coo(&CooMatrix::from_triplets(4, 6, trips).unwrap());
        assert_eq!(b.row_ptr(), want.row_ptr());
        assert_eq!(b.col_ind(), want.col_ind());
        assert_eq!(b.values(), want.values());
    }
}
