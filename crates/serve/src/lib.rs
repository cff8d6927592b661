#![warn(missing_docs)]

//! # lf-serve
//!
//! A thread-safe SpMM **serving engine** over the LiteForm composer.
//!
//! The paper's whole argument (§6.4, Figures 8–9) is that composition
//! overhead must be *amortized across repeated multiplications on the
//! same matrix* — one compose, many executions. Up to now every
//! `LiteForm::spmm` call re-ran feature extraction, model inference,
//! width search and CELL construction from scratch. This crate adds the
//! amortization path as a long-lived service:
//!
//! * [`Fingerprint`] — cheap matrix identity (dims + nnz +
//!   row-pointer/column-index/value hashes, one O(nnz) pass);
//! * [`Planner`] — a plan source: the trained [`LiteForm`] pipeline, or
//!   [`FixedCellPlanner`] for pinned configurations;
//! * [`ServeEngine`] — concurrent requests (`matrix handle or CSR
//!   payload`, dense `B`), a sharded LRU of
//!   [`PreparedPlan`]s keyed by `(fingerprint, j)` under a configurable
//!   byte budget, and a disjoint outcome ledger
//!   (hit/miss/rejected/degraded/failed, [`ServeStats`]);
//! * **fault isolation** (DESIGN.md §10) — strict input validation with
//!   typed [`LfError`](liteform_core::LfError) rejections, per-request
//!   `catch_unwind` containment, poisoned-plan quarantine, cooperative
//!   deadlines, a `max_inflight` admission gate, and one degradation
//!   ladder for every planner: a composition that panics or fails
//!   falls back to the baseline CSR format, behind a per-matrix
//!   circuit breaker;
//! * execution on the **shared** `lf_sim` worker pool — no
//!   pool-per-request churn (asserted by the stress suite).
//!
//! ```
//! use lf_serve::{FixedCellPlanner, ServeConfig, ServeEngine};
//! use lf_sparse::{gen::mixed_regions, CsrMatrix, DenseMatrix, Pcg32};
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let a: CsrMatrix<f64> = CsrMatrix::from_coo(&mixed_regions(256, 256, 4000, 4, &mut rng));
//! let b = DenseMatrix::random(256, 32, &mut rng);
//!
//! let engine = ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default());
//! let cold = engine.serve(&a, &b).unwrap();   // composes
//! let warm = engine.serve(&a, &b).unwrap();   // cache hit
//! assert!(!cold.hit && warm.hit);
//! assert_eq!(engine.stats().requests(), 2);
//! ```
//!
//! [`LiteForm`]: liteform_core::LiteForm
//! [`PreparedPlan`]: liteform_core::PreparedPlan

pub(crate) mod batch;
pub mod engine;
pub mod fingerprint;
pub mod planner;
pub mod store;

pub use engine::{
    AppliedDelta, MatrixHandle, ServeConfig, ServeEngine, ServeOutcome, ServeStats, UpdateOutcome,
};
pub use fingerprint::Fingerprint;
pub use planner::{FixedCellPlanner, Planner};
pub use store::{
    is_stale_epoch, CostAware, LruBytes, Placement, PlacementPolicy, PlanStore, RecordMeta,
    StoreConfig,
};
