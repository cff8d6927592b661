#![warn(missing_docs)]

//! # lf-check
//!
//! The repo's verification toolkit. The engine's correctness rests on
//! hand-argued invariants — single-writer output rows (CELL's
//! owner-computes row blocks among them) are what let kernels use plain
//! stores, and the pool/`DisjointSlice`/`SendPtr` machinery in `lf-sim`
//! is what makes that safe under the worker pool. This crate machine-checks those
//! invariants in three layers:
//!
//! 1. **A deterministic concurrency model checker** ([`sched`], in the
//!    style of loom/CHESS): [`model`] runs a closure repeatedly, once
//!    per thread interleaving, serializing all threads that use the
//!    [`sync`] primitives onto a single logical timeline and exploring
//!    every schedule up to a preemption bound. A schedule that panics,
//!    deadlocks, or diverges is reported with its full decision trace.
//!    `lf-sim` builds its pool against these primitives under
//!    `--features check` (they transparently fall back to `std` outside
//!    a model run, so regular tests still pass with the feature on).
//!
//! 2. **A shadow-memory race detector** ([`shadow`]): debug builds
//!    register every claimed output range of the kernels' single-writer
//!    fast paths (`DisjointSlice::slice_mut`, `SendPtr` vec-fills, CELL
//!    row blocks) in a [`ShadowRegion`] interval map and panic
//!    on overlap or out-of-bounds — so every ordinary test run doubles
//!    as a race check. Release builds compile it to a no-op ZST.
//!
//! 3. **Source-invariant lints** ([`lint`] + [`rules`], driven by
//!    `src/bin/lint.rs` and `scripts/verify.sh`): a token-level lexer
//!    ([`lex`]) feeds a rule engine that checks the workspace's
//!    cross-cutting contracts — SAFETY-justified `unsafe`, the atomic
//!    ordering whitelist, the declared lock hierarchy, panic-free
//!    request/kernel paths, bitwise-determinism constructs, and the
//!    exhaustive error→ledger-class mapping — with inline
//!    `lf-lint: allow(rule): reason` suppressions and JSON output for
//!    CI artifacts.
//!
//! 4. **A vector-clock happens-before race detector** ([`hb`]): the
//!    dynamic complement to the bounded checker. The [`sync`] shims
//!    record lock release→acquire, atomic release→acquire, and
//!    spawn/join edges; [`hb::Tracked`] locations check every access
//!    against per-location shadow words, so a missing lock is reported
//!    deterministically regardless of the schedule the OS picks.
//!
//! 5. **Deterministic fault injection** ([`chaos`]): a seeded,
//!    process-global plan that tells instrumented call sites in the
//!    serving layer when to panic, fail an allocation, or take the slow
//!    path — the fault source for the chaos tier's ledger and
//!    degradation assertions. Inert unless a plan is installed.

pub mod chaos;
pub mod hb;
pub mod lex;
pub mod lint;
pub mod rules;
pub mod sched;
pub mod shadow;
pub mod sync;

pub use sched::{model, Model, Report};
pub use shadow::ShadowRegion;
