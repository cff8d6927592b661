//! The concurrent serving engine: a sharded, byte-budgeted LRU of
//! prepared composition plans, hardened against hostile inputs, panics,
//! and deadline overruns.
//!
//! Request path (`serve` / `serve_handle`), one function per stage:
//!
//! 1. **ingress** (`serve`): validate the payload (strict CSR structure,
//!    NaN/Inf policy) — malformed matrices are rejected with a typed
//!    [`LfError::InvalidInput`] *before* fingerprinting, so they never
//!    touch the cache or the hit/miss ledger — then fingerprint it
//!    (handles carry theirs);
//! 2. **admit** (`serve_keyed`): check the operand shape, pass the
//!    backpressure gate (`max_inflight`) and arm the per-request
//!    deadline as a cooperative [`lf_sim::cancel::CancelToken`] —
//!    parallel regions under this request check it between chunks, so
//!    an oversized request times out cleanly instead of wedging pool
//!    workers;
//! 3. **route** (`coalesce`): with coalescing on, join or lead a
//!    same-fingerprint admission window (DESIGN.md §11); otherwise run
//!    solo, with the request's token installed;
//! 4. **resolve** (`resolve`): look the `(fingerprint, j)` key up in the
//!    shard the fingerprint maps to (a **hit** reuses the cached
//!    [`PreparedPlan`] and pays only the kernel execution), then in the
//!    disk tier; on a **miss** the planner
//!    composes outside any lock (other requests — including other
//!    misses — proceed concurrently) under `catch_unwind`, and the plan
//!    is admitted under the shard's byte budget (evicting whole
//!    least-recently-used plans); a composition that panics or fails
//!    is replaced by a degraded baseline CSR plan (`compose`);
//! 5. **execute** (`execute`): run the plan under `catch_unwind` — once
//!    for a solo request, once for a fused group over every member's
//!    operand — with a deadline verdict per operand;
//! 6. **publish** (`publish`): re-check the deadline and count the
//!    request in exactly one ledger class.
//!
//! Failures are contained per request by one degradation ladder,
//! CELL → baseline CSR → typed error (DESIGN.md §10), the same for
//! every planner. A panicking or failing *composition* degrades the
//! request to a baseline CSR plan that is served but never cached; a
//! panicking *execution* quarantines the cached plan (poisoned, evicted
//! exactly once, never re-served) and rescues the request with the
//! reference CSR result. Both feed a per-`(matrix, j)` circuit breaker:
//! after three consecutive failures (`BREAKER_THRESHOLD`) the engine
//! stops attempting that composition and serves the fallback directly
//! for the key's lifetime (an update that retires the key's epoch, or
//! `clear`, forgets the count; a clean compose below the threshold
//! resets it). Every request lands in exactly one ledger class, so `requests == hits + misses + rejected + degraded + failed`
//! holds exactly — the chaos tier asserts this identity under fault
//! injection.
//!
//! Execution itself runs on the process-wide `lf_sim` worker pool —
//! every request shares the one pool the kernels already dispatch to, so
//! serving N concurrent requests spawns no threads beyond the pool's
//! (asserted by the stress suite via
//! `lf_sim::pool::workers_spawned_total`).
//!
//! Two requests that miss on the same key simultaneously both compose
//! (no cross-request blocking); the first insert wins and the loser's
//! plan serves only its own request, then drops. This trades a bounded
//! amount of duplicate cold work for a lock-free compose path.
//!
//! [`PreparedPlan`]: liteform_core::PreparedPlan

use crate::batch::{Admission, BatchBoard, Member, Resolution, ResolveGuard};
use crate::fingerprint::Fingerprint;
use crate::planner::Planner;
use crate::store::{Placement, PlanStore, StoreConfig};
use lf_cost::TileFeatures;
use lf_sim::atomicf::AtomicScalar;
use lf_sim::cancel::{self, CancelToken};
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate, Scalar, SparseError};
use liteform_core::{panic_detail, LfError, LfResult, PreparedPlan, PreprocessProfile, StageStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Consecutive failures — compositions that panicked or failed, and
/// execute-time quarantines — after which the engine stops attempting a
/// `(matrix, j)` composition and serves the degraded CSR fallback
/// directly. A clean compose below the threshold resets the count; an
/// open breaker stays open for the key's lifetime — until an update
/// retires the key's epoch, or [`ServeEngine::clear`].
const BREAKER_THRESHOLD: u32 = 3;

/// Serving-layer tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of independent cache shards (lock granularity). Clamped to
    /// ≥ 1.
    pub shards: usize,
    /// Whole-cache byte budget for retained plan memory
    /// ([`PreparedPlan::format_bytes`](liteform_core::PreparedPlan::format_bytes)).
    /// Split evenly across shards; a plan larger than its shard's slice
    /// is served but never admitted.
    pub byte_budget: usize,
    /// Per-request deadline in milliseconds (`None` = unbounded). The
    /// deadline is cooperative: parallel regions notice it between
    /// chunks, the request fails with [`LfError::DeadlineExceeded`], and
    /// partial results are discarded, never served.
    pub deadline_ms: Option<u64>,
    /// Admission gate: requests beyond this many already in flight are
    /// rejected with [`LfError::Overloaded`] (`0` = unlimited).
    pub max_inflight: usize,
    /// Reject payloads containing NaN/Inf values at ingress (`true`,
    /// the default). With `false`, only structural validation runs and
    /// non-finite values propagate into results IEEE-style.
    pub reject_nonfinite: bool,
    /// Same-fingerprint request coalescing: requests arriving within
    /// this admission window (microseconds) fuse into one wide SpMM,
    /// amortizing the sparse index-stream traversal across all of them
    /// (`0` disables coalescing — the default). The window wait counts
    /// against each member's deadline and `serve_wall_s`. See
    /// DESIGN.md §11.
    pub batch_window_us: u64,
    /// Cap on the fused dense width: a batch stops admitting members
    /// once the sum of their B widths would exceed this many columns
    /// (reaching it closes the window early). A request at least this
    /// wide on its own always runs solo. Ignored when coalescing is off.
    pub max_batch_j: usize,
    /// Directory for the disk tier of the plan cache (`None` disables
    /// it — the default). With a store, RAM-evicted plans are demoted
    /// to disk instead of dropped, RAM misses check disk before
    /// composing, and engine construction **warms** the cache from the
    /// directory (every record strictly re-validated; failures are
    /// counted in `warm_rejected` and never served). See DESIGN.md §13.
    pub store_dir: Option<String>,
    /// Byte budget for the disk tier's record files (`0` = unbounded).
    /// Exceeding it evicts records by the placement policy's score.
    pub disk_budget_bytes: usize,
    /// Which placement policy ranks disk-tier records for retention.
    pub placement: Placement,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            byte_budget: 256 << 20,
            deadline_ms: None,
            max_inflight: 0,
            reject_nonfinite: true,
            batch_window_us: 0,
            max_batch_j: 256,
            store_dir: None,
            disk_budget_bytes: 0,
            placement: Placement::CostAware,
        }
    }
}

/// The mutable registration behind a [`MatrixHandle`]: the current
/// payload, its epoch-stamped fingerprint, and the fingerprints of
/// retired epochs whose cached plans may still linger in some tier.
#[derive(Debug)]
struct HandleState<T> {
    csr: Arc<CsrMatrix<T>>,
    fingerprint: Fingerprint,
    /// Fingerprints retired by [`MatrixHandle::apply_updates`], kept
    /// until a sweep confirms both cache tiers hold nothing under them.
    /// Persisting the list (rather than sweeping fire-and-forget) is
    /// what makes invalidation crash-tolerant: an aborted sweep retries
    /// on the next one.
    retired: Vec<Fingerprint>,
}

/// A registered matrix: validated once, fingerprint computed once,
/// payload retained so the engine can re-compose after an eviction
/// without resubmission.
///
/// Handles are **mutable registrations**: [`apply_updates`] applies an
/// edge-delta batch atomically, bumping the matrix's *epoch* — the
/// version counter folded into [`Fingerprint`] equality, hashing, and
/// digests — so every plan cached for an earlier generation becomes
/// unreachable the instant the batch commits. Clones share the
/// registration (an update through one clone is visible to all), which
/// is what lets concurrent servers and updaters coordinate through the
/// epoch.
///
/// [`apply_updates`]: MatrixHandle::apply_updates
#[derive(Debug)]
pub struct MatrixHandle<T> {
    shared: Arc<RwLock<HandleState<T>>>,
}

impl<T> Clone for MatrixHandle<T> {
    fn clone(&self) -> Self {
        MatrixHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// What one committed delta batch did to a handle — the engine's
/// cache-maintenance input, and the caller's receipt.
#[derive(Debug)]
pub struct AppliedDelta<T> {
    /// The fingerprint retired by this batch.
    pub old_fingerprint: Fingerprint,
    /// The handle's new fingerprint (epoch = old + 1).
    pub fingerprint: Fingerprint,
    /// The updated payload the handle now serves.
    pub csr: Arc<CsrMatrix<T>>,
    /// Every touched `(row, col)` coordinate, in batch order.
    pub touched: Vec<(usize, usize)>,
    /// Distinct rows the batch touched.
    pub touched_rows: usize,
    /// `true` when the churn crossed [`lf_cost::churn_threshold`]: the
    /// measured-cost model predicts incremental CELL maintenance would
    /// be slower than recomposing, so cached plans should be dropped and
    /// rebuilt rather than migrated.
    pub rebuild: bool,
}

impl<T: Scalar> MatrixHandle<T> {
    /// Register a matrix: validates it strictly (structure **and**
    /// finiteness — handles are the trusted fast path, so they always
    /// get the strict policy), then fingerprints it (one O(nnz) pass)
    /// and wraps the payload for cheap sharing across requests. A fresh
    /// registration is epoch 0.
    pub fn new(csr: CsrMatrix<T>) -> LfResult<Self> {
        csr.validate_finite()?;
        let fingerprint = Fingerprint::of_csr(&csr);
        Ok(MatrixHandle {
            shared: Arc::new(RwLock::new(HandleState {
                csr: Arc::new(csr),
                fingerprint,
                retired: Vec::new(),
            })),
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, HandleState<T>> {
        self.shared.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HandleState<T>> {
        self.shared.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The handle's current fingerprint (epoch included).
    pub fn fingerprint(&self) -> Fingerprint {
        self.read().fingerprint
    }

    /// The handle's current mutation epoch (0 until the first update).
    pub fn epoch(&self) -> u64 {
        self.read().fingerprint.epoch
    }

    /// The current payload (cheap: clones the `Arc`, not the matrix).
    pub fn csr(&self) -> Arc<CsrMatrix<T>> {
        Arc::clone(&self.read().csr)
    }

    /// One consistent `(fingerprint, payload)` snapshot — the pair a
    /// serve must use together. Reading the two through separate calls
    /// could interleave with a concurrent update and pair the old
    /// payload with the new key (or vice versa).
    pub fn current(&self) -> (Fingerprint, Arc<CsrMatrix<T>>) {
        let st = self.read();
        (st.fingerprint, Arc::clone(&st.csr))
    }

    /// Fingerprints of retired epochs not yet confirmed swept from
    /// every cache tier.
    pub fn retired(&self) -> Vec<Fingerprint> {
        self.read().retired.clone()
    }

    /// Drop retired fingerprints a sweep has confirmed clean.
    fn clear_retired(&self, done: &[Fingerprint]) {
        if done.is_empty() {
            return;
        }
        self.write().retired.retain(|fp| !done.contains(fp));
    }

    /// Apply an edge-delta batch **atomically**: the whole batch is
    /// validated against the current matrix first (typed
    /// [`SparseError`]s: out-of-range coordinates, duplicate targets,
    /// insert-present / delete-absent conflicts, non-finite values), a
    /// new payload is built, and only then — under the handle's write
    /// lock — the payload, fingerprint, and epoch swap in together. A
    /// rejected batch leaves the handle bitwise untouched; a reader
    /// never observes a half-applied generation because the previous
    /// payload is an immutable `Arc` snapshot until the commit point.
    ///
    /// The returned [`AppliedDelta`] carries what cache maintenance
    /// needs (retired fingerprint, touched coordinates, the
    /// churn-threshold verdict). Callers serving through a
    /// [`ServeEngine`] should prefer
    /// [`ServeEngine::apply_updates`], which also migrates cached plans
    /// and retires stale ones across both cache tiers.
    pub fn apply_updates(&self, updates: &[EdgeUpdate<T>]) -> LfResult<AppliedDelta<T>> {
        let mut st = self.write();
        let new_csr = st
            .csr
            .apply_updates(updates)
            .map_err(LfError::InvalidInput)?;
        #[cfg(feature = "chaos")]
        {
            use lf_check::chaos::{decide, ChaosSite};
            if decide(ChaosSite::UpdateTorn) {
                // Simulated kill between validation and commit: the
                // fully built next generation is dropped and the handle
                // stays on the old epoch — the only two states a torn
                // update may leave.
                return Err(LfError::ResourceExhausted {
                    what: format!("chaos: torn update at {}", ChaosSite::UpdateTorn.name()),
                });
            }
        }
        let touched: Vec<(usize, usize)> = updates.iter().map(EdgeUpdate::coord).collect();
        let mut rows: Vec<usize> = touched.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        let touched_rows = rows.len();
        let features = TileFeatures::new(new_csr.rows(), new_csr.nnz(), std::mem::size_of::<T>());
        let rebuild = lf_cost::should_rebuild(features, touched_rows);
        let old_fingerprint = st.fingerprint;
        let fingerprint = Fingerprint::of_csr(&new_csr).with_epoch(old_fingerprint.epoch + 1);
        let csr = Arc::new(new_csr);
        st.csr = Arc::clone(&csr);
        st.fingerprint = fingerprint;
        st.retired.push(old_fingerprint);
        Ok(AppliedDelta {
            old_fingerprint,
            fingerprint,
            csr,
            touched,
            touched_rows,
            rebuild,
        })
    }
}

/// What [`ServeEngine::apply_updates`] did: the committed delta's new
/// identity plus the cache maintenance that followed it.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// The handle's epoch after the batch.
    pub epoch: u64,
    /// The handle's fingerprint after the batch.
    pub fingerprint: Fingerprint,
    /// Distinct rows the batch touched.
    pub touched_rows: usize,
    /// `true` when churn crossed the measured crossover and cached plans
    /// were dropped for lazy recomposition instead of migrated.
    pub rebuild: bool,
    /// Cached plans incrementally migrated to the new epoch (0 when
    /// `rebuild` is set, or when nothing was cached).
    pub migrated: usize,
    /// Whether every retired fingerprint was confirmed swept from both
    /// tiers (`false` only under injected sweep faults; the handle
    /// retries on its next sweep).
    pub swept: bool,
}

/// One served request's result and accounting.
#[derive(Debug)]
pub struct ServeOutcome<T> {
    /// The product `C = A · B`.
    pub result: DenseMatrix<T>,
    /// Whether the plan came from the cache.
    pub hit: bool,
    /// Whether the result came from the degradation ladder (a degraded
    /// fallback plan, or the reference-CSR rescue after an execution
    /// panic). Degraded results are exact; only the format is baseline.
    pub degraded: bool,
    /// The request's cache key fingerprint.
    pub fingerprint: Fingerprint,
    /// Composition instrumentation — `Some` exactly when this request
    /// composed a plan (cache misses, including degraded composes; for
    /// a coalesced request, only the batch leader's compose).
    pub compose: Option<PreprocessProfile>,
    /// End-to-end wall seconds for this request (lookup + compose if
    /// cold + execution; for coalesced requests this *includes* the
    /// admission-window wait and the scatter copy, so latency
    /// percentiles over it never understate batched requests).
    pub serve_wall_s: f64,
    /// Whether this request was resolved by a fused (coalesced) execute
    /// shared with other same-fingerprint requests.
    pub batched: bool,
}

/// Counter snapshot, [`StageStats`]-style: wall clock plus allocation
/// counters where the engine measures them.
///
/// The five request classes are disjoint and exhaustive — every call to
/// `serve`/`serve_handle` bumps exactly one of `hits`, `misses`,
/// `rejected`, `degraded`, `failed`, so
/// [`ServeStats::requests`]` == hits + misses + rejected + degraded +
/// failed` holds exactly at every quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests answered from the cache (and executed cleanly).
    pub hits: u64,
    /// Requests that composed a plan (and executed cleanly).
    pub misses: u64,
    /// Requests rejected at ingress: invalid payload, dimension
    /// mismatch, or the admission gate ([`LfError::is_rejection`]).
    pub rejected: u64,
    /// Requests answered through the degradation ladder: the result is
    /// exact but came from a baseline-format fallback.
    pub degraded: u64,
    /// Requests that failed after admission with a typed error
    /// (deadline exceeded, an execute panic whose reference rescue
    /// failed too, or a rejection the planner raised). Any other
    /// composition panic or failure degrades instead.
    pub failed: u64,
    /// Plans evicted to make room under the byte budget.
    pub evictions: u64,
    /// Bytes of evicted plans that were **dropped outright** — no disk
    /// tier, the store write failed, or the plan was poisoned. With
    /// `demotions`, this splits every eviction by what happened to the
    /// bytes.
    pub evicted_bytes: u64,
    /// Evicted plans successfully demoted to the disk tier (a later
    /// miss can promote them back instead of recomposing).
    pub demotions: u64,
    /// RAM misses answered by a validated disk-tier record. Disk hits
    /// land in the `hits` ledger class; this counter splits them out.
    pub disk_hits: u64,
    /// Disk-tier records re-admitted into the RAM cache (a disk hit
    /// whose plan also fit its shard's budget slice).
    pub promotions: u64,
    /// Plans loaded into RAM by startup cache warming from the disk
    /// tier (each strictly re-validated first).
    pub warm_loaded: u64,
    /// Persisted records rejected by strict validation — bad framing,
    /// checksum mismatch, version drift, stale fingerprint — at warm or
    /// promotion time. Rejected records are deleted and recomposed on
    /// demand; they are **never served**. Retired-**epoch** rejections
    /// are split out into `stale_evicted`.
    pub warm_rejected: u64,
    /// Stale-epoch plans retired across both cache tiers: RAM entries
    /// swept after an update batch (or by the publish-time epoch
    /// re-check), disk records deleted by the epoch sweep, and disk
    /// records *refused* by read-side validation because their epoch was
    /// retired. Evicted, never corrupted: none of these were served.
    pub stale_evicted: u64,
    /// Plans too large for their shard's budget slice (served, never
    /// admitted).
    pub oversized: u64,
    /// Cached plans poisoned by an execution panic and evicted by the
    /// quarantine protocol (exactly once per plan).
    pub quarantined: u64,
    /// Fused executes performed by the coalescer (each covering ≥ 2
    /// member requests).
    pub batches: u64,
    /// Requests resolved by a fused execute — including members that
    /// failed on their own deadline and members rescued per-request
    /// after a fused panic. Requests whose window dissolved back to a
    /// solo run are not counted.
    pub batched_requests: u64,
    /// Accumulated wall seconds request threads spent inside the
    /// coalescer (admission-window wait through scatter). Already part
    /// of `serve`; split out for visibility.
    pub batch_wait_s: f64,
    /// Accumulated cold-compose cost across all misses (wall + allocs,
    /// via the `lf-sim` counting allocator).
    pub cold_compose: StageStats,
    /// Accumulated end-to-end serve wall time across all admitted
    /// requests (allocation fields unused).
    pub serve: StageStats,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Bytes currently charged against the budget.
    pub cached_bytes: usize,
    /// Bytes currently held by the disk tier's record files (0 when the
    /// store is disabled).
    pub store_bytes: usize,
}

impl ServeStats {
    /// Total requests, over all five disjoint outcome classes.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.rejected + self.degraded + self.failed
    }

    /// Fraction of cleanly executed plan requests answered from the
    /// cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            return 0.0;
        }
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

/// A cached plan plus its poison flag. The `Arc` is shared between the
/// shard map and in-flight executions, so a request that catches the
/// plan panicking can quarantine it for everyone: the first poisoner
/// (atomic swap) evicts the entry; late lookups that still see the entry
/// treat a poisoned slot as a miss and sweep it.
struct PlanSlot<T: AtomicScalar> {
    plan: PreparedPlan<T>,
    poisoned: AtomicBool,
    /// Measured compose cost, nanoseconds — what a miss on this plan
    /// would re-pay. Travels with the plan into the disk tier, where
    /// the cost-aware placement policy ranks on it.
    cost_ns: u64,
}

impl<T: AtomicScalar> PlanSlot<T> {
    fn new(plan: PreparedPlan<T>, cost_ns: u64) -> Arc<Self> {
        Arc::new(PlanSlot {
            plan,
            poisoned: AtomicBool::new(false),
            cost_ns,
        })
    }
}

struct Entry<T: AtomicScalar> {
    slot: Arc<PlanSlot<T>>,
    bytes: usize,
    last_used: u64,
    /// Cache hits this entry served (seeds the disk tier's frequency
    /// accounting when the entry is demoted).
    uses: u64,
}

struct Shard<T: AtomicScalar> {
    map: HashMap<(Fingerprint, usize), Entry<T>>,
    bytes: usize,
}

impl<T: AtomicScalar> Shard<T> {
    /// Remove `key`'s entry and uncharge its bytes — the one way an
    /// entry leaves a shard, so `bytes` stays the sum over `map`.
    fn remove(&mut self, key: &(Fingerprint, usize)) -> Option<Entry<T>> {
        let evicted = self.map.remove(key)?;
        self.bytes -= evicted.bytes;
        Some(evicted)
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    demotions: AtomicU64,
    disk_hits: AtomicU64,
    promotions: AtomicU64,
    warm_loaded: AtomicU64,
    warm_rejected: AtomicU64,
    stale_evicted: AtomicU64,
    oversized: AtomicU64,
    quarantined: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_wait_ns: AtomicU64,
    inflight: AtomicUsize,
    cold_wall_ns: AtomicU64,
    cold_alloc_calls: AtomicU64,
    cold_alloc_bytes: AtomicU64,
    serve_wall_ns: AtomicU64,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII admission permit: holds one in-flight slot, released on drop
/// (even if the request unwinds).
struct InflightPermit<'a> {
    gauge: &'a AtomicUsize,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One dense operand of an [`execute`](ServeEngine::execute) call, with
/// the cancel token whose deadline governs it.
struct Operand<'a, T> {
    b: &'a DenseMatrix<T>,
    token: Option<&'a CancelToken>,
}

/// A thread-safe SpMM server: plans composed once per `(matrix, j)`,
/// cached under a byte budget, executed on the shared worker pool, with
/// per-request fault isolation (see the module docs).
pub struct ServeEngine<T: AtomicScalar, P> {
    planner: P,
    config: ServeConfig,
    shards: Vec<Mutex<Shard<T>>>,
    /// Logical clock for LRU recency; bumped on every touch.
    tick: AtomicU64,
    counters: Counters,
    /// Open admission windows for same-fingerprint coalescing.
    coalescer: BatchBoard<T>,
    /// The disk tier (`None` when `store_dir` is unset or the directory
    /// could not be opened — the engine then runs RAM-only).
    store: Option<PlanStore<T>>,
    /// The circuit breaker: consecutive failures per key (see
    /// [`BREAKER_THRESHOLD`]). A leaf lock, taken on the cold path only.
    failures: Mutex<HashMap<(Fingerprint, usize), u32>>,
}

impl<T: AtomicScalar, P: Planner<T>> ServeEngine<T, P> {
    /// Build an engine over a planner. When the config names a
    /// `store_dir`, the disk tier is opened (stray temp files from a
    /// crash are swept) and the RAM cache is **warmed** from it:
    /// records load in placement-score order, each strictly
    /// re-validated — framing CRC, plan-blob CRC, structural bounds,
    /// fingerprint re-check — until the RAM byte budget is reached.
    /// A store directory that cannot be opened degrades the engine to
    /// RAM-only rather than failing construction.
    pub fn new(planner: P, config: ServeConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    bytes: 0,
                })
            })
            .collect();
        let store = config.store_dir.as_ref().and_then(|dir| {
            PlanStore::open(StoreConfig {
                dir: dir.into(),
                disk_budget_bytes: config.disk_budget_bytes,
                placement: config.placement,
            })
            .ok()
        });
        let engine = ServeEngine {
            planner,
            config,
            shards,
            tick: AtomicU64::new(0),
            counters: Counters::default(),
            coalescer: BatchBoard::new(),
            store,
            failures: Mutex::new(HashMap::new()),
        };
        engine.warm_from_disk();
        engine
    }

    /// Warm the RAM cache from the disk tier (no-op without one).
    /// Loads records highest-retention-score first and stops at the RAM
    /// byte budget, so warming never triggers its own eviction churn.
    /// Every record is strictly re-validated by [`PlanStore::get`];
    /// rejections count in `warm_rejected` and the record is deleted.
    fn warm_from_disk(&self) {
        let Some(store) = &self.store else { return };
        // Files the store already swept at open (unreadable header) are
        // rejections too — same contract: skipped, counted, not served.
        self.counters
            .warm_rejected
            .fetch_add(store.swept_corrupt() as u64, Ordering::Relaxed);
        let mut loaded_bytes = 0usize;
        for (key, _) in store.warm_order() {
            if loaded_bytes >= self.config.byte_budget {
                break;
            }
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::WarmAbort) {
                    // Simulated kill mid-warm: the engine comes up with
                    // a partial cache. Correctness must not depend on
                    // warming finishing.
                    break;
                }
            }
            if let Some((slot, uses)) = self.load_record(store, &key) {
                let bytes = slot.plan.format_bytes();
                if self.admit(key, slot, uses.saturating_sub(1)) {
                    self.counters.warm_loaded.fetch_add(1, Ordering::Relaxed);
                    loaded_bytes += bytes;
                }
            }
        }
    }

    /// Read the disk-tier record for `key` through the store's strict
    /// validation: the plan's slot and its persisted use count. A
    /// rejected record (the store deletes it) reads as absent and is
    /// counted — a retired-epoch refusal as a stale eviction, anything
    /// else in `warm_rejected`.
    fn load_record(
        &self,
        store: &PlanStore<T>,
        (fp, j): &(Fingerprint, usize),
    ) -> Option<(Arc<PlanSlot<T>>, u64)> {
        match store.get(fp, *j) {
            Ok(record) => record.map(|(plan, meta)| (PlanSlot::new(plan, meta.cost_ns), meta.uses)),
            Err(e) => {
                let class = if crate::store::is_stale_epoch(&e) {
                    &self.counters.stale_evicted
                } else {
                    &self.counters.warm_rejected
                };
                class.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist every currently cached RAM plan to the disk tier and
    /// rewrite the manifest — the snapshot a restart warms from.
    /// Returns the number of plans written, or `Ok(0)` without a store.
    /// Poisoned slots are skipped (a quarantined plan must never
    /// resurrect through a snapshot).
    pub fn snapshot(&self) -> LfResult<usize> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        // Clone the Arcs out under each shard lock, write behind.
        let mut plans = Vec::new();
        for shard in &self.shards {
            let shard = lock_unpoisoned(shard);
            for (key, e) in &shard.map {
                if !e.slot.poisoned.load(Ordering::Relaxed) {
                    plans.push((*key, Arc::clone(&e.slot), e.uses));
                }
            }
        }
        let mut written = 0usize;
        for ((fp, j), slot, uses) in plans {
            store.put(&fp, j, &slot.plan, slot.cost_ns, uses)?;
            written += 1;
        }
        Ok(written)
    }

    /// Serve a raw CSR payload: validates it (rejecting malformed input
    /// with a typed error before the fingerprinter, the cache, or any
    /// counter other than `rejected` is touched), fingerprints it, then
    /// runs the cached or freshly composed plan against `b`.
    pub fn serve(&self, csr: &CsrMatrix<T>, b: &DenseMatrix<T>) -> LfResult<ServeOutcome<T>> {
        let checked = if self.config.reject_nonfinite {
            csr.validate_finite()
        } else {
            csr.validate()
        };
        if let Err(e) = checked {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e.into());
        }
        let fp = Fingerprint::of_csr(csr);
        self.serve_keyed(&fp, csr, b)
    }

    /// Serve a registered handle: skips validation (done at
    /// registration) and fingerprinting entirely. The request runs
    /// against one consistent `(fingerprint, payload)` snapshot, so a
    /// concurrent [`apply_updates`](Self::apply_updates) can never pair
    /// this request's result with the wrong generation — an in-flight
    /// request pinned to the old epoch completes on the old payload
    /// (the `Arc` keeps it alive) and lands in its ledger class
    /// normally.
    pub fn serve_handle(
        &self,
        h: &MatrixHandle<T>,
        b: &DenseMatrix<T>,
    ) -> LfResult<ServeOutcome<T>> {
        let (fp, csr) = h.current();
        let out = self.serve_keyed(&fp, &csr, b);
        // Publish-time epoch re-check (the mutation-side mirror of the
        // deadline re-check above the classification point): if the
        // handle moved on while this request ran, any plan the request
        // admitted under the snapshot key is already stale — and may
        // have been admitted *after* the updater's sweep passed. Sweep
        // the snapshot key again so the stale entry cannot outlive the
        // race. (The served result itself is fine: it answers the
        // snapshot the caller handed in.)
        if h.epoch() != fp.epoch {
            self.retire_epoch(&fp);
        }
        out
    }

    /// Pre-compose a handle's plan for width `j` (admission-warming).
    /// Returns `Ok(true)` if a plan was composed, `Ok(false)` on an
    /// existing cached plan or a degraded compose (degraded plans are
    /// never cached). Warming is not a request: it touches no ledger
    /// class.
    pub fn warm(&self, h: &MatrixHandle<T>, j: usize) -> LfResult<bool> {
        let (fp, csr) = h.current();
        let key = (fp, j);
        if self.lookup(&key).is_some() {
            return Ok(false);
        }
        // `compose` admits the plan unless it is a degraded fallback.
        if self.compose(&key, &csr)?.plan.degraded {
            return Ok(false);
        }
        if h.epoch() != fp.epoch {
            self.retire_epoch(&fp);
            return Ok(false);
        }
        Ok(true)
    }

    /// Apply an edge-delta batch to a registered handle **and** bring
    /// both cache tiers to the new epoch (DESIGN.md §15):
    ///
    /// 1. the handle commits the batch atomically
    ///    ([`MatrixHandle::apply_updates`]) — from this instant every
    ///    lookup misses the old generation, because the epoch is part of
    ///    the cache key;
    /// 2. unless churn crossed [`lf_cost::churn_threshold`], cached CELL
    ///    plans for the retired fingerprint are **migrated**: their CELL
    ///    payload is incrementally re-bucketed
    ///    ([`lf_cell::update_cell`] — bitwise-identical to a rebuild)
    ///    and re-admitted under the new key, so the next serve hits
    ///    instead of recomposing;
    /// 3. stale plans are retired RAM-first, then disk
    ///    ([`Self::sweep_stale`]) — counted in
    ///    [`ServeStats::stale_evicted`].
    ///
    /// Failures leave nothing half-applied: a rejected batch (typed
    /// [`SparseError`]) changes neither the handle nor the caches; a
    /// failed migration just skips the plan (the sweep still retires the
    /// stale copy and the next serve recomposes); an aborted sweep
    /// leaves the retired fingerprint on the handle's list for the next
    /// sweep to retry. In-flight requests pinned to the old epoch
    /// complete on the old payload and are accounted normally.
    pub fn apply_updates(
        &self,
        h: &MatrixHandle<T>,
        updates: &[EdgeUpdate<T>],
    ) -> LfResult<UpdateOutcome> {
        let delta = h.apply_updates(updates)?;
        let migrated = if delta.rebuild {
            0
        } else {
            self.migrate_plans(&delta)
        };
        let swept = self.sweep_stale(h);
        Ok(UpdateOutcome {
            epoch: delta.fingerprint.epoch,
            fingerprint: delta.fingerprint,
            touched_rows: delta.touched_rows,
            rebuild: delta.rebuild,
            migrated,
            swept,
        })
    }

    /// Migrate every cached CELL plan keyed by the retired fingerprint
    /// to the new epoch via incremental maintenance. CSR-kernel and
    /// poisoned plans are skipped (swept and recomposed on demand); a
    /// panicking or failing migration skips that plan the same way.
    /// Returns how many plans were re-admitted under the new key.
    fn migrate_plans(&self, delta: &AppliedDelta<T>) -> usize {
        // Every `j` of a fingerprint maps to the same shard, so one
        // lock snapshot collects all candidates.
        let candidates: Vec<(usize, Arc<PlanSlot<T>>)> = {
            let old = &delta.old_fingerprint;
            // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
            let shard = lock_unpoisoned(&self.shards[old.shard(self.shards.len())]);
            shard
                .map
                .iter()
                .filter(|((fp, _), e)| fp == old && !e.slot.poisoned.load(Ordering::Relaxed))
                .map(|((_, j), e)| (*j, Arc::clone(&e.slot)))
                .collect()
        };
        let mut migrated = 0usize;
        for (j, slot) in candidates {
            let (Some(config), Some(cell)) = (slot.plan.cell_config(), slot.plan.cell()) else {
                continue;
            };
            let rebucketed = catch_unwind(AssertUnwindSafe(|| {
                let mut cell = cell.clone();
                lf_cell::update_cell(&mut cell, &delta.csr, &delta.touched).map(|()| cell)
            }));
            let Ok(Ok(cell)) = rebucketed else { continue };
            let plan = PreparedPlan::from_cell(config.clone(), cell, slot.plan.profile)
                .with_tuned_j(slot.plan.tuned_j)
                .with_epoch(delta.fingerprint.epoch);
            let migrated_slot = PlanSlot::new(plan, slot.cost_ns);
            if self.admit((delta.fingerprint, j), migrated_slot, 0) {
                migrated += 1;
            }
        }
        migrated
    }

    /// Retire every stale-epoch plan for the handle's retired
    /// fingerprints — RAM first (so a promotion can't resurrect what RAM
    /// just dropped), then disk. Returns `true` when every retired
    /// fingerprint was confirmed clean in both tiers (and forgotten);
    /// `false` means a sweep was aborted and the fingerprint stays on
    /// the handle's retired list for the next sweep — stale entries are
    /// unreachable meanwhile (the epoch is part of every key), just not
    /// yet reclaimed.
    pub fn sweep_stale(&self, h: &MatrixHandle<T>) -> bool {
        let mut done = Vec::new();
        #[cfg_attr(not(feature = "chaos"), allow(unused_mut))]
        let mut clean = true;
        for fp in h.retired() {
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::EpochSweepAbort) {
                    // Simulated kill before this epoch's sweep: both
                    // tiers keep their stale entries until a later
                    // sweep retries.
                    clean = false;
                    continue;
                }
            }
            let ram = self.retire_epoch_ram(&fp);
            self.counters
                .stale_evicted
                .fetch_add(ram as u64, Ordering::Relaxed);
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::StaleDiskRecord) {
                    // Simulated kill between the RAM and disk halves:
                    // the stale record stays on disk. Read-side epoch
                    // validation refuses it if anything ever asks.
                    clean = false;
                    continue;
                }
            }
            if let Some(store) = &self.store {
                let disk = store.remove_matrix(&fp);
                self.counters
                    .stale_evicted
                    .fetch_add(disk as u64, Ordering::Relaxed);
            }
            done.push(fp);
        }
        h.clear_retired(&done);
        clean
    }

    /// Drop every RAM entry keyed by `fp` (all widths), breaker counts
    /// included. Stale entries are discarded, not demoted — a retired
    /// epoch must not re-enter through the disk tier. Returns the number
    /// of plans dropped.
    fn retire_epoch_ram(&self, fp: &Fingerprint) -> usize {
        lock_unpoisoned(&self.failures).retain(|(f, _), _| f != fp);
        // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
        let mut shard = lock_unpoisoned(&self.shards[fp.shard(self.shards.len())]);
        let keys: Vec<(Fingerprint, usize)> =
            shard.map.keys().filter(|(f, _)| f == fp).copied().collect();
        for key in &keys {
            shard.remove(key);
        }
        keys.len()
    }

    /// Retire one fingerprint from both tiers immediately (the
    /// publish-time epoch re-check's sweep; no chaos gating — the chaos
    /// sites model crashes of the *update* path).
    fn retire_epoch(&self, fp: &Fingerprint) {
        let ram = self.retire_epoch_ram(fp);
        let disk = self
            .store
            .as_ref()
            .map_or(0, |store| store.remove_matrix(fp));
        self.counters
            .stale_evicted
            .fetch_add((ram + disk) as u64, Ordering::Relaxed);
    }

    /// Claim an in-flight slot or reject with [`LfError::Overloaded`].
    fn try_admit(&self) -> LfResult<InflightPermit<'_>> {
        let max = self.config.max_inflight;
        let inflight = self.counters.inflight.fetch_add(1, Ordering::Relaxed);
        if max != 0 && inflight >= max {
            self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
            return Err(LfError::Overloaded {
                inflight,
                max_inflight: max,
            });
        }
        Ok(InflightPermit {
            gauge: &self.counters.inflight,
        })
    }

    /// The request pipeline behind [`serve`](Self::serve) and
    /// [`serve_handle`](Self::serve_handle), once ingress has validated
    /// and keyed the payload: admit → route → resolve → execute →
    /// publish. A request the coalescer does not take runs solo with its
    /// cancel token installed throughout, so a deadline that fires while
    /// it composes fails it at the compose stage.
    fn serve_keyed(
        &self,
        fp: &Fingerprint,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
    ) -> LfResult<ServeOutcome<T>> {
        let t0 = Instant::now();
        let admitted = if csr.cols() != b.rows() {
            Err(LfError::InvalidInput(SparseError::DimensionMismatch {
                op: "serve",
                lhs: csr.shape(),
                rhs: b.shape(),
            }))
        } else {
            self.try_admit()
        };
        let _permit = match admitted {
            Ok(p) => p,
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let token = self
            .config
            .deadline_ms
            .map(|ms| CancelToken::with_deadline(t0 + Duration::from_millis(ms)));
        let key = (*fp, b.cols());
        let solo = || {
            let (slot, compose) = self.resolve(&key, csr)?;
            let operand = Operand {
                b,
                token: token.as_ref(),
            };
            let mut served = None;
            self.execute(&key, &slot, compose, csr, &[operand], |s| served = Some(s))?;
            // lf-lint: allow(panic-path): execute delivers one outcome per operand whenever it returns Ok
            served.expect("one operand, one outcome")
        };
        let served = match self.coalesce(fp, csr, b, token.as_ref()) {
            Some(served) => served,
            None => match &token {
                Some(t) => cancel::with_token(t, solo),
                None => solo(),
            },
        };
        self.publish(t0, token.as_ref(), served)
    }

    /// Publish stage — the single classification point: exactly one
    /// ledger class per admitted request, keeping the stats identity
    /// exact.
    fn publish(
        &self,
        t0: Instant,
        token: Option<&CancelToken>,
        served: LfResult<ServeOutcome<T>>,
    ) -> LfResult<ServeOutcome<T>> {
        let serve_wall_s = t0.elapsed().as_secs_f64();
        self.counters
            .serve_wall_ns
            .fetch_add((serve_wall_s * 1e9) as u64, Ordering::Relaxed);
        // Publish-time re-check: the body may have finished a shielded
        // final chunk (reference rescue, fused region another member
        // still wanted) after this request's deadline fired. A fired
        // deadline is always `DeadlineExceeded` — never late output.
        let served = served.and_then(|s| match token {
            Some(t) if t.is_cancelled() => Err(LfError::DeadlineExceeded { stage: "publish" }),
            _ => Ok(s),
        });
        match served {
            Ok(s) => {
                let class = if s.degraded {
                    &self.counters.degraded
                } else if s.hit {
                    &self.counters.hits
                } else {
                    &self.counters.misses
                };
                class.fetch_add(1, Ordering::Relaxed);
                Ok(ServeOutcome { serve_wall_s, ..s })
            }
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Resolve stage: the plan for `key` — a RAM hit, else a validated
    /// disk-tier record (promotions are `hits` in the ledger: the plan
    /// was cached, just colder; `disk_hits` splits them out), else a
    /// fresh [`compose`](Self::compose). The profile is `Some` exactly
    /// when this call composed.
    fn resolve(
        &self,
        key: &(Fingerprint, usize),
        csr: &CsrMatrix<T>,
    ) -> LfResult<(Arc<PlanSlot<T>>, Option<PreprocessProfile>)> {
        if let Some(slot) = self.lookup(key).or_else(|| self.try_promote(key)) {
            return Ok((slot, None));
        }
        let slot = self.compose(key, csr)?;
        let profile = slot.plan.profile;
        Ok((slot, Some(profile)))
    }

    /// Try to answer a RAM miss from the disk tier. A validated record
    /// is decoded, counted (`disk_hits`), and re-admitted into RAM
    /// (`promotions` — unless oversized for its shard slice). A rejected
    /// record reads as absent and the caller composes fresh.
    fn try_promote(&self, key: &(Fingerprint, usize)) -> Option<Arc<PlanSlot<T>>> {
        let (slot, uses) = self.load_record(self.store.as_ref()?, key)?;
        self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        if self.admit(*key, Arc::clone(&slot), uses) {
            self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        }
        Some(slot)
    }

    /// Whether an admitted request may enter the coalescing window.
    /// A late joiner whose remaining deadline budget cannot cover the
    /// window *plus* a fused run of comparable scale executes solo
    /// instead of joining (and then failing out of) a batch.
    fn batch_eligible(&self, token: Option<&CancelToken>) -> bool {
        let window = self.config.batch_window_us;
        if window == 0 {
            return false;
        }
        match token {
            None => true,
            Some(t) => {
                if t.is_cancelled() {
                    return false;
                }
                match t.deadline() {
                    None => true,
                    Some(d) => {
                        let budget = Duration::from_micros(window.saturating_mul(2));
                        Instant::now()
                            .checked_add(budget)
                            .is_some_and(|need| need < d)
                    }
                }
            }
        }
    }

    /// Route stage: offer an admitted request to the coalescer. `None`
    /// sends it down the solo path: coalescing is off, its deadline
    /// cannot afford the window, it is wide enough to fill a batch
    /// alone, the open group has no room, nobody joined, or the group
    /// dissolved (a typed kernel error, a leader that unwound). The
    /// request's token is not installed here — members enforce their
    /// deadlines at resolution, and `publish` re-checks.
    fn coalesce(
        &self,
        fp: &Fingerprint,
        csr: &CsrMatrix<T>,
        b: &DenseMatrix<T>,
        token: Option<&CancelToken>,
    ) -> Option<LfResult<ServeOutcome<T>>> {
        /// Liveness backstop for a member waiting on its leader — never
        /// reached in normal operation (a `ResolveGuard` releases
        /// members even when the leader unwinds).
        const JOIN_BACKSTOP: Duration = Duration::from_secs(60);
        let max_j = self.config.max_batch_j.max(1);
        if !self.batch_eligible(token) || b.cols() >= max_j {
            return None;
        }
        let t_enter = Instant::now();
        let res = match self.coalescer.admit(fp, b, token, max_j) {
            Admission::Full => return None,
            Admission::Joined(slot) => slot.wait(JOIN_BACKSTOP),
            Admission::Leader { group, slot } => {
                let window = Duration::from_micros(self.config.batch_window_us);
                group.await_window(window, max_j);
                let members = self.coalescer.close(fp, &group);
                if members.len() < 2 {
                    // Nobody joined: dissolve to the solo path. The
                    // window wait stays on this request's wall clock.
                    Resolution::Solo
                } else {
                    self.run_group(fp, csr, &members);
                    // Already resolved by run_group (or its guard):
                    // returns without blocking.
                    slot.wait(JOIN_BACKSTOP)
                }
            }
        };
        self.counters
            .batch_wait_ns
            .fetch_add(t_enter.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match res {
            Resolution::Served(s) => Some(Ok(s)),
            Resolution::Failed(e) => Some(Err(e)),
            Resolution::Solo => None,
        }
    }

    /// Resolve and execute one closed group (≥ 2 members) as a single
    /// fused run, delivering each member's own outcome to its slot.
    ///
    /// The plan is resolved at the **fused** width `Σ jᵢ`: the cache key
    /// and the planner both see the total, so a plan keyed (and tuned)
    /// for a member's narrow `j` is never reused for the wide execute.
    fn run_group(&self, fp: &Fingerprint, csr: &CsrMatrix<T>, members: &[Member<T>]) {
        // Whatever happens below — including a panic unwinding through
        // this frame — no member may be left waiting: the guard releases
        // every unresolved member to run solo.
        let _guard = ResolveGuard::new(members);
        let key = (*fp, members.iter().map(|m| m.b.cols()).sum());
        let (slot, compose) = match self.resolve(&key, csr) {
            Ok(resolved) => resolved,
            Err(e) => {
                // The fused compose failed: the leader takes the
                // typed error (exactly as its solo compose would
                // have); joiners retry solo via the guard.
                // lf-lint: allow(panic-path): a closed group always has a leader at members[0]
                members[0].slot.resolve(Resolution::Failed(e));
                return;
            }
        };
        let operands: Vec<Operand<'_, T>> = members
            .iter()
            .map(|m| Operand {
                b: &m.b,
                token: m.token.as_ref(),
            })
            .collect();
        let mut slots = members.iter().map(|m| &m.slot);
        // A typed kernel error — impossible for members that passed
        // ingress validation (widths and rows are checked) — resolves no
        // member, so the guard dissolves the group and every member
        // retries solo.
        let _ = self.execute(&key, &slot, compose, csr, &operands, |served| {
            if let Some(s) = slots.next() {
                s.resolve(served.map_or_else(Resolution::Failed, Resolution::Served));
            }
        });
    }

    /// Compose the plan for `key` on the calling thread (no locks held),
    /// recording the cold cost, and admit it to the cache — unless it is
    /// the degraded fallback, which is served but never cached: the
    /// cache must only amortize *intended* compositions. A deadline that
    /// fires before or during composition fails the request at this
    /// stage; the plan is dropped. Allocation counters are process-wide,
    /// so concurrent misses attribute each other's traffic to both — the
    /// totals stay an upper bound per request and exact in aggregate
    /// intent (see `lf-sim`'s allocator docs).
    fn compose(
        &self,
        key: &(Fingerprint, usize),
        csr: &CsrMatrix<T>,
    ) -> LfResult<Arc<PlanSlot<T>>> {
        if cancel::cancelled() {
            return Err(LfError::DeadlineExceeded { stage: "compose" });
        }
        let (plan, stats) = StageStats::measure(|| self.compose_or_degrade(key, csr));
        self.counters
            .cold_wall_ns
            .fetch_add((stats.wall_s * 1e9) as u64, Ordering::Relaxed);
        self.counters
            .cold_alloc_calls
            .fetch_add(stats.alloc_calls, Ordering::Relaxed);
        self.counters
            .cold_alloc_bytes
            .fetch_add(stats.alloc_bytes, Ordering::Relaxed);
        // Stamp the operand's epoch: the disk tier refuses any record
        // whose key and blob epochs disagree, so a plan composed for a
        // mutated handle must carry its generation from birth.
        let plan = plan?.with_epoch(key.0.epoch);
        if cancel::cancelled() {
            return Err(LfError::DeadlineExceeded { stage: "compose" });
        }
        let slot = PlanSlot::new(plan, (stats.wall_s * 1e9) as u64);
        if !slot.plan.degraded {
            self.admit(*key, Arc::clone(&slot), 0);
        }
        Ok(slot)
    }

    /// The compose rung of the degradation ladder: the planner's plan,
    /// or — when the composition panics, fails with a typed error that
    /// is not a rejection, or the breaker for `key` is open — a baseline
    /// CSR plan marked degraded. Exact (the CSR kernel is bitwise-equal
    /// to `spmm_reference`), only slower. Rejections pass through: they
    /// are the caller's fault, and degrading would mask them.
    fn compose_or_degrade(
        &self,
        key: &(Fingerprint, usize),
        csr: &CsrMatrix<T>,
    ) -> LfResult<PreparedPlan<T>> {
        if self.failure_count(key) < BREAKER_THRESHOLD {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                {
                    use lf_check::chaos::{decide, ChaosSite};
                    if decide(ChaosSite::ComposePanic) {
                        panic!("chaos: injected compose panic");
                    }
                    if decide(ChaosSite::AllocFail) {
                        return Err(LfError::ResourceExhausted {
                            what: "chaos: injected plan-scratch allocation failure".to_string(),
                        });
                    }
                }
                self.planner.prepare(csr, key.1)
            }));
            match attempt {
                Ok(Ok(plan)) => {
                    lock_unpoisoned(&self.failures).remove(key);
                    return Ok(plan);
                }
                Ok(Err(e)) if e.is_rejection() => return Err(e),
                Ok(Err(_)) | Err(_) => self.note_failure(key),
            }
        }
        let fallback = PreparedPlan::from_csr(csr.clone(), PreprocessProfile::default());
        Ok(fallback.with_tuned_j(key.1).mark_degraded())
    }

    /// Consecutive failures recorded against `key`.
    fn failure_count(&self, key: &(Fingerprint, usize)) -> u32 {
        lock_unpoisoned(&self.failures)
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// Count one failure against `key`'s breaker.
    fn note_failure(&self, key: &(Fingerprint, usize)) {
        *lock_unpoisoned(&self.failures).entry(*key).or_insert(0) += 1;
    }

    /// Execute stage — the one guarded run of a resolved plan for
    /// requests: a plain [`PreparedPlan::run`] for a lone operand, under
    /// its own token; one fused [`PreparedPlan::run_batched`] for several.
    /// `deliver` receives one outcome per operand, in order, each under
    /// the operand's *own* deadline verdict: results of a region its
    /// deadline cut short are discarded, never served.
    ///
    /// On a panic the slot is quarantined (exactly once, for every
    /// holder, which counts one failure against the key's breaker), and
    /// each operand is rescued separately with its baseline reference
    /// result — the last rung of the degradation ladder. A typed kernel
    /// error delivers nothing and is returned: it fails a solo request
    /// and dissolves a fused group.
    fn execute(
        &self,
        key: &(Fingerprint, usize),
        slot: &Arc<PlanSlot<T>>,
        compose: Option<PreprocessProfile>,
        csr: &CsrMatrix<T>,
        operands: &[Operand<'_, T>],
        mut deliver: impl FnMut(LfResult<ServeOutcome<T>>),
    ) -> Result<(), SparseError> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            {
                use lf_check::chaos::{decide, ChaosSite};
                if decide(ChaosSite::ExecutePanic) {
                    panic!("chaos: injected execute panic");
                }
            }
            match operands {
                [one] => match one.token {
                    Some(t) => cancel::with_token(t, || slot.plan.run(one.b)),
                    None => slot.plan.run(one.b),
                }
                .map(|c| (Some(c), Vec::new())),
                _ => {
                    // The fused region runs under the *conjunction* of
                    // the operands' tokens: no single deadline may kill
                    // work the others still want, but once every deadline
                    // has fired nobody wants the result and the region
                    // stops. When any operand is deadline-free the region
                    // is shielded — it must run to completion for it.
                    let group: Option<Vec<CancelToken>> =
                        operands.iter().map(|o| o.token.cloned()).collect();
                    let bs: Vec<&DenseMatrix<T>> = operands.iter().map(|o| o.b).collect();
                    match group.map(CancelToken::all_of) {
                        Some(t) => cancel::with_token(&t, || slot.plan.run_batched(&bs)),
                        None => cancel::shielded(|| slot.plan.run_batched(&bs)),
                    }
                    .map(|cs| (None, cs))
                }
            }
        }));
        let product = match run {
            Ok(Ok(product)) => Ok(product),
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                self.quarantine(key, slot);
                Err(panic_detail(payload.as_ref()))
            }
        };
        let fused = operands.len() >= 2;
        if fused {
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters
                .batched_requests
                .fetch_add(operands.len() as u64, Ordering::Relaxed);
        }
        let expired = |o: &Operand<'_, T>| o.token.is_some_and(|t| t.is_cancelled());
        let deadline = || Err(LfError::DeadlineExceeded { stage: "execute" });
        let served = |i: usize, result: DenseMatrix<T>, degraded: bool| {
            Ok(ServeOutcome {
                result,
                hit: compose.is_none(),
                degraded,
                fingerprint: key.0,
                compose: if i == 0 { compose } else { None },
                // Stamped by `publish`, which owns the request's clock.
                serve_wall_s: 0.0,
                batched: fused,
            })
        };
        match product {
            Ok((one, many)) => {
                let results = one.into_iter().chain(many);
                for (i, (op, result)) in operands.iter().zip(results).enumerate() {
                    deliver(if expired(op) {
                        deadline()
                    } else {
                        served(i, result, slot.plan.degraded)
                    });
                }
            }
            Err(detail) => {
                for (i, op) in operands.iter().enumerate() {
                    if expired(op) {
                        deliver(deadline());
                        continue;
                    }
                    // Rescue with the reference kernel, shielded so the
                    // rescue itself cannot be cancelled into partial
                    // output: it runs to completion, then the operand's
                    // OWN token is re-checked so a rescue that outlived
                    // its deadline reports `DeadlineExceeded` — never a
                    // late publish.
                    let rescue = catch_unwind(AssertUnwindSafe(|| {
                        cancel::shielded(|| csr.spmm_reference(op.b))
                    }));
                    deliver(match rescue {
                        Ok(Ok(_)) if expired(op) => deadline(),
                        Ok(Ok(result)) => served(i, result, true),
                        _ => Err(LfError::ExecutePanicked {
                            detail: detail.clone(),
                        }),
                    });
                }
            }
        }
        Ok(())
    }

    /// Poison `slot` and evict its cache entry — exactly once across all
    /// concurrent holders (the poison swap elects one winner; the
    /// `ptr_eq` check keeps a racing re-insert of the same key alive).
    /// The winner also counts the quarantine against `key`'s breaker.
    fn quarantine(&self, key: &(Fingerprint, usize), slot: &Arc<PlanSlot<T>>) {
        if slot.poisoned.swap(true, Ordering::Relaxed) {
            return; // someone else already quarantined this plan
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
        let mut shard = lock_unpoisoned(&self.shards[key.0.shard(self.shards.len())]);
        let ours = shard
            .map
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.slot, slot));
        if ours {
            shard.remove(key);
        }
        drop(shard);
        // Purge the disk tier too: a poisoned plan must not resurrect
        // through a later promotion or a restart warm.
        if let Some(store) = &self.store {
            store.remove(&key.0, key.1);
        }
        self.note_failure(key);
    }

    fn lookup(&self, key: &(Fingerprint, usize)) -> Option<Arc<PlanSlot<T>>> {
        // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
        let mut shard = lock_unpoisoned(&self.shards[key.0.shard(self.shards.len())]);
        let entry = shard.map.get_mut(key)?;
        if entry.slot.poisoned.load(Ordering::Relaxed) {
            // Belt-and-braces sweep: the poisoner evicts under the shard
            // lock, so this window is a replaced-entry race at most —
            // never serve a poisoned plan.
            shard.remove(key);
            return None;
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        entry.uses += 1;
        Some(Arc::clone(&entry.slot))
    }

    /// Admit a plan under the shard's byte budget, evicting whole
    /// least-recently-used plans to make room. A plan bigger than the
    /// whole slice is oversized (served, not cached); a concurrent insert
    /// of the same key wins and this plan just drops. `uses` seeds the
    /// entry's frequency (warm loads and promotions carry their disk-tier
    /// use counts back into RAM). Returns whether the plan was inserted.
    ///
    /// Eviction is **write-behind demoting**: victims leave the shard
    /// under the lock, then — with no lock held — each is offered to the
    /// disk tier. A successful write counts as a demotion; a failed
    /// write (or no store) counts the plan's bytes as dropped
    /// (`evicted_bytes`). Either way the RAM budget was already
    /// honored.
    fn admit(&self, key: (Fingerprint, usize), slot: Arc<PlanSlot<T>>, uses: u64) -> bool {
        debug_assert!(!slot.plan.degraded, "degraded plans are never cached");
        let bytes = slot.plan.format_bytes();
        let per_shard = (self.config.byte_budget / self.shards.len()).max(1);
        if bytes > per_shard {
            self.counters.oversized.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut victims = Vec::new();
        let inserted = {
            // lf-lint: allow(panic-path): shard() reduces modulo shards.len(), always in bounds
            let mut shard = lock_unpoisoned(&self.shards[key.0.shard(self.shards.len())]);
            if shard.map.contains_key(&key) {
                false
            } else {
                while shard.bytes + bytes > per_shard {
                    let victim = shard
                        .map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| *k)
                        // lf-lint: allow(panic-path): loop guard bytes > 0 implies a non-empty map
                        .expect("bytes > 0 implies a cached entry");
                    // lf-lint: allow(panic-path): victim key was just read from this map
                    let evicted = shard.remove(&victim).expect("victim exists");
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    victims.push((victim, evicted));
                }
                shard.bytes += bytes;
                shard.map.insert(
                    key,
                    Entry {
                        slot,
                        bytes,
                        last_used: self.tick.fetch_add(1, Ordering::Relaxed),
                        uses,
                    },
                );
                true
            }
        };
        for ((vfp, vj), entry) in victims {
            self.demote(&vfp, vj, &entry);
        }
        inserted
    }

    /// Offer an evicted RAM entry to the disk tier (write-behind; no
    /// shard lock is held). Poisoned plans are never demoted.
    fn demote(&self, fp: &Fingerprint, j: usize, entry: &Entry<T>) {
        let demoted = match &self.store {
            Some(store) if !entry.slot.poisoned.load(Ordering::Relaxed) => store
                .put(fp, j, &entry.slot.plan, entry.slot.cost_ns, entry.uses)
                .is_ok(),
            _ => false,
        };
        if demoted {
            self.counters.demotions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .evicted_bytes
                .fetch_add(entry.bytes as u64, Ordering::Relaxed);
        }
    }

    /// Drop every cached plan and close every circuit breaker (counters
    /// are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock_unpoisoned(shard);
            shard.map.clear();
            shard.bytes = 0;
        }
        lock_unpoisoned(&self.failures).clear();
    }

    /// Counter snapshot plus current cache occupancy.
    pub fn stats(&self) -> ServeStats {
        let (mut plans, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let shard = lock_unpoisoned(shard);
            plans += shard.map.len();
            bytes += shard.bytes;
        }
        let c = &self.counters;
        ServeStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            evicted_bytes: c.evicted_bytes.load(Ordering::Relaxed),
            demotions: c.demotions.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            promotions: c.promotions.load(Ordering::Relaxed),
            warm_loaded: c.warm_loaded.load(Ordering::Relaxed),
            warm_rejected: c.warm_rejected.load(Ordering::Relaxed),
            stale_evicted: c.stale_evicted.load(Ordering::Relaxed),
            oversized: c.oversized.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            cold_compose: StageStats {
                wall_s: c.cold_wall_ns.load(Ordering::Relaxed) as f64 / 1e9,
                alloc_calls: c.cold_alloc_calls.load(Ordering::Relaxed),
                alloc_bytes: c.cold_alloc_bytes.load(Ordering::Relaxed),
            },
            serve: StageStats {
                wall_s: c.serve_wall_ns.load(Ordering::Relaxed) as f64 / 1e9,
                alloc_calls: 0,
                alloc_bytes: 0,
            },
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            batch_wait_s: c.batch_wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
            cached_plans: plans,
            cached_bytes: bytes,
            store_bytes: self.store.as_ref().map_or(0, |s| s.bytes() as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::FixedCellPlanner;
    use lf_sparse::gen::mixed_regions;
    use lf_sparse::Pcg32;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        CsrMatrix::from_coo(&mixed_regions(128, 128, 2500, 4, &mut rng))
    }

    fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn engine() -> ServeEngine<f64, FixedCellPlanner> {
        ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default())
    }

    fn assert_ledger_balances(s: &ServeStats) {
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed
        );
    }

    #[test]
    fn miss_then_hit_with_correct_results() {
        let e = engine();
        let a = matrix(1);
        let mut rng = Pcg32::seed_from_u64(99);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();

        let cold = e.serve(&a, &b).unwrap();
        assert!(!cold.hit);
        assert!(!cold.degraded);
        assert!(cold.compose.is_some());
        assert_eq!(bits(&cold.result), bits(&want));

        let warm = e.serve(&a, &b).unwrap();
        assert!(warm.hit);
        assert!(warm.compose.is_none());
        assert_eq!(bits(&warm.result), bits(&want));

        let s = e.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.rejected, s.degraded, s.failed), (0, 0, 0));
        assert_ledger_balances(&s);
        assert_eq!(s.cached_plans, 1);
        assert!(s.cached_bytes > 0);
        assert!(s.cold_compose.wall_s >= 0.0);
        assert!(s.cold_compose.alloc_bytes > 0);
    }

    #[test]
    fn distinct_j_widths_are_distinct_plans() {
        let e = engine();
        let a = matrix(2);
        let mut rng = Pcg32::seed_from_u64(98);
        let b8 = DenseMatrix::random(128, 8, &mut rng);
        let b16 = DenseMatrix::random(128, 16, &mut rng);
        assert!(!e.serve(&a, &b8).unwrap().hit);
        assert!(!e.serve(&a, &b16).unwrap().hit, "j is part of the key");
        assert!(e.serve(&a, &b8).unwrap().hit);
        assert_eq!(e.stats().cached_plans, 2);
    }

    #[test]
    fn handle_skips_fingerprinting_and_hits() {
        let e = engine();
        let h = MatrixHandle::new(matrix(3)).unwrap();
        let mut rng = Pcg32::seed_from_u64(97);
        let b = DenseMatrix::random(128, 8, &mut rng);
        assert!(e.warm(&h, 8).unwrap(), "first warm composes");
        assert!(!e.warm(&h, 8).unwrap(), "second warm is a no-op");
        let out = e.serve_handle(&h, &b).unwrap();
        assert!(out.hit, "warmed handle must hit");
        // Payload and handle share the cache entry.
        assert!(e.serve(&h.csr(), &b).unwrap().hit);
    }

    #[test]
    fn byte_budget_evicts_lru_whole_plans() {
        // One shard, budget sized for ~1 plan: every new matrix evicts
        // the previous one.
        let probe = engine();
        let mut rng = Pcg32::seed_from_u64(96);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let one = probe.serve(&matrix(10), &b).unwrap();
        drop(one);
        let plan_bytes = probe.stats().cached_bytes;
        assert!(plan_bytes > 0);

        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                shards: 1,
                byte_budget: plan_bytes + plan_bytes / 2,
                ..ServeConfig::default()
            },
        );
        for seed in [20u64, 21, 22] {
            assert!(!e.serve(&matrix(seed), &b).unwrap().hit);
        }
        let s = e.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 2, "evictions: {}", s.evictions);
        assert_eq!(s.cached_plans, 1, "whole plans are evicted");
        assert!(s.cached_bytes <= s.cached_bytes.max(plan_bytes * 3 / 2));
    }

    #[test]
    fn oversized_plans_are_served_but_never_cached() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                shards: 1,
                byte_budget: 16,
                ..ServeConfig::default()
            },
        );
        let mut rng = Pcg32::seed_from_u64(95);
        let a = matrix(30);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();
        let out = e.serve(&a, &b).unwrap();
        assert_eq!(bits(&out.result), bits(&want));
        let s = e.stats();
        assert_eq!(s.oversized, 1);
        assert_eq!(s.cached_plans, 0);
        // The same request misses again: nothing was cached. An
        // oversized plan is still a clean miss in the ledger.
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_eq!(e.stats().misses, 2);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn dimension_mismatch_is_a_counted_rejection_not_a_cache_entry() {
        let e = engine();
        let a = matrix(40);
        let b = DenseMatrix::<f64>::zeros(64, 8); // wrong inner dim
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)));
        assert!(err.is_rejection());
        let s = e.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.requests(), 1, "rejections are requests too");
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.cached_plans, 0);
        assert_ledger_balances(&s);
    }

    #[test]
    fn zero_deadline_fails_typed_before_composing() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                deadline_ms: Some(0),
                ..ServeConfig::default()
            },
        );
        let a = matrix(41);
        let mut rng = Pcg32::seed_from_u64(90);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::DeadlineExceeded { .. }), "{err}");
        let s = e.stats();
        assert_eq!(s.failed, 1);
        assert_eq!(s.cached_plans, 0, "no partial work is cached");
        assert_ledger_balances(&s);
    }

    #[test]
    fn admission_gate_rejects_beyond_max_inflight() {
        let e = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                max_inflight: 1,
                ..ServeConfig::default()
            },
        );
        // Hold the only slot, then serve: the gate must reject.
        let permit = e.try_admit().unwrap();
        let a = matrix(42);
        let mut rng = Pcg32::seed_from_u64(89);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::Overloaded { .. }), "{err}");
        assert!(err.is_rejection());
        assert_eq!(e.stats().rejected, 1);
        // Releasing the permit reopens the gate.
        drop(permit);
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn quarantine_evicts_exactly_once_and_poisoned_plans_never_reserve() {
        let e = engine();
        let a = matrix(43);
        let mut rng = Pcg32::seed_from_u64(88);
        let b = DenseMatrix::random(128, 8, &mut rng);
        e.serve(&a, &b).unwrap();
        let key = (Fingerprint::of_csr(&a), 8);
        let slot = e.lookup(&key).expect("plan was cached");

        // Two concurrent panickers race the quarantine: exactly one wins.
        e.quarantine(&key, &slot);
        e.quarantine(&key, &slot);
        let s = e.stats();
        assert_eq!(s.quarantined, 1, "quarantine is exactly-once");
        assert_eq!(s.cached_plans, 0, "the poisoned plan was evicted");

        // A holder that still has the Arc can never re-serve it.
        assert!(slot.poisoned.load(Ordering::Relaxed));
        assert!(e.lookup(&key).is_none());

        // The key itself is not tainted: the next request recomposes.
        assert!(!e.serve(&a, &b).unwrap().hit);
        assert_eq!(e.stats().cached_plans, 1);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn nonfinite_payloads_follow_the_policy() {
        let values = vec![1.0, f64::NAN, 2.0];
        let a = CsrMatrix::from_raw_unchecked(2, 2, vec![0, 2, 3], vec![0, 1, 0], values);
        let b = DenseMatrix::<f64>::zeros(2, 4);

        let strict = engine();
        let err = strict.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
        let s = strict.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!((s.hits, s.misses), (0, 0), "no cache or miss counters");
        assert_eq!(s.cached_plans, 0);

        let lenient = ServeEngine::new(
            FixedCellPlanner::tuned(4),
            ServeConfig {
                reject_nonfinite: false,
                ..ServeConfig::default()
            },
        );
        let out = lenient.serve(&a, &b).unwrap();
        assert!(!out.hit, "lenient policy serves non-finite payloads");
    }

    #[test]
    fn malformed_payload_rejected_before_fingerprint_or_cache() {
        // Satellite bugfix regression: an invalid CSR must produce a
        // typed rejection without touching the cache or miss counters.
        let a = CsrMatrix::<f64>::from_raw_unchecked(
            2,
            2,
            vec![0, 3, 2], // non-monotone row_ptr
            vec![0, 1],
            vec![1.0, 2.0],
        );
        let b = DenseMatrix::<f64>::zeros(2, 4);
        let e = engine();
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::InvalidInput(_)), "{err}");
        let s = e.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!((s.hits, s.misses, s.cached_plans), (0, 0, 0));
        assert_ledger_balances(&s);
    }

    /// A planner whose plan always panics on execute: its single bucket
    /// stores a column index equal to `cols`, so the kernel's `B`-row
    /// gather is out of bounds. The shape is honest, so ingress
    /// validation and the plan shape check both pass.
    struct BrokenPlanner;

    impl Planner<f64> for BrokenPlanner {
        fn prepare(
            &self,
            csr: &CsrMatrix<f64>,
            _j: usize,
        ) -> liteform_core::LfResult<PreparedPlan<f64>> {
            let config = lf_cell::CellConfig::default();
            let cell = lf_cell::CellMatrix::from_parts(
                csr.rows(),
                csr.cols(),
                1,
                vec![lf_cell::Partition {
                    col_range: (0, csr.cols()),
                    buckets: vec![lf_cell::Bucket {
                        width: 1,
                        row_ind: vec![0],
                        col_ind: vec![csr.cols() as lf_sparse::Index], // out of bounds
                        values: vec![1.0],
                        rows_per_block: 1,
                        needs_atomic: false,
                        has_folded: false,
                    }],
                }],
                config.clone(),
            );
            Ok(PreparedPlan::from_cell(
                config,
                cell,
                PreprocessProfile::default(),
            ))
        }
    }

    #[test]
    fn deadline_firing_mid_rescue_is_deadline_exceeded_not_late_output() {
        // Satellite regression: the plan panics immediately, and the
        // shielded reference rescue — the request's *final chunk* — runs
        // to completion long after the 5 ms deadline fires (~100 MFLOP
        // on one thread). Before the post-rescue token re-check, the
        // stale rescue result was published as a degraded success; a
        // fired deadline must always be `DeadlineExceeded`.
        let e = ServeEngine::new(
            BrokenPlanner,
            ServeConfig {
                deadline_ms: Some(5),
                ..ServeConfig::default()
            },
        );
        let mut rng = Pcg32::seed_from_u64(7);
        let a: CsrMatrix<f64> =
            CsrMatrix::from_coo(&mixed_regions(1024, 1024, 400_000, 4, &mut rng));
        let b = DenseMatrix::random(1024, 128, &mut rng);
        // Pay the process's one-time tile planning for this matrix before
        // the clock matters, so the 5 ms deadline cannot fire during the
        // compose instead (as it did when this test ran first).
        drop(BrokenPlanner.prepare(&a, 128));
        let err = e.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::DeadlineExceeded { .. }), "{err}");
        let s = e.stats();
        assert_eq!(s.failed, 1, "a fired deadline is failed, not degraded");
        assert_eq!(s.degraded, 0, "the rescue result was discarded");
        assert_eq!(s.quarantined, 1, "the panicking plan was quarantined");
        assert_ledger_balances(&s);
    }

    /// A planner whose compose panics while `panicking` is set, and whose
    /// plans panic on execute while `broken_plans` is set (see
    /// [`BrokenPlanner`]); it counts every compose attempt.
    struct FaultyPlanner {
        panicking: AtomicBool,
        broken_plans: AtomicBool,
        attempts: AtomicU64,
    }

    impl FaultyPlanner {
        fn panicking() -> Self {
            FaultyPlanner {
                panicking: AtomicBool::new(true),
                broken_plans: AtomicBool::new(false),
                attempts: AtomicU64::new(0),
            }
        }
    }

    impl Planner<f64> for FaultyPlanner {
        fn prepare(&self, csr: &CsrMatrix<f64>, j: usize) -> LfResult<PreparedPlan<f64>> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if self.panicking.load(Ordering::Relaxed) {
                panic!("composer bug");
            }
            if self.broken_plans.load(Ordering::Relaxed) {
                return BrokenPlanner.prepare(csr, j);
            }
            FixedCellPlanner::tuned(4).prepare(csr, j)
        }
    }

    fn faulty_engine() -> ServeEngine<f64, FaultyPlanner> {
        ServeEngine::new(FaultyPlanner::panicking(), ServeConfig::default())
    }

    #[test]
    fn compose_panic_degrades_to_an_exact_uncached_csr_result() {
        let e = faulty_engine();
        let a = matrix(60);
        let mut rng = Pcg32::seed_from_u64(87);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();
        let out = e.serve(&a, &b).unwrap();
        assert!(out.degraded, "a compose panic must degrade, not fail");
        assert!(!out.hit);
        assert!(
            out.compose.is_some(),
            "the fallback is this request's compose"
        );
        // The fallback is the baseline CSR kernel, which accumulates each
        // row in index order: bitwise the reference.
        assert_eq!(bits(&out.result), bits(&want));
        let s = e.stats();
        assert_eq!((s.degraded, s.failed, s.misses), (1, 0, 0));
        assert_eq!(s.cached_plans, 0, "degraded plans are never cached");
        assert_ledger_balances(&s);
    }

    #[test]
    fn breaker_opens_after_threshold_and_skips_the_compose() {
        let e = faulty_engine();
        let a = matrix(61);
        let mut rng = Pcg32::seed_from_u64(86);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();
        for _ in 0..BREAKER_THRESHOLD {
            assert!(e.serve(&a, &b).unwrap().degraded);
        }
        assert_eq!(e.planner.attempts.load(Ordering::Relaxed), 3);
        // Even a now-healthy composer is skipped while the breaker is
        // open: a composition that keeps dying stops costing compose
        // time.
        e.planner.panicking.store(false, Ordering::Relaxed);
        let out = e.serve(&a, &b).unwrap();
        assert!(out.degraded, "an open breaker serves the fallback");
        assert_eq!(bits(&out.result), bits(&want));
        assert_eq!(
            e.planner.attempts.load(Ordering::Relaxed),
            3,
            "an open breaker must not attempt the compose"
        );
        // Another key — the same matrix at another width, and another
        // matrix — is unaffected.
        let b16 = DenseMatrix::random(128, 16, &mut rng);
        let other = e.serve(&a, &b16).unwrap();
        assert!(!other.degraded && !other.hit);
        let other = e.serve(&matrix(62), &b).unwrap();
        assert!(!other.degraded && !other.hit);
        assert_eq!(e.planner.attempts.load(Ordering::Relaxed), 5);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn clean_compose_resets_the_failure_count() {
        let e = faulty_engine();
        let a = matrix(63);
        let mut rng = Pcg32::seed_from_u64(85);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let key = (Fingerprint::of_csr(&a), 8);
        for _ in 0..BREAKER_THRESHOLD - 1 {
            assert!(e.serve(&a, &b).unwrap().degraded);
        }
        assert_eq!(e.failure_count(&key), BREAKER_THRESHOLD - 1);
        e.planner.panicking.store(false, Ordering::Relaxed);
        assert!(!e.serve(&a, &b).unwrap().degraded);
        assert_eq!(
            e.failure_count(&key),
            0,
            "a clean compose closes the breaker"
        );
    }

    /// Serve `a` through a panicking compose until the breaker opens,
    /// then heal the composer.
    fn open_breaker<F: FnMut()>(e: &ServeEngine<f64, FaultyPlanner>, mut serve: F) {
        e.planner.panicking.store(true, Ordering::Relaxed);
        for _ in 0..BREAKER_THRESHOLD {
            serve();
        }
        e.planner.panicking.store(false, Ordering::Relaxed);
    }

    #[test]
    fn open_breaker_stays_open_until_clear() {
        let e = faulty_engine();
        let a = matrix(65);
        let mut rng = Pcg32::seed_from_u64(83);
        let b = DenseMatrix::random(128, 8, &mut rng);
        open_breaker(&e, || assert!(e.serve(&a, &b).unwrap().degraded));
        // No half-open probe: however many requests follow, the healed
        // composer is never asked again for this key.
        let attempts = e.planner.attempts.load(Ordering::Relaxed);
        for _ in 0..5 {
            assert!(e.serve(&a, &b).unwrap().degraded);
        }
        assert_eq!(e.planner.attempts.load(Ordering::Relaxed), attempts);
        // `clear` forgets the breaker along with the cached plans.
        e.clear();
        let out = e.serve(&a, &b).unwrap();
        assert!(!out.degraded, "clear closes the breaker");
        assert_eq!(e.planner.attempts.load(Ordering::Relaxed), attempts + 1);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn retiring_an_epoch_drops_its_breaker_counts() {
        let e = faulty_engine();
        let a = matrix(66);
        let mut rng = Pcg32::seed_from_u64(82);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let (row, col, v) = a.iter().next().unwrap();
        let h = MatrixHandle::new(a).unwrap();
        open_breaker(&e, || assert!(e.serve_handle(&h, &b).unwrap().degraded));
        let old = (h.fingerprint(), 8);
        assert_eq!(e.failure_count(&old), BREAKER_THRESHOLD);
        let update = EdgeUpdate::SetValue {
            row,
            col,
            value: v + 1.0,
        };
        assert!(e.apply_updates(&h, &[update]).unwrap().swept);
        assert!(
            lock_unpoisoned(&e.failures).is_empty(),
            "the retired epoch's breaker count must not outlive it"
        );
        // The new epoch is a new key with a closed breaker.
        let out = e.serve_handle(&h, &b).unwrap();
        assert!(!out.degraded);
        assert_eq!(
            bits(&out.result),
            bits(&h.csr().spmm_reference(&b).unwrap())
        );
    }

    #[test]
    fn execute_quarantines_count_toward_the_breaker() {
        let e = faulty_engine();
        let a = matrix(64);
        let mut rng = Pcg32::seed_from_u64(84);
        let b = DenseMatrix::random(128, 8, &mut rng);
        let want = a.spmm_reference(&b).unwrap();
        // A clean compose whose plan panics on execute: quarantined, and
        // the request rescued with the reference result.
        e.planner.panicking.store(false, Ordering::Relaxed);
        e.planner.broken_plans.store(true, Ordering::Relaxed);
        let out = e.serve(&a, &b).unwrap();
        assert!(out.degraded);
        assert_eq!(bits(&out.result), bits(&want));
        assert_eq!(e.stats().quarantined, 1);
        // Two compose failures on top of the quarantine reach the
        // threshold; without the quarantine they would not.
        e.planner.panicking.store(true, Ordering::Relaxed);
        for _ in 0..BREAKER_THRESHOLD - 1 {
            assert!(e.serve(&a, &b).unwrap().degraded);
        }
        e.planner.panicking.store(false, Ordering::Relaxed);
        e.planner.broken_plans.store(false, Ordering::Relaxed);
        let attempts = e.planner.attempts.load(Ordering::Relaxed);
        assert!(e.serve(&a, &b).unwrap().degraded, "the breaker is open");
        assert_eq!(e.planner.attempts.load(Ordering::Relaxed), attempts);
        assert_ledger_balances(&e.stats());
    }

    #[test]
    fn clear_resets_cache_but_not_counters() {
        let e = engine();
        let mut rng = Pcg32::seed_from_u64(94);
        let a = matrix(50);
        let b = DenseMatrix::random(128, 8, &mut rng);
        e.serve(&a, &b).unwrap();
        e.clear();
        let s = e.stats();
        assert_eq!(s.cached_plans, 0);
        assert_eq!(s.cached_bytes, 0);
        assert_eq!(s.misses, 1);
        assert!(!e.serve(&a, &b).unwrap().hit, "cleared cache misses again");
    }
}
