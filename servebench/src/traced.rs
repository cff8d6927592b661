//! The traced run: per-layer metrics from spans the benchmark records
//! around public calls into each layer.
//!
//! Four parts, all over the workload's seeded inputs:
//!
//! 1. **Population pass.** For every (matrix, J) pair, each layer's
//!    public entry point is called and timed once (kernels five times):
//!    validation, fingerprint, `LiteForm::compose`, tile plan, codec,
//!    disk store, delta apply, incremental CELL update, the served
//!    plan's kernel and the CSR baseline kernel. The compose stages
//!    (features, selector, predictor, width search, CELL build) are the
//!    per-stage times `compose` itself reports; the CELL-only stages and
//!    the update are sampled only on pairs the planner routes to CELL.
//!    This gives the per-call medians and the per-(matrix, J) baseline
//!    table.
//! 2. **Request replay.** A fixed request sequence runs on two engines
//!    set up the same way: an untraced twin, and a traced one whose
//!    every call is wrapped in a `serve.call` span under a `request`
//!    root. The compose stages the engine ran for a request come from
//!    the engine's own report (`ServeOutcome::compose`) as child spans
//!    of the call; the stages it does not report (validation,
//!    fingerprint, kernel run) are re-run after the call as probe spans
//!    under the same root. The serve layer's self time is the call's
//!    residual once the other layers are subtracted. Tracing overhead is
//!    the traced engine's call time over the untraced twin's, for the
//!    same requests in alternating order.
//! 3. **Overhead and update probes** on the traced engine.
//! 4. **Disk probe.** An engine with the disk tier on and a RAM budget
//!    below the working set serves the pairs, demoting and promoting
//!    plans, then restarts warmed from its directory.
//!
//! Spans (id, name, parent, start, end) are kept in memory and written
//! out when the run ends. A span the engine reported rather than the
//! benchmark timed is marked `reported`: its duration is the engine's,
//! and its start is placed by laying the stages out back to back in
//! pipeline order from the start of the call that ran them.

use crate::check::{output_ok, Tally};
use crate::inputs::{self, Item, Stream, T, WIDTHS};
use crate::report::{geomean, mean, median, percentile, Json, Metric};
use crate::timed::{self, ms, planner, timed, Engine};
use crate::{Outcome, Workload};
use lf_cell::update_cell;
use lf_cost::{plan_tile, tile_cache_stats, TileFeatures};
use lf_kernels::{CsrVectorKernel, SpmmKernel};
use lf_serve::{
    Fingerprint, MatrixHandle, Placement, PlanStore, ServeConfig, ServeOutcome, ServeStats,
    StoreConfig,
};
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate};
use liteform_core::{
    decode_plan, encode_plan, LfResult, LiteForm, PreparedPlan, PreprocessProfile,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Kernel repetitions per pair in the population pass (median taken).
const KERNEL_REPS: usize = 5;
/// Warmed `serve_handle` calls on the small matrix of the hit-overhead
/// probe.
const OVERHEAD_REPS: usize = 400;
/// Seeded shuffled rounds the disk probe serves before its restart.
const DISK_ROUNDS: usize = 2;

/// One recorded span.
struct Span {
    /// Request (or pair) id shared by every span of one tree.
    id: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Duration reported by the engine rather than timed here.
    reported: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Layer a span belongs to: the prefix of its name.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    ids: u64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ids: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh id for one span tree.
    fn next_id(&mut self) -> u64 {
        self.ids += 1;
        self.ids
    }

    fn open(&mut self, id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            reported: false,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Run `f` inside a span; returns its result and duration in ms.
    fn span<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let s = self.open(id, name, Some(parent));
        // Opaque to the optimizer, so a probe whose result is dropped
        // still does its work.
        let r = std::hint::black_box(f());
        self.close(s);
        (r, self.spans[s].ms())
    }

    /// Record a span of `wall_s` seconds that the engine measured,
    /// starting at `start_ns`; returns its end.
    fn reported(
        &mut self,
        id: u64,
        name: &'static str,
        parent: usize,
        start_ns: u64,
        wall_s: f64,
    ) -> u64 {
        let end_ns = start_ns + (wall_s * 1e9) as u64;
        self.spans.push(Span {
            id,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            reported: true,
        });
        end_ns
    }

    /// One JSON object per span, with its self time: its duration minus
    /// the part its child spans cover.
    fn to_jsonl(&self) -> String {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = String::new();
        for (i, (s, child_ms)) in self.spans.iter().zip(child_ms).enumerate() {
            let doc = Json::obj([
                ("span", Json::Int(i as i64)),
                ("id", Json::Int(s.id as i64)),
                ("name", Json::str(s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ("self_us", Json::Num((s.ms() - child_ms).max(0.0) * 1e3)),
                ("reported", Json::Bool(s.reported)),
            ]);
            out.push_str(&doc.render());
            out.push('\n');
        }
        out
    }
}

/// Per-pair observations from the population pass.
struct PairRow {
    name: String,
    family: &'static str,
    j: usize,
    nnz: usize,
    plan: PreparedPlan<T>,
    run_ms: f64,
    csr_run_ms: f64,
    sim_speedup: f64,
}

impl PairRow {
    fn kind(&self) -> String {
        match self.plan.cell_config() {
            Some(c) => format!("CELL p={}", c.num_partitions),
            None => "CSR".into(),
        }
    }

    fn ratio(&self) -> f64 {
        self.run_ms / self.csr_run_ms
    }
}

/// One (matrix, J) pair of the workload: the handle (or matrix) it is
/// served on, its row in the population pass, and its operand.
#[derive(Clone, Copy)]
struct Pair<'a> {
    handle: usize,
    row: usize,
    j: usize,
    b: &'a DenseMatrix<T>,
}

/// Stage timings collected across the traced run.
#[derive(Default)]
struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of `key`'s samples times `scale`, noting how many
    /// samples it is the median of.
    fn metric(&self, name: &'static str, unit: &'static str, key: &str, scale: f64) -> Metric {
        let v = self.samples(key);
        Metric::new(name, unit, median(v) * scale).note(format!("median of {} samples", v.len()))
    }
}

/// Record the compose stages the engine reported, as child spans of
/// `parent` laid out from `start_ns`, and as stage samples. The
/// CELL-only stages (predictor, width search, build) are recorded only
/// for a CELL plan: a CSR plan never runs them.
fn record_compose(
    tr: &mut Tracer,
    st: &mut Stages,
    id: u64,
    parent: usize,
    start_ns: u64,
    p: &PreprocessProfile,
    cell: bool,
) {
    let mut stages = vec![
        ("sparse.features", &p.feature_extraction),
        ("core.select", &p.selection_inference),
    ];
    if cell {
        stages.extend([
            ("core.partition", &p.partition_inference),
            ("cost.width_search", &p.width_search),
            ("cell.build", &p.build),
        ]);
        st.push("cell.build_allocs", p.build.alloc_calls as f64);
    }
    let mut at = start_ns;
    for (name, s) in stages {
        at = tr.reported(id, name, parent, at, s.wall_s);
        st.push(name, s.wall_s * 1e3);
    }
}

/// The CSR baseline kernel with the execution tile a served CSR plan
/// would get.
fn csr_kernel(csr: &CsrMatrix<T>, j: usize) -> CsrVectorKernel<T> {
    let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<T>());
    CsrVectorKernel::new(csr.clone()).with_tile(plan_tile(features, j))
}

struct Population<'a> {
    lf: &'a LiteForm,
    store: PlanStore<T>,
    seed: u64,
}

impl Population<'_> {
    /// Probe every layer once on one pair; spans rooted at `pair`.
    fn pair(
        &self,
        tr: &mut Tracer,
        st: &mut Stages,
        item: &Item,
        j: usize,
        b: &DenseMatrix<T>,
    ) -> Result<PairRow, String> {
        let csr = &item.csr;
        let id = tr.next_id();
        let root = tr.open(id, "pair", None);
        let (valid, d) = tr.span(id, "sparse.validate", root, || csr.validate_finite());
        valid.map_err(|e| format!("{}: invalid input: {e}", item.name))?;
        st.push("sparse.validate", d);
        let (fp, d) = tr.span(id, "serve.fingerprint", root, || Fingerprint::of_csr(csr));
        st.push("serve.fingerprint", d);
        let compose = tr.open(id, "core.compose", Some(root));
        let composed = std::hint::black_box(self.lf.compose(csr, j));
        tr.close(compose);
        let start = tr.spans[compose].start_ns;
        let cell = composed.uses_cell();
        record_compose(tr, st, id, compose, start, &composed.profile, cell);
        let plan = composed.into_prepared(csr, j);
        let features = TileFeatures::new(csr.rows(), csr.nnz(), std::mem::size_of::<T>());
        let (_, d) = tr.span(id, "cost.tile_plan", root, || plan_tile(features, j));
        st.push("cost.tile_plan", d);

        let baseline = csr_kernel(csr, j);
        let (mut run, mut csr_run) = (Vec::new(), Vec::new());
        for _ in 0..KERNEL_REPS {
            let (c, d) = tr.span(id, "kernels.run", root, || plan.run(b));
            c.map_err(|e| format!("{}: plan run: {e}", item.name))?;
            run.push(d);
            let (c, d) = tr.span(id, "kernels.csr_run", root, || baseline.run(b));
            c.map_err(|e| format!("{}: csr run: {e}", item.name))?;
            csr_run.push(d);
        }
        let sim_speedup = baseline.profile(j, &self.lf.device).time_ms
            / plan.kernel_profile(j, &self.lf.device).time_ms;

        let (bytes, d) = tr.span(id, "core.encode", root, || encode_plan(&plan));
        let bytes = bytes.map_err(|e| format!("{}: encode: {e}", item.name))?;
        st.push("core.encode", d);
        let (decoded, d) = tr.span(id, "core.decode", root, || decode_plan::<T>(&bytes));
        decoded.map_err(|e| format!("{}: decode: {e}", item.name))?;
        st.push("core.decode", d);
        let (put, d) = tr.span(id, "store.put", root, || {
            self.store.put(&fp, j, &plan, 1, 1)
        });
        put.map_err(|e| format!("{}: store put: {e}", item.name))?;
        st.push("store.put", d);
        let (got, d) = tr.span(id, "store.get", root, || self.store.get(&fp, j));
        match got {
            Ok(Some(_)) => st.push("store.get", d),
            other => return Err(format!("{}: store get: {:?}", item.name, other.err())),
        }

        let mut rng = inputs::rng(self.seed, Stream::Trace, id);
        let batch = inputs::update_batch(csr, &mut rng);
        let (next, d) = tr.span(id, "sparse.apply_delta", root, || csr.apply_updates(&batch));
        let next = next.map_err(|e| format!("{}: apply delta: {e}", item.name))?;
        st.push("sparse.apply_delta", d);
        // The engine maintains only CELL plans incrementally.
        if let Some(cell) = plan.cell() {
            let mut cell = cell.clone();
            let touched: Vec<(usize, usize)> = batch.iter().map(EdgeUpdate::coord).collect();
            let (r, d) = tr.span(id, "cell.update", root, || {
                update_cell(&mut cell, &next, &touched)
            });
            r.map_err(|e| format!("{}: cell update: {e}", item.name))?;
            st.push("cell.update", d);
        }
        tr.close(root);
        Ok(PairRow {
            name: item.name.clone(),
            family: item.family,
            j,
            nnz: csr.nnz(),
            plan,
            run_ms: median(&run),
            csr_run_ms: median(&csr_run),
            sim_speedup,
        })
    }
}

/// What one replayed request needs.
enum Req<'a> {
    /// `serve` of a raw payload.
    Payload(&'a CsrMatrix<T>, &'a DenseMatrix<T>),
    /// `serve_handle` of handle `k` (same index on both twins).
    Handle(usize, &'a DenseMatrix<T>),
}

/// One engine with its handles.
struct Side {
    engine: Engine,
    handles: Vec<MatrixHandle<T>>,
    tally: Tally,
}

impl Side {
    fn new(engine: Engine, copies: Vec<CsrMatrix<T>>) -> Result<Side, String> {
        let handles = copies
            .into_iter()
            .map(|c| MatrixHandle::new(c).map_err(|e| format!("register: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Side {
            engine,
            handles,
            tally: Tally::default(),
        })
    }

    fn serve(&mut self, req: &Req) -> LfResult<ServeOutcome<T>> {
        let r = match *req {
            Req::Payload(a, b) => self.engine.serve(a, b),
            Req::Handle(k, b) => self.engine.serve_handle(&self.handles[k], b),
        };
        self.tally.record(&r);
        r
    }

    /// Whether the engine's ledger equals the client tally.
    fn ledger_ok(&self) -> bool {
        self.tally.matches(&self.engine.stats())
    }
}

/// Counters the replay accumulates.
#[derive(Default)]
struct Replay {
    traced_ms: f64,
    untraced_ms: f64,
    /// Per request: (serve.call ms, span ms by layer).
    requests: Vec<(f64, BTreeMap<&'static str, f64>)>,
    updates: u64,
    migrated: u64,
    rebuilds: u64,
    update_errors: u64,
    wrong_twin: u64,
}

/// An engine over `copies`, with every pair warmed and served once.
fn build_side(
    config: &ServeConfig,
    copies: Vec<CsrMatrix<T>>,
    warm: &[Pair],
) -> Result<Side, String> {
    let mut side = Side::new(Engine::new(planner()?, config.clone()), copies)?;
    for p in warm {
        side.engine
            .warm(&side.handles[p.handle], p.j)
            .map_err(|e| format!("warm: {e}"))?;
        let r = side.engine.serve_handle(&side.handles[p.handle], p.b);
        side.tally.record(&r);
    }
    Ok(side)
}

/// `ServeEngine::apply_updates` on the traced engine inside an `update`
/// span tree, with the delta apply it runs re-run as a probe.
fn traced_update(
    tr: &mut Tracer,
    st: &mut Stages,
    rp: &mut Replay,
    side: &Side,
    k: usize,
    batch: &[EdgeUpdate<T>],
) {
    let before = side.handles[k].csr();
    let id = tr.next_id();
    let root = tr.open(id, "update", None);
    let (r, d) = tr.span(id, "serve.apply_updates", root, || {
        side.engine.apply_updates(&side.handles[k], batch)
    });
    st.push("serve.apply_updates", d);
    let (_, d) = tr.span(id, "sparse.apply_delta", root, || {
        before.apply_updates(batch)
    });
    st.push("sparse.apply_delta", d);
    tr.close(root);
    rp.updates += 1;
    match r {
        Ok(o) => {
            rp.migrated += u64::from(o.migrated > 0);
            rp.rebuilds += u64::from(o.rebuild);
        }
        Err(_) => rp.update_errors += 1,
    }
}

/// Replay request `n` on both twins, alternating which goes first.
/// `row` is the request's row in the population pass.
fn replay_request(
    tr: &mut Tracer,
    st: &mut Stages,
    rp: &mut Replay,
    rows: &[PairRow],
    sides: &mut [Side; 2],
    n: usize,
    row: usize,
    req: &Req,
) {
    let untraced_first = n.is_multiple_of(2);
    let untraced = |sides: &mut [Side; 2], rp: &mut Replay| {
        let (r, dt) = timed(|| sides[0].serve(req));
        rp.untraced_ms += ms(dt);
        // The twin's outputs are checked too (no span, not timed).
        let ok = match (&r, req) {
            (Ok(o), Req::Payload(a, b)) => output_ok(a, b, &o.result),
            (Ok(o), Req::Handle(k, b)) => output_ok(&sides[0].handles[*k].csr(), b, &o.result),
            (Err(_), _) => true,
        };
        rp.wrong_twin += u64::from(!ok);
    };
    if untraced_first {
        untraced(sides, rp);
    }
    let id = tr.next_id();
    let root = tr.open(id, "request", None);
    let call = tr.open(id, "serve.call", Some(root));
    let r = std::hint::black_box(sides[1].serve(req));
    tr.close(call);
    let call_ms = tr.spans[call].ms();
    rp.traced_ms += call_ms;
    let current;
    let (csr, b) = match *req {
        Req::Payload(a, b) => (a, b),
        Req::Handle(k, b) => {
            current = sides[1].handles[k].csr();
            (&*current, b)
        }
    };
    let first = tr.spans.len();
    if let Ok(o) = &r {
        sides[1].tally.checked(output_ok(csr, b, &o.result));
        let plan = &rows[row].plan;
        if let Some(p) = &o.compose {
            let start = tr.spans[call].start_ns;
            record_compose(tr, st, id, call, start, p, plan.uses_cell());
        }
        // The stages the engine does not report, re-run as probes.
        if matches!(req, Req::Payload(..)) {
            let (_, d) = tr.span(id, "sparse.validate", root, || csr.validate_finite());
            st.push("sparse.validate", d);
            let (_, d) = tr.span(id, "serve.fingerprint", root, || Fingerprint::of_csr(csr));
            st.push("serve.fingerprint", d);
        }
        let _ = tr.span(id, "kernels.run", root, || plan.run(b));
    }
    tr.close(root);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &tr.spans[first..] {
        *layers.entry(s.layer()).or_default() += s.ms();
    }
    rp.requests.push((call_ms, layers));
    if !untraced_first {
        untraced(sides, rp);
    }
}

/// The fixed cost of a cache hit, on warmed `serve_handle`s of a small
/// seeded matrix: each call's time minus that of one `PreparedPlan::run`
/// of the same plan on the same B made right before or right after it
/// (alternately), and each call's allocation calls. On the workloads'
/// own pairs the time difference is lost in the kernels' run-to-run
/// noise, and the allocation count varies with how many pool workers
/// happen to take part in the kernel.
fn overhead_probe(
    tr: &mut Tracer,
    st: &mut Stages,
    lf: &LiteForm,
    side: &mut Side,
    seed: u64,
) -> Result<(), String> {
    let item = inputs::tiny(seed);
    let j = WIDTHS[0];
    let b = inputs::operand(seed, u64::MAX, item.csr.cols(), j);
    let plan = lf.prepare(&item.csr, j);
    let h = MatrixHandle::new(item.csr).map_err(|e| format!("register: {e}"))?;
    side.engine.warm(&h, j).map_err(|e| format!("warm: {e}"))?;
    let id = tr.next_id();
    let root = tr.open(id, "overhead_probe", None);
    for rep in 0..OVERHEAD_REPS {
        let run_first = rep % 2 == 1;
        let mut run_ms = 0.0;
        if run_first {
            run_ms = tr.span(id, "kernels.run", root, || plan.run(&b)).1;
        }
        let before = lf_sim::alloc::snapshot();
        let (r, d) = tr.span(id, "serve.serve_handle", root, || {
            side.engine.serve_handle(&h, &b)
        });
        st.push(
            "serve.hit_allocs",
            lf_sim::alloc::since(before).calls as f64,
        );
        if !run_first {
            run_ms = tr.span(id, "kernels.run", root, || plan.run(&b)).1;
        }
        side.tally.record(&r);
        match &r {
            Ok(o) if o.hit => side.tally.checked(output_ok(&h.csr(), &b, &o.result)),
            _ => return Err("overhead probe: warmed serve_handle was not a hit".into()),
        }
        st.push("serve.hit_overhead", d - run_ms);
        st.push("serve.hit_small", d);
    }
    tr.close(root);
    Ok(())
}

/// What the disk probe saw.
struct Disk {
    /// Engine stats before the restart and of the restarted engine.
    stats: [ServeStats; 2],
    restart_ms: f64,
    attempted: u64,
    failed: u64,
    ledger_ok: bool,
    note: String,
}

/// The disk tier, which neither workload's default configuration turns
/// on. An engine with `store_dir` set and one shard whose RAM budget is
/// half the pairs' plan bytes (at least 1.25x the largest plan, so none
/// is oversized) serves every pair in seeded shuffled rounds: RAM
/// evictions demote plans to disk and later requests promote them. It
/// then snapshots, a new engine restarts warmed from the directory, and
/// serves one more round. Every output is checked.
fn disk_probe(
    tr: &mut Tracer,
    st: &mut Stages,
    seed: u64,
    rows: &[PairRow],
    matrices: &[&CsrMatrix<T>],
    pairs: &[Pair],
    dir: &Path,
) -> Result<Disk, String> {
    let bytes: Vec<usize> = pairs
        .iter()
        .map(|p| rows[p.row].plan.format_bytes())
        .collect();
    let largest = bytes.iter().copied().max().unwrap_or(1);
    let working_set: usize = bytes.iter().sum();
    let budget = (working_set / 2).max(largest + largest / 4);
    let config = ServeConfig {
        shards: 1,
        byte_budget: budget,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let copies = || matrices.iter().map(|&m| m.clone()).collect::<Vec<_>>();
    let mut order = timed::Rounds::new(inputs::rng(seed, Stream::Disk, 0), pairs.len());
    let mut serve = |tr: &mut Tracer, st: &mut Stages, side: &mut Side, root: usize| {
        let p = pairs[order.next()];
        let disk_before = side.engine.stats().disk_hits;
        let h = &side.handles[p.handle];
        let (r, d) = tr.span(tr.spans[root].id, "serve.call", root, || {
            side.engine.serve_handle(h, p.b)
        });
        if side.engine.stats().disk_hits > disk_before {
            st.push("serve.disk_hit", d);
        }
        let ok = r
            .as_ref()
            .is_ok_and(|o| output_ok(&h.csr(), p.b, &o.result));
        side.tally.record(&r);
        side.tally.checked(ok);
    };

    let id = tr.next_id();
    let root = tr.open(id, "disk_probe", None);
    let mut first = Side::new(Engine::new(planner()?, config.clone()), copies())?;
    for _ in 0..DISK_ROUNDS * pairs.len() {
        serve(tr, st, &mut first, root);
    }
    let (snap, _) = tr.span(id, "serve.snapshot", root, || first.engine.snapshot());
    snap.map_err(|e| format!("disk probe snapshot: {e}"))?;
    let ledger_first = first.ledger_ok();
    let stats_first = first.engine.stats();
    let tally_first = first.tally;
    drop(first);

    let lf = planner()?;
    let (engine, restart_ms) = tr.span(id, "serve.restart", root, || {
        Engine::new(lf, config.clone())
    });
    let mut second = Side::new(engine, copies())?;
    for _ in 0..pairs.len() {
        serve(tr, st, &mut second, root);
    }
    tr.close(root);
    let t = second.tally;
    Ok(Disk {
        stats: [stats_first, second.engine.stats()],
        restart_ms,
        attempted: tally_first.requests() + t.requests(),
        failed: tally_first.errors() + tally_first.wrong + t.errors() + t.wrong,
        ledger_ok: ledger_first && second.ledger_ok(),
        note: format!(
            "disk probe: RAM budget {budget} B in one shard, working set {working_set} B; {} + {} requests, {} outputs checked ({} wrong)",
            tally_first.requests(),
            t.requests(),
            tally_first.checked + t.checked,
            tally_first.wrong + t.wrong
        ),
    })
}

pub fn run(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let _ = lf_sim::calibration();
    let calibrate_ms = ms(t0.elapsed());
    let lf = planner()?;
    let probe_dir = timed::scratch_dir("probe-store");
    let disk_dir = timed::scratch_dir("disk-probe");
    let result = run_in(workload, seed, &lf, &probe_dir, &disk_dir, calibrate_ms);
    let _ = std::fs::remove_dir_all(&probe_dir);
    let _ = std::fs::remove_dir_all(&disk_dir);
    result
}

fn run_in(
    workload: Workload,
    seed: u64,
    lf: &LiteForm,
    probe_dir: &Path,
    disk_dir: &Path,
    calibrate_ms: f64,
) -> Result<Outcome, String> {
    let tiles0 = tile_cache_stats();
    let mut tr = Tracer::new();
    let mut st = Stages::default();
    let store = PlanStore::<T>::open(StoreConfig {
        dir: probe_dir.into(),
        disk_budget_bytes: 0,
        placement: Placement::CostAware,
    })
    .map_err(|e| format!("probe store: {e}"))?;

    // Inputs: the matrices and the (matrix, J) pairs over them. In
    // `hot_hits` pair `k * 2 + w` is matrix `k` at `WIDTHS[w]`; in
    // `cold_stream` pair `i` is request `i`'s payload.
    let items: Vec<Item> = match workload {
        Workload::HotHits => inputs::hot_population(seed),
        Workload::ColdStream => Vec::new(),
    };
    let cold: Vec<(Item, usize)> = match workload {
        Workload::HotHits => Vec::new(),
        Workload::ColdStream => {
            let stream = inputs::ColdStream::new(seed, COLD_REQUESTS);
            (0..COLD_REQUESTS as u64)
                .map(|i| stream.request(i))
                .collect()
        }
    };
    let bs = timed::pair_operands(seed, &items);
    let cold_ops = timed::cold_operands(seed);
    let (matrices, pairs): (Vec<&Item>, Vec<Pair>) = match workload {
        Workload::HotHits => (
            items.iter().collect(),
            (0..bs.len())
                .map(|p| Pair {
                    handle: p / 2,
                    row: p,
                    j: WIDTHS[p % 2],
                    b: &bs[p],
                })
                .collect(),
        ),
        Workload::ColdStream => (
            cold.iter().map(|(it, _)| it).collect(),
            cold.iter()
                .enumerate()
                .map(|(i, (it, j))| Pair {
                    handle: i,
                    row: i,
                    j: *j,
                    b: timed::cold_operand(&cold_ops, it.csr.rows(), *j),
                })
                .collect(),
        ),
    };

    // 1. Population pass.
    let pop = Population { lf, store, seed };
    let rows = pairs
        .iter()
        .map(|p| pop.pair(&mut tr, &mut st, matrices[p.handle], p.j, p.b))
        .collect::<Result<Vec<_>, _>>()?;

    // 2. Request replay on twin engines.
    let mut sides: [Side; 2] = match workload {
        Workload::HotHits => {
            let copies = || items.iter().map(|it| it.csr.clone()).collect::<Vec<_>>();
            let config = ServeConfig::default();
            [
                build_side(&config, copies(), &pairs)?,
                build_side(&config, copies(), &pairs)?,
            ]
        }
        Workload::ColdStream => {
            let warmup = timed::cold_warmup(seed);
            let make = || -> Result<Side, String> {
                let mut side = build_side(&ServeConfig::default(), Vec::new(), &[])?;
                for (it, j) in &warmup {
                    let b = timed::cold_operand(&cold_ops, it.csr.rows(), *j);
                    let r = side.engine.serve(&it.csr, b);
                    side.tally.record(&r);
                }
                Ok(side)
            };
            [make()?, make()?]
        }
    };
    let workers0 = lf_sim::pool::workers_spawned_total();
    let mut rp = Replay::default();
    match workload {
        Workload::HotHits => {
            let mut order = timed::Rounds::new(inputs::rng(seed, Stream::HotOrder, 0), bs.len());
            for n in 0..HOT_REQUESTS {
                let p = pairs[order.next()];
                let req = Req::Handle(p.handle, p.b);
                replay_request(&mut tr, &mut st, &mut rp, &rows, &mut sides, n, p.row, &req);
            }
        }
        Workload::ColdStream => {
            for (n, p) in pairs.iter().enumerate() {
                let req = Req::Payload(&matrices[p.handle].csr, p.b);
                replay_request(&mut tr, &mut st, &mut rp, &rows, &mut sides, n, p.row, &req);
            }
        }
    }
    let workers_spawned = lf_sim::pool::workers_spawned_total() - workers0;
    let stats_replay = sides[1].engine.stats();

    // 3. Overhead probe and update probe on the traced engine.
    overhead_probe(&mut tr, &mut st, lf, &mut sides[1], seed)?;
    let updated: Vec<usize> = match workload {
        Workload::HotHits => (0..items.len()).collect(),
        Workload::ColdStream => {
            // Register the last replayed payloads as handles: their
            // plans are cached under the same epoch-0 fingerprints, so
            // updates migrate them.
            let first = sides[1].handles.len();
            for (it, _) in &cold[cold.len().saturating_sub(COLD_UPDATE_HANDLES)..] {
                let h = MatrixHandle::new(it.csr.clone()).map_err(|e| format!("register: {e}"))?;
                sides[1].handles.push(h);
            }
            (first..sides[1].handles.len()).collect()
        }
    };
    let mut upd = inputs::rng(seed, Stream::Updates, 0);
    for _ in 0..UPDATE_ROUNDS {
        for &k in &updated {
            let batch = inputs::update_batch(&sides[1].handles[k].csr(), &mut upd);
            traced_update(&mut tr, &mut st, &mut rp, &sides[1], k, &batch);
        }
    }
    let tiles1 = tile_cache_stats();
    let stale_evicted = sides[1].engine.stats().stale_evicted;

    // 4. Disk probe.
    let csrs: Vec<&CsrMatrix<T>> = matrices.iter().map(|it| &it.csr).collect();
    let disk = disk_probe(&mut tr, &mut st, seed, &rows, &csrs, &pairs, disk_dir)?;

    // Correctness: every traced output checked; every ledger exact; no
    // pool worker spawned during the replay.
    let ledgers = [sides[1].ledger_ok(), sides[0].ledger_ok(), disk.ledger_ok];
    let t = sides[1].tally;
    let failed = t.errors()
        + t.wrong
        + rp.update_errors
        + rp.wrong_twin
        + sides[0].tally.errors()
        + disk.failed;
    let attempted = t.requests() + rp.updates + disk.attempted;
    let correct =
        failed == 0 && ledgers.iter().all(|&ok| ok) && t.checked > 0 && workers_spawned == 0;

    let metrics = per_layer_metrics(
        &rows,
        &st,
        &rp,
        &stats_replay,
        stale_evicted,
        (tiles0, tiles1),
        calibrate_ms,
        workers_spawned,
        &disk,
    );
    let table = baseline_table(&rows);
    let mut notes = table.1;
    notes.push(format!(
        "traced replay: {} requests, {} updates; {} outputs checked ({} wrong), twin wrong {}; ledgers (traced, twin, disk probe) {:?}",
        rp.requests.len(),
        rp.updates,
        t.checked,
        t.wrong,
        rp.wrong_twin,
        ledgers.map(|ok| if ok { "exact" } else { "MISMATCH" }),
    ));
    notes.push(disk.note.clone());
    notes.push(format!(
        "pool workers spawned during the replay: {workers_spawned} (must be 0)"
    ));
    let spans_path = Path::new(".servebench")
        .join("results")
        .join(format!("{}-seed{seed}-spans.jsonl", workload.name()));
    std::fs::create_dir_all(spans_path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&spans_path, tr.to_jsonl()))
        .map_err(|e| format!("write spans: {e}"))?;
    notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        spans_path.display()
    ));
    Ok(Outcome {
        correct,
        attempted,
        failed: failed + ledgers.iter().filter(|&&ok| !ok).count() as u64,
        metrics,
        detail: vec![
            ("baseline_table".into(), table.0),
            (
                "notes".into(),
                Json::Arr(notes.into_iter().map(Json::Str).collect()),
            ),
        ],
    })
}

/// Rounds of the update probe over its handles.
const UPDATE_ROUNDS: usize = 3;

/// Requests in the traced replay per workload (fixed, so counts repeat).
const HOT_REQUESTS: usize = 152;
const COLD_REQUESTS: usize = 48;
/// Replayed `cold_stream` payloads the update probe registers.
const COLD_UPDATE_HANDLES: usize = 12;
/// Per-(matrix, J) baseline table plus per-family geomeans: the
/// served plan against the CSR vector kernel on the same A and B.
fn baseline_table(rows: &[PairRow]) -> (Json, Vec<String>) {
    let mut lines = vec![format!(
        "{:<16} {:<9} {:>3} {:>9} {:<10} {:>9} {:>9} {:>7} {:>8}",
        "matrix", "family", "J", "nnz", "plan", "run_ms", "csr_ms", "ratio", "sim_gpu"
    )];
    let mut json = Vec::new();
    for r in rows {
        lines.push(format!(
            "{:<16} {:<9} {:>3} {:>9} {:<10} {:>9.3} {:>9.3} {:>7.3} {:>8.3}",
            r.name,
            r.family,
            r.j,
            r.nnz,
            r.kind(),
            r.run_ms,
            r.csr_run_ms,
            r.ratio(),
            r.sim_speedup
        ));
        json.push(Json::obj([
            ("matrix", Json::str(r.name.clone())),
            ("family", Json::str(r.family)),
            ("j", Json::Int(r.j as i64)),
            ("nnz", Json::Int(r.nnz as i64)),
            ("plan", Json::str(r.kind())),
            ("run_ms", Json::Num(r.run_ms)),
            ("csr_run_ms", Json::Num(r.csr_run_ms)),
            ("served_over_csr", Json::Num(r.ratio())),
            ("sim_gpu_speedup", Json::Num(r.sim_speedup)),
        ]));
    }
    for fam in families() {
        let ratios: Vec<f64> = rows
            .iter()
            .filter(|r| r.family == fam)
            .map(PairRow::ratio)
            .collect();
        lines.push(format!(
            "geomean {fam:<9} served/csr {:.3} over {} pairs",
            geomean(&ratios),
            ratios.len()
        ));
    }
    (Json::Arr(json), lines)
}

fn families() -> impl Iterator<Item = &'static str> {
    lf_sparse::gen::PatternFamily::ALL.iter().map(|f| f.name())
}

/// `serve.hit_overhead_us`: the median per-call difference of the
/// overhead probe, clamped at 0. The hit path costs less than the
/// kernels' call-to-call noise, so the note gives the spread too.
fn hit_overhead(st: &Stages) -> Metric {
    let d = st.samples("serve.hit_overhead");
    Metric::new("serve.hit_overhead_us", "us", median(d).max(0.0) * 1e3).note(format!(
        "median of {} per-call differences (serve_handle minus an adjacent PreparedPlan::run, small matrix), clamped at 0; quartiles {:.2} .. {:.2} us",
        d.len(),
        percentile(d, 0.25) * 1e3,
        percentile(d, 0.75) * 1e3
    ))
}

/// `serve.hit_allocs`: the most frequent allocation count of the
/// overhead probe's calls; now and then a call makes one allocation
/// more or fewer, as the counters are process-wide.
fn hit_allocs(st: &Stages) -> Metric {
    let calls = st.samples("serve.hit_allocs");
    let count = |a: f64| calls.iter().filter(|&&x| x == a).count();
    let mode = calls
        .iter()
        .copied()
        .max_by(|&a, &b| count(a).cmp(&count(b)).then(b.total_cmp(&a)))
        .unwrap_or(0.0);
    Metric::new("serve.hit_allocs", "count", mode).note(format!(
        "most frequent count over {} warmed serve_handle calls on a small matrix ({} calls had it)",
        calls.len(),
        count(mode)
    ))
}

fn per_layer_metrics(
    rows: &[PairRow],
    st: &Stages,
    rp: &Replay,
    s: &ServeStats,
    stale_evicted: u64,
    (tiles0, tiles1): ((usize, usize), (usize, usize)),
    calibrate_ms: f64,
    workers_spawned: usize,
    disk: &Disk,
) -> Vec<Metric> {
    let cell_rows: Vec<&PairRow> = rows.iter().filter(|r| r.plan.uses_cell()).collect();
    let run_s: f64 = rows.iter().map(|r| r.run_ms / 1e3).sum();
    let flops: f64 = rows.iter().map(|r| 2.0 * r.nnz as f64 * r.j as f64).sum();
    let tile_hits = (tiles1.0 - tiles0.0) as f64;
    let tile_all = tile_hits + (tiles1.1 - tiles0.1) as f64;
    let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };

    let mut m = vec![
        st.metric("sparse.validate_us", "us", "sparse.validate", 1e3),
        st.metric("serve.fingerprint_us", "us", "serve.fingerprint", 1e3),
        st.metric("sparse.features_us", "us", "sparse.features", 1e3),
        st.metric("core.select_us", "us", "core.select", 1e3),
        st.metric("core.partition_us", "us", "core.partition", 1e3),
        Metric::new(
            "core.cell_chosen_frac",
            "ratio",
            frac(cell_rows.len() as u64, rows.len() as u64),
        ),
        st.metric("cost.width_search_ms", "ms", "cost.width_search", 1.0),
        st.metric("cell.build_ms", "ms", "cell.build", 1.0),
        st.metric("cell.build_allocs", "count", "cell.build_allocs", 1.0),
        st.metric("cost.tile_plan_us", "us", "cost.tile_plan", 1e3),
        Metric::new(
            "cost.tile_cache_hit_ratio",
            "ratio",
            if tile_all == 0.0 {
                0.0
            } else {
                tile_hits / tile_all
            },
        ),
        Metric::new(
            "kernels.run_ms",
            "ms",
            mean(&rows.iter().map(|r| r.run_ms).collect::<Vec<_>>()),
        )
        .note("mean over pairs of the per-pair median"),
        Metric::new("kernels.gflop_per_s", "GFLOP/s", flops / run_s / 1e9),
        Metric::new(
            "kernels.csr_run_ms",
            "ms",
            mean(&rows.iter().map(|r| r.csr_run_ms).collect::<Vec<_>>()),
        ),
        Metric::new(
            "kernels.served_over_csr",
            "ratio",
            geomean(&rows.iter().map(PairRow::ratio).collect::<Vec<_>>()),
        )
        .note("geomean over pairs; > 1 means the served plan is slower"),
    ];
    let fam_names = [
        "kernels.served_over_csr.uniform",
        "kernels.served_over_csr.powerlaw",
        "kernels.served_over_csr.rmat",
        "kernels.served_over_csr.banded",
        "kernels.served_over_csr.block",
        "kernels.served_over_csr.mixed",
    ];
    for (name, fam) in fam_names.into_iter().zip(families()) {
        let ratios: Vec<f64> = rows
            .iter()
            .filter(|r| r.family == fam)
            .map(PairRow::ratio)
            .collect();
        m.push(
            Metric::new(name, "ratio", geomean(&ratios)).note(format!("{} pairs", ratios.len())),
        );
    }
    let slower = cell_rows.iter().filter(|r| r.ratio() > 1.0).count();
    m.extend([
        Metric::new(
            "kernels.cell_slower_frac",
            "ratio",
            frac(slower as u64, cell_rows.len() as u64),
        )
        .note(format!(
            "{slower} of {} CELL pairs slower than CSR",
            cell_rows.len()
        )),
        Metric::new("kernels.flops", "count", flops).note("sum over pairs of 2*nnz*J"),
        Metric::new(
            "kernels.format_bytes",
            "count",
            rows.iter().map(|r| r.plan.format_bytes() as f64).sum(),
        )
        .note("sum over pairs of PreparedPlan::format_bytes"),
        hit_overhead(st),
        st.metric("serve.hit_small_us", "us", "serve.hit_small", 1e3)
            .note("warmed serve_handle on the small matrix, kernel included"),
        hit_allocs(st),
        Metric::new("serve.hit_ratio", "ratio", s.hit_rate()),
        Metric::new("serve.evictions", "count", s.evictions as f64),
        Metric::new("serve.oversized", "count", s.oversized as f64),
        Metric::new(
            "serve.disk_hit_ratio",
            "ratio",
            frac(
                disk.stats.iter().map(|d| d.disk_hits).sum(),
                disk.stats.iter().map(ServeStats::requests).sum(),
            ),
        )
        .note("disk probe, both engines"),
        Metric::new(
            "serve.demotions",
            "count",
            disk.stats.iter().map(|d| d.demotions).sum::<u64>() as f64,
        ),
        Metric::new(
            "serve.promotions",
            "count",
            disk.stats.iter().map(|d| d.promotions).sum::<u64>() as f64,
        ),
        Metric::new(
            "serve.warm_loaded",
            "count",
            disk.stats[1].warm_loaded as f64,
        )
        .note("plans the restarted engine warmed from disk"),
        st.metric("serve.disk_hit_ms", "ms", "serve.disk_hit", 1.0)
            .note(format!(
                "median over {} serve_handle calls served from disk, kernel included",
                st.samples("serve.disk_hit").len()
            )),
        Metric::new("serve.restart_ms", "ms", disk.restart_ms)
            .note("ServeEngine::new warming from the disk probe's directory"),
        st.metric("store.put_ms", "ms", "store.put", 1.0),
        st.metric("store.get_ms", "ms", "store.get", 1.0),
        st.metric("core.encode_ms", "ms", "core.encode", 1.0),
        st.metric("core.decode_ms", "ms", "core.decode", 1.0),
        st.metric("sparse.apply_delta_ms", "ms", "sparse.apply_delta", 1.0),
        st.metric("cell.update_ms", "ms", "cell.update", 1.0),
        st.metric("serve.apply_updates_ms", "ms", "serve.apply_updates", 1.0),
        Metric::new(
            "serve.migrated_frac",
            "ratio",
            frac(rp.migrated, rp.updates),
        )
        .note(format!("{} update calls", rp.updates)),
        Metric::new("serve.rebuild_frac", "ratio", frac(rp.rebuilds, rp.updates)),
        Metric::new("serve.stale_evicted", "count", stale_evicted as f64)
            .note("after the update calls"),
        Metric::new("sim.calibrate_ms", "ms", calibrate_ms),
        Metric::new("sim.workers_spawned", "count", workers_spawned as f64)
            .note("pool workers spawned during the replay; must be 0"),
        Metric::new(
            "core.sim_gpu_speedup",
            "ratio",
            geomean(&rows.iter().map(|r| r.sim_speedup).collect::<Vec<_>>()),
        )
        .note("simulated V100: CSR kernel time over served plan time, geomean over pairs"),
    ]);

    // Layer self time per request and share of request time.
    let total_call: f64 = rp.requests.iter().map(|r| r.0).sum();
    let n = rp.requests.len().max(1) as f64;
    for (layer, self_name, share_name) in [
        ("sparse", "layer.sparse.self_ms", "layer.sparse.share"),
        ("serve", "layer.serve.self_ms", "layer.serve.share"),
        ("core", "layer.core.self_ms", "layer.core.share"),
        ("cost", "layer.cost.self_ms", "layer.cost.share"),
        ("cell", "layer.cell.self_ms", "layer.cell.share"),
        ("kernels", "layer.kernels.self_ms", "layer.kernels.share"),
    ] {
        let total: f64 = rp
            .requests
            .iter()
            .map(|(call, probes)| {
                let own = probes.get(layer).copied().unwrap_or(0.0);
                if layer == "serve" {
                    // The engine's own work: the call minus every stage
                    // the probes attribute to other layers.
                    let others: f64 = probes
                        .iter()
                        .filter(|(l, _)| **l != "serve")
                        .map(|(_, v)| v)
                        .sum();
                    own + (call - own - others).max(0.0)
                } else {
                    own
                }
            })
            .sum();
        m.push(Metric::new(self_name, "ms", total / n));
        m.push(Metric::new(
            share_name,
            "ratio",
            if total_call > 0.0 {
                total / total_call
            } else {
                0.0
            },
        ));
    }
    m.push(
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            if rp.untraced_ms > 0.0 {
                rp.traced_ms / rp.untraced_ms - 1.0
            } else {
                0.0
            },
        )
        .note(format!(
            "traced engine calls {:.3} ms vs untraced twin {:.3} ms over {} requests",
            rp.traced_ms,
            rp.untraced_ms,
            rp.requests.len()
        )),
    );
    m.push(Metric::new("trace.request_ms", "ms", total_call / n).note("mean traced serve.call"));
    m
}
