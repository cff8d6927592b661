//! The untraced runs that give the end-to-end metrics: repeated set-up,
//! then closed-loop clients for `--seconds` of active time.
//!
//! A client's active time excludes the benchmark's own work between
//! calls — generating the next input and checking a sampled output — so
//! those costs never show up as engine throughput or latency.

use crate::check::{output_ok, Tally};
use crate::inputs::{self, Item, Stream, T, WIDTHS};
use crate::report::median;
use crate::Workload;
use lf_serve::{MatrixHandle, ServeConfig, ServeEngine, ServeStats};
use lf_sparse::DenseMatrix;
use liteform_core::{LiteForm, ModelBundle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The checked-in trained model bundle (relative to the checkout root).
pub const MODEL_BUNDLE: &str = "results/liteform-models.json";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Every `CHECK_EVERY`-th call of a client has its output checked.
const CHECK_EVERY: u64 = 16;

pub type Engine = ServeEngine<T, LiteForm>;

/// Load the trained planner.
pub fn planner() -> Result<LiteForm, String> {
    ModelBundle::load(MODEL_BUNDLE)
        .map(ModelBundle::into_liteform)
        .map_err(|e| format!("cannot load {MODEL_BUNDLE}: {e}"))
}

/// Raw observations of one untraced run.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Client-side wall time of each timed `serve`/`serve_handle`, in
    /// completion order.
    pub serve_ms: Vec<f64>,
    /// Median round rate of serve calls per active second.
    pub req_per_s: f64,
    /// Completed rounds the rate is the median of.
    pub rounds: usize,
    /// Every serve call made on the kept engine, warm-up included.
    pub tally: Tally,
    pub stats: ServeStats,
    pub ledger_ok: bool,
    /// Pool workers spawned during the timed phase (must be 0).
    pub workers_spawned: usize,
}

impl Timed {
    /// Serve calls attempted on the kept engine.
    pub fn attempted(&self) -> u64 {
        self.tally.requests()
    }

    /// Calls that returned `Err` plus outputs that failed the check.
    pub fn failed(&self) -> u64 {
        self.tally.errors() + self.tally.wrong
    }
}

/// A client's active-time clock: the time it spends inside engine
/// calls, split into rounds of a fixed number of serve calls. Clients
/// issue each round as a shuffled pass over their whole population, so
/// every round carries the same mix of work, and throughput is the
/// median round rate: a burst of contention from outside the benchmark
/// moves it less than a plain total would.
pub struct Clock {
    seconds: f64,
    per_round: u64,
    active: Duration,
    /// (active seconds, serve calls) per completed round.
    rounds: Vec<(f64, u64)>,
    open: (f64, u64),
}

impl Clock {
    pub fn new(seconds: f64, per_round: usize) -> Self {
        Clock {
            seconds,
            per_round: per_round as u64,
            active: Duration::ZERO,
            rounds: Vec::new(),
            open: (0.0, 0),
        }
    }

    /// Whether the client still has active time left.
    pub fn running(&self) -> bool {
        self.active.as_secs_f64() < self.seconds
    }

    /// Account one serve call of duration `dt`.
    pub fn add(&mut self, dt: Duration) {
        self.active += dt;
        self.open.0 += dt.as_secs_f64();
        self.open.1 += 1;
        if self.open.1 >= self.per_round {
            self.rounds.push(self.open);
            self.open = (0.0, 0);
        }
    }

    /// Serve calls per active second in each completed round.
    pub fn rates(&self) -> Vec<f64> {
        self.rounds.iter().map(|&(s, n)| n as f64 / s).collect()
    }
}

/// Pair indices in seeded shuffled rounds: every pass visits each of
/// the `n` pairs once.
pub struct Rounds {
    rng: lf_sparse::Pcg32,
    order: Vec<usize>,
    next: usize,
}

impl Rounds {
    pub fn new(rng: lf_sparse::Pcg32, n: usize) -> Self {
        Rounds {
            rng,
            order: (0..n).collect(),
            next: n,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its result and duration.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed())
}

/// Register fresh copies of the items as handles (copies are made by the
/// caller outside any timed region).
fn register(copies: Vec<lf_sparse::CsrMatrix<T>>) -> Result<Vec<MatrixHandle<T>>, String> {
    copies
        .into_iter()
        .map(|c| MatrixHandle::new(c).map_err(|e| format!("register: {e}")))
        .collect()
}

fn copies(items: &[Item]) -> Vec<lf_sparse::CsrMatrix<T>> {
    items.iter().map(|it| it.csr.clone()).collect()
}

/// Dense operands for every `(item, width)` pair, indexed `k * 2 + w`.
pub fn pair_operands(seed: u64, items: &[Item]) -> Vec<DenseMatrix<T>> {
    items
        .iter()
        .enumerate()
        .flat_map(|(k, it)| {
            WIDTHS
                .iter()
                .enumerate()
                .map(move |(w, &j)| inputs::operand(seed, (k * 2 + w) as u64, it.csr.cols(), j))
        })
        .collect()
}

/// Dense operands for the cold stream, indexed `size_class * 2 + w`.
pub fn cold_operands(seed: u64) -> Vec<DenseMatrix<T>> {
    inputs::COLD_ROWS
        .iter()
        .enumerate()
        .flat_map(|(s, &rows)| {
            WIDTHS
                .iter()
                .enumerate()
                .map(move |(w, &j)| inputs::operand(seed, 1_000 + (s * 2 + w) as u64, rows, j))
        })
        .collect()
}

pub fn cold_operand(ops: &[DenseMatrix<T>], rows: usize, j: usize) -> &DenseMatrix<T> {
    let s = inputs::COLD_ROWS
        .iter()
        .position(|&r| r == rows)
        .expect("cold rows come from the size ladder");
    let w = WIDTHS
        .iter()
        .position(|&x| x == j)
        .expect("width from WIDTHS");
    &ops[s * 2 + w]
}

/// Warm-up payloads of the cold stream: drawn from a seed space the
/// timed stream never uses, one per (family, width) pair.
pub fn cold_warmup(seed: u64) -> Vec<(Item, usize)> {
    let warm = inputs::ColdStream::new(inputs::mix(seed, Stream::Cold, u64::MAX), 12);
    (0..12).map(|i| warm.request(i)).collect()
}

/// A per-process directory inside the checkout for a disk tier.
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".servebench").join(format!("{tag}-{}", std::process::id()))
}

/// Run `setup` [`SETUP_REPS`] times, dropping every state but the last,
/// and record each repetition's wall time.
fn repeated_setup<S>(
    out: &mut Timed,
    mut prepare: impl FnMut() -> Vec<lf_sparse::CsrMatrix<T>>,
    mut setup: impl FnMut(Vec<lf_sparse::CsrMatrix<T>>, &mut Tally) -> Result<S, String>,
) -> Result<(S, Tally), String> {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let owned = prepare();
        let mut tally = Tally::default();
        let (state, dt) = timed(|| setup(owned, &mut tally));
        out.setup_s.push(dt.as_secs_f64());
        kept = Some((state?, tally));
    }
    Ok(kept.expect("at least one set-up repetition"))
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Timed, String> {
    match workload {
        Workload::HotHits => hot_hits(seed, seconds),
        Workload::ColdStream => cold_stream(seed, seconds),
    }
}

/// One client, `serve_handle` over warmed (matrix, J) pairs in shuffled
/// rounds.
fn hot_hits(seed: u64, seconds: f64) -> Result<Timed, String> {
    let items = inputs::hot_population(seed);
    let bs = pair_operands(seed, &items);
    let mut out = Timed::default();
    let ((engine, handles), mut tally) = repeated_setup(
        &mut out,
        || copies(&items),
        |owned, tally| {
            let engine = Engine::new(planner()?, ServeConfig::default());
            let handles = register(owned)?;
            for (k, h) in handles.iter().enumerate() {
                for (w, &j) in WIDTHS.iter().enumerate() {
                    engine.warm(h, j).map_err(|e| format!("warm: {e}"))?;
                    tally.record(&engine.serve_handle(h, &bs[k * 2 + w]));
                }
            }
            Ok((engine, handles))
        },
    )?;

    let spawned = lf_sim::pool::workers_spawned_total();
    let mut order = Rounds::new(inputs::rng(seed, Stream::HotOrder, 0), bs.len());
    let mut clock = Clock::new(seconds, bs.len());
    let mut n = 0u64;
    while clock.running() {
        let p = order.next();
        let (h, b) = (&handles[p / 2], &bs[p]);
        let (r, dt) = timed(|| engine.serve_handle(h, b));
        clock.add(dt);
        out.serve_ms.push(ms(dt));
        tally.record(&r);
        n += 1;
        if n.is_multiple_of(CHECK_EVERY) {
            if let Ok(o) = &r {
                tally.checked(output_ok(&h.csr(), b, &o.result));
            }
        }
    }
    out.req_per_s = median(&clock.rates());
    out.rounds = clock.rates().len();

    finish(&mut out, &engine, tally, spawned);
    Ok(out)
}

/// One client, `serve` on payloads never seen before.
fn cold_stream(seed: u64, seconds: f64) -> Result<Timed, String> {
    let ops = cold_operands(seed);
    let warmup = cold_warmup(seed);
    let stream = inputs::ColdStream::new(seed, inputs::COLD_BASES);
    let mut out = Timed::default();
    let (engine, mut tally) = repeated_setup(&mut out, Vec::new, |_, tally| {
        let engine = Engine::new(planner()?, ServeConfig::default());
        for (it, j) in &warmup {
            tally.record(&engine.serve(&it.csr, cold_operand(&ops, it.csr.rows(), *j)));
        }
        Ok(engine)
    })?;

    let spawned = lf_sim::pool::workers_spawned_total();
    let mut clock = Clock::new(seconds, inputs::COLD_BASES);
    let mut i = 0u64;
    while clock.running() {
        let (it, j) = stream.request(i);
        let b = cold_operand(&ops, it.csr.rows(), j);
        let (r, dt) = timed(|| engine.serve(&it.csr, b));
        clock.add(dt);
        out.serve_ms.push(ms(dt));
        tally.record(&r);
        i += 1;
        if i.is_multiple_of(CHECK_EVERY) {
            if let Ok(o) = &r {
                tally.checked(output_ok(&it.csr, b, &o.result));
            }
        }
    }
    out.req_per_s = median(&clock.rates());
    out.rounds = clock.rates().len();

    finish(&mut out, &engine, tally, spawned);
    Ok(out)
}

fn finish(out: &mut Timed, engine: &Engine, tally: Tally, spawned: usize) {
    out.workers_spawned = lf_sim::pool::workers_spawned_total() - spawned;
    out.stats = engine.stats();
    out.ledger_ok = tally.matches(&out.stats);
    out.tally = tally;
}
