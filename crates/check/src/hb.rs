//! A vector-clock happens-before race detector layered on the
//! instrumented [`crate::sync`] primitives.
//!
//! The bounded model checker ([`crate::sched`]) *proves* small
//! scenarios exhaustively, but only up to its preemption bound; a race
//! whose shortest witness needs three context switches is outside its
//! horizon. This detector is the complementary dynamic half: it runs
//! under any ordinary multi-threaded test, observes the
//! synchronization that actually happened, and reports any pair of
//! accesses to a [`Tracked`] location that no chain of
//! lock-release→acquire, atomic release→acquire, or spawn/join edges
//! orders. Crucially, the verdict does not depend on the schedule the
//! OS happened to pick: two unordered accesses are unordered in
//! *every* schedule, so a missing lock is found deterministically on
//! the first run, not once in a thousand.
//!
//! Model: classic vector clocks. Every thread carries a clock `C[t]`;
//! releasing a mutex `m` stores `L[m] = C[t]` and ticks, acquiring
//! joins `C[t] ⊔= L[m]`. Atomic stores with `Release`/`AcqRel`/
//! `SeqCst` accumulate into the location's clock and loads with
//! acquire semantics join from it — a `Relaxed` pair creates **no**
//! edge, which is exactly how a relaxed-flag handoff gets caught.
//! Spawn snapshots the parent clock into the child; join flows the
//! child's exit clock back. Each [`Tracked`] location keeps a shadow
//! word: the last write epoch plus a read epoch per thread, checked on
//! every access.
//!
//! Scope: one [`session`] at a time (concurrent sessions from parallel
//! tests serialize on entry). Hooks are no-ops while no session is
//! active, so the shims cost one relaxed atomic load in ordinary runs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

type Clock = Vec<u64>;

fn join_clock(dst: &mut Clock, src: &Clock) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn component(c: &Clock, tid: usize) -> u64 {
    c.get(tid).copied().unwrap_or(0)
}

/// One detected race: two accesses to the same [`Tracked`] location
/// with no happens-before path between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The [`Tracked`] location's name.
    pub location: String,
    /// `"write-write"`, `"write-read"` (earlier write vs current
    /// read), or `"read-write"`.
    pub kind: &'static str,
    /// The session-local ids of the two unordered threads
    /// (earlier access first).
    pub threads: (usize, usize),
}

const MAX_RACES: usize = 256;

struct Global {
    active: bool,
    generation: u64,
    next_tid: usize,
    /// Per-mutex last-release clock.
    locks: HashMap<usize, Clock>,
    /// Per-atomic accumulated release clock.
    atomics: HashMap<usize, Clock>,
    races: Vec<Race>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> MutexGuard<'static, Global> {
    static G: OnceLock<Mutex<Global>> = OnceLock::new();
    G.get_or_init(|| {
        Mutex::new(Global {
            active: false,
            generation: 0,
            next_tid: 0,
            locks: HashMap::new(),
            atomics: HashMap::new(),
            races: Vec::new(),
        })
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

struct Ctx {
    generation: u64,
    tid: usize,
    clock: Clock,
}

thread_local! {
    static TCTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn register(g: &mut Global) -> Ctx {
    let tid = g.next_tid;
    g.next_tid += 1;
    let mut clock = vec![0; tid + 1];
    clock[tid] = 1;
    Ctx {
        generation: g.generation,
        tid,
        clock,
    }
}

/// Run `f` with the global state and the calling thread's context, if a
/// session is active. Threads unseen this session (e.g. long-lived pool
/// workers) are registered on first contact with an empty-knowledge
/// clock — correct: nothing orders them until an edge says so.
fn with_session<R>(f: impl FnOnce(&mut Global, &mut Ctx) -> R) -> Option<R> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut g = global();
    if !g.active {
        return None;
    }
    TCTX.with(|c| {
        let mut slot = c.borrow_mut();
        let stale = slot
            .as_ref()
            .is_none_or(|ctx| ctx.generation != g.generation);
        if stale {
            *slot = Some(register(&mut g));
        }
        let ctx = slot.as_mut().expect("registered above");
        Some(f(&mut g, ctx))
    })
}

fn tick(ctx: &mut Ctx) {
    if ctx.clock.len() <= ctx.tid {
        ctx.clock.resize(ctx.tid + 1, 0);
    }
    ctx.clock[ctx.tid] += 1;
}

/// An active detector session. Create with [`session`], finish with
/// [`Session::finish`] to collect the races.
pub struct Session {
    finished: bool,
}

/// Start a detector session, registering the calling thread. Sessions
/// are global and exclusive; a second caller blocks until the first
/// finishes (parallel `cargo test` threads serialize here).
pub fn session() -> Session {
    loop {
        {
            let mut g = global();
            if !g.active {
                g.active = true;
                g.generation += 1;
                g.next_tid = 0;
                g.locks.clear();
                g.atomics.clear();
                g.races.clear();
                let ctx = register(&mut g);
                TCTX.with(|c| *c.borrow_mut() = Some(ctx));
                ACTIVE.store(true, Ordering::SeqCst);
                return Session { finished: false };
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

impl Session {
    /// End the session and return every race observed.
    pub fn finish(mut self) -> Vec<Race> {
        self.finished = true;
        let mut g = global();
        g.active = false;
        ACTIVE.store(false, Ordering::SeqCst);
        std::mem::take(&mut g.races)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            let mut g = global();
            g.active = false;
            ACTIVE.store(false, Ordering::SeqCst);
        }
    }
}

/// Shim hook: the calling thread acquired the mutex identified by `id`.
pub fn on_acquire(id: usize) {
    with_session(|g, ctx| {
        if let Some(rel) = g.locks.get(&id) {
            join_clock(&mut ctx.clock, rel);
        }
    });
}

/// Shim hook: the calling thread is releasing the mutex `id` (call
/// while still holding it).
pub fn on_release(id: usize) {
    with_session(|g, ctx| {
        g.locks.insert(id, ctx.clock.clone());
        tick(ctx);
    });
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Shim hook: atomic load at location `id`. Only acquire-or-stronger
/// orderings create an edge — a `Relaxed` load synchronizes nothing.
pub fn on_atomic_load(id: usize, order: Ordering) {
    if !is_acquire(order) {
        return;
    }
    with_session(|g, ctx| {
        if let Some(rel) = g.atomics.get(&id) {
            join_clock(&mut ctx.clock, rel);
        }
    });
}

/// Shim hook: atomic store at location `id`.
pub fn on_atomic_store(id: usize, order: Ordering) {
    if !is_release(order) {
        return;
    }
    with_session(|g, ctx| {
        let entry = g.atomics.entry(id).or_default();
        join_clock(entry, &ctx.clock);
        tick(ctx);
    });
}

/// Spawn/join plumbing shared between a parent and its child thread:
/// carries the parent's clock into the child and the child's exit
/// clock back to the joiner. All methods are no-ops outside a session.
#[derive(Clone)]
pub struct ThreadLink {
    generation: u64,
    spawn_clock: Arc<Mutex<Option<Clock>>>,
    exit_clock: Arc<Mutex<Option<Clock>>>,
}

impl ThreadLink {
    /// Snapshot the spawning thread's clock (and tick it, so the
    /// parent's later accesses are not ordered before the child).
    pub fn for_spawn() -> ThreadLink {
        let mut snap = None;
        let mut generation = 0;
        with_session(|g, ctx| {
            snap = Some(ctx.clock.clone());
            generation = g.generation;
            tick(ctx);
        });
        ThreadLink {
            generation,
            spawn_clock: Arc::new(Mutex::new(snap)),
            exit_clock: Arc::new(Mutex::new(None)),
        }
    }

    fn live(&self, g: &Global) -> bool {
        g.generation == self.generation
    }

    /// Call first thing on the child thread: inherits the spawn clock.
    pub fn child_started(&self) {
        with_session(|g, ctx| {
            if !self.live(g) {
                return;
            }
            let snap = self
                .spawn_clock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(snap) = snap.as_ref() {
                join_clock(&mut ctx.clock, snap);
            }
        });
    }

    /// Call last thing on the child thread: publishes its exit clock.
    pub fn child_finished(&self) {
        with_session(|g, ctx| {
            if !self.live(g) {
                return;
            }
            *self
                .exit_clock
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(ctx.clock.clone());
        });
    }

    /// Call on the joining thread after the join returns: everything
    /// the child did now happens-before the joiner's next step.
    pub fn joined(&self) {
        with_session(|g, ctx| {
            if !self.live(g) {
                return;
            }
            let exit = self
                .exit_clock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(exit) = exit.as_ref() {
                join_clock(&mut ctx.clock, exit);
            }
        });
    }
}

enum AccessKind {
    Read,
    Write,
}

struct Shadow {
    generation: u64,
    last_write: Option<(usize, u64)>,
    reads: Vec<(usize, u64)>,
}

/// A shared location under race detection. Accesses go through a
/// private mutex (unknown to the detector, so it creates no edges) for
/// memory safety, while the shadow word checks whether the program's
/// *own* synchronization orders them. Wrap the data a test suspects is
/// under-locked in one of these and assert [`Session::finish`] is
/// empty.
pub struct Tracked<T> {
    name: &'static str,
    cell: Mutex<T>,
    shadow: Mutex<Shadow>,
}

impl<T> Tracked<T> {
    /// A new tracked location named `name` (names appear in races).
    pub fn new(name: &'static str, value: T) -> Self {
        Tracked {
            name,
            cell: Mutex::new(value),
            shadow: Mutex::new(Shadow {
                generation: 0,
                last_write: None,
                reads: Vec::new(),
            }),
        }
    }

    /// The location's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A logically-plain read of the location.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.record(AccessKind::Read);
        let cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        f(&cell)
    }

    /// A logically-plain write (read-modify-write) of the location.
    pub fn write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.record(AccessKind::Write);
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut cell)
    }

    fn record(&self, kind: AccessKind) {
        with_session(|g, ctx| {
            let mut sh = self.shadow.lock().unwrap_or_else(PoisonError::into_inner);
            if sh.generation != g.generation {
                sh.generation = g.generation;
                sh.last_write = None;
                sh.reads.clear();
            }
            let me = ctx.tid;
            let mut report = |kind: &'static str, other: usize| {
                if g.races.len() < MAX_RACES {
                    g.races.push(Race {
                        location: self.name.to_string(),
                        kind,
                        threads: (other, me),
                    });
                }
            };
            if let Some((t, e)) = sh.last_write {
                if t != me && component(&ctx.clock, t) < e {
                    report(
                        match kind {
                            AccessKind::Read => "write-read",
                            AccessKind::Write => "write-write",
                        },
                        t,
                    );
                }
            }
            if matches!(kind, AccessKind::Write) {
                for &(t, e) in &sh.reads {
                    if t != me && component(&ctx.clock, t) < e {
                        report("read-write", t);
                    }
                }
            }
            let epoch = component(&ctx.clock, me);
            match kind {
                AccessKind::Read => {
                    if let Some(slot) = sh.reads.iter_mut().find(|(t, _)| *t == me) {
                        slot.1 = epoch;
                    } else {
                        sh.reads.push((me, epoch));
                    }
                }
                AccessKind::Write => {
                    sh.last_write = Some((me, epoch));
                    sh.reads.clear();
                }
            }
        });
    }
}
