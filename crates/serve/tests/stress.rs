//! Concurrency stress suite: N threads hammer one `ServeEngine` with a
//! mix of repeated (hot) and fresh (cold) matrices.
//!
//! Asserts, under the PR-2 persistent worker pool:
//!
//! * no deadlock (the test completing is the assertion — every serve
//!   nests kernel parallel regions inside concurrently serving threads);
//! * correct results on every thread, every request;
//! * hit + miss counters sum exactly to the request count;
//! * no pool-per-request churn: the process-wide worker-spawn counter is
//!   flat across the whole storm.
//!
//! Iteration counts scale with `LF_STRESS_THREADS` / `LF_STRESS_ITERS`
//! (the `scripts/verify.sh --stress` tier raises them).

use lf_serve::{FixedCellPlanner, MatrixHandle, ServeConfig, ServeEngine};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use std::sync::atomic::{AtomicU64, Ordering};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn matrix(seed: u64, n: usize, nnz: usize) -> CsrMatrix<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    CsrMatrix::from_coo(&mixed_regions(n, n, nnz, 4, &mut rng))
}

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_mixed_workload_is_correct_and_fully_counted() {
    let threads = env_or("LF_STRESS_THREADS", 8).max(2);
    let iters = env_or("LF_STRESS_ITERS", 24);
    let n = 192;
    let j = 9;

    // Force the shared pool into existence before snapshotting the spawn
    // counter, so the assertion below isolates serving-layer churn.
    lf_sim::pool::global();
    let workers_before = lf_sim::pool::workers_spawned_total();

    // A modest budget so the fresh matrices churn through evictions
    // while the hot set mostly survives (it is re-touched constantly).
    let engine = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            shards: 4,
            byte_budget: 2 << 20,
            ..ServeConfig::default()
        },
    );

    // Hot set: registered handles shared by every thread, references
    // precomputed once.
    let hot: Vec<(MatrixHandle<f64>, DenseMatrix<f64>, DenseMatrix<f64>)> = (0..4u64)
        .map(|s| {
            let a = matrix(1000 + s, n, 3500);
            let mut rng = Pcg32::seed_from_u64(2000 + s);
            let b = DenseMatrix::random(n, j, &mut rng);
            let want = a.spmm_reference(&b).unwrap();
            (MatrixHandle::new(a).unwrap(), b, want)
        })
        .collect();

    let requests = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            let hot = &hot;
            let requests = &requests;
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xBEEF + t as u64);
                for i in 0..iters {
                    requests.fetch_add(1, Ordering::Relaxed);
                    if rng.bernoulli(0.6) {
                        // Repeated matrix via its handle.
                        let (h, b, want) = &hot[rng.usize_in(0, hot.len())];
                        let out = engine.serve_handle(h, b).unwrap();
                        assert_eq!(
                            bits(&out.result),
                            bits(want),
                            "thread {t} iter {i}: wrong hot result"
                        );
                    } else {
                        // Fresh matrix via raw payload; verified in-thread.
                        let seed = 0x5000 + (t * iters + i) as u64;
                        let a = matrix(seed, n, 2500);
                        let b = DenseMatrix::random(n, j, &mut rng);
                        let want = a.spmm_reference(&b).unwrap();
                        let out = engine.serve(&a, &b).unwrap();
                        assert_eq!(
                            bits(&out.result),
                            bits(&want),
                            "thread {t} iter {i}: wrong cold result"
                        );
                    }
                }
            });
        }
    });

    let total = requests.load(Ordering::Relaxed);
    assert_eq!(total, (threads * iters) as u64);
    let s = engine.stats();
    assert_eq!(
        s.hits + s.misses,
        total,
        "hit/miss counters must sum to the request count: {s:?}"
    );
    assert!(s.hits > 0, "hot set must produce hits: {s:?}");
    assert!(s.misses > 0, "fresh matrices must produce misses: {s:?}");
    assert!(
        s.cold_compose.wall_s > 0.0 && s.serve.wall_s > 0.0,
        "wall counters must accumulate: {s:?}"
    );

    // The serving layer shares the one process pool: handling the whole
    // storm must not have spawned a single extra worker.
    assert_eq!(
        lf_sim::pool::workers_spawned_total(),
        workers_before,
        "serving must not churn worker pools"
    );
}

#[test]
fn coalesced_same_fingerprint_storm_keeps_the_ledger_exact() {
    // Every thread hammers the SAME handle through a batching engine
    // with a realistic (hundreds of µs) admission window. Client-side
    // success/error tallies must reconcile exactly with the engine's
    // disjoint outcome ledger, results must be correct on every thread,
    // and the fused path must not churn worker pools.
    let threads = env_or("LF_STRESS_THREADS", 8).max(2);
    let iters = env_or("LF_STRESS_ITERS", 24);
    let n = 160;
    let j = 5;

    lf_sim::pool::global();
    let workers_before = lf_sim::pool::workers_spawned_total();

    let a = matrix(0xC0A1, n, 3000);
    let handle = MatrixHandle::new(a.clone()).unwrap();
    let engine = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            batch_window_us: 400,
            max_batch_j: 64,
            ..ServeConfig::default()
        },
    );

    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (engine, handle, a) = (&engine, &handle, &a);
            let (ok, failed) = (&ok, &failed);
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xFA7 + t as u64);
                for i in 0..iters {
                    let b = DenseMatrix::random(n, j, &mut rng);
                    match engine.serve_handle(handle, &b) {
                        Ok(out) => {
                            let want = a.spmm_reference(&b).unwrap();
                            assert_eq!(
                                bits(&out.result),
                                bits(&want),
                                "thread {t} iter {i}: wrong coalesced result"
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let total = (threads * iters) as u64;
    let s = engine.stats();
    assert_eq!(
        s.requests(),
        total,
        "every request is ledgered exactly once: {s:?}"
    );
    assert_eq!(
        s.hits + s.misses + s.rejected + s.degraded + s.failed,
        total,
        "the five classes stay disjoint and exhaustive: {s:?}"
    );
    assert_eq!(
        s.hits + s.misses + s.degraded,
        ok.load(Ordering::Relaxed),
        "engine successes must match client-side successes: {s:?}"
    );
    assert_eq!(
        s.rejected + s.failed,
        failed.load(Ordering::Relaxed),
        "engine errors must match client-side errors: {s:?}"
    );
    assert!(
        s.batches >= 1,
        "a same-fingerprint storm through an open window must fuse: {s:?}"
    );
    assert!(
        s.batched_requests >= 2 * s.batches,
        "every fused execute covers at least two members: {s:?}"
    );
    assert_eq!(
        lf_sim::pool::workers_spawned_total(),
        workers_before,
        "coalesced serving must not churn worker pools"
    );
}

#[test]
fn concurrent_same_key_storm_converges_to_one_plan() {
    // Every thread requests the same (matrix, j): racing misses are
    // allowed to duplicate compose work, but the cache must converge to
    // one plan and all results must agree with the reference.
    let threads = env_or("LF_STRESS_THREADS", 8).max(2);
    let a = matrix(77, 160, 3000);
    let mut rng = Pcg32::seed_from_u64(78);
    let b = DenseMatrix::random(160, 7, &mut rng);
    let want = a.spmm_reference(&b).unwrap();
    let engine = ServeEngine::new(FixedCellPlanner::tuned(4), ServeConfig::default());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (engine, a, b, want) = (&engine, &a, &b, &want);
            scope.spawn(move || {
                for _ in 0..6 {
                    let out = engine.serve(a, b).unwrap();
                    assert_eq!(bits(&out.result), bits(want));
                }
            });
        }
    });
    let s = engine.stats();
    assert_eq!(s.requests(), (threads * 6) as u64);
    assert_eq!(s.cached_plans, 1, "same key must converge to one entry");
    assert!(s.hits >= s.requests() - threads as u64, "stats: {s:?}");
}
