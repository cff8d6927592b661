//! The chaos tier: fault-injected serving storm.
//!
//! Only compiled with `--features chaos`: the serving pipeline then
//! carries `lf_check::chaos` injection sites (compose panic, execute
//! panic, allocation failure). This test installs a
//! seeded [`ChaosPlan`], hammers one engine from many threads with mixed
//! traffic — hot handles, cold payloads, malformed payloads, shape
//! mismatches — and sends half of the hot-handle traffic through a
//! second, coalescing engine (so injected execute panics also reach
//! fused runs), and asserts the robustness contract *under fire*:
//!
//! * **no deadlock / no wedge** — the storm completes (workers released
//!   on every error path, quarantine never holds a lock across compose);
//! * **no wrong bytes** — every `Ok` result, clean or degraded, solo or
//!   fused, is **bitwise** equal to the sequential reference (CELL plans,
//!   the CSR fallback and the post-panic rescue are all single-writer,
//!   row-in-order);
//! * **the ledger balances exactly** on each engine —
//!   `requests == hits + misses + rejected + degraded + failed`, with
//!   every thread's every call counted in exactly one class;
//! * **faults really happened** — ≥ 5 % of requests drew an injection
//!   (asserted from the chaos module's own accounting, not the nominal
//!   rate), and the quarantine + degradation machinery demonstrably ran;
//! * **compose faults degrade, never fail** — the compose sites drew
//!   injections, and no request failed with a compose-stage error: the
//!   engine's own ladder turned every one into a degraded CSR result;
//! * **no thread churn** — the process-wide worker pool is flat across
//!   the storm.
//!
//! Seed, thread count, and per-thread iterations come from
//! `LF_CHAOS_SEED` / `LF_CHAOS_THREADS` / `LF_CHAOS_ITERS`
//! (`scripts/verify.sh --chaos` runs three seeds at 16×200).
//!
//! The chaos plan is process-global, so all scenarios live in this one
//! `#[test]`.

#![cfg(feature = "chaos")]

use lf_check::chaos::{self, ChaosPlan, ChaosSite};
use lf_serve::{FixedCellPlanner, MatrixHandle, ServeConfig, ServeEngine};
use lf_sparse::gen::{fuzz_case, mixed_regions, FUZZ_CLASSES, MALFORMED_CLASS};
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::LfError;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

fn env_or(name: &str, default: u64) -> u64 {
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

/// Client-side outcome tally for one engine, matched against its ledger.
#[derive(Default)]
struct Tally {
    ok_clean: AtomicU64,
    ok_degraded: AtomicU64,
    err_rejected: AtomicU64,
    err_failed: AtomicU64,
    /// Failures a composition produced — the errors the compose sites
    /// inject, or a deadline seen at the compose stage. The engine's
    /// ladder must degrade every compose fault instead.
    err_compose: AtomicU64,
}

impl Tally {
    fn record(&self, outcome: &Result<bool, LfError>) {
        let class = match outcome {
            Ok(true) => &self.ok_degraded,
            Ok(false) => &self.ok_clean,
            Err(e) if e.is_rejection() => &self.err_rejected,
            Err(e) => {
                if matches!(
                    e,
                    LfError::ResourceExhausted { .. }
                        | LfError::DeadlineExceeded { stage: "compose" }
                ) {
                    self.err_compose.fetch_add(1, Relaxed);
                }
                &self.err_failed
            }
        };
        class.fetch_add(1, Relaxed);
    }

    fn sent(&self) -> u64 {
        [
            &self.ok_clean,
            &self.ok_degraded,
            &self.err_rejected,
            &self.err_failed,
        ]
        .iter()
        .map(|c| c.load(Relaxed))
        .sum()
    }
}

#[test]
fn chaos_storm_no_deadlock_no_wrong_bytes_exact_ledger() {
    let seed = env_or("LF_CHAOS_SEED", 0x00C0_FFEE);
    let threads = env_or("LF_CHAOS_THREADS", 16).max(2) as usize;
    let iters = env_or("LF_CHAOS_ITERS", 200) as usize;
    let (n, j) = (128usize, 8usize);

    lf_sim::pool::global();
    let workers_before = lf_sim::pool::workers_spawned_total();

    let config = ServeConfig {
        shards: 4,
        byte_budget: 64 << 20,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(FixedCellPlanner::tuned(4), config.clone());
    // The coalescing leg: a second engine that fuses concurrent requests
    // on one handle, so injected execute panics also hit fused runs and
    // their per-member rescues.
    let coalescing = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            batch_window_us: 2_000,
            ..config
        },
    );
    let engines = [(&engine, Tally::default()), (&coalescing, Tally::default())];

    // Hot set: warmed *before* faults are armed so the storm starts from
    // a healthy cache (the injected execute panics then exercise the
    // quarantine + re-admission cycle on it). Each handle has a few
    // operands, so a fused group mixes members with distinct results.
    type Operands = Vec<(DenseMatrix<f64>, DenseMatrix<f64>)>;
    let hot: Vec<(MatrixHandle<f64>, Operands)> = (0..4u64)
        .map(|s| {
            let a = matrix(0x7000 + s, n, 3000);
            let mut rng = Pcg32::seed_from_u64(0x8000 + s);
            let operands = (0..3)
                .map(|_| {
                    let b = DenseMatrix::random(n, j, &mut rng);
                    let want = a.spmm_reference(&b).unwrap();
                    (b, want)
                })
                .collect();
            let h = MatrixHandle::new(a).unwrap();
            for (e, _) in &engines {
                e.warm(&h, j).unwrap();
            }
            (h, operands)
        })
        .collect();

    // 10% nominal rate at every site, 19% for plan-scratch allocation
    // failures (the compose stage's typed-failure site); the post-run
    // assertion uses the *achieved* counts.
    chaos::install(ChaosPlan::uniform(seed, 100).with_rate(ChaosSite::AllocFail, 190));

    let sent = AtomicU64::new(0);
    let ok_batched = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (engines, engine, hot, sent, ok_batched) =
                (&engines, &engine, &hot, &sent, &ok_batched);
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(seed ^ (0xAB1E + t as u64));
                for i in 0..iters {
                    sent.fetch_add(1, Relaxed);
                    let draw = rng.usize_in(0, 100);
                    // Every `Ok` result — clean CELL, degraded CSR
                    // fallback, post-panic rescue, fused or solo — comes
                    // from a single-writer kernel and must equal the
                    // sequential reference bit for bit.
                    let (leg, outcome) = if draw < 50 {
                        // Hot handle: mostly hits; injected execute
                        // panics quarantine the plan and rescue the
                        // request. Half of this traffic goes through
                        // the coalescing engine.
                        let leg = usize::from(draw < 25);
                        let (h, operands) = &hot[rng.usize_in(0, hot.len())];
                        let (b, want) = &operands[rng.usize_in(0, operands.len())];
                        let outcome = engines[leg].0.serve_handle(h, b).map(|out| {
                            assert_eq!(
                                bits(&out.result),
                                bits(want),
                                "thread {t} iter {i}: wrong hot result"
                            );
                            if out.batched {
                                ok_batched.fetch_add(1, Relaxed);
                            }
                            out.degraded
                        });
                        (leg, outcome)
                    } else if draw < 75 {
                        // Cold payload, verified in-thread; injected
                        // compose faults degrade to baseline CSR.
                        let a = matrix(0x9_0000 + (t * iters + i) as u64, n, 2000);
                        let mut brng = Pcg32::seed_from_u64(0xB0B0 + (t * iters + i) as u64);
                        let b = DenseMatrix::random(n, j, &mut brng);
                        let want = a.spmm_reference(&b).unwrap();
                        let outcome = engine.serve(&a, &b).map(|out| {
                            assert_eq!(
                                bits(&out.result),
                                bits(&want),
                                "thread {t} iter {i}: wrong cold result"
                            );
                            out.degraded
                        });
                        (0, outcome)
                    } else if draw < 90 {
                        // Hostile payload: must be a typed rejection.
                        let case = fuzz_case::<f64>(
                            MALFORMED_CLASS + rng.usize_in(0, 64) as u64 * FUZZ_CLASSES,
                        );
                        let b = DenseMatrix::<f64>::zeros(case.csr.cols().max(1), j);
                        let err = engine
                            .serve(&case.csr, &b)
                            .expect_err("malformed payload must be rejected");
                        assert!(
                            matches!(err, LfError::InvalidInput(_)),
                            "thread {t} iter {i}: wrong rejection class: {err}"
                        );
                        (0, Err(err))
                    } else {
                        // Shape mismatch: typed rejection, pre-admission.
                        let (h, _) = &hot[0];
                        let bad = DenseMatrix::<f64>::zeros(n / 2, j);
                        let err = engine
                            .serve_handle(h, &bad)
                            .expect_err("shape mismatch must be rejected");
                        assert!(err.is_rejection(), "{err}");
                        (0, Err(err))
                    };
                    engines[leg].1.record(&outcome);
                }
            });
        }
    });
    chaos::reset();

    let total = sent.load(Relaxed);
    assert_eq!(total, (threads * iters) as u64);

    // The exact outcome ledger, per engine: engine-side classes match
    // the client-side tallies, and the identity holds with no slack.
    for (e, tally) in &engines {
        let s = e.stats();
        assert_eq!(
            s.requests(),
            s.hits + s.misses + s.rejected + s.degraded + s.failed,
            "ledger identity: {s:?}"
        );
        assert_eq!(
            s.requests(),
            tally.sent(),
            "every request counted once: {s:?}"
        );
        assert_eq!(
            s.hits + s.misses,
            tally.ok_clean.load(Relaxed),
            "clean outcomes: {s:?}"
        );
        assert_eq!(
            s.degraded,
            tally.ok_degraded.load(Relaxed),
            "degraded: {s:?}"
        );
        assert_eq!(
            s.rejected,
            tally.err_rejected.load(Relaxed),
            "rejected: {s:?}"
        );
        assert_eq!(s.failed, tally.err_failed.load(Relaxed), "failed: {s:?}");
    }
    assert_eq!(engines.iter().map(|(_, t)| t.sent()).sum::<u64>(), total);

    // Faults demonstrably happened: ≥ 5% of requests drew an injection
    // (achieved counts, not nominal rate), and both degradation
    // mechanisms ran.
    let injected = chaos::injected_total();
    assert!(
        injected * 20 >= total,
        "only {injected} injections across {total} requests"
    );
    let s = engine.stats();
    assert!(s.degraded > 0, "no request degraded: {s:?}");
    assert!(
        s.quarantined > 0,
        "no plan was quarantined by injected execute panics: {s:?}"
    );
    // Compose faults were drawn, and the engine degraded every one of
    // them: no request on either engine failed at the compose stage.
    let compose_injected =
        chaos::injected(ChaosSite::ComposePanic) + chaos::injected(ChaosSite::AllocFail);
    assert!(compose_injected > 0, "no compose-site injection: {s:?}");
    for (e, tally) in &engines {
        assert_eq!(
            tally.err_compose.load(Relaxed),
            0,
            "a compose fault failed a request instead of degrading it: {:?}",
            e.stats()
        );
    }
    assert!(s.rejected > 0 && s.hits > 0 && s.misses > 0, "{s:?}");
    // The coalescing leg fused requests, and injected execute panics
    // reached it.
    let cs = coalescing.stats();
    assert!(
        cs.batches > 0 && ok_batched.load(Relaxed) > 0,
        "the coalescing leg never fused: {cs:?}"
    );
    assert!(cs.quarantined > 0, "no coalescing-leg quarantine: {cs:?}");

    // The storm — panics, rescues, quarantines and all — spawned no
    // threads beyond the shared pool.
    assert_eq!(
        lf_sim::pool::workers_spawned_total(),
        workers_before,
        "serving under chaos must not churn worker pools"
    );

    // --- Deadline scenario: the `failed` class, deterministic --------
    let strict = ServeEngine::new(
        FixedCellPlanner::tuned(4),
        ServeConfig {
            deadline_ms: Some(0),
            ..ServeConfig::default()
        },
    );
    let a = matrix(0xDEAD, n, 2000);
    let mut rng = Pcg32::seed_from_u64(0xFADE);
    let b = DenseMatrix::random(n, j, &mut rng);
    for _ in 0..5 {
        let err = strict.serve(&a, &b).unwrap_err();
        assert!(matches!(err, LfError::DeadlineExceeded { .. }), "{err}");
    }
    let ds = strict.stats();
    assert_eq!(ds.failed, 5);
    assert_eq!(ds.requests(), 5);
    assert_eq!(ds.cached_plans, 0, "expired requests cache nothing");
}
