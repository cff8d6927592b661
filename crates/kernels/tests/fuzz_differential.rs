//! Differential fuzzing: every kernel vs. the sequential CSR reference.
//!
//! Each iteration draws one structure-aware [`fuzz_case`] — the
//! [`PatternFamily`] corpus shapes plus degenerate geometry (zero rows,
//! zero columns, empty matrices, mostly-empty rows, one dense row,
//! duplicate-heavy streams, extreme aspect ratios, folded-row-heavy
//! profiles) — builds **all ten** kernel configurations on it, and
//! requires every atomic-free result to equal `CsrMatrix::spmm_reference`
//! bitwise, under both the forced-scalar and the SIMD tile; TACO's
//! boundary atomics are held to the engine suite's 1e-9 bound. CELL is
//! also checked bitwise across partition counts, fold caps, dense
//! widths, tile shapes and a fused `PreparedPlan::run_batched`.
//!
//! The corpus also rotates through a **malformed** class (broken
//! row-pointer monotonicity, out-of-range column indices, length
//! mismatches, non-finite values). Those cases exercise the *rejection*
//! contract instead: strict validation must return a typed
//! `SparseError` — never panic, never a wrong answer — and the kernel
//! comparison is skipped, since kernel constructors are only defined
//! over valid CSR.
//!
//! In debug builds the shadow race detector is live underneath every
//! kernel: each run also proves the disjoint-write claims (plain-store
//! rows single-writer, atomic rows shared) hold for the generated
//! structure.
//!
//! Run with `cargo test -p lf-kernels fuzz_differential`. The default
//! iteration count is CI-sized but covers every structural class
//! (classes rotate with the seed); `LF_FUZZ_ITERS=2000` (see
//! `scripts/verify.sh --stress`) widens the sweep. Every failure message
//! carries the seed, which reproduces the case exactly.

use lf_cell::{build_cell, CellConfig};
use lf_kernels::cell::CellKernel;
use lf_kernels::{
    BcsrKernel, CsrScalarKernel, CsrVectorKernel, DgSparseKernel, EllKernel, Lanes, SellKernel,
    SpmmKernel, SputnikKernel, TacoKernel, TacoSchedule, TileParams,
};
use lf_sparse::gen::{fuzz_case, FUZZ_CLASSES};
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32, SellMatrix};
use liteform_core::{PreparedPlan, PreprocessProfile};

/// Every kernel in the repo, bound to the same operand and execution
/// tile, paired with whether its mapping may use atomic accumulation
/// (which makes run-to-run float ordering scheduling-dependent).
fn all_kernels(csr: &CsrMatrix<f64>, tile: TileParams) -> Vec<(Box<dyn SpmmKernel<f64>>, bool)> {
    vec![
        (
            Box::new(CsrScalarKernel::new(csr.clone()).with_tile(tile)) as Box<_>,
            false,
        ),
        (
            Box::new(CsrVectorKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(DgSparseKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(SputnikKernel::new(csr.clone()).with_tile(tile)),
            false,
        ),
        (
            Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default()).with_tile(tile)),
            true,
        ),
        (
            Box::new(EllKernel::new(EllMatrix::from_csr(csr)).with_tile(tile)),
            false,
        ),
        (
            Box::new(SellKernel::new(SellMatrix::from_csr(csr, 16).unwrap()).with_tile(tile)),
            false,
        ),
        (
            Box::new(BcsrKernel::new(BcsrMatrix::from_csr(csr, 4, 4).unwrap()).with_tile(tile)),
            false,
        ),
        (
            Box::new(
                CellKernel::new(build_cell(csr, &CellConfig::with_partitions(3)).unwrap())
                    .with_tile(tile),
            ),
            false,
        ),
        // Width-capped build: long rows fold into consecutive fragments
        // of the maximum bucket, all owned by one row block.
        (
            Box::new(
                CellKernel::new(
                    build_cell(csr, &CellConfig::default().with_max_widths(vec![8])).unwrap(),
                )
                .with_tile(tile),
            ),
            false,
        ),
    ]
}

fn iters() -> u64 {
    std::env::var("LF_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        // 4 full rotations through the structural classes by default.
        .unwrap_or(4 * FUZZ_CLASSES)
}

#[test]
fn fuzz_differential_all_kernels_match_reference() {
    for seed in 0..iters() {
        let case = fuzz_case::<f64>(seed);
        let (csr, j) = (&case.csr, case.j);
        if case.malformed {
            // Malformed payloads must be caught by strict validation
            // (the serving layer's ingress gate) with a typed error.
            // Kernels are only defined over valid CSR, so the
            // differential comparison does not apply.
            assert!(
                csr.validate_finite().is_err(),
                "seed {seed} [{}]: malformed case passed strict validation",
                case.label
            );
            continue;
        }
        assert!(
            csr.validate().is_ok(),
            "seed {seed} [{}]: well-formed case failed validation",
            case.label
        );
        let mut rng = Pcg32::new(seed, 0xB0B);
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        // Every kernel vs. the sequential reference, under both the
        // forced-scalar engine and the SIMD gather engine. Atomic-free
        // kernels sum each element in the reference's ascending-k order
        // and must equal it *bitwise*; atomic mappings get the 1e-9
        // bound.
        let scalar_tile = TileParams::default().with_lanes(Lanes::Scalar);
        let wide_tile = TileParams {
            j_tile: 64,
            k_block: 8,
            lanes: Lanes::Auto,
            chunk_slots: 4096,
        };
        let kernels = all_kernels(csr, scalar_tile)
            .into_iter()
            .map(|k| ("scalar", k))
            .chain(all_kernels(csr, wide_tile).into_iter().map(|k| ("SIMD", k)));
        for (engine, (k, atomics)) in kernels {
            let what = format!(
                "seed {seed} [{}] {}x{} nnz={} J={j}: {} ({engine} tile)",
                case.label,
                csr.rows(),
                csr.cols(),
                csr.nnz(),
                k.name()
            );
            let got = k.run(&b).unwrap_or_else(|e| panic!("{what} failed: {e}"));
            assert_eq!(got.shape(), (csr.rows(), j), "{what}: shape");
            if atomics {
                assert!(got.approx_eq(&want, 1e-9), "{what} diverges from reference");
            } else {
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{what} is not bitwise-equal to the reference"
                );
            }
        }
    }
}

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// CELL's owner-computes contract, bitwise: every well-formed structural
/// class × p ∈ {1, 2, 4, 16} × fold caps {natural, 8, 32} × J ∈ {1, 8,
/// 64, 200} × every tile shape (bound at construction through `run`, and
/// passed per call through `run_tiled`), plus one fused
/// `PreparedPlan::run_batched` over all four widths. Each `C` element is
/// summed in CSR's ascending-k order, so nothing may differ from
/// `spmm_reference` in any bit.
#[test]
fn cell_is_bitwise_equal_to_reference() {
    let tiles = [
        TileParams::default(),
        TileParams::default().with_lanes(Lanes::Scalar),
        TileParams {
            j_tile: 32,
            k_block: 3,
            lanes: Lanes::X4,
            chunk_slots: 64,
        },
        TileParams {
            j_tile: 512,
            k_block: 32,
            lanes: Lanes::X8,
            chunk_slots: 16384,
        },
        TileParams {
            j_tile: 1,
            k_block: 1,
            lanes: Lanes::X8,
            chunk_slots: 1,
        },
    ];
    for seed in 0..FUZZ_CLASSES {
        let case = fuzz_case::<f64>(seed);
        if case.malformed {
            continue;
        }
        let csr = &case.csr;
        let mut rng = Pcg32::new(seed, 0xB17);
        let bs: Vec<DenseMatrix<f64>> = [1, 8, 64, 200]
            .iter()
            .map(|&j| DenseMatrix::random(csr.cols(), j, &mut rng))
            .collect();
        let want: Vec<Vec<u64>> = bs
            .iter()
            .map(|b| bits(&csr.spmm_reference(b).unwrap()))
            .collect();
        for p in [1, 2, 4, 16] {
            for cap in [None, Some(8), Some(32)] {
                let mut cfg = CellConfig::with_partitions(p);
                if let Some(cap) = cap {
                    cfg = cfg.with_max_widths(vec![cap]);
                }
                let cell = build_cell(csr, &cfg).unwrap();
                let at = |what: &str, j: usize| {
                    format!(
                        "seed {seed} [{}] {}x{} nnz={} p={p} cap={cap:?} J={j}: {what}",
                        case.label,
                        csr.rows(),
                        csr.cols(),
                        csr.nnz()
                    )
                };
                let plain = CellKernel::new(cell.clone());
                for tile in tiles {
                    let bound = CellKernel::new(cell.clone()).with_tile(tile);
                    for (b, want) in bs.iter().zip(&want) {
                        let j = b.cols();
                        let got = bound.run(b).unwrap();
                        assert_eq!(&bits(&got), want, "{}", at(&format!("run {tile:?}"), j));
                        let got = plain.run_tiled(b, tile).unwrap();
                        assert_eq!(
                            &bits(&got),
                            want,
                            "{}",
                            at(&format!("run_tiled {tile:?}"), j)
                        );
                    }
                }
                let plan = PreparedPlan::from_cell(cfg, cell, PreprocessProfile::default());
                let refs: Vec<&DenseMatrix<f64>> = bs.iter().collect();
                let fused = plan.run_batched(&refs).unwrap();
                for ((got, want), b) in fused.iter().zip(&want).zip(&bs) {
                    assert_eq!(&bits(got), want, "{}", at("run_batched", b.cols()));
                }
            }
        }
    }
}
