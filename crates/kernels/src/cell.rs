//! The CELL SpMM kernel — Algorithm 2 of the paper.
//!
//! Every bucket is a regular Ellpack grid whose rows all fit the bucket
//! width, and every `2^k` non-zero slots form one GPU block. The GPU
//! mapping, which [`SpmmKernel::launches`] costs for the simulator:
//!
//! * streams `row_ind`, `col_ind`, `val` coalesced (the grids are
//!   row-major and fully regular);
//! * reads the dense operand `B` only inside the block's column partition,
//!   shrinking the L2 working set by the partition factor;
//! * writes `C` normally, or with `atomicAdd` when the bucket is flagged
//!   (`needs_atomic`: multi-partition matrices and the maximum bucket,
//!   which may hold folded rows — Algorithm 2 line 9);
//! * launches all buckets of all partitions as **one fused launch**,
//!   mirroring the horizontal-fusion pass SparseTIR inserts (§6).
//!
//! The CPU numeric path does not copy that mapping. It is
//! **owner-computes**: construction splits the output rows into blocks
//! of about `TileParams::chunk_slots` stored slots and records each
//! block's `row_ind` range in every `(partition, bucket)`. One parallel
//! region runs the blocks; each walks its ranges in `(partition, bucket,
//! row)` order and accumulates straight into its own `C` rows. Every
//! `C` row has exactly one writer, so there are no atomics, no scratch
//! row and no flush pass, and `needs_atomic` is never read here.
//!
//! A row's fragments in one partition are contiguous, column-ascending
//! slices of its CSR row, and partitions are ascending column spans, so
//! each `C` element is summed in CSR's ascending-k order: the output is
//! bitwise equal to `CsrMatrix::spmm_reference` at any worker count,
//! tile or lane shape.

use crate::common::{b_row_tx, split_b_traffic, spmm_flops, BlockScratch};
use crate::simd::{Gather, TileParams};
use crate::SpmmKernel;
use lf_cell::{Bucket, CellMatrix};
use lf_sim::atomicf::AtomicScalar;
use lf_sim::coalesce::segment_transactions;
use lf_sim::parallel::{default_workers, parallel_for, parallel_map_init, DisjointSlice};
use lf_sim::{BlockCost, DeviceModel, LaunchSpec};
use lf_sparse::ell::ELL_PAD;
use lf_sparse::{DenseMatrix, Result, Scalar, SparseError};

/// How bucket kernels are combined into launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionMode {
    /// One fused launch across all partitions and buckets — the
    /// horizontal-fusion pass this paper adds to the TVM backend (§6).
    Full,
    /// One launch per column partition (buckets within a partition are
    /// fused, partitions are not) — how the SparseTIR hyb baseline runs.
    PerPartition,
}

/// The owner-computes schedule: blocks of output rows, each with its
/// `row_ind` range in every bucket. Built once per kernel, so `run`
/// allocates nothing but `C`.
struct RowBlocks {
    /// Output rows `[first, end)` owned by each block.
    spans: Vec<(usize, usize)>,
    /// Bucket rows `[lo, hi)` of block `b` in flat bucket `q` (buckets
    /// in `(partition, width)` order) at `ranges[b * buckets + q]`.
    ranges: Vec<(usize, usize)>,
    /// Total bucket count across partitions.
    buckets: usize,
}

impl RowBlocks {
    /// Cut the rows into `ceil(stored slots / chunk_slots)` blocks of
    /// near-equal stored slots. Relies on `row_ind` being ascending
    /// within every bucket, which `build_cell`, `update_cell` and the
    /// plan codec guarantee.
    fn new<T: Scalar>(cell: &CellMatrix<T>, chunk_slots: usize) -> Self {
        let rows = cell.rows();
        let buckets = || cell.partitions().iter().flat_map(|p| &p.buckets);
        // Slot load per group of `1 << shift` rows: at most
        // `MAX_GROUPS` groups keep this transient histogram small on
        // tall matrices; blocks are cut at group boundaries.
        const MAX_GROUPS: usize = 4096;
        let shift = rows
            .div_ceil(MAX_GROUPS)
            .next_power_of_two()
            .trailing_zeros();
        let mut load = vec![0usize; rows.div_ceil(1 << shift)];
        for bucket in buckets() {
            for &r in &bucket.row_ind {
                load[r as usize >> shift] += bucket.width;
            }
        }
        let total: usize = load.iter().sum();
        let blocks = total.div_ceil(chunk_slots.max(1));
        let mut bounds = Vec::with_capacity(blocks + 1);
        if blocks > 0 {
            bounds.push(0);
            let mut acc = 0usize;
            for (g, &l) in load.iter().enumerate() {
                acc += l;
                // Cut once the running load reaches the next block's
                // share of the total.
                if bounds.len() < blocks && acc * blocks >= total * bounds.len() {
                    bounds.push(((g + 1) << shift).min(rows));
                }
            }
            if bounds.last() != Some(&rows) {
                bounds.push(rows);
            }
        }
        let spans: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        let mut ranges = Vec::with_capacity(spans.len() * cell.num_buckets());
        for &(first, end) in &spans {
            for bucket in buckets() {
                let lo = bucket.row_ind.partition_point(|&r| (r as usize) < first);
                let hi = bucket.row_ind.partition_point(|&r| (r as usize) < end);
                ranges.push((lo, hi));
            }
        }
        RowBlocks {
            spans,
            ranges,
            buckets: cell.num_buckets(),
        }
    }
}

/// One flattened analytic work item: a GPU block of one bucket.
struct AnalyticItem<'m, T> {
    bucket: &'m Bucket<T>,
    part_idx: usize,
    /// The partition's `B` working-set bytes (its column span only).
    working_set: usize,
    lo: usize,
    hi: usize,
}

/// Parallelize construction only when there is enough work to amortize a
/// pool dispatch.
fn construction_workers(items: usize) -> usize {
    if items >= 256 {
        default_workers()
    } else {
        1
    }
}

/// LiteForm's CELL SpMM kernel.
pub struct CellKernel<T> {
    cell: CellMatrix<T>,
    fusion: FusionMode,
    tile: TileParams,
    blocks: RowBlocks,
}

impl<T: AtomicScalar> CellKernel<T> {
    /// Wrap a CELL operand (fully fused launches, default tile).
    pub fn new(cell: CellMatrix<T>) -> Self {
        Self::with_fusion(cell, FusionMode::Full)
    }

    /// Wrap with an explicit fusion mode.
    pub fn with_fusion(cell: CellMatrix<T>, fusion: FusionMode) -> Self {
        let tile = TileParams::default();
        CellKernel {
            blocks: RowBlocks::new(&cell, tile.chunk_slots),
            cell,
            fusion,
            tile,
        }
    }

    /// Set the execution tile this kernel runs with by default (builder
    /// style; the `lf-cost` tile search picks it per matrix family + J).
    /// Re-cuts the row blocks when `chunk_slots` changes.
    pub fn with_tile(mut self, tile: TileParams) -> Self {
        if tile.chunk_slots != self.tile.chunk_slots {
            self.blocks = RowBlocks::new(&self.cell, tile.chunk_slots);
        }
        self.tile = tile;
        self
    }

    /// The execution tile `run` uses.
    pub fn tile_params(&self) -> TileParams {
        self.tile
    }

    /// Access the underlying matrix.
    pub fn cell(&self) -> &CellMatrix<T> {
        &self.cell
    }

    fn check_shape(&self, b: &DenseMatrix<T>) -> Result<()> {
        let (rows, cols) = self.cell.shape();
        if cols != b.rows() {
            return Err(SparseError::DimensionMismatch {
                op: "spmm",
                lhs: (rows, cols),
                rhs: b.shape(),
            });
        }
        Ok(())
    }

    /// The numeric path: one parallel region over the row blocks. A
    /// block carves its `C` rows once and accumulates every fragment
    /// that targets them, partition by partition; a fragment ends at its
    /// first `ELL_PAD` (padding is always a suffix). Gathered pairs are
    /// flushed when the target row changes, so consecutive folded
    /// fragments of one row share k-blocks.
    fn execute(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        self.check_shape(b)?;
        let j = b.cols();
        let mut c = DenseMatrix::zeros(self.cell.rows(), j);
        if j == 0 {
            return Ok(c);
        }
        let blocks = &self.blocks;
        let lanes = tile.lanes.resolve::<T>();
        let k_block = tile.k_block_clamped();
        let out = DisjointSlice::new(c.as_mut_slice());
        parallel_for(blocks.spans.len(), default_workers(), |bi| {
            let (first, end) = blocks.spans[bi];
            // SAFETY: block spans are disjoint and `parallel_for` visits
            // each block once, so no two carves overlap (debug builds
            // check this through the shadow map).
            let owned = unsafe { out.slice_mut(first * j, (end - first) * j) };
            let ranges = &blocks.ranges[bi * blocks.buckets..(bi + 1) * blocks.buckets];
            let buckets = self.cell.partitions().iter().flat_map(|p| &p.buckets);
            let mut gather: Gather<'_, T> = Gather::new();
            for (bucket, &(lo, hi)) in buckets.zip(ranges) {
                let w = bucket.width;
                let mut row = 0;
                for f in lo..hi {
                    let r = bucket.row_ind[f] as usize - first;
                    if r != row {
                        gather.flush_into(lanes, &mut owned[row * j..(row + 1) * j], 0);
                        row = r;
                    }
                    let cols = &bucket.col_ind[f * w..(f + 1) * w];
                    let vals = &bucket.values[f * w..(f + 1) * w];
                    for (&col, &a) in cols.iter().zip(vals) {
                        if col == ELL_PAD {
                            break;
                        }
                        gather.push(a, b.row(col as usize));
                        if gather.full(k_block) {
                            gather.flush_into(lanes, &mut owned[row * j..(row + 1) * j], 0);
                        }
                    }
                }
                gather.flush_into(lanes, &mut owned[row * j..(row + 1) * j], 0);
            }
        });
        Ok(c)
    }

    /// Numeric path with an explicit execution tile (fused serving runs
    /// thread the memoized per-(matrix-family, J) winner through here;
    /// `run` uses the kernel's own tile). Lanes and k-block come from
    /// `tile`; the row blocks stay the ones cut at construction, so
    /// `tile.chunk_slots` takes effect only through
    /// [`CellKernel::with_tile`].
    pub fn run_tiled(&self, b: &DenseMatrix<T>, tile: TileParams) -> Result<DenseMatrix<T>> {
        self.execute(b, tile)
    }

    /// Flatten all `(partition, bucket, GPU-block)` triples for the
    /// analytic path.
    fn analytic_items(&self, j: usize) -> Vec<AnalyticItem<'_, T>> {
        let elem = std::mem::size_of::<T>();
        let mut items = Vec::new();
        for (part_idx, part) in self.cell.partitions().iter().enumerate() {
            let span = part.col_range.1 - part.col_range.0;
            let working_set = span * j * elem;
            for bucket in &part.buckets {
                let rpb = bucket.rows_per_block.max(1);
                let mut lo = 0;
                while lo < bucket.num_rows() {
                    let hi = (lo + rpb).min(bucket.num_rows());
                    items.push(AnalyticItem {
                        bucket,
                        part_idx,
                        working_set,
                        lo,
                        hi,
                    });
                    lo = hi;
                }
            }
        }
        items
    }
}

impl<T: AtomicScalar> SpmmKernel<T> for CellKernel<T> {
    fn name(&self) -> &'static str {
        "cell(liteform)"
    }

    fn shape(&self) -> (usize, usize) {
        self.cell.shape()
    }

    fn run(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>> {
        self.execute(b, self.tile)
    }

    fn launches(&self, j: usize, device: &DeviceModel) -> Vec<LaunchSpec> {
        let elem = std::mem::size_of::<T>();
        let per_row = b_row_tx(j, elem, device);
        let j_tiles = j.div_ceil(device.warp_size);
        let items = self.analytic_items(j);
        // Per-block costs are independent: build them in one parallel
        // region with per-worker scratch (no per-block allocation, no
        // sort-dedup garbage), then stitch launches together in order.
        let costs: Vec<BlockCost> = parallel_map_init(
            items.len(),
            construction_workers(items.len()),
            BlockScratch::new,
            |scratch, ii| {
                let it = &items[ii];
                let bucket = it.bucket;
                let w = bucket.width;
                let rows_here = it.hi - it.lo;
                let slots = rows_here * w;
                let (nnz, unique_cols) = scratch.count_unique_iter(
                    bucket.col_ind[it.lo * w..it.hi * w]
                        .iter()
                        .copied()
                        .filter(|&c| c != ELL_PAD),
                );
                let unique = unique_cols as u64 * per_row;
                let total = nnz as u64 * per_row;
                let (b_dram, b_l2) =
                    split_b_traffic(unique, total - unique, it.working_set, device);
                // row_ind + col_ind + values, all coalesced streams.
                let row_ind_tx = segment_transactions(rows_here, 4, device.transaction_bytes);
                let colval = 2 * segment_transactions(slots, 4, device.transaction_bytes);
                let out_rows = scratch.count_unique(&bucket.row_ind[it.lo..it.hi]) as u64;
                let (c_store, c_atomic) = if bucket.needs_atomic {
                    (0, out_rows * per_row)
                } else {
                    (out_rows * per_row, 0)
                };
                BlockCost {
                    dram_transactions: b_dram + row_ind_tx + colval + c_store,
                    l2_transactions: b_l2,
                    flops: spmm_flops(slots, j),
                    atomic_transactions: c_atomic,
                    lane_efficiency: if slots > 0 {
                        (nnz as f64 / slots as f64).max(1e-3)
                    } else {
                        1.0
                    },
                }
            },
        );
        let new_launch = || LaunchSpec::new(self.name(), 256).with_grid_multiplier(j_tiles);
        match self.fusion {
            FusionMode::Full => {
                let mut launch = new_launch();
                for cost in costs {
                    launch.push(cost);
                }
                vec![launch]
            }
            FusionMode::PerPartition => {
                let num_parts = self.cell.partitions().len().max(1);
                let mut out: Vec<LaunchSpec> = (0..num_parts).map(|_| new_launch()).collect();
                for (item, cost) in items.iter().zip(costs) {
                    out[item.part_idx].push(cost);
                }
                out.retain(|l| !l.blocks.is_empty());
                if out.is_empty() {
                    out.push(new_launch());
                }
                out
            }
        }
    }

    fn format_bytes(&self) -> usize {
        self.cell.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Lanes;
    use lf_cell::{build_cell, CellConfig};
    use lf_sparse::gen::{mixed_regions, uniform_random, uniform_with_long_rows};
    use lf_sparse::{CsrMatrix, Pcg32};

    /// Bitwise equality, printed as bits on failure.
    fn assert_bitwise(got: &DenseMatrix<f64>, want: &DenseMatrix<f64>, what: &str) {
        let g: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        let w: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(g, w, "{what}");
    }

    fn check(csr: &CsrMatrix<f64>, cfg: &CellConfig) {
        let cell = build_cell(csr, cfg).unwrap();
        let k = CellKernel::new(cell);
        let mut rng = Pcg32::seed_from_u64(80);
        for j in [1, 17, 64] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let got = k.run(&b).unwrap();
            let want = csr.spmm_reference(&b).unwrap();
            assert_bitwise(&got, &want, &format!("cfg={cfg:?} J={j}"));
        }
    }

    #[test]
    fn numeric_correct_across_configs() {
        let mut rng = Pcg32::seed_from_u64(1);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(150, 180, 2500, &mut rng));
        check(&csr, &CellConfig::default());
        check(&csr, &CellConfig::with_partitions(3));
        check(
            &csr,
            &CellConfig::with_partitions(2).with_max_widths(vec![4, 8]),
        );
    }

    #[test]
    fn numeric_correct_with_folding() {
        let mut rng = Pcg32::seed_from_u64(2);
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            200, 300, 2000, 4, 250, &mut rng,
        ));
        check(&csr, &CellConfig::default().with_max_widths(vec![8]));
        check(
            &csr,
            &CellConfig::with_partitions(4).with_max_widths(vec![16]),
        );
    }

    #[test]
    fn numeric_correct_beyond_one_j_tile() {
        // J > j_tile: the tile's accumulator width never changes a sum.
        let mut rng = Pcg32::seed_from_u64(21);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(80, 90, 1200, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(2)).unwrap());
        let j = TileParams::default().j_tile + 37;
        let b = DenseMatrix::random(csr.cols(), j, &mut rng);
        let got = k.run(&b).unwrap();
        let want = csr.spmm_reference(&b).unwrap();
        assert_bitwise(&got, &want, "J > j_tile");
    }

    #[test]
    fn every_tile_shape_is_bitwise_identical() {
        // Any (j_tile, k_block, lanes, chunk) combination must produce
        // the reference's bits: per output element the accumulation
        // order over k is CSR's, and no shape fuses multiply-adds.
        let tiles = [
            TileParams {
                lanes: Lanes::Scalar,
                ..TileParams::default()
            },
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
        let mut rng = Pcg32::seed_from_u64(23);
        // Single partition, no folding.
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(150, 160, 2400, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        for j in [5, 64, 133] {
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            let want = csr.spmm_reference(&b).unwrap();
            assert_bitwise(&k.run(&b).unwrap(), &want, &format!("J={j}"));
            for tile in tiles {
                let got = k.run_tiled(&b, tile).unwrap();
                assert_bitwise(&got, &want, &format!("J={j} tile={tile:?}"));
            }
        }
        // Folded and multi-partition buckets (the ones Algorithm 2
        // flags `needs_atomic`): still one writer per row on the CPU.
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            150, 160, 2200, 4, 120, &mut rng,
        ));
        let ka = CellKernel::new(
            build_cell(
                &csr,
                &CellConfig::with_partitions(2).with_max_widths(vec![8]),
            )
            .unwrap(),
        );
        let b = DenseMatrix::random(csr.cols(), 70, &mut rng);
        let want = csr.spmm_reference(&b).unwrap();
        for tile in tiles {
            let got = ka.run_tiled(&b, tile).unwrap();
            assert_bitwise(&got, &want, &format!("folded tile={tile:?}"));
            let bound = CellKernel::new(ka.cell().clone()).with_tile(tile);
            assert_bitwise(
                &bound.run(&b).unwrap(),
                &want,
                &format!("bound tile={tile:?}"),
            );
        }
    }

    #[test]
    fn row_blocks_partition_rows_and_balance_slots() {
        // A short matrix (blocks cut at single rows) and a tall one
        // (cut at aligned groups of 4 rows: 12000 rows > 3 × 4096).
        let mut rng = Pcg32::seed_from_u64(24);
        for (rows, group) in [(400usize, 1usize), (12_000, 4)] {
            let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
                rows,
                300,
                rows * 15,
                4,
                250,
                &mut rng,
            ));
            check_row_blocks(
                &build_cell(&csr, &CellConfig::with_partitions(3)).unwrap(),
                group,
            );
        }
    }

    fn check_row_blocks(cell: &CellMatrix<f64>, group: usize) {
        let buckets: Vec<_> = cell.partitions().iter().flat_map(|p| &p.buckets).collect();
        let slots = cell.stored_slots();
        let mut group_load = vec![0usize; cell.rows().div_ceil(group)];
        for bucket in &buckets {
            for &r in &bucket.row_ind {
                group_load[r as usize / group] += bucket.width;
            }
        }
        let max_group = *group_load.iter().max().unwrap();
        for chunk in [1usize, 64, 512, 1 << 20] {
            let blocks = RowBlocks::new(cell, chunk);
            let n = blocks.spans.len();
            assert!(
                (1..=slots.div_ceil(chunk)).contains(&n),
                "chunk={chunk}: {n} blocks"
            );
            // Contiguous, non-empty, covering every row.
            assert_eq!(blocks.spans[0].0, 0);
            assert_eq!(blocks.spans.last().unwrap().1, cell.rows());
            for w in blocks.spans.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            assert!(blocks.spans.iter().all(|&(a, b)| a < b && a % group == 0));
            // Balanced: no block holds more than its share plus one group.
            for bi in 0..n {
                let load: usize = buckets
                    .iter()
                    .enumerate()
                    .map(|(q, bk)| {
                        let (lo, hi) = blocks.ranges[bi * blocks.buckets + q];
                        (hi - lo) * bk.width
                    })
                    .sum();
                assert!(
                    load <= slots / n + max_group,
                    "chunk={chunk} block {bi}: {load}"
                );
            }
            // Every bucket row lands in exactly one block's range.
            for (q, bucket) in buckets.iter().enumerate() {
                let mut next = 0;
                for (bi, &(first, end)) in blocks.spans.iter().enumerate() {
                    let (lo, hi) = blocks.ranges[bi * blocks.buckets + q];
                    assert_eq!(lo, next);
                    next = hi;
                    for &r in &bucket.row_ind[lo..hi] {
                        assert!((first..end).contains(&(r as usize)));
                    }
                }
                assert_eq!(next, bucket.num_rows());
            }
        }
    }

    /// Seeded bug: a schedule whose second row block starts one row
    /// early, overlapping the first block's last row. Both blocks carve
    /// that row of `C`; the debug `DisjointSlice` claim must reject the
    /// second carve instead of letting two workers write one row.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-writer")]
    fn overlapping_row_blocks_detected() {
        let mut rng = Pcg32::seed_from_u64(25);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(64, 64, 1000, &mut rng));
        let tile = TileParams {
            chunk_slots: 128,
            ..TileParams::default()
        };
        let mut k =
            CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap()).with_tile(tile);
        assert!(k.blocks.spans.len() >= 2);
        k.blocks.spans[1].0 -= 1;
        let _ = k.run(&DenseMatrix::<f64>::zeros(64, 3));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut rng = Pcg32::seed_from_u64(3);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(10, 10, 30, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        assert!(k.run(&DenseMatrix::<f64>::zeros(7, 3)).is_err());
    }

    #[test]
    fn single_fused_launch() {
        let mut rng = Pcg32::seed_from_u64(4);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(256, 256, 6000, 4, &mut rng));
        let k = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(4)).unwrap());
        let launches = k.launches(64, &DeviceModel::v100());
        assert_eq!(launches.len(), 1, "buckets must be horizontally fused");
        assert!(launches[0].blocks.len() > 4);
    }

    #[test]
    fn partitioning_shrinks_working_set_on_mixed_matrix() {
        // On a matrix with strongly varying column-region density, more
        // partitions should not be slower by much and often help; at the
        // very least the profile must remain correct and bounded.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(5);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(4096, 4096, 200_000, 4, &mut rng));
        let t1 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(1)).unwrap())
            .profile(256, &d);
        let t4 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(4)).unwrap())
            .profile(256, &d);
        // The 4-partition build must show fewer DRAM transactions per B
        // access thanks to the smaller working set.
        assert!(
            t4.dram_transactions < t1.dram_transactions,
            "partitioning should increase L2 hits: {} vs {}",
            t4.dram_transactions,
            t1.dram_transactions
        );
    }

    #[test]
    fn blocks_are_balanced() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(6);
        let csr = CsrMatrix::from_coo(&uniform_with_long_rows::<f64>(
            3000, 3000, 40_000, 3, 2500, &mut rng,
        ));
        let cfg = CellConfig::default().with_max_widths(vec![32]);
        let k = CellKernel::new(build_cell(&csr, &cfg).unwrap());
        let p = k.profile(128, &d);
        assert!(
            p.imbalance < 8.0,
            "equal-nnz blocks should stay balanced: {}",
            p.imbalance
        );
    }

    #[test]
    fn atomic_traffic_only_when_flagged() {
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(7);
        let csr = CsrMatrix::from_coo(&uniform_random::<f64>(128, 128, 1500, &mut rng));
        // Single partition, no fold: no atomics.
        let k1 = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        assert_eq!(k1.profile(64, &d).atomic_transactions, 0);
        // Multi-partition: atomics appear.
        let k2 = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(2)).unwrap());
        assert!(k2.profile(64, &d).atomic_transactions > 0);
    }

    #[test]
    fn parallel_launch_construction_matches_sequential() {
        // The same matrix profiled through the parallel construction path
        // (many blocks) and block-by-block must agree exactly: launch
        // assembly preserves block order.
        let d = DeviceModel::v100();
        let mut rng = Pcg32::seed_from_u64(8);
        let csr = CsrMatrix::from_coo(&mixed_regions::<f64>(2048, 2048, 120_000, 4, &mut rng));
        let cell = build_cell(&csr, &CellConfig::with_partitions(4)).unwrap();
        let k = CellKernel::new(cell);
        let a = k.launches(64, &d);
        let b = k.launches(64, &d);
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(&b) {
            assert_eq!(la.blocks, lb.blocks);
        }
        assert!(a[0].blocks.len() >= 256, "expect parallel construction");
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f64>::empty(8, 8);
        let k = CellKernel::new(build_cell(&csr, &CellConfig::default()).unwrap());
        let c = k.run(&DenseMatrix::zeros(8, 2)).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(k.profile(2, &DeviceModel::v100()).num_blocks, 0);
    }
}
