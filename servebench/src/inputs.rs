//! Seeded workload inputs.
//!
//! Every function here is a pure function of the workload seed (and an
//! index), so two runs at one seed feed the engine identical matrices,
//! dense operands, request orders and update batches. The engine only
//! ever sees the generated values.

use lf_data::graphs::{GraphFamily, Scale, GNN_GRAPHS};
use lf_sparse::gen::PatternFamily;
use lf_sparse::{CsrMatrix, DenseMatrix, EdgeUpdate, Pcg32};

/// Element type of every workload (the GNN setting of the paper).
pub type T = f32;

/// Dense widths the workloads request.
pub const WIDTHS: [usize; 2] = [8, 64];

/// One sparse operand of a workload.
pub struct Item {
    /// Stable name for tables (`cora`, `banded-s1-0`, `cold-17`, ...).
    pub name: String,
    /// Pattern family, used to group the baseline table.
    pub family: &'static str,
    /// The matrix.
    pub csr: CsrMatrix<T>,
}

/// Independent random streams derived from one workload seed.
#[derive(Clone, Copy)]
pub enum Stream {
    HotSample,
    HotOrder,
    Operand,
    Cold,
    ColdValues,
    Updates,
    Trace,
    Disk,
    Tiny,
}

/// SplitMix64 finalizer over `(seed, stream, index)`.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator for one `(seed, stream, index)` triple.
pub fn rng(seed: u64, stream: Stream, index: u64) -> Pcg32 {
    Pcg32::seed_from_u64(mix(seed, stream, index))
}

fn generated(
    family: PatternFamily,
    name: String,
    rows: usize,
    nnz: usize,
    rng: &mut Pcg32,
) -> Item {
    Item {
        name,
        family: family.name(),
        csr: CsrMatrix::from_coo(&family.generate(rows, rows, nnz, rng)),
    }
}

/// `hot_hits` population: the seven GNN analogues at `Scale::Small`
/// (fixed by name, independent of the seed) plus two seeded matrices per
/// corpus pattern family. The two size classes are fixed so that the
/// seed changes structure, not scale, and throughput stays comparable
/// across seeds.
pub fn hot_population(seed: u64) -> Vec<Item> {
    let mut items: Vec<Item> = GNN_GRAPHS
        .iter()
        .map(|g| Item {
            name: g.name.to_string(),
            family: match g.family {
                GraphFamily::PowerLaw => PatternFamily::PowerLaw.name(),
                GraphFamily::Rmat => PatternFamily::Rmat.name(),
            },
            csr: g.build(Scale::Small),
        })
        .collect();
    for (k, family) in PatternFamily::ALL.iter().enumerate() {
        for (class, (rows, nnz)) in [(6_000usize, 40_000usize), (24_000, 160_000)]
            .into_iter()
            .enumerate()
        {
            let mut r = rng(seed, Stream::HotSample, (k * 2 + class) as u64);
            let rows = (rows as f64 * r.f64_in(0.9, 1.1)) as usize;
            let name = format!("{}-s{class}", family.name());
            items.push(generated(*family, name, rows, nnz, &mut r));
        }
    }
    items
}

/// Row (and column) counts of the `cold_stream` size classes.
pub const COLD_ROWS: [usize; 7] = [2_000, 3_200, 5_000, 8_000, 12_500, 20_000, 30_000];

/// Base matrices of the `cold_stream` workload.
pub const COLD_BASES: usize = 126;

/// The `cold_stream` payload source: a pool of seeded base matrices,
/// three per (family, size class) pair (126 = 3 x 6 x 7) at different
/// mean degrees, rows 2k-30k and nnz at most 200k (the banded generator
/// overshoots to ~380k). Three bases per class put several matrices of
/// each kind in the latency tail, so the p99 does not hinge on the
/// structure one seed gives one matrix. Request `i` copies base `i % n`
/// and rescales every value by a factor drawn from `(seed, i)`, so each
/// payload is byte-distinct
/// (the engine keys plans on content, so every request composes from
/// scratch) while the stream's mix of shapes is the same at every seed.
/// Copying a base is far cheaper than generating a matrix, which keeps
/// the benchmark's own work between requests small.
pub struct ColdStream {
    seed: u64,
    bases: Vec<Item>,
}

impl ColdStream {
    /// The first `n` bases of the stream for `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        const DEGREE: [usize; 5] = [2, 4, 7, 12, 20];
        let bases = (0..n)
            .map(|b| {
                let family = PatternFamily::ALL[b % 6];
                let rows = COLD_ROWS[b % 7];
                let nnz = (rows * DEGREE[b % 5]).min(200_000);
                let mut r = rng(seed, Stream::Cold, b as u64);
                generated(family, format!("{}-b{b}", family.name()), rows, nnz, &mut r)
            })
            .collect();
        ColdStream { seed, bases }
    }

    /// Request `i`: a never-repeated payload and its width. Each base
    /// keeps one width: bases alternate between the two in blocks of six
    /// (one per family), and the three bases of a (family, size class)
    /// pair fall in blocks of alternating parity, so every class is
    /// served at both widths.
    pub fn request(&self, i: u64) -> (Item, usize) {
        let b = (i % self.bases.len() as u64) as usize;
        let base = &self.bases[b];
        let j = WIDTHS[b / 6 % 2];
        let scale = rng(self.seed, Stream::ColdValues, i).f64_in(0.5, 2.0) as T;
        let mut values = base.csr.values().to_vec();
        values.iter_mut().for_each(|v| *v *= scale);
        let csr = CsrMatrix::from_raw(
            base.csr.rows(),
            base.csr.cols(),
            base.csr.row_ptr().to_vec(),
            base.csr.col_ind().to_vec(),
            values,
        )
        .expect("rescaling keeps a valid CSR");
        let item = Item {
            name: format!("cold-{i}"),
            family: base.family,
            csr,
        };
        (item, j)
    }
}

/// A small seeded matrix whose kernel runs in microseconds, so that the
/// fixed cost of a served request is not lost in kernel-time noise.
pub fn tiny(seed: u64) -> Item {
    let mut r = rng(seed, Stream::Tiny, 0);
    generated(PatternFamily::Uniform, "tiny".into(), 256, 1_024, &mut r)
}

/// A dense operand with `j` columns for a matrix with `rows` columns.
pub fn operand(seed: u64, tag: u64, rows: usize, j: usize) -> DenseMatrix<T> {
    DenseMatrix::random(rows, j, &mut rng(seed, Stream::Operand, tag))
}

/// One update batch touching ~0.5% of the rows (at least one), one
/// coordinate per row: half `SetValue`, a quarter each `Insert` and
/// `Delete`, so nnz performs a random walk with no drift. Always valid
/// against `csr`.
pub fn update_batch(csr: &CsrMatrix<T>, r: &mut Pcg32) -> Vec<EdgeUpdate<T>> {
    let rows = csr.rows();
    let k = (rows / 200).max(1).min(rows);
    let mut batch = Vec::with_capacity(k);
    for row in r.sample_distinct(rows, k) {
        let cols = csr.row_cols(row);
        let value = (r.f64_in(0.1, 1.0) * if r.bernoulli(0.5) { 1.0 } else { -1.0 }) as T;
        let roll = r.f64();
        let full = cols.len() == csr.cols();
        if cols.is_empty() || (!full && (0.5..0.75).contains(&roll)) {
            // Insert at an absent column (the row is not full here).
            let col = loop {
                let c = r.usize_in(0, csr.cols());
                if !cols.iter().any(|&x| x as usize == c) {
                    break c;
                }
            };
            batch.push(EdgeUpdate::Insert { row, col, value });
        } else {
            let col = cols[r.usize_in(0, cols.len())] as usize;
            batch.push(if roll < 0.5 {
                EdgeUpdate::SetValue { row, col, value }
            } else {
                EdgeUpdate::Delete { row, col }
            });
        }
    }
    batch
}
