//! GNN layer forward pass: the workload that motivates the paper's
//! evaluation set. A GCN layer computes `H' = σ(Â · H · W)`; the sparse
//! half (`Â · X` with `X = H·W`) is exactly the SpMM this library
//! optimizes. This example runs one layer on the `pubmed` analogue with
//! the full LiteForm pipeline (trained on a small corpus on the fly).
//!
//! ```sh
//! cargo run --release --example gnn_layer
//! ```

use liteform::core::{
    label_format_selection, label_partitions, FormatSelector, LiteForm, PartitionPredictor,
    TrainingConfig,
};
use liteform::data::{Corpus, CorpusSpec, GraphSpec, Scale};
use liteform::prelude::*;

fn relu_inplace(m: &mut DenseMatrix<f32>) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

fn main() {
    let device = DeviceModel::v100();
    let mut rng = Pcg32::seed_from_u64(2024);

    // --- Train a small LiteForm pipeline (offline step, amortized). ---
    eprintln!("[training LiteForm on a 30-matrix corpus ...]");
    let corpus: Corpus<f32> = Corpus::generate(CorpusSpec {
        n_matrices: 30,
        min_rows: 500,
        max_rows: 8000,
        max_nnz: 150_000,
        ..Default::default()
    });
    let cfg = TrainingConfig {
        dense_widths: vec![32, 128],
        ..Default::default()
    };
    let sel: Vec<_> = corpus
        .matrices
        .iter()
        .map(|m| label_format_selection(&m.csr, &cfg, &device))
        .collect();
    let part: Vec<_> = corpus
        .matrices
        .iter()
        .flat_map(|m| label_partitions(&m.csr, &cfg, &device))
        .collect();
    let mut selector = FormatSelector::new(1);
    selector.train(&sel);
    let mut predictor = PartitionPredictor::new(2);
    predictor.train(&part);
    let liteform = LiteForm::new(selector, predictor, device.clone());

    // --- The layer. ---
    let adj: CsrMatrix<f32> = GraphSpec::by_name("pubmed")
        .expect("known dataset")
        .build(Scale::Small);
    let hidden = 64;
    println!(
        "pubmed analogue: {} nodes, {} edges; hidden dim {hidden}",
        adj.rows(),
        adj.nnz()
    );

    // Node features already multiplied by the layer weight: X = H·W.
    let x = DenseMatrix::random(adj.cols(), hidden, &mut rng);

    // LiteForm composes a format and runs the SpMM.
    let (mut h_next, profile, preprocess) = liteform.spmm(&adj, &x).expect("dims match");
    relu_inplace(&mut h_next);

    // Verify against the reference aggregation.
    let mut want = adj.spmm_reference(&x).expect("dims match");
    relu_inplace(&mut want);
    assert!(h_next.approx_eq(&want, 1e-3), "layer output mismatch");
    println!("layer output verified against the sequential reference");

    println!(
        "composition overhead: {:.3} ms (features {:.3} + inference {:.3} + width search {:.3} + build {:.3})",
        preprocess.total().wall_s * 1e3,
        preprocess.feature_extraction.wall_s * 1e3,
        (preprocess.selection_inference.wall_s + preprocess.partition_inference.wall_s) * 1e3,
        preprocess.width_search.wall_s * 1e3,
        preprocess.build.wall_s * 1e3,
    );
    println!(
        "simulated kernel: {:.4} ms on {} ({} blocks, utilization {:.2})",
        profile.time_ms, device.name, profile.num_blocks, profile.utilization
    );

    // Compare with the fixed-format kernel a GNN framework would use.
    let fixed = CsrVectorKernel::new(adj).profile(hidden, &device);
    println!(
        "fixed CSR kernel: {:.4} ms  -> LiteForm speedup {:.2}x",
        fixed.time_ms,
        fixed.time_ms / profile.time_ms
    );
}
