//! End-to-end pipeline integration: train LiteForm on a tiny corpus,
//! compose for unseen matrices, verify numerics, overhead accounting and
//! bundle persistence across process boundaries (file round trip).

use liteform::core::{
    label_format_selection, label_partitions, FormatSelector, LiteForm, ModelBundle,
    PartitionPredictor, PlanKind, TrainingConfig,
};
use liteform::data::{Corpus, CorpusSpec, GraphSpec, Scale};
use liteform::prelude::*;

fn trained() -> LiteForm {
    let device = DeviceModel::v100();
    let corpus: Corpus<f32> = Corpus::generate(CorpusSpec {
        n_matrices: 16,
        min_rows: 200,
        max_rows: 1200,
        max_nnz: 25_000,
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
    let mut selector = FormatSelector::new(11);
    selector.train(&sel);
    let mut predictor = PartitionPredictor::new(12);
    predictor.train(&part);
    LiteForm::new(selector, predictor, device)
}

#[test]
fn compose_and_execute_on_unseen_graph() {
    let lf = trained();
    let adj: CsrMatrix<f32> = GraphSpec::by_name("cora").unwrap().build(Scale::Small);
    let mut rng = Pcg32::seed_from_u64(31);
    let b = DenseMatrix::random(adj.cols(), 32, &mut rng);
    let (c, profile, preprocess) = lf.spmm(&adj, &b).unwrap();
    let want = adj.spmm_reference(&b).unwrap();
    assert!(c.approx_eq(&want, 1e-2), "pipeline result mismatch");
    assert!(profile.time_ms > 0.0);
    // The pitch: composition overhead is small (well under a second for a
    // 10k-edge graph even in debug builds).
    assert!(preprocess.total().wall_s < 10.0);
}

#[test]
fn plan_is_lossless_when_cell_is_chosen() {
    let lf = trained();
    let mut rng = Pcg32::seed_from_u64(33);
    let coo = liteform::sparse::gen::mixed_regions::<f32>(600, 600, 20_000, 4, &mut rng);
    let csr = CsrMatrix::from_coo(&coo);
    let plan = lf.compose(&csr, 128);
    if let PlanKind::Cell { cell, config } = &plan.kind {
        assert_eq!(cell.to_csr(), csr);
        assert_eq!(
            config.max_widths.as_ref().map(Vec::len),
            Some(config.num_partitions)
        );
    }
}

#[test]
fn bundle_survives_disk_round_trip() {
    let lf = trained();
    let path = std::env::temp_dir().join("lf_integration_bundle.json");
    ModelBundle::from_liteform(&lf, "integration test")
        .save(&path)
        .unwrap();
    let loaded = ModelBundle::load(&path).unwrap().into_liteform();
    let _ = std::fs::remove_file(&path);

    // Loaded pipeline makes identical decisions.
    let mut rng = Pcg32::seed_from_u64(34);
    for _ in 0..5 {
        let coo = liteform::sparse::gen::uniform_random::<f32>(400, 400, 6_000, &mut rng);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(
            lf.compose(&csr, 64).uses_cell(),
            loaded.compose(&csr, 64).uses_cell()
        );
    }
}

#[test]
fn selector_filters_regular_matrices() {
    // Whatever the trained selector decides, the FixedCsr path must also
    // be numerically exact.
    let lf = trained();
    let mut rng = Pcg32::seed_from_u64(35);
    let coo = liteform::sparse::gen::banded::<f32>(500, 500, 3, &mut rng);
    let csr = CsrMatrix::from_coo(&coo);
    let b = DenseMatrix::random(500, 16, &mut rng);
    let (c, _, _) = lf.spmm(&csr, &b).unwrap();
    let want = csr.spmm_reference(&b).unwrap();
    assert!(c.approx_eq(&want, 1e-2));
}
