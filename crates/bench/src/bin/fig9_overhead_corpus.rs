//! Figure 9: construction-overhead comparison between SparseTIR's
//! autotuning and LiteForm's inference + search over the SuiteSparse-like
//! corpus.
//!
//! Paper reference: geomean ratio SparseTIR/LiteForm ≈ 1150.2×.

use lf_baselines::SparseTir;
use lf_bench::{fmt, geomean, pipeline, write_json, BenchEnv, Summary, Table};
use lf_data::Corpus;
use lf_sim::DeviceModel;
use liteform_core::PreprocessProfile;
use serde::Serialize;

const J: usize = 128;

#[derive(Serialize)]
struct Point {
    id: String,
    rows: usize,
    sparsetir_s: f64,
    liteform_s: f64,
    ratio: f64,
}

/// The corpus-level roll-up of LiteForm's per-stage preprocessing work,
/// written alongside the per-matrix points.
#[derive(Serialize)]
struct ProfileSummary {
    matrices: usize,
    total: PreprocessProfile,
}

fn main() {
    let env = BenchEnv::from_env();
    let device = DeviceModel::v100();
    let (liteform, _) = pipeline::train_pipeline(&env, Some(&pipeline::default_bundle_path(&env)));
    let corpus: Corpus<f32> = Corpus::generate(env.corpus_spec());
    let tir = SparseTir::default();

    let mut points = Vec::new();
    let mut agg_profile = PreprocessProfile::default();
    for (i, m) in corpus.matrices.iter().enumerate() {
        let Some((_, _, cost)) = tir.autotune(&m.csr, J, &device) else {
            continue;
        };
        let tir_s = cost.total_s();
        let plan = liteform.compose(&m.csr, J);
        agg_profile.accumulate(&plan.profile);
        let lf_s = plan.profile.total().wall_s;
        points.push(Point {
            id: m.id.clone(),
            rows: m.csr.rows(),
            sparsetir_s: tir_s,
            liteform_s: lf_s,
            ratio: tir_s / lf_s,
        });
        if (i + 1) % 20 == 0 {
            eprintln!("[fig9] {}/{} matrices", i + 1, corpus.len());
        }
    }

    let ratios: Vec<f64> = points.iter().map(|p| p.ratio).collect();
    let summary = Summary::of(&ratios).expect("non-empty corpus");
    let tir_abs = geomean(&points.iter().map(|p| p.sparsetir_s).collect::<Vec<_>>());
    let lf_abs = geomean(&points.iter().map(|p| p.liteform_s).collect::<Vec<_>>());

    let mut table = Table::new(&["rows-decade", "n", "geomean ratio"]);
    for decade in 3..7u32 {
        let lo = 10usize.pow(decade);
        let hi = 10usize.pow(decade + 1);
        let in_decade: Vec<f64> = points
            .iter()
            .filter(|p| p.rows >= lo && p.rows < hi)
            .map(|p| p.ratio)
            .collect();
        if let Some(s) = Summary::of(&in_decade) {
            table.row(&[
                format!("1e{decade}..1e{}", decade + 1),
                s.n.to_string(),
                fmt(s.geomean),
            ]);
        }
    }

    println!(
        "\nFigure 9 — construction overhead over the corpus ({} matrices, J={J})\n",
        points.len()
    );
    table.print();
    println!(
        "\nabsolute geomeans: sparsetir {} s, liteform {} s",
        tir_abs.map_or("n/a".into(), fmt),
        lf_abs.map_or("n/a".into(), fmt)
    );
    println!(
        "overall geomean ratio sparsetir/liteform: {}x (paper 1150.2x)",
        fmt(summary.geomean)
    );

    // Per-stage roll-up of LiteForm's preprocessing across the corpus.
    let mut stage_table = Table::new(&["liteform stage", "wall(s)", "allocs", "alloc MiB"]);
    for (name, s) in agg_profile.named_stages() {
        stage_table.row(&[
            name.to_string(),
            fmt(s.wall_s),
            s.alloc_calls.to_string(),
            fmt(s.alloc_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    println!("\nLiteForm preprocessing profile (summed over corpus):\n");
    stage_table.print();

    write_json(&env.results_dir, "fig9_overhead_corpus", &points);
    write_json(
        &env.results_dir,
        "fig9_liteform_profile",
        &ProfileSummary {
            matrices: points.len(),
            total: agg_profile,
        },
    );
}
