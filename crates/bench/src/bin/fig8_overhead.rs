//! Figure 8: format-construction overhead on the GNN graphs — SparseTIR's
//! autotuning, STile's microbenchmark-driven search, and LiteForm's
//! inference + cost-model search.
//!
//! Paper reference: SparseTIR and STile carry geomean overheads of 65.5×
//! and 42.3× LiteForm's, respectively (LiteForm is orders of magnitude
//! cheaper in absolute seconds).

use lf_baselines::{STile, SparseTir, System};
use lf_bench::{fmt, geomean, pipeline, write_json, BenchEnv, Table};
use lf_data::GNN_GRAPHS;
use lf_sim::DeviceModel;
use lf_sparse::CsrMatrix;
use liteform_core::PreprocessProfile;
use serde::Serialize;

const J: usize = 128;

#[derive(Serialize)]
struct Row {
    graph: String,
    sparsetir_s: f64,
    stile_s: f64,
    liteform_s: f64,
    /// Where LiteForm's seconds (and allocations) went, stage by stage.
    liteform_profile: PreprocessProfile,
}

fn main() {
    let env = BenchEnv::from_env();
    let device = DeviceModel::v100();
    let (liteform, _) = pipeline::train_pipeline(&env, Some(&pipeline::default_bundle_path(&env)));
    let tir = SparseTir::default();
    let stile = STile::default();

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "graph",
        "sparsetir(s)",
        "stile(s)",
        "liteform(s)",
        "tir/lf",
        "stile/lf",
    ]);
    for spec in &GNN_GRAPHS {
        eprintln!("[fig8] {} ...", spec.name);
        let csr: CsrMatrix<f32> = spec.build(env.scale);
        let tir_s = tir
            .autotune(&csr, J, &device)
            .map(|(_, _, c)| c.total_s())
            .unwrap_or(f64::NAN);
        let stile_s = stile
            .prepare(&csr, J, &device)
            .map(|p| p.construction.total_s())
            .unwrap_or(f64::NAN);
        let plan = liteform.compose(&csr, J);
        let lf_profile = plan.profile;
        let lf_s = lf_profile.total().wall_s;
        table.row(&[
            spec.name.to_string(),
            fmt(tir_s),
            fmt(stile_s),
            fmt(lf_s),
            fmt(tir_s / lf_s),
            fmt(stile_s / lf_s),
        ]);
        rows.push(Row {
            graph: spec.name.to_string(),
            sparsetir_s: tir_s,
            stile_s,
            liteform_s: lf_s,
            liteform_profile: lf_profile,
        });
    }

    let tir_ratio = geomean(
        &rows
            .iter()
            .map(|r| r.sparsetir_s / r.liteform_s)
            .collect::<Vec<_>>(),
    );
    let stile_ratio = geomean(
        &rows
            .iter()
            .map(|r| r.stile_s / r.liteform_s)
            .collect::<Vec<_>>(),
    );

    println!("\nFigure 8 — format construction overhead (seconds) at J={J}\n");
    table.print();
    println!(
        "\ngeomean overhead vs LiteForm: sparsetir {}x (paper 65.5x), stile {}x (paper 42.3x)",
        tir_ratio.map_or("n/a".into(), fmt),
        stile_ratio.map_or("n/a".into(), fmt)
    );

    // Where LiteForm's preprocessing time and allocations went.
    let mut agg = PreprocessProfile::default();
    for r in &rows {
        agg.accumulate(&r.liteform_profile);
    }
    let mut stage_table = Table::new(&["liteform stage", "wall(s)", "allocs", "alloc MiB"]);
    for (name, s) in agg.named_stages() {
        stage_table.row(&[
            name.to_string(),
            fmt(s.wall_s),
            s.alloc_calls.to_string(),
            fmt(s.alloc_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    println!("\nLiteForm preprocessing profile (summed over graphs):\n");
    stage_table.print();

    write_json(&env.results_dir, "fig8_overhead", &rows);
}
