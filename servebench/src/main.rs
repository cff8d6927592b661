//! Seeded, layer-by-layer serving benchmark for the LiteForm workspace.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <hot_hits|cold_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the benchmark loads the checked-in
//! model bundle `results/liteform-models.json` and drives the real
//! `ServeEngine` with the trained `LiteForm` planner. With `--trace 0`
//! it measures the end-to-end metrics of one workload; with `--trace 1`
//! it makes a separate traced pass over the same seeded inputs and
//! reports the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The full result,
//! with its run-environment header, is also written under
//! `.servebench/results/`. The exit code is non-zero when any output,
//! ledger or set-up check fails.

mod check;
mod inputs;
mod report;
mod timed;
mod traced;

use report::{latency_metric, median, Json, Metric};
use std::process::ExitCode;

/// The workloads; `README.md` says why each exists.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    HotHits,
    ColdStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "hot_hits" => Some(Workload::HotHits),
            "cold_stream" => Some(Workload::ColdStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::ColdStream => "cold_stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// What one invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra structured detail for the result file.
    pub detail: Vec<(String, Json)>,
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let t = timed::run(args.workload, args.seed, args.seconds)?;
    let rss = report::rss_peak_mb();
    let metrics = vec![
        Metric::new("setup_s", "s", median(&t.setup_s)).note(format!(
            "median of {} set-ups: {:?}",
            t.setup_s.len(),
            t.setup_s
        )),
        Metric::new("req_per_s", "1/s", t.req_per_s)
            .note(format!("median round rate over {} rounds", t.rounds)),
        latency_metric("lat_p50_ms", &t.serve_ms, 0.50),
        latency_metric("lat_p99_ms", &t.serve_ms, 0.99),
        Metric::new("rss_peak_mb", "MiB", rss).note("VmHWM at the end of the workload"),
    ];
    let fail_frac = t.failed() as f64 / t.attempted().max(1) as f64;
    let s = &t.stats;
    let mut notes = Vec::new();
    notes.push(format!(
        "fail_frac {fail_frac} ({} failed of {} attempted; {} outputs checked, {} wrong, tolerance {:e})",
        t.failed(),
        t.attempted(),
        t.tally.checked,
        t.tally.wrong,
        check::TOLERANCE
    ));
    notes.push(format!(
        "ledger {}: engine hits {} misses {} rejected {} degraded {} failed {}; client {:?}",
        if t.ledger_ok { "exact" } else { "MISMATCH" },
        s.hits,
        s.misses,
        s.rejected,
        s.degraded,
        s.failed,
        t.tally
    ));
    notes.push(format!(
        "pool workers spawned in the timed phase: {} (must be 0)",
        t.workers_spawned
    ));
    notes.push(format!(
        "engine: evictions {} oversized {}",
        s.evictions, s.oversized
    ));
    let mut correct = t.ledger_ok && t.failed() == 0 && t.workers_spawned == 0;
    if t.tally.checked == 0 {
        notes.push("no output was checked".into());
        correct = false;
    }
    Ok(Outcome {
        correct,
        attempted: t.attempted(),
        failed: t.failed() + u64::from(!t.ledger_ok),
        metrics,
        detail: vec![
            ("fail_frac".into(), Json::Num(fail_frac)),
            ("ledger_exact".into(), Json::Bool(t.ledger_ok)),
            (
                "notes".into(),
                Json::Arr(notes.into_iter().map(Json::Str).collect()),
            ),
        ],
    })
}

fn print_outcome(args: &Args, out: &Outcome, env: &Json) {
    println!(
        "servebench {} seed={} trace={}",
        args.workload.name(),
        args.seed,
        args.trace
    );
    println!("env {}", env.render());
    for m in &out.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<34} {:>14.6} {:<8}{note}", m.name, m.value, m.unit);
    }
    for (k, v) in &out.detail {
        match v {
            Json::Arr(lines) => {
                for l in lines {
                    if let Json::Str(s) = l {
                        println!("  {s}");
                    }
                }
            }
            other => println!("  {k}: {}", other.render()),
        }
    }
}

fn write_result(args: &Args, out: &Outcome, env: &Json, line: &Json) -> Result<(), String> {
    let dir = std::path::Path::new(".servebench").join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut doc = vec![
        ("environment".to_string(), env.clone()),
        ("result".into(), line.clone()),
    ];
    doc.extend(out.detail.iter().cloned());
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        end_to_end(&args)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    // Read after the measurements: calibration and the worker pool are
    // lazily initialized and belong to the measured set-up.
    let env = report::environment(args.workload.name(), args.seed, args.trace);
    let line = Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    print_outcome(&args, &out, &env);
    if let Err(e) = write_result(&args, &out, &env, &line) {
        eprintln!("servebench: {e}");
        return ExitCode::from(1);
    }
    println!("{}", line.render());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("servebench: correctness or ledger check failed");
        ExitCode::from(1)
    }
}
