//! Statistics, the run-environment header, and a minimal JSON writer.

use std::fmt::Write as _;

/// Percentile `q` in `[0, 1]` of `v` by linear interpolation between
/// closest ranks (0 for an empty sample).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Arithmetic mean of `v` (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of positive values (1 for an empty sample).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        1.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

/// Samples strictly above the `q` percentile — a percentile is reported
/// as supported only with at least ten of them.
pub fn beyond(v: &[f64], q: f64) -> usize {
    let p = percentile(v, q);
    v.iter().filter(|&&x| x > p).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON value, built by hand (the workspace has no JSON dependency
/// the benchmark needs beyond this).
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact one-line rendering. Floats print with every digit Rust's
    /// shortest round-trip formatting gives; non-finite values become
    /// `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Human-readable qualifier (sample counts, validity notes).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Calls per block for [`latency_metric`]'s block percentiles.
pub const LATENCY_BLOCK: usize = 1000;

/// A latency percentile metric, annotated with its sample count.
///
/// The samples (in completion order) are cut into consecutive blocks of
/// [`LATENCY_BLOCK`] calls; the metric is the median over blocks of each
/// block's `q` percentile, so that a burst of contention from outside
/// the benchmark confined to part of a run moves it less than a pooled
/// percentile. A block of 1000 calls has ten samples beyond its p99.
/// With no full block the pooled percentile is reported and flagged when
/// fewer than ten samples lie beyond it.
pub fn latency_metric(name: &'static str, samples_ms: &[f64], q: f64) -> Metric {
    let n = samples_ms.len();
    let blocks: Vec<f64> = samples_ms
        .chunks_exact(LATENCY_BLOCK)
        .map(|b| percentile(b, q))
        .collect();
    if blocks.is_empty() {
        let above = beyond(samples_ms, q);
        let mut note = format!("n={n}, pooled, {above} beyond");
        if above < 10 {
            note.push_str(", UNSUPPORTED: fewer than 10 samples beyond this percentile");
        }
        return Metric::new(name, "ms", percentile(samples_ms, q)).note(note);
    }
    Metric::new(name, "ms", median(&blocks)).note(format!(
        "n={n}, median over {} blocks of {LATENCY_BLOCK} calls; pooled {:.4}",
        blocks.len(),
        percentile(samples_ms, q)
    ))
}

/// Environment values every result is stored with, so results from
/// different hosts or settings are never compared silently.
pub fn environment(workload: &str, seed: u64, trace: bool) -> Json {
    let cal = lf_sim::calibration();
    let env_vars: Vec<(String, Json)> = {
        let mut v: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k == "LF_SIMD" || k.starts_with("LF_POOL"))
            .collect();
        v.sort();
        v.into_iter().map(|(k, val)| (k, Json::Str(val))).collect()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed as i64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Int(nproc as i64)),
        (
            "pool_workers",
            Json::Int(lf_sim::pool::global().threads() as i64),
        ),
        (
            "simd_lanes",
            Json::str(format!(
                "{:?}",
                lf_kernels::simd::dispatched_lanes::<crate::inputs::T>()
            )),
        ),
        ("env", Json::Obj(env_vars)),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "calibration",
            Json::obj([
                ("axpy_scalar_ns", Json::Num(cal.axpy_scalar_ns)),
                ("axpy_x4_ns", Json::Num(cal.axpy_x4_ns)),
                ("axpy_x8_ns", Json::Num(cal.axpy_x8_ns)),
                ("l1_spill_factor", Json::Num(cal.l1_spill_factor)),
                ("copy_ns", Json::Num(cal.copy_ns)),
                ("pool_dispatch_ns", Json::Num(cal.pool_dispatch_ns)),
                ("l1_budget_bytes", Json::Int(cal.l1_budget_bytes as i64)),
            ]),
        ),
    ])
}
