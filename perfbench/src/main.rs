//! Serve-level benchmark harness (see `perfbench/DESIGN.md`).
//!
//! ```text
//! perfbench --serve PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the `serve` binary over TCP for one workload, checks every
//! reply against an in-process oracle, and prints a metric report whose
//! last line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced in-process replay
//! with `--trace 1`. Exits 1 when a reply or durability check fails.

mod drill;
mod oracle;
mod replay;
mod runs;
mod stats;
mod tcp;
mod trace;

use std::path::PathBuf;

/// Everything a workload run needs from the command line.
pub struct Ctx {
    /// The `serve` binary under test.
    pub serve: PathBuf,
    /// Scratch directory for logs, durable stores and span files.
    pub out: PathBuf,
    /// Workload seed: stores, scripts and op mixes derive from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to run the traced in-process replay.
    pub trace: bool,
}

/// One reported number.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// The workload's end-to-end metrics (every one it measures).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Measured ops sent.
    pub attempted: u64,
    /// `ERR` replies plus missing and mismatched replies.
    pub errors: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// End-to-end metrics every workload reports in its result line (the
/// benchmark's gated set, see `BENCHMARK.json` and `DESIGN.md`).
const GATED: [&str; 3] = ["setup_s", "cpu_ms_per_op", "rss_setup_mb"];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut serve = None;
    let mut out = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--serve" => serve = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let ctx = Ctx {
        serve: serve.ok_or("--serve is required")?,
        out: out.ok_or("--out is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: {}: {e}", ctx.out.display());
        std::process::exit(2);
    }
    let probe_before = stats::probe_ms();
    let ticks_before = stats::cpu_ticks();
    let result = match workload.as_str() {
        "query_mix" => runs::query_mix(&ctx),
        "durable_churn" => runs::durable_churn(&ctx),
        "standing_churn" => runs::standing_churn(&ctx),
        other => Err(format!(
            "unknown workload {other:?} (query_mix, durable_churn, standing_churn)"
        )),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    let steal = stats::steal_share(ticks_before, stats::cpu_ticks());
    let probe_after = stats::probe_ms();
    println!(
        "host probe_ms before={probe_before:.3} after={probe_after:.3} steal_share={steal:.5}"
    );
    let error_share = stats::ratio(outcome.errors as f64, outcome.attempted as f64);
    outcome.e2e("error_share", error_share, "ratio");
    if ctx.trace {
        outcome.layer("host.steal_share", steal, "ratio");
        outcome.layer("host.probe_ms", 0.5 * (probe_before + probe_after), "ms");
    }
    for m in &outcome.e2e {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.layers {
        println!("layer {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.errors == 0;
    let shown: Vec<&Metric> = if ctx.trace {
        outcome.layers.iter().collect()
    } else {
        GATED
            .iter()
            .map(|name| {
                outcome
                    .e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"))
            })
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.errors + outcome.problems.len() as u64,
        json_metrics(&shown)
    );
    if !correct {
        std::process::exit(1);
    }
}
