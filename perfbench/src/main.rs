//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//! ```
//!
//! Runs one named workload against fresh `nonrec-serve` / `nonrec-route`
//! processes from `--bin-dir`, checks every answer, and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  Exits 1 when
//! a correctness or ran-as-built check fails, without printing a result.
//! `perfbench --describe` prints the BENCHMARK.json describing it.  See
//! README.md.

mod check;
mod procs;
mod shapes;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory holding the built binaries.
    pub bin_dir: PathBuf,
    /// Directory for span files.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut trace = false;
    let mut bin_dir = PathBuf::from("target/release");
    let mut out_dir = PathBuf::from("target/perfbench");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = PathBuf::from(value()?),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir,
        out_dir,
    })
}

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Failed, refused or wrong answers among them.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 45;

/// The workloads the benchmark definition lists, and why each was chosen.
/// `routed_warm` and `zipf_mixed` also run (see README.md) but are not
/// listed: on the shared 2-vCPU reference host their latencies spread
/// wider over seeds than any bound the definition allows.  The router
/// layer is measured by `warm_unique`'s traced run.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_decide",
        "closed loop, 1 connection, every program fresh: construction, containment, witness and canonical-db layers do the work",
    ),
    (
        "warm_unique",
        "pre-warmed zipf stream, fresh id per request, 1 connection with 8 in flight: frame parse, memo key and lookup, render",
    ),
];

/// End-to-end metrics: name, unit, better, bound (share of the parent's
/// median by which the metric may worsen).  The timing bounds are wide
/// because the reference host's speed drifts by up to ~1.7× for seconds
/// at a time (see README.md).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_tail_us", "us", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
];

/// The BENCHMARK.json describing this benchmark.
fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = workloads::PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let better = workloads::higher_is_better(name);
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                if better { "higher" } else { "lower" }
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", describe());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match workloads::run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for m in &report.metrics {
                println!("{:<40} {:>16.3} {}", m.name, m.value, m.unit);
            }
            println!("{}", render(&report));
        }
        Err(failure) => {
            eprintln!("perfbench: {} failed: {failure}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            super::describe(),
            "regenerate with run.py --write-benchmark-json"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = super::Report {
            attempted: 3,
            failed: 0,
            metrics: vec![super::Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
            notes: Vec::new(),
        };
        let line = super::render(&report);
        let value = server::json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = match &value {
            server::json::Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            value
                .get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }
}
