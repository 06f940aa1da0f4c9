//! `perfbench` — measured host wall-clock benchmark of qsim-rs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--serve-bin <path to qsim_serve>] [--out-dir <dir>]
//! ```
//!
//! Workloads: `rqc24-cpu-f4`, `rqc24-hip-f2` (in process) and `serve-mix`
//! (over TCP against `qsim_serve`). Untraced runs (`--trace 0`) report the
//! end-to-end metrics, traced runs (`--trace 1`) the per-layer metrics and
//! a Perfetto JSON trace in `--out-dir`. Every metric is printed by name
//! with its unit and sample count; the last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`. Any failed
//! correctness check makes the exit code 1.

mod idle;
mod pipeline;
mod procfs;
mod rqc;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use qsim_backends::Flavor;

/// The metric catalog, `(name, unit)` in `BENCHMARK.json` order: the
/// end-to-end metrics every untraced run reports and the per-layer
/// metrics every traced run reports. A workload that does no work in a
/// layer reports 0 for it.
struct Catalog {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let spec: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m[f].as_str()
                            .unwrap_or_else(|| panic!("a {key} metric has no {f}"))
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        Catalog { end_to_end: list("end_to_end"), per_layer: list("per_layer") }
    })
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<String>,
    pub out_dir: String,
    /// When `main` started: the first set-up counts from here.
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: ".".into(),
        started,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--serve-bin" => args.serve_bin = Some(value()?),
            "--out-dir" => args.out_dir = value()?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

struct Value {
    value: f64,
    n: usize,
    note: String,
}

/// Everything a run reports: counts, failures, notes and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    values: BTreeMap<String, Value>,
}

impl Report {
    /// Record a failed check or operation.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Record `verdict` for `what` (failures only).
    pub fn check(&mut self, verdict: Result<(), String>, what: &str) {
        if let Err(e) = verdict {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// A free-form line for the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A catalog metric from `n` samples, with a note on how it was
    /// formed.
    pub fn metric(&mut self, name: &str, value: f64, n: usize, note: String) {
        let cat = catalog();
        assert!(
            cat.end_to_end.iter().chain(&cat.per_layer).any(|(m, _)| m == name),
            "metric {name} is not in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), Value { value, n, note });
    }

    /// Per-circuit layer figures, reported as medians across circuits.
    pub fn layers(&mut self, figures: Vec<BTreeMap<String, f64>>) {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for f in &figures {
            for (k, v) in f {
                by_name.entry(k.clone()).or_default().push(*v);
            }
        }
        for (name, v) in by_name {
            let n = v.len();
            self.metric(&name, stats::median(&v), n, format!("median over {n} circuits"));
        }
    }

    /// Write the run's spans as Perfetto JSON and list self time per span
    /// name.
    pub fn write_trace(&mut self, args: &Args, rec: &spans::Recorder) -> Result<(), String> {
        std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
        let path = format!("{}/trace-{}-seed{}.json", args.out_dir, args.workload, args.seed);
        std::fs::write(&path, rec.to_perfetto()).map_err(|e| format!("{path}: {e}"))?;
        self.note(format!("Perfetto trace written to {path}"));
        for (name, secs) in rec.self_times() {
            self.note(format!("self time {name:<28} {secs:>12.6} s"));
        }
        Ok(())
    }

    /// Print the human-readable lines, then the JSON result line.
    /// Returns whether every check passed.
    fn print(self, trace: bool) -> bool {
        for line in &self.notes {
            println!("# {line}");
        }
        let declared = if trace { &catalog().per_layer } else { &catalog().end_to_end };
        let mut failures = self.failures;
        let mut json = Vec::new();
        for (name, unit) in declared {
            let (value, detail) = match self.values.get(name) {
                Some(v) => (
                    v.value,
                    format!("(n={}{}{})", v.n, if v.note.is_empty() { "" } else { "; " }, v.note),
                ),
                None if trace => (0.0, "(no work in this layer on this workload)".to_string()),
                None => {
                    failures.push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            println!("metric {name} = {value} {unit} {detail}");
            json.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            ));
        }
        let failed = (failures.len() as u64).min(self.attempted);
        let attempted = self.attempted.max(1);
        println!(
            "metric failed_share = {} ({} failed of {} attempted)",
            failed as f64 / attempted as f64,
            failed,
            attempted
        );
        for f in failures.iter().take(20) {
            println!("# FAILED: {f}");
        }
        let correct = failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            if correct { 0 } else { failed.max(1) },
            json.join(", ")
        );
        correct
    }
}

fn quote(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string())).expect("string serializes")
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {} | isa {} | threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        qsim_core::simd::active_isa().name(),
        std::thread::available_parallelism().map_or(0, usize::from),
    ));
    let rqc = |flavor, max_fused| rqc::Workload { flavor, max_fused };
    let result = match (args.workload.as_str(), args.trace) {
        ("rqc24-cpu-f4", false) => rqc::run(rqc(Flavor::CpuAvx, 4), &args, &mut report),
        ("rqc24-cpu-f4", true) => rqc::run_traced(rqc(Flavor::CpuAvx, 4), &args, &mut report),
        ("rqc24-hip-f2", false) => rqc::run(rqc(Flavor::Hip, 2), &args, &mut report),
        ("rqc24-hip-f2", true) => rqc::run_traced(rqc(Flavor::Hip, 2), &args, &mut report),
        ("serve-mix", trace) => serve::run(&args, &mut report, trace),
        (other, _) => {
            Err(format!("unknown workload '{other}' (rqc24-cpu-f4 | rqc24-hip-f2 | serve-mix)"))
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}
