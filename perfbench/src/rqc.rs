//! The `rqc24-*` workloads: seeded 24-qubit, 14-cycle RQCs run in
//! process through parse → plan → run → report JSON, single precision,
//! greedy fusion, 1000 samples per circuit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qsim_backends::{Flavor, SimBackend};
use qsim_core::statespace::fidelity;
use qsim_core::sweep::SweepExecutor;

use crate::pipeline::{self, RunSpec, TracedBackend};
use crate::spans::Recorder;
use crate::stats::{median, summarize};
use crate::{procfs, Args, Report};

const QUBITS: usize = 24;
const CYCLES: usize = 14;
const SAMPLES: usize = 1000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed circuits per run even when `--seconds` runs out first.
const MIN_CIRCUITS: u64 = 3;

/// Seed streams (see [`pipeline::mix`]).
const WARMUP_STREAM: u64 = 1;
const CIRCUIT_STREAM: u64 = 1 << 20;

/// One RQC workload: the flavor and fusion budget it runs at.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub flavor: Flavor,
    pub max_fused: usize,
}

impl Workload {
    /// The executor a first circuit is cross-checked against: the other
    /// flavor's run loop (cache-blocked sweep on `cpu`, per-gate strided
    /// passes on `hip`).
    fn other_flavor(self) -> Flavor {
        if self.flavor == Flavor::CpuAvx {
            Flavor::Hip
        } else {
            Flavor::CpuAvx
        }
    }
}

fn spec(w: Workload, seed: u64) -> RunSpec {
    RunSpec { max_fused: w.max_fused, seed, samples: SAMPLES }
}

/// Circuit `i` of the run: its text and its sampling seed.
fn circuit(seed: u64, i: u64) -> (String, u64) {
    let s = pipeline::mix(seed, CIRCUIT_STREAM + i);
    (pipeline::rqc_text(QUBITS, CYCLES, s), s)
}

/// Push one discarded warm-up circuit through the whole pipeline on a
/// new backend: the state a user reaches before the first timed circuit.
fn set_up(backend: &SimBackend, w: Workload, seed: u64, k: u64, report: &mut Report) {
    let s = pipeline::mix(seed, WARMUP_STREAM + k);
    let text = pipeline::rqc_text(QUBITS, CYCLES, s);
    report.attempted += 1;
    match pipeline::run_text(backend, &text, spec(w, s), &mut Recorder::new(false), 0) {
        Ok(out) => report.check(pipeline::check_output(&out, spec(w, s)), "warm-up circuit"),
        Err(e) => report.fail(format!("warm-up circuit: {e}")),
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(w: Workload, args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut backend = None;
    for k in 0..SETUPS as u64 {
        // The first set-up counts from process start.
        let t0 = if k == 0 { args.started } else { Instant::now() };
        drop(backend.take());
        let b = SimBackend::new(w.flavor);
        set_up(&b, w, args.seed, k, report);
        backend = Some(b);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let backend = backend.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu0 = procfs::cpu_seconds(None)?;
    let mut circuit_s = Vec::new();
    let mut first_samples = None;
    let mut i = 0u64;
    while Instant::now() < deadline || i < MIN_CIRCUITS {
        let (text, s) = circuit(args.seed, i);
        report.attempted += 1;
        let t0 = Instant::now();
        let out = pipeline::run_text(&backend, &text, spec(w, s), &mut Recorder::new(false), i);
        let dt = t0.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                circuit_s.push(dt);
                let ok = pipeline::check_output(&out, spec(w, s))
                    .and_then(|()| pipeline::check_modeled(&backend, &out));
                report.check(ok, &format!("circuit {i}"));
                if i == 0 {
                    first_samples = Some(out.report.samples.clone());
                }
            }
            Err(e) => report.fail(format!("circuit {i}: {e}")),
        }
        i += 1;
    }
    let cpu_s = procfs::cpu_seconds(None)? - cpu0;
    let peak_mib = procfs::status_mib(None, "VmHWM")?;
    drop(backend);

    cross_check(w, args.seed, first_samples.as_deref(), report);

    let lat = summarize(&circuit_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let n = circuit_s.len();
    report.note(format!(
        "circuit_s = {:.4} s (median, n={n}); slowest circuit {:.4} s",
        lat.p50 / 1e3,
        circuit_s.iter().copied().fold(0.0, f64::max)
    ));
    report.metric("job_p50_ms", lat.p50, n, "median".into());
    report.metric(
        "cpu_ms_per_job",
        cpu_s * 1e3 / n as f64,
        n,
        format!("{cpu_s:.3} s CPU / {n} circuits"),
    );
    report.metric("setup_s", median(&setups), setups.len(), "median".into());
    report.metric("peak_rss_mib", peak_mib, 1, "VmHWM".into());
    Ok(())
}

/// Re-run the first timed circuit on this workload's flavor (its samples
/// must repeat bit for bit) and on the other flavor's executor; the two
/// final states must agree to fidelity ≥ 1 − 1e-4.
fn cross_check(w: Workload, seed: u64, first_samples: Option<&[u64]>, report: &mut Report) {
    let (text, s) = circuit(seed, 0);
    let mut states = Vec::new();
    for flavor in [w.flavor, w.other_flavor()] {
        let backend = SimBackend::new(flavor);
        report.attempted += 1;
        match pipeline::run_text(&backend, &text, spec(w, s), &mut Recorder::new(false), 0) {
            Ok(out) => {
                if flavor == w.flavor && Some(out.report.samples.as_slice()) != first_samples {
                    report.fail("circuit 0 re-run drew different samples".into());
                }
                states.push(out.state);
            }
            Err(e) => report.fail(format!("cross-check on {}: {e}", flavor.label())),
        }
    }
    if let [a, b] = states.as_slice() {
        let f = fidelity(a, b);
        report.note(format!(
            "cross-check: fidelity {f:.8} between {} and {} final states of circuit 0",
            w.flavor.label(),
            w.other_flavor().label()
        ));
        if f < 1.0 - pipeline::NORM_TOL {
            report.fail(format!("cross-flavor fidelity {f} < 1 - {}", pipeline::NORM_TOL));
        }
    }
}

/// Traced run: per-layer metrics from spans around each public call,
/// a kernel replay that must reproduce `run_plan` exactly, and untraced
/// circuits interleaved for the tracing overhead.
pub fn run_traced(w: Workload, args: &Args, report: &mut Report) -> Result<(), String> {
    let traced = TracedBackend::new(w.flavor);
    set_up(&traced.backend, w, args.seed, 0, report);
    let exec = SweepExecutor::new(pipeline::sweep_config(w.flavor));
    let mut rec = Recorder::new(true);
    let figures = traced_loop(&traced, &exec, args.seconds, 0, report, &mut rec, |i| {
        let (text, s) = circuit(args.seed, i);
        (text, spec(w, s))
    });
    report.layers(figures);
    report.write_trace(args, &rec)
}

/// Shared by the RQC and serve workloads: for each circuit, one untraced
/// and one traced pass (alternating which goes first), then a replay of
/// the traced plan compared bit for bit with `run_plan`'s state and
/// samples. Runs for `seconds` (at least two circuits); circuit `i`
/// comes from `next(i)` and its spans carry id `id_base + i`. Returns
/// per-circuit layer figures.
pub fn traced_loop(
    sim: &TracedBackend,
    exec: &SweepExecutor,
    seconds: f64,
    id_base: u64,
    report: &mut Report,
    rec: &mut Recorder,
    mut next: impl FnMut(u64) -> (String, RunSpec),
) -> Vec<BTreeMap<String, f64>> {
    let backend = &sim.backend;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut figures = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    while Instant::now() < deadline || i < 2 {
        let (text, spec) = next(i);
        let id = id_base + i;
        report.attempted += 1;
        let plain = || -> Result<f64, String> {
            let t0 = Instant::now();
            pipeline::run_text(backend, &text, spec, &mut Recorder::new(false), id)?;
            Ok(t0.elapsed().as_secs_f64())
        };
        let untraced_first = i.is_multiple_of(2);
        let before = if untraced_first { Some(plain()) } else { None };
        let (copies0, secs0) = sim.h2d.totals();
        let t0 = Instant::now();
        let out = pipeline::run_text(backend, &text, spec, rec, id);
        let traced_s = t0.elapsed().as_secs_f64();
        let (copies1, secs1) = sim.h2d.totals();
        let copies = (copies1 - copies0, secs1 - secs0);
        let plain_s = before.unwrap_or_else(plain);
        let out = match (out, plain_s) {
            (Ok(out), Ok(plain_s)) => {
                untraced.push(plain_s);
                traced.push(traced_s);
                out
            }
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("circuit {i}: {e}"));
                i += 1;
                continue;
            }
        };
        report.check(pipeline::check_output(&out, spec), &format!("circuit {i}"));
        let (amps, samples) = pipeline::replay(exec, &out.plan, spec, rec, id);
        let same_bits = amps.len() == out.state.len()
            && amps
                .iter()
                .zip(out.state.amplitudes())
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        if !same_bits || samples != out.report.samples {
            report.fail(format!("circuit {i}: kernel replay does not reproduce run_plan exactly"));
        }
        figures.push(pipeline::layer_figures(rec, id, &out, copies));
        i += 1;
    }
    let (u, t) = (median(&untraced), median(&traced));
    report.note(format!(
        "trace overhead: traced circuit {t:.4} s vs untraced {u:.4} s (medians, n={})",
        untraced.len()
    ));
    for f in &mut figures {
        f.insert("bench.trace_overhead_share".into(), if u > 0.0 { (t - u) / u } else { 0.0 });
    }
    figures
}
