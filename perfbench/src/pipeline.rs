//! The in-process circuit pipeline (circuit text → parse → plan → run →
//! report JSON) and the traced kernel replay of a plan through the public
//! `qsim-core` entry points the backend run loop uses.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use gpu_model::{SpanKind, TraceSink, TraceSpan};

use qsim_backends::{
    Flavor, FusionPlan, FusionStrategy, PlanOptions, RunOptions, RunReport, SimBackend,
};
use qsim_circuit::parser::parse_circuit;
use qsim_circuit::rqc::{generate_rqc, RqcOptions};
use qsim_core::kernels::apply_gate_slice_par;
use qsim_core::statespace::{norm_sqr_slice, sample_slice};
use qsim_core::sweep::{PassTracker, SweepConfig, SweepExecutor};
use qsim_core::types::{Cplx, Precision};
use qsim_core::{GateMatrix, StateVector};
use qsim_fusion::FusedOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Recorder;

/// Widths reported per gate; every workload plans at `-f` 4 or below.
pub const WIDTHS: std::ops::RangeInclusive<usize> = 1..=4;

/// Norm tolerance for a single-precision final state.
pub const NORM_TOL: f64 = 1e-4;

/// qsim-format text of a seeded RQC.
pub fn rqc_text(qubits: usize, cycles: usize, seed: u64) -> String {
    qsim_circuit::parser::write_circuit(&generate_rqc(&RqcOptions::for_qubits(
        qubits, cycles, seed,
    )))
}

/// SplitMix64 step: derive independent seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host→device copies the backend's device model emits, as its trace
/// reports them: count and modeled seconds. The trace carries no byte
/// counts.
#[derive(Default)]
pub struct H2dCopies(Mutex<(u64, f64)>);

impl TraceSink for H2dCopies {
    fn record(&self, span: TraceSpan) {
        if span.kind == SpanKind::MemcpyH2D {
            let mut totals = self.0.lock().expect("h2d lock");
            totals.0 += 1;
            totals.1 += span.dur_us * 1e-6;
        }
    }
}

impl H2dCopies {
    /// Copies and modeled seconds so far.
    pub fn totals(&self) -> (u64, f64) {
        *self.0.lock().expect("h2d lock")
    }
}

/// A backend whose device model reports its copies to `h2d`.
pub struct TracedBackend {
    pub backend: SimBackend,
    pub h2d: Arc<H2dCopies>,
}

impl TracedBackend {
    pub fn new(flavor: Flavor) -> Self {
        let h2d = Arc::new(H2dCopies::default());
        TracedBackend { backend: SimBackend::with_trace(flavor, h2d.clone()), h2d }
    }
}

/// One circuit's run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub max_fused: usize,
    pub seed: u64,
    pub samples: usize,
}

/// What one pass through the pipeline produced.
pub struct Output {
    pub plan: FusionPlan,
    pub state: StateVector<f32>,
    pub report: RunReport,
    pub json_bytes: usize,
}

/// Run circuit text through parse → plan → run → report JSON on
/// `backend`, single precision. With an enabled recorder each call is a
/// span under a `circuit` span for `id`, and the pre-run analysis that
/// `run_plan` performs internally is also timed on its own.
pub fn run_text(
    backend: &SimBackend,
    text: &str,
    spec: RunSpec,
    rec: &mut Recorder,
    id: u64,
) -> Result<Output, String> {
    rec.span("circuit", id, |rec| {
        let circuit = rec
            .span("circuit.parse", id, |_| parse_circuit(text))
            .map_err(|e| format!("parse: {e}"))?;
        let opts =
            PlanOptions { strategy: FusionStrategy::Greedy, max_fused_qubits: spec.max_fused };
        let plan = rec
            .span("fusion.plan", id, |_| backend.plan_circuit(&circuit, &opts, Precision::Single));
        if rec.enabled() {
            let sweep = sweep_config(backend.flavor());
            let report = rec.span("analyze.pre_run", id, |_| {
                qsim_analyze::Analyzer::pre_run().analyze_plan(&plan.fused, None, sweep)
            });
            if report.has_errors() {
                return Err("pre-run analysis rejected the plan".into());
            }
        }
        let run_opts = RunOptions { seed: spec.seed, sample_count: spec.samples };
        let (state, report) = rec
            .span("backends.run", id, |_| backend.run_plan::<f32>(&plan, &run_opts))
            .map_err(|e| format!("run: {e}"))?;
        let json_bytes = rec.span("backends.report_json", id, |_| {
            serde_json::to_string(&report.to_json()).map_or(0, |s| s.len())
        });
        Ok(Output { plan, state, report, json_bytes })
    })
}

/// The sweep configuration the backend executes with: only the CPU
/// flavor runs cache-blocked sweeps.
pub fn sweep_config(flavor: Flavor) -> SweepConfig {
    if flavor == Flavor::CpuAvx {
        SweepConfig::default()
    } else {
        SweepConfig::disabled()
    }
}

/// Correctness checks every circuit gets: norm, sample count, report
/// JSON present. Returns the first failure.
pub fn check_output(out: &Output, spec: RunSpec) -> Result<(), String> {
    let norm = norm_sqr_slice(out.state.amplitudes());
    if (norm - 1.0).abs() > NORM_TOL {
        return Err(format!("final-state norm² {norm} is outside 1 ± {NORM_TOL}"));
    }
    if out.report.samples.len() != spec.samples {
        return Err(format!(
            "{} samples drawn, {} requested",
            out.report.samples.len(),
            spec.samples
        ));
    }
    if out.json_bytes == 0 {
        return Err("empty report JSON".into());
    }
    Ok(())
}

/// The run's modeled device seconds must equal `estimate_plan` on the
/// same plan: the dry run traverses the same launch sequence, except the
/// final `SampleKernel`, which it does not model and which is therefore
/// added from the run's own kernel table.
pub fn check_modeled(backend: &SimBackend, out: &Output) -> Result<(), String> {
    let est = backend
        .estimate_plan(&out.plan, Precision::Single)
        .map_err(|e| format!("estimate_plan: {e}"))?;
    let sample_us: f64 =
        out.report.kernels.iter().filter(|k| k.name == "SampleKernel").map(|k| k.time_us).sum();
    let (run, dry) = (out.report.simulated_seconds, est.simulated_seconds + sample_us * 1e-6);
    if (run - dry).abs() > 1e-9 * run.abs() {
        return Err(format!(
            "modeled {run} s from the run, {dry} s from estimate_plan + SampleKernel"
        ));
    }
    Ok(())
}

/// Replay `plan` through the public kernels the backend run loop uses
/// (pass tracking, cache-blocked sweep runs for block-local gates, the
/// strided parallel kernel for barrier gates, then sampling), recording a
/// span per call. Returns the final state and samples.
pub fn replay(
    exec: &SweepExecutor,
    plan: &FusionPlan,
    spec: RunSpec,
    rec: &mut Recorder,
    id: u64,
) -> (Vec<Cplx<f32>>, Vec<u64>) {
    rec.span("replay", id, |rec| {
        let n = plan.fused.num_qubits;
        let mut amps = rec.span("core.alloc_init", id, |_| {
            let mut amps = vec![Cplx::<f32>::zero(); 1usize << n];
            amps[0] = Cplx::one();
            amps
        });
        let mut tracker = PassTracker::new(exec.config(), n);
        let mut pending: Vec<(Vec<usize>, GateMatrix<f32>)> = Vec::new();
        let flush = |rec: &mut Recorder,
                     amps: &mut [Cplx<f32>],
                     pending: &mut Vec<(Vec<usize>, GateMatrix<f32>)>| {
            if !pending.is_empty() {
                rec.span("core.sweep", id, |_| {
                    exec.apply_run(amps, pending.iter().map(|(q, m)| (q.as_slice(), m)));
                });
                pending.clear();
            }
        };
        for op in &plan.fused.ops {
            match op {
                FusedOp::Unitary(g) => {
                    let matrix = rec.span("core.convert", id, |_| g.matrix_as::<f32>());
                    tracker.on_gate(&g.qubits);
                    if tracker.in_run() {
                        pending.push((g.qubits.clone(), matrix));
                    } else {
                        flush(rec, &mut amps, &mut pending);
                        let name = format!("core.strided.w{}", g.qubits.len());
                        rec.span(&name, id, |_| {
                            apply_gate_slice_par(&mut amps, &g.qubits, &matrix)
                        });
                    }
                }
                FusedOp::Measurement { .. } => {
                    unreachable!("benchmark circuits carry no measurements")
                }
            }
        }
        flush(rec, &mut amps, &mut pending);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let samples = rec.span("core.sample", id, |_| sample_slice(&amps, spec.samples, &mut rng));
        (amps, samples)
    })
}

/// Per-circuit layer figures of one traced circuit: span totals, the
/// counts and computed rates derived from the plan and report, and the
/// host→device copies (count, modeled seconds) its run emitted.
pub fn layer_figures(
    rec: &Recorder,
    id: u64,
    out: &Output,
    h2d: (u64, f64),
) -> BTreeMap<String, f64> {
    let spans = rec.totals_for(id);
    let t = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let stats = out.plan.fused.stats();
    put("circuit.parse_s", t("circuit.parse"));
    put("fusion.plan_s", t("fusion.plan"));
    put("fusion.fused_gates", stats.fused_gates as f64);
    for w in WIDTHS {
        put(&format!("fusion.gates_w{w}"), stats.fused_by_qubit_count[w] as f64);
    }
    put("fusion.predicted_s", out.plan.predicted_cost_seconds);
    put("analyze.pre_run_s", t("analyze.pre_run"));
    let run_s = t("backends.run");
    put("backends.run_s", run_s);
    put("backends.alloc_init_s", out.report.setup_seconds);
    put("backends.report_json_s", t("backends.report_json"));

    let strided: f64 = WIDTHS.map(|w| t(&format!("core.strided.w{w}"))).sum();
    for w in WIDTHS {
        put(&format!("core.gate_s.w{w}"), t(&format!("core.strided.w{w}")));
    }
    let kernel_s = t("core.sweep") + strided;
    put("core.sweep_s", t("core.sweep"));
    put("core.strided_s", strided);
    put("core.sample_s", t("core.sample"));
    let n = out.plan.fused.num_qubits;
    let state_bytes = out.report.state_bytes as f64;
    let passes = out.report.state_passes as f64;
    // Computed, not counted: each pass reads and writes the whole state;
    // a k-qubit dense gate costs 2^k complex multiply-adds (8 flops) per
    // amplitude.
    let bytes = passes * 2.0 * state_bytes;
    let flops: f64 = out
        .plan
        .fused
        .ops
        .iter()
        .filter_map(|op| match op {
            FusedOp::Unitary(g) => Some(8.0 * (1u64 << n) as f64 * (1u64 << g.qubits.len()) as f64),
            FusedOp::Measurement { .. } => None,
        })
        .sum();
    put("core.state_passes", passes);
    put("core.bytes_gib", bytes / (1u64 << 30) as f64);
    put("core.gibps", if kernel_s > 0.0 { bytes / kernel_s / (1u64 << 30) as f64 } else { 0.0 });
    put("core.gflops", if kernel_s > 0.0 { flops / kernel_s / 1e9 } else { 0.0 });

    let modeled = out.report.simulated_seconds;
    put("gpu-model.modeled_s", modeled);
    put("gpu-model.launches", out.report.kernels.iter().map(|k| k.count as f64).sum());
    put("gpu-model.h2d_copies", h2d.0 as f64);
    put("gpu-model.h2d_s", h2d.1);
    put("gpu-model.modeled_over_measured", if run_s > 0.0 { modeled / run_s } else { 0.0 });

    // The replay accounts for run_plan as pre-run analysis + state
    // allocation + kernels + sampling; the rest is run-loop bookkeeping.
    let replay_sum = t("analyze.pre_run")
        + t("core.alloc_init")
        + t("core.convert")
        + kernel_s
        + t("core.sample");
    put(
        "bench.replay_gap_share",
        if run_s > 0.0 { (replay_sum - run_s).abs() / run_s } else { 0.0 },
    );
    m
}
