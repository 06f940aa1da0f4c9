//! The run loop: [`SimBackend::run_batch`], for one state or a gang of N.
//!
//! A solo run is a gang of one. [`SimBackend::run_with`] (and with it
//! `run` and `run_plan`) hands its job to `run_batch`, so every
//! non-sharded run applies its fused ops, charges its launches, measures
//! and samples in the one loop here. The loop charges each launch once
//! per gang, scaled by the gang's width, and applies it to every member
//! state: the cuQuantum-style batched gate application. The serve layer's
//! many-small-circuits regime is dominated by per-job fixed costs —
//! pre-run analysis, fusion accounting, matrix conversion, SIMD/gate-plan
//! construction, matrix uploads — and a gang pays them once: one
//! [`qsim_core::sweep::PreparedRun`] is built per cache-blocked run and
//! swept across every state.
//!
//! `run_batch` groups its jobs by [`FusedCircuit::content_hash`] (a
//! one-job call skips the hash) and runs each hash-equal group as one
//! gang over a [`StateBatch`]. Per-state arithmetic goes through exactly
//! the single-state kernels ([`apply_run_gang`] / [`apply_gate_gang`]),
//! each sub-job gets its own seeded RNG for measurements and sampling,
//! and cancellation stays per sub-job: a fired token extracts that slot's
//! buffer mid-gang while the rest keep running. A sub-job's functional
//! result is therefore the same in any gang, of any width
//! (`tests/batch_equivalence.rs` checks it against an independent replay
//! of the `qsim-core` kernels).
//!
//! `Trip` is the launch accounting — modeled clock, matrix uploads,
//! pass tracking, kernel tallies, report — that the loop shares with the
//! dry-run [`SimBackend::estimate`], so both walk one launch sequence.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gpu_model::runtime::{KernelDesc, StreamId};
use gpu_model::trace::SpanKind;
use gpu_model::GpuError;
use qsim_core::batch::{apply_gate_gang, apply_run_gang, StateBatch};
use qsim_core::cancel::CancelToken;
use qsim_core::statespace::{measure_slice, sample_slice};
use qsim_core::sweep::{PassTracker, SweepExecutor};
use qsim_core::types::{Float, Precision};
use qsim_core::{GateMatrix, StateVector};
use qsim_fusion::{FusedCircuit, FusedOp, FusionStats, FusionStrategy};

use crate::plan::{gate_kernel_desc, init_kernel_desc, sample_kernel_desc};
use crate::report::{GateClassCount, KernelStat, RunOptions, RunReport};
use crate::sim_backend::{BackendError, RunContext, RunFailure, SimBackend};

/// Process-wide batch identifier source, so concurrent workers' gangs stay
/// distinguishable in metrics.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// One sub-job of a [`SimBackend::run_batch`] call: a fused circuit plus
/// the same per-run options and service-layer context `run_with` takes.
#[derive(Debug, Default)]
pub struct BatchJob<'a, F: Float> {
    /// The planned circuit. Sub-jobs whose plans are content-hash-equal
    /// are executed as one gang; distinct plans fall back to sequential
    /// gangs within the same call.
    pub fused: Option<&'a FusedCircuit>,
    /// Seed and sample count for this sub-job.
    pub opts: RunOptions,
    /// Recycled buffer and cancel token for this sub-job.
    pub ctx: RunContext<F>,
}

impl<'a, F: Float> BatchJob<'a, F> {
    /// A sub-job with default options and context.
    pub fn new(fused: &'a FusedCircuit) -> Self {
        BatchJob { fused: Some(fused), opts: RunOptions::default(), ctx: RunContext::default() }
    }
}

/// What one sub-job of a batch resolves to: exactly the
/// [`SimBackend::run_with`] contract (buffers ride back on failure).
pub type BatchResult<F> = Result<(StateVector<F>, RunReport), RunFailure<F>>;

/// A sub-job on its way into a gang: caller index, options, context.
type SubIn<F> = (usize, RunOptions, RunContext<F>);

/// Per-sub-job bookkeeping while its state lives in the gang.
struct Sub {
    /// Index into the caller's `jobs` vector.
    job: usize,
    /// Slot in the [`StateBatch`].
    slot: usize,
    opts: RunOptions,
    cancel: Option<CancelToken>,
    rng: StdRng,
    reused: bool,
    measurements: Vec<(Vec<usize>, usize)>,
    samples: Vec<u64>,
}

/// Multiply a kernel descriptor's charged work by the gang width: one
/// batched launch moves N states' bytes and flops.
fn scale_for_gang(desc: &mut KernelDesc, gang: usize) {
    let k = gang as f64;
    desc.work.bytes *= k;
    desc.work.flops *= k;
    desc.work.passes *= k;
    desc.blocks = desc.blocks.saturating_mul(gang as u64).max(1);
}

/// Tally one fused unitary into the `[gpu][cpu]` class grid (index 0 =
/// High, 1 = Low) that flattens into [`RunReport::gate_class_counts`].
fn count_gate_class(grid: &mut [[u64; 2]; 2], qubits: &[usize], lane_qubits: usize) {
    use qsim_core::kernels::{classify_gate, classify_gate_at, KernelClass};
    let gpu = (classify_gate(qubits) == KernelClass::Low) as usize;
    let cpu = (classify_gate_at(qubits, lane_qubits) == KernelClass::Low) as usize;
    grid[gpu][cpu] += 1;
}

/// One trip of a fused circuit's launch sequence through the modeled
/// device: the accounting the run loop and [`SimBackend::estimate`]
/// share. Charges are made once per gang and scaled by its width, so a
/// gang of one charges exactly what a solo run does.
pub(crate) struct Trip<'b> {
    backend: &'b SimBackend,
    n: usize,
    precision: Precision,
    lane_qubits: usize,
    copy_stream: Option<StreamId>,
    tracker: PassTracker,
    class_grid: [[u64; 2]; 2],
    kernel_stats: BTreeMap<String, (u64, f64)>,
    fusion_stats: FusionStats,
    fusion_us: f64,
    t0: f64,
}

impl<'b> Trip<'b> {
    /// Open the timed region: restart the per-run peak-memory tracking
    /// (the device may be long-lived), charge the modeled gate-fusion
    /// cost (like the paper, the timed region includes it), and open the
    /// dedicated copy stream matrix uploads overlap compute on.
    pub(crate) fn start(
        backend: &'b SimBackend,
        fused: &FusedCircuit,
        precision: Precision,
    ) -> Self {
        let gpu = &backend.gpu;
        gpu.reset_peak_memory();
        let t0 = gpu.synchronize();
        let fusion_stats = fused.stats();
        let fusion_us = SimBackend::fusion_cost_us(&fusion_stats);
        gpu.advance_host_us(fusion_us);
        Trip {
            backend,
            n: fused.num_qubits,
            precision,
            lane_qubits: qsim_core::simd::active_isa().lane_qubits(precision),
            copy_stream: backend.flavor.uploads_matrices().then(|| gpu.create_stream()),
            tracker: PassTracker::new(&backend.effective_sweep(), fused.num_qubits),
            class_grid: [[0; 2]; 2],
            kernel_stats: BTreeMap::new(),
            fusion_stats,
            fusion_us,
            t0,
        }
    }

    fn amp_bytes(&self) -> usize {
        self.precision.amplitude_bytes()
    }

    fn double_precision(&self) -> bool {
        self.precision == Precision::Double
    }

    /// Tally a launch (or a zero-time activity) under `name`.
    fn record(&mut self, name: &str, (start, end): (f64, f64)) {
        let entry = self.kernel_stats.entry(name.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += end - start;
    }

    /// Charge `desc` to the compute stream without running a body.
    pub(crate) fn charge(&mut self, desc: &KernelDesc) -> Result<(), GpuError> {
        let span = self.backend.gpu.charge_launch(desc, StreamId::DEFAULT)?;
        self.record(&desc.name, span);
        Ok(())
    }

    /// Charge `desc` to the compute stream while `body` computes on the
    /// host.
    fn launch<R>(&mut self, desc: &KernelDesc, body: impl FnOnce() -> R) -> Result<R, GpuError> {
        let (start, end, r) = self.backend.gpu.launch(desc, StreamId::DEFAULT, body)?;
        self.record(&desc.name, (start, end));
        Ok(r)
    }

    /// Charge the `SetStateKernel` that initialises `gang` states to
    /// `|0…0⟩`.
    pub(crate) fn init(&mut self, gang: usize) -> Result<(), GpuError> {
        let (flavor, len) = (self.backend.flavor, 1 << self.n);
        let mut desc = init_kernel_desc(flavor, len, self.amp_bytes(), self.double_precision());
        scale_for_gang(&mut desc, gang);
        self.charge(&desc)
    }

    /// Account one fused unitary on `qubits` for a gang of `gang` states
    /// and return its launch descriptor: upload the matrix on the copy
    /// stream and make the compute stream wait on it, advance the pass
    /// tracker, then build the flavor's ApplyGateH/L descriptor,
    /// host-tuned on the CPU flavor and scaled to the gang. The caller
    /// launches it — only charged when the gate joined a cache-blocked
    /// run (`Trip::in_run`), executed otherwise.
    pub(crate) fn unitary(
        &mut self,
        qubits: &[usize],
        gang: usize,
    ) -> Result<KernelDesc, GpuError> {
        let (backend, n, amp_bytes) = (self.backend, self.n, self.amp_bytes());
        let gpu = &backend.gpu;
        if let Some(cs) = self.copy_stream {
            let dim = 1usize << qubits.len();
            let bytes = dim * dim * amp_bytes;
            // The device-side matrix buffer, live for the upload: the
            // run's peak device memory covers the widest one.
            let _matrix = gpu.malloc::<u8>(bytes)?;
            gpu.charge_memcpy(SpanKind::MemcpyH2D, bytes as u64, cs)?;
            let ev = gpu.record_event(cs)?;
            gpu.stream_wait_event(StreamId::DEFAULT, ev)?;
        }
        count_gate_class(&mut self.class_grid, qubits, self.lane_qubits);
        let new_pass = self.tracker.on_gate(qubits);
        let mut desc = gate_kernel_desc(
            backend.flavor,
            n,
            qubits,
            amp_bytes,
            self.double_precision(),
            backend.low_overhead_override,
        );
        desc.work.passes = if new_pass { 1.0 } else { 0.0 };
        backend.tune_host_charge(&mut desc, n, qubits, self.lane_qubits, new_pass);
        scale_for_gang(&mut desc, gang);
        Ok(desc)
    }

    /// Whether the last unitary joined an open cache-blocked run (its
    /// application waits for the run's flush).
    pub(crate) fn in_run(&self) -> bool {
        self.tracker.in_run()
    }

    /// Account a mid-circuit measurement of `bytes` of state: a barrier
    /// to the pass tracker, and the D2H + H2D round trip that models
    /// qsim's on-device measurement traffic.
    pub(crate) fn measurement(&mut self, bytes: u64) -> Result<(), GpuError> {
        self.tracker.on_barrier();
        let gpu = &self.backend.gpu;
        gpu.charge_memcpy(SpanKind::MemcpyD2H, bytes, StreamId::DEFAULT)?;
        gpu.charge_memcpy(SpanKind::MemcpyH2D, bytes, StreamId::DEFAULT)?;
        self.record("Measure(D2H+H2D)", (0.0, 0.0));
        Ok(())
    }

    /// Close the timed region and build the report every member of the
    /// gang shares. Modeled times are the gang's, divided across its
    /// `completed` members; the peak adds the device pool's peak (matrix
    /// buffers) to `states_bytes`, the gang's state footprint. Host
    /// timings, measurements, samples and batch fields are left for the
    /// caller.
    pub(crate) fn report(
        self,
        fused: &FusedCircuit,
        states_bytes: u64,
        completed: usize,
        analysis_warnings: Vec<String>,
    ) -> RunReport {
        let gpu = &self.backend.gpu;
        let t_end = gpu.synchronize();
        let share = completed.max(1) as f64;
        let state_bytes = ((1usize << self.n) * self.amp_bytes()) as u64;
        RunReport {
            backend: self.backend.flavor.label().into(),
            device: gpu.spec().name.clone(),
            precision: self.precision,
            num_qubits: self.n,
            max_fused_qubits: fused.max_fused_qubits,
            fused_gates: fused.num_unitaries(),
            fusion_strategy: FusionStrategy::Greedy.label().into(),
            predicted_cost_seconds: 0.0,
            fusion_stats: self.fusion_stats,
            simulated_seconds: (t_end - self.t0) * 1e-6 / share,
            fusion_seconds: self.fusion_us * 1e-6 / share,
            wall_seconds: 0.0,
            setup_seconds: 0.0,
            kernels: self
                .kernel_stats
                .into_iter()
                .map(|(name, (count, time_us))| KernelStat { name, count, time_us })
                .collect(),
            measurements: Vec::new(),
            samples: Vec::new(),
            state_bytes,
            peak_state_bytes: states_bytes + gpu.memory_usage().1,
            buffer_reused: false,
            state_passes: self.tracker.stats().full_passes,
            analysis_warnings,
            isa: qsim_core::simd::active_isa().name().into(),
            gate_class_counts: GateClassCount::from_grid(self.class_grid),
            batch_id: None,
            batch_size: 1,
        }
    }
}

/// Apply and clear the pending run of block-local gates across the whole
/// gang: one [`SweepExecutor::prepare_run`] (SimdPlans + GatePlans built
/// once), swept over every active state. Slots whose cancel token fired
/// mid-run are failed with `at_op` and their buffers extracted.
fn flush_gang<F: Float>(
    sweep: &SweepExecutor,
    batch: &mut StateBatch<F>,
    pending: &mut Vec<(Vec<usize>, GateMatrix<F>)>,
    cancels: &[Option<CancelToken>],
    at_op: usize,
    slot_jobs: &[usize],
    out: &mut [Option<BatchResult<F>>],
) {
    if pending.is_empty() {
        return;
    }
    let prepared =
        sweep.prepare_run(batch.state_len(), pending.iter().map(|(q, m)| (q.as_slice(), m)));
    for (slot, cause) in apply_run_gang(&prepared, batch, cancels) {
        let buffer = batch.take(slot);
        out[slot_jobs[slot]] =
            Some(Err(RunFailure { error: BackendError::Cancelled { cause, at_op }, buffer }));
    }
    pending.clear();
    debug_assert_norms(batch, "cache-blocked sweep run");
}

/// Debug-build invariant checked after every fused-gate application: the
/// plan's unitaries passed the pre-run analysis, so any norm drift beyond
/// rounding means a kernel bug, not a bad circuit. Compiles to nothing in
/// release builds.
fn debug_assert_norms<F: Float>(batch: &StateBatch<F>, what: &str) {
    if cfg!(debug_assertions) {
        let tol = if F::PRECISION == Precision::Double { 1e-9 } else { 1e-3 };
        for amps in (0..batch.len()).filter_map(|i| batch.state(i)) {
            let norm_sqr = qsim_core::statespace::norm_sqr_slice(amps);
            assert!((norm_sqr - 1.0).abs() < tol, "state norm² drifted to {norm_sqr} after {what}");
        }
    }
}

impl SimBackend {
    /// Run N sub-jobs, returning one [`BatchResult`] per sub-job in input
    /// order. Hash-equal plans form gangs that share one trip through the
    /// run loop (analysis, matrix conversion + upload, and sweep-plan
    /// construction amortized across the gang). When the call ran more
    /// than one job, every report carries a shared `batch_id`; a one-job
    /// call reports `batch_id: None`. Every report carries the call's
    /// `batch_size`.
    ///
    /// Each sub-job's functional result — final state, measurement
    /// outcomes, samples — is bit-for-bit the same whatever else the call
    /// holds. Modeled-time fields are the gang's shares: the whole gang's
    /// simulated time divided by its completed sub-jobs.
    pub fn run_batch<F: Float>(&self, jobs: Vec<BatchJob<'_, F>>) -> Vec<BatchResult<F>> {
        let batch_size = jobs.len();
        let batch_id = (batch_size > 1).then(|| NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed));
        let mut out: Vec<Option<BatchResult<F>>> = Vec::new();
        out.resize_with(batch_size, || None);

        // Group by plan content, preserving submission order within and
        // across groups (first occurrence fixes a group's rank). A one-job
        // call has nothing to group, so it skips the hash.
        let mut groups: Vec<(u64, &FusedCircuit, Vec<SubIn<F>>)> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let Some(fused) = job.fused else {
                out[i] = Some(Err(RunFailure {
                    error: BackendError::InvalidCircuit("batch sub-job without a plan".into()),
                    buffer: job.ctx.reuse_buffer,
                }));
                continue;
            };
            let h = if batch_size > 1 { fused.content_hash() } else { 0 };
            match groups.iter_mut().find(|(gh, _, _)| *gh == h) {
                Some((_, _, subs)) => subs.push((i, job.opts, job.ctx)),
                None => groups.push((h, fused, vec![(i, job.opts, job.ctx)])),
            }
        }
        for (_, fused, subs) in groups {
            self.run_gang(fused, subs, batch_id, batch_size, &mut out);
        }
        out.into_iter().map(|r| r.expect("every batch sub-job resolves")).collect()
    }

    /// Execute one hash-equal group of sub-jobs as a gang, writing each
    /// sub-job's result into `out` at its original index. This is the
    /// only place in the crate that applies fused ops to states.
    fn run_gang<F: Float>(
        &self,
        fused: &FusedCircuit,
        subs_in: Vec<SubIn<F>>,
        batch_id: Option<u64>,
        batch_size: usize,
        out: &mut [Option<BatchResult<F>>],
    ) {
        // The pre-run gate and the gang's state footprint (conservatively
        // counting sub-jobs that may yet fail buffer validation) reject
        // before any state is touched.
        let checked = self.pre_run(fused).and_then(|warnings| {
            let state_bytes =
                ((1usize << fused.num_qubits) * F::PRECISION.amplitude_bytes()) as u64;
            let gang_bytes = subs_in.len() as u64 * state_bytes;
            self.check_footprint(gang_bytes)?;
            Ok((warnings, state_bytes, gang_bytes))
        });
        let (analysis_warnings, state_bytes, gang_bytes) = match checked {
            Ok(checked) => checked,
            Err(error) => {
                for (job, _, ctx) in subs_in {
                    let buffer = ctx.reuse_buffer;
                    out[job] = Some(Err(RunFailure { error: error.clone(), buffer }));
                }
                return;
            }
        };
        let n = fused.num_qubits;
        let wall_start = Instant::now();
        let mut trip = Trip::start(self, fused, F::PRECISION);

        let mut batch = StateBatch::<F>::new(n);
        let mut subs: Vec<Sub> = Vec::new();
        let mut cancels: Vec<Option<CancelToken>> = Vec::new();
        let mut slot_jobs: Vec<usize> = Vec::new();
        for (job, opts, ctx) in subs_in {
            let reused = ctx.reuse_buffer.is_some();
            match batch.push_state(ctx.reuse_buffer) {
                Ok(slot) => {
                    cancels.push(ctx.cancel.clone());
                    slot_jobs.push(job);
                    subs.push(Sub {
                        job,
                        slot,
                        rng: StdRng::seed_from_u64(opts.seed),
                        opts,
                        cancel: ctx.cancel,
                        reused,
                        measurements: Vec::new(),
                        samples: Vec::new(),
                    });
                }
                Err(buf) => {
                    out[job] = Some(Err(RunFailure {
                        error: BackendError::InvalidCircuit(format!(
                            "recycled buffer has {} amplitudes, want 2^{n}",
                            buf.len()
                        )),
                        buffer: Some(buf),
                    }));
                }
            }
        }
        if subs.is_empty() {
            return;
        }

        // A modeled-runtime error (bad launch, matrix-buffer OOM) fails
        // every still-running sub-job, handing their buffers back.
        macro_rules! charge {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(e) => {
                        let error = BackendError::Gpu(e);
                        for sub in &subs {
                            if let Some(buffer) = batch.take(sub.slot) {
                                out[sub.job] = Some(Err(RunFailure {
                                    error: error.clone(),
                                    buffer: Some(buffer),
                                }));
                            }
                        }
                        return;
                    }
                }
            };
        }

        // One batched init launch covers the whole gang (`push_state`
        // already wrote |0…0⟩ into every slot).
        let r = trip.init(subs.len());
        charge!(r);
        let setup_seconds = wall_start.elapsed().as_secs_f64();

        // Block-local gates are charged as they come but applied when
        // their cache-blocked run flushes (no sweeping on GPU flavors:
        // the tracker marks every gate a barrier there).
        let mut pending: Vec<(Vec<usize>, GateMatrix<F>)> = Vec::new();
        for (op_index, op) in fused.ops.iter().enumerate() {
            // The cooperative-cancellation boundary, per sub-job: between
            // fused gate applications, never inside a kernel.
            for sub in &subs {
                if !batch.is_active(sub.slot) {
                    continue;
                }
                if let Some(cause) = sub.cancel.as_ref().and_then(CancelToken::cause) {
                    out[sub.job] = Some(Err(RunFailure {
                        error: BackendError::Cancelled { cause, at_op: op_index },
                        buffer: batch.take(sub.slot),
                    }));
                }
            }
            if batch.active_count() == 0 {
                return;
            }
            match op {
                FusedOp::Unitary(g) => {
                    // Converted once, uploaded once, applied N times.
                    let matrix = g.matrix_as::<F>();
                    let r = trip.unitary(&g.qubits, batch.active_count());
                    let desc = charge!(r);
                    if trip.in_run() {
                        let r = trip.charge(&desc);
                        charge!(r);
                        pending.push((g.qubits.clone(), matrix));
                    } else {
                        flush_gang(
                            &self.sweep,
                            &mut batch,
                            &mut pending,
                            &cancels,
                            op_index,
                            &slot_jobs,
                            out,
                        );
                        let r = trip.launch(&desc, || {
                            apply_gate_gang(&mut batch, &g.qubits, &matrix);
                        });
                        charge!(r);
                        debug_assert_norms(&batch, &desc.name);
                    }
                }
                FusedOp::Measurement { qubits, .. } => {
                    flush_gang(
                        &self.sweep,
                        &mut batch,
                        &mut pending,
                        &cancels,
                        op_index,
                        &slot_jobs,
                        out,
                    );
                    // One modeled round trip at the gang's size; each
                    // state collapses in place with its own RNG.
                    let r = trip.measurement(state_bytes * batch.active_count() as u64);
                    charge!(r);
                    for sub in &mut subs {
                        if let Some(amps) = batch.state_mut(sub.slot) {
                            let outcome = measure_slice(amps, qubits, &mut sub.rng);
                            sub.measurements.push((qubits.clone(), outcome));
                        }
                    }
                }
            }
        }
        flush_gang(
            &self.sweep,
            &mut batch,
            &mut pending,
            &cancels,
            fused.ops.len(),
            &slot_jobs,
            out,
        );

        // Final sampling: one gang-scaled SampleKernel, each sub drawing
        // from its own state with its own RNG.
        let sampling =
            subs.iter().filter(|s| s.opts.sample_count > 0 && batch.is_active(s.slot)).count();
        if sampling > 0 {
            let len = batch.state_len();
            let mut desc =
                sample_kernel_desc(self.flavor, len, trip.amp_bytes(), trip.double_precision());
            scale_for_gang(&mut desc, sampling);
            let r = trip.launch(&desc, || {
                for sub in &mut subs {
                    if sub.opts.sample_count == 0 {
                        continue;
                    }
                    if let Some(amps) = batch.state(sub.slot) {
                        sub.samples = sample_slice(amps, sub.opts.sample_count, &mut sub.rng);
                    }
                }
            });
            charge!(r);
        }

        let completed = batch.active_count().max(1);
        let report = trip.report(fused, gang_bytes, completed, analysis_warnings);
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        for sub in subs {
            let Some(amps) = batch.take(sub.slot) else { continue };
            let report = RunReport {
                wall_seconds: wall_seconds / completed as f64,
                setup_seconds: setup_seconds / completed as f64,
                measurements: sub.measurements,
                samples: sub.samples,
                buffer_reused: sub.reused,
                batch_id,
                batch_size,
                ..report.clone()
            };
            out[sub.job] = Some(Ok((StateVector::from_amplitudes(amps), report)));
        }
    }
}
