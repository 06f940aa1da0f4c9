//! Property tests for the run loop: every sub-job of a `run_batch` call,
//! solo or in a gang of N random circuits, must be **bit-for-bit** equal
//! to an independent replay of its plan through the `qsim-core` kernels —
//! same final amplitudes, same measurement records, same samples — in
//! both precisions, and cancelling one sub-job mid-batch must leave every
//! other sub-job's result untouched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qsim_backends::batch_run::BatchJob;
use qsim_backends::{
    BackendError, CancelToken, Flavor, RunContext, RunOptions, SimBackend, SweepConfig,
};
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_core::kernels::apply_gate_slice_par;
use qsim_core::statespace::{measure_slice, sample_slice};
use qsim_core::sweep::{PassTracker, SweepExecutor};
use qsim_core::types::{Cplx, Float};
use qsim_core::GateMatrix;
use qsim_fusion::{fuse, FusedCircuit, FusedOp};

/// A random circuit mixing one-qubit gates, two-qubit gates, and
/// mid-circuit measurements (measurements exercise the per-sub RNG split).
fn random_circuit(n: usize, ops: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for t in 0..ops {
        let a: f64 = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let b: f64 = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let kind = match rng.gen_range(0..12) {
            0 => GateKind::H,
            1 => GateKind::T,
            2 => GateKind::X12,
            3 => GateKind::Y12,
            4 => GateKind::Rx(a),
            5 => GateKind::Ry(a),
            6 => GateKind::Rz(a),
            7 => GateKind::Cz,
            8 => GateKind::Cnot,
            9 => GateKind::ISwap,
            10 => GateKind::FSim(a, b),
            _ => GateKind::Measurement,
        };
        match kind.num_qubits() {
            1 => {
                c.add(t, kind, &[rng.gen_range(0..n)]);
            }
            _ => {
                let q0 = rng.gen_range(0..n);
                let mut q1 = rng.gen_range(0..n);
                while q1 == q0 {
                    q1 = rng.gen_range(0..n);
                }
                c.add(t, kind, &[q0, q1]);
            }
        }
    }
    c
}

/// What one replayed sub-job produces: final amplitudes, measurement
/// records, samples.
type Replay<F> = (Vec<Cplx<F>>, Vec<(Vec<usize>, usize)>, Vec<u64>);

/// The independent reference: replay `fused` from `|0…0⟩` through the
/// `qsim-core` primitives alone, as the flavor executes them — pass
/// tracking, cache-blocked runs for block-local gates (CPU flavor only),
/// the strided parallel kernel for barrier gates, measurement and final
/// sampling drawing from the sub-job's own seeded RNG.
fn replay<F: Float>(flavor: Flavor, fused: &FusedCircuit, opts: RunOptions) -> Replay<F> {
    let config =
        if flavor == Flavor::CpuAvx { SweepConfig::default() } else { SweepConfig::disabled() };
    let exec = SweepExecutor::new(config);
    let mut amps = vec![Cplx::<F>::zero(); 1 << fused.num_qubits];
    amps[0] = Cplx::one();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut tracker = PassTracker::new(&config, fused.num_qubits);
    let mut pending: Vec<(Vec<usize>, GateMatrix<F>)> = Vec::new();
    let flush = |amps: &mut [Cplx<F>], pending: &mut Vec<(Vec<usize>, GateMatrix<F>)>| {
        if !pending.is_empty() {
            exec.apply_run(amps, pending.iter().map(|(q, m)| (q.as_slice(), m)));
            pending.clear();
        }
    };
    let mut measurements = Vec::new();
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => {
                let matrix = g.matrix_as::<F>();
                tracker.on_gate(&g.qubits);
                if tracker.in_run() {
                    pending.push((g.qubits.clone(), matrix));
                } else {
                    flush(&mut amps, &mut pending);
                    apply_gate_slice_par(&mut amps, &g.qubits, &matrix);
                }
            }
            FusedOp::Measurement { qubits, .. } => {
                tracker.on_barrier();
                flush(&mut amps, &mut pending);
                measurements.push((qubits.clone(), measure_slice(&mut amps, qubits, &mut rng)));
            }
        }
    }
    flush(&mut amps, &mut pending);
    let samples = if opts.sample_count > 0 {
        sample_slice(&amps, opts.sample_count, &mut rng)
    } else {
        Vec::new()
    };
    (amps, measurements, samples)
}

/// Bit patterns of an amplitude (`to_bits` on the f64 widening is still
/// bit-exact: f32→f64 conversion is injective).
fn bits<F: Float>(c: &Cplx<F>) -> (u64, u64) {
    (c.re.to_f64().to_bits(), c.im.to_f64().to_bits())
}

/// Assert a batch over `plans` matches the per-plan replay exactly
/// (amplitudes via `to_bits`, measurements, samples).
fn assert_batch_matches_replay<F: Float>(
    flavor: Flavor,
    plans: &[FusedCircuit],
    seeds: &[u64],
    sample_count: usize,
) -> Result<(), TestCaseError> {
    let jobs: Vec<BatchJob<'_, F>> = plans
        .iter()
        .zip(seeds)
        .map(|(fused, &seed)| BatchJob {
            fused: Some(fused),
            opts: RunOptions { seed, sample_count },
            ctx: RunContext::default(),
        })
        .collect();
    let results = SimBackend::new(flavor).run_batch::<F>(jobs);
    prop_assert_eq!(results.len(), plans.len());

    for (i, ((fused, &seed), result)) in plans.iter().zip(seeds).zip(&results).enumerate() {
        let (ref_amps, ref_measurements, ref_samples) =
            replay::<F>(flavor, fused, RunOptions { seed, sample_count });
        let (state, report) = match result {
            Ok(pair) => pair,
            Err(f) => return Err(TestCaseError::fail(format!("sub {i} failed: {}", f.error))),
        };
        for (k, (a, b)) in state.amplitudes().iter().zip(&ref_amps).enumerate() {
            prop_assert!(bits(a) == bits(b), "sub {} amplitude {} differs from the replay", i, k);
        }
        prop_assert_eq!(&report.measurements, &ref_measurements);
        prop_assert_eq!(&report.samples, &ref_samples);
        // Only a call that ran more than one job is a batch.
        prop_assert_eq!(report.batch_id.is_some(), plans.len() > 1);
        prop_assert_eq!(report.batch_size, plans.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// run_batch ≡ N independent replays, bit for bit, in both precisions —
    /// over random circuits (some hash-equal within the batch, some
    /// distinct, and one-job calls), seeds, and sample counts, on the CPU
    /// flavor (the one with the cache-blocked sweep) and a
    /// matrix-uploading GPU flavor.
    #[test]
    fn batch_is_bit_identical_to_replay(
        n in 3usize..=7,
        ops in 6usize..=24,
        circuit_seed in 0u64..300,
        distinct in 1usize..=3,
        copies in 1usize..=3,
        seed0 in 0u64..40,
        sample_count in prop::sample::select(vec![0usize, 64]),
    ) {
        // `distinct` different circuits, each submitted `copies` times →
        // the batch contains hash-equal gangs *and* cross-gang grouping.
        let mut plans = Vec::new();
        for d in 0..distinct {
            let fused = fuse(&random_circuit(n, ops, circuit_seed + d as u64), 3);
            for _ in 0..copies {
                plans.push(fused.clone());
            }
        }
        let seeds: Vec<u64> = (0..plans.len() as u64).map(|i| seed0 + 3 * i).collect();

        for flavor in [Flavor::CpuAvx, Flavor::Hip] {
            assert_batch_matches_replay::<f64>(flavor, &plans, &seeds, sample_count)?;
            assert_batch_matches_replay::<f32>(flavor, &plans, &seeds, sample_count)?;
        }
    }

    /// Cancelling one sub-job mid-batch fails exactly that sub-job (its
    /// buffer rides back) and leaves every other sub-job's state bit-equal
    /// to its replay.
    #[test]
    fn mid_batch_cancel_leaves_others_bit_identical(
        n in 3usize..=6,
        ops in 6usize..=20,
        circuit_seed in 0u64..200,
        gang in 2usize..=4,
        victim_index in 0usize..4,
    ) {
        let victim = victim_index % gang;
        let fused = fuse(&random_circuit(n, ops, circuit_seed), 3);
        let cancel = CancelToken::new();
        cancel.cancel(); // fires at the first op boundary

        let jobs: Vec<BatchJob<'_, f64>> = (0..gang)
            .map(|i| BatchJob {
                fused: Some(&fused),
                opts: RunOptions { seed: i as u64, sample_count: 0 },
                ctx: RunContext {
                    reuse_buffer: Some(vec![qsim_core::Cplx::zero(); 1 << n]),
                    cancel: (i == victim).then(|| cancel.clone()),
                },
            })
            .collect();
        let backend = SimBackend::new(Flavor::CpuAvx);
        let mut results = backend.run_batch::<f64>(jobs);

        for (i, result) in results.drain(..).enumerate() {
            if i == victim {
                let failure = match result {
                    Err(f) => f,
                    Ok(_) => return Err(TestCaseError::fail("victim completed despite cancel")),
                };
                prop_assert!(
                    matches!(failure.error, BackendError::Cancelled { .. }),
                    "victim failed with {:?}",
                    failure.error
                );
                // The pooled buffer comes back for recycling.
                prop_assert_eq!(failure.buffer.map(|b| b.len()), Some(1 << n));
            } else {
                let opts = RunOptions { seed: i as u64, sample_count: 0 };
                let (ref_amps, ref_measurements, _) = replay::<f64>(Flavor::CpuAvx, &fused, opts);
                let (state, report) = result
                    .map_err(|f| TestCaseError::fail(format!("sub {i} failed: {}", f.error)))?;
                for (a, b) in state.amplitudes().iter().zip(&ref_amps) {
                    prop_assert_eq!(bits(a), bits(b));
                }
                prop_assert_eq!(&report.measurements, &ref_measurements);
                prop_assert!(report.buffer_reused);
            }
        }
    }
}
