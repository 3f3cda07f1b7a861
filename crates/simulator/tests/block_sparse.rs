//! Property tests for the planned block-sparse solver: across every
//! structural family of the conformance generator it must agree with the
//! naive dense oracle within the conformance tolerance — they solve the
//! same scattering system through different eliminations — its SIMD
//! tiers must agree with the scalar reference and never influence each
//! other, and the batched stripe execution — directly and through the
//! production sweep at any thread count — must be element-wise identical
//! to point-by-point evaluation.

use picbench_conformance::{CircuitStrategy, Family, GeneratorConfig};
use picbench_math::simd::{available_level, SimdLevel};
use picbench_math::CMatrix;
use picbench_sim::{
    sweep_naive, sweep_with_plan, Circuit, FrequencyResponse, ModelRegistry, SimError,
    SolveWorkspace, SweepPlan, WavelengthGrid,
};
use std::sync::atomic::{AtomicBool, Ordering};

/// The conformance oracle tolerance: genuinely different algorithms on
/// the same physics (see `picbench_conformance::differential::ORACLE_TOL`).
const ORACLE_TOL: f64 = 1e-8;

fn cases_per_family() -> usize {
    // Honour PROPTEST_CASES like the proptest-based suites, scaled down:
    // these cases run several sweeps each.
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| (n / 16).max(6))
        .unwrap_or(6)
}

/// A planned sweep on an explicit SIMD tier.
fn sweep_on(
    circuit: &Circuit,
    grid: &WavelengthGrid,
    level: SimdLevel,
) -> Result<FrequencyResponse, SimError> {
    let plan = SweepPlan::new(circuit)?.with_simd_level(level);
    sweep_with_plan(&plan, grid, &mut SolveWorkspace::new())
}

#[test]
fn planned_solver_matches_the_dense_oracle_on_every_generator_family() {
    let registry = ModelRegistry::with_builtins();
    let grid = WavelengthGrid::new(1.51, 1.59, 7);
    let cases = cases_per_family();
    for family in Family::ALL {
        let strategy = CircuitStrategy::new(GeneratorConfig {
            families: vec![family],
            ..GeneratorConfig::default()
        });
        for (k, gen) in strategy.sample(0xB10C5, cases).into_iter().enumerate() {
            let circuit = Circuit::elaborate(&gen.netlist, &registry, None)
                .expect("generator netlists are valid");
            let Ok(oracle) = sweep_naive(&circuit, &grid) else {
                // A resonance edge case the oracle cannot solve is not
                // this test's business (the conformance runner owns it).
                continue;
            };
            let planned = sweep_on(&circuit, &grid, available_level())
                .unwrap_or_else(|e| panic!("{family} case {k}: planned sweep failed: {e}"));
            assert_eq!(oracle.ports(), planned.ports(), "{family} case {k}");
            for i in 0..grid.points {
                let diff = oracle
                    .sample(i)
                    .unwrap()
                    .max_abs_diff(planned.sample(i).unwrap());
                assert!(
                    diff < ORACLE_TOL,
                    "{family} case {k}, grid point {i}: |ΔS| = {diff:.3e}\n{}",
                    gen.netlist.to_json_string()
                );
            }
        }
    }
}

#[test]
fn scalar_and_default_simd_tiers_agree_on_every_generator_family() {
    // The vector tiers contract multiply-adds into FMAs, so cross-tier
    // agreement is tolerance-gated (the `simd` conformance axis documents
    // the contract) while each tier on its own must be deterministic. On
    // a host without vector units — or under `PICBENCH_FORCE_SCALAR=1` —
    // both runs take the scalar path and the comparison is vacuously
    // exact; the determinism half of the test still bites.
    const SIMD_TOL: f64 = 1e-9;
    let registry = ModelRegistry::with_builtins();
    let grid = WavelengthGrid::new(1.51, 1.59, 7);
    let cases = cases_per_family();
    for family in Family::ALL {
        let strategy = CircuitStrategy::new(GeneratorConfig {
            families: vec![family],
            ..GeneratorConfig::default()
        });
        for (k, gen) in strategy.sample(0x51D_FACE, cases).into_iter().enumerate() {
            let circuit = Circuit::elaborate(&gen.netlist, &registry, None)
                .expect("generator netlists are valid");
            let Ok(ambient) = sweep_on(&circuit, &grid, available_level()) else {
                continue;
            };
            let scalar = sweep_on(&circuit, &grid, SimdLevel::Scalar)
                .unwrap_or_else(|e| panic!("{family} case {k}: scalar-tier sweep failed: {e}"));
            assert_eq!(ambient.ports(), scalar.ports(), "{family} case {k}");
            for i in 0..grid.points {
                let diff = ambient
                    .sample(i)
                    .unwrap()
                    .max_abs_diff(scalar.sample(i).unwrap());
                assert!(
                    diff < SIMD_TOL,
                    "{family} case {k}, grid point {i}: {} tier vs scalar |ΔS| = {diff:.3e}\n{}",
                    available_level(),
                    gen.netlist.to_json_string()
                );
            }
            // Within the scalar tier the sweep is bit-deterministic.
            let again = sweep_on(&circuit, &grid, SimdLevel::Scalar).unwrap();
            assert_eq!(
                scalar, again,
                "{family} case {k}: scalar-tier sweep is not deterministic"
            );
        }
    }
}

#[test]
fn scalar_tier_sweeps_never_perturb_a_concurrent_default_tier_sweep() {
    // Regression test for a process-global "force scalar" switch: one
    // thread sweeping on the scalar tier must not change the kernels a
    // concurrent default-tier sweep dispatches. The tier is a property
    // of each plan, so the default-tier sweeps stay bit-identical to
    // their reference however the two threads interleave.
    let registry = ModelRegistry::with_builtins();
    let grid = WavelengthGrid::new(1.51, 1.59, 9);
    let strategy = CircuitStrategy::new(GeneratorConfig {
        families: vec![Family::ClementsMesh],
        ..GeneratorConfig::default()
    });
    let circuits: Vec<Circuit> = strategy
        .sample(0xC0_FFEE, 3)
        .iter()
        .map(|gen| Circuit::elaborate(&gen.netlist, &registry, None).unwrap())
        .collect();
    let references: Vec<FrequencyResponse> = circuits
        .iter()
        .map(|c| sweep_on(c, &grid, available_level()).unwrap())
        .collect();
    /// Stops the scalar worker even when an assertion below panics, so a
    /// failure reports instead of hanging the scope join.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let scalar_worker = scope.spawn(|| {
            let mut sweeps = 0usize;
            loop {
                for circuit in &circuits {
                    sweep_on(circuit, &grid, SimdLevel::Scalar).unwrap();
                    sweeps += 1;
                }
                if stop.load(Ordering::Relaxed) {
                    return sweeps;
                }
            }
        });
        let stop_guard = StopOnDrop(&stop);
        for round in 0..40 {
            for (circuit, reference) in circuits.iter().zip(&references) {
                let again = sweep_on(circuit, &grid, available_level()).unwrap();
                assert_eq!(&again, reference, "round {round}: default-tier bits moved");
            }
        }
        drop(stop_guard);
        assert!(scalar_worker.join().unwrap() > 0);
    });
}

#[test]
fn recombine_stripe_matches_per_point_evaluation() {
    // The factor-once *recombine* stripe mode fires when every instance
    // feeding the system is memoized but some instance with no internal
    // ports is dispersive: the coupled core (couplers + crossing) is
    // static, while a disconnected waveguide contributes
    // wavelength-dependent S_ee entries that must be refreshed and
    // recombined at every point.
    use picbench_netlist::NetlistBuilder;
    let netlist = NetlistBuilder::new()
        .instance_with("dc1", "coupler", &[("coupling", 0.3)])
        .instance("x1", "crossing")
        .connect("dc1,O1", "x1,I1")
        .connect("dc1,O2", "x1,I2")
        .instance_with("lone", "waveguide", &[("length", 35.0)])
        .port("I1", "dc1,I1")
        .port("I2", "dc1,I2")
        .port("O1", "x1,O1")
        .port("O2", "x1,O2")
        .port("WI", "lone,I1")
        .port("WO", "lone,O1")
        .model("coupler", "coupler")
        .model("crossing", "crossing")
        .model("waveguide", "waveguide")
        .build();
    let registry = ModelRegistry::with_builtins();
    let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
    let plan = SweepPlan::new(&circuit).unwrap();
    assert!(
        plan.stripe_factors_once() && !plan.is_wavelength_independent(),
        "this circuit must exercise the recombine mode"
    );
    let grid = WavelengthGrid::new(1.51, 1.59, 9);
    let wavelengths = grid.wavelengths();
    let n_ext = plan.external_count();

    let mut ws = plan.workspace();
    let mut pointwise: Vec<CMatrix> = (0..wavelengths.len())
        .map(|_| CMatrix::zeros(n_ext, n_ext))
        .collect();
    for (i, &wl) in wavelengths.iter().enumerate() {
        plan.evaluate_into(&mut ws, wl, &mut pointwise[i]).unwrap();
    }
    // The response must actually vary across the sweep (the dispersive
    // S_ee entries), and the striped execution must reproduce the
    // per-point loop bit for bit.
    assert!(pointwise[0].max_abs_diff(&pointwise[8]) > 1e-6);
    let mut ws = plan.workspace();
    let mut striped: Vec<CMatrix> = (0..wavelengths.len())
        .map(|_| CMatrix::zeros(n_ext, n_ext))
        .collect();
    plan.evaluate_stripe_into(&mut ws, &wavelengths, &mut striped)
        .unwrap();
    assert_eq!(pointwise, striped);
}

#[test]
fn stripe_execution_is_identical_to_per_point_evaluation() {
    let registry = ModelRegistry::with_builtins();
    let grid = WavelengthGrid::new(1.51, 1.59, 13);
    let wavelengths = grid.wavelengths();
    for family in Family::ALL {
        let strategy = CircuitStrategy::new(GeneratorConfig {
            families: vec![family],
            ..GeneratorConfig::default()
        });
        for gen in strategy.sample(0x57121BE, 4) {
            let circuit = Circuit::elaborate(&gen.netlist, &registry, None).unwrap();
            let plan = SweepPlan::new(&circuit).unwrap();
            let n_ext = plan.external_count();

            let mut ws = plan.workspace();
            let mut pointwise: Vec<CMatrix> = (0..wavelengths.len())
                .map(|_| CMatrix::zeros(n_ext, n_ext))
                .collect();
            let mut ok = true;
            for (i, &wl) in wavelengths.iter().enumerate() {
                if plan.evaluate_into(&mut ws, wl, &mut pointwise[i]).is_err() {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }

            // One whole-grid stripe, and an uneven split — both must be
            // element-wise identical to the per-point loop.
            for bounds in [vec![0, 13], vec![0, 5, 13]] {
                let mut ws = plan.workspace();
                let mut striped: Vec<CMatrix> = (0..wavelengths.len())
                    .map(|_| CMatrix::zeros(n_ext, n_ext))
                    .collect();
                for pair in bounds.windows(2) {
                    let (lo, hi) = (pair[0], pair[1]);
                    plan.evaluate_stripe_into(&mut ws, &wavelengths[lo..hi], &mut striped[lo..hi])
                        .unwrap();
                }
                assert_eq!(pointwise, striped, "{family}");
            }
            // The production sweep runs the grid as one stripe; it must
            // reproduce the same bits.
            let swept = sweep_with_plan(&plan, &grid, &mut SolveWorkspace::new())
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            for (i, expected) in pointwise.iter().enumerate() {
                assert_eq!(
                    swept.sample(i).unwrap(),
                    expected,
                    "{family}, grid point {i}"
                );
            }
        }
    }
}
