//! Property-based equivalence checks for the sweep pipeline: over random
//! circuits and grids, the plan/execute path must match the naive
//! per-point rebuild to machine precision, and a sweep on a reused
//! workspace must be element-wise identical to one on a fresh workspace.

use picbench_netlist::{Netlist, NetlistBuilder};
use picbench_sim::{
    sweep, sweep_naive, sweep_with_plan, Circuit, FrequencyResponse, ModelRegistry, ScheduleCache,
    SolveWorkspace, SweepPlan, WavelengthGrid,
};
use proptest::prelude::*;

/// A randomized two-arm interferometer chain: `stages` MZIs built from
/// discrete parts (splitter, two arms of random length, combiner) wired in
/// series, exercising both dispersive (waveguide) and memoized (MMI)
/// models plus a non-trivial internal-port partition.
fn chain_netlist(arm_lengths: &[(f64, f64)]) -> Netlist {
    let mut b = NetlistBuilder::new();
    for (k, (top, bottom)) in arm_lengths.iter().enumerate() {
        b.instance(&format!("split{k}"), "mmi1x2")
            .instance(&format!("combine{k}"), "mmi1x2")
            .instance_with(&format!("top{k}"), "waveguide", &[("length", *top)])
            .instance_with(&format!("bottom{k}"), "waveguide", &[("length", *bottom)])
            .connect(&format!("split{k},O1"), &format!("top{k},I1"))
            .connect(&format!("split{k},O2"), &format!("bottom{k},I1"))
            .connect(&format!("top{k},O1"), &format!("combine{k},O1"))
            .connect(&format!("bottom{k},O1"), &format!("combine{k},O2"));
        if k > 0 {
            b.connect(&format!("combine{},I1", k - 1), &format!("split{k},I1"));
        }
    }
    let last = arm_lengths.len() - 1;
    b.port("I1", "split0,I1")
        .port("O1", &format!("combine{last},I1"))
        .model("mmi1x2", "mmi1x2")
        .model("waveguide", "waveguide")
        .build()
}

fn elaborate(netlist: &Netlist) -> Circuit {
    Circuit::elaborate(netlist, &ModelRegistry::with_builtins(), None).unwrap()
}

/// A planned sweep over a fresh plan and workspace.
fn fresh_sweep(circuit: &Circuit, grid: &WavelengthGrid) -> FrequencyResponse {
    let plan = SweepPlan::new(circuit).unwrap();
    sweep_with_plan(&plan, grid, &mut SolveWorkspace::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planned_sweep_matches_naive_sweep(
        arms in proptest::collection::vec((1.0f64..80.0, 1.0f64..80.0), 1..4),
        points in 1usize..48,
    ) {
        let circuit = elaborate(&chain_netlist(&arms));
        let grid = WavelengthGrid::new(1.51, 1.59, points);
        let naive = sweep_naive(&circuit, &grid).unwrap();
        let planned = fresh_sweep(&circuit, &grid);
        let cmp = naive.compare(&planned);
        prop_assert!(cmp.is_equivalent(1e-12), "{}", cmp);
        // The public entry point must agree bit for bit.
        prop_assert_eq!(&planned, &sweep(&circuit, &grid).unwrap());
    }

    #[test]
    fn workspace_reusing_sweep_identical_to_serial(
        arms_a in proptest::collection::vec((1.0f64..80.0, 1.0f64..80.0), 1..4),
        arms_b in proptest::collection::vec((1.0f64..80.0, 1.0f64..80.0), 1..4),
        points in 1usize..32,
    ) {
        // One workspace and one schedule cache serving two different
        // circuits back to back — the evaluation pipeline's inner loop —
        // must reproduce the fresh-workspace serial sweep bit for bit.
        let circuit_a = elaborate(&chain_netlist(&arms_a));
        let circuit_b = elaborate(&chain_netlist(&arms_b));
        let grid = WavelengthGrid::new(1.51, 1.59, points);
        let mut schedules = ScheduleCache::new();
        let plan_a = SweepPlan::with_schedule(&circuit_a, schedules.get_or_build(&circuit_a))
            .unwrap();
        let mut ws = plan_a.workspace();
        let reused_a = sweep_with_plan(&plan_a, &grid, &mut ws).unwrap();
        // Same-length arm lists share a topology; the cache must not grow
        // beyond the distinct topologies seen.
        let plan_b = SweepPlan::with_schedule(&circuit_b, schedules.get_or_build(&circuit_b))
            .unwrap();
        let reused_b = sweep_with_plan(&plan_b, &grid, &mut ws).unwrap();
        prop_assert_eq!(&reused_a, &fresh_sweep(&circuit_a, &grid));
        prop_assert_eq!(&reused_b, &fresh_sweep(&circuit_b, &grid));
    }
}
