//! `sweep_bench` — the production sweep solver against the dense oracle,
//! written to `BENCH_pipeline.json`.
//!
//! Two workloads:
//!
//! * **clements-8x8** — the reference "64-point × 16-port mesh" (36
//!   instances, 128 global ports);
//! * **clements-16x16** — the scaling workload (136 instances, 512
//!   global ports, 480 internal ports) over 16 points, where the gap
//!   between the dense O(n³) solve and the topology-aware block-sparse
//!   factorization widens decisively.
//!
//! Two solvers are measured on each:
//!
//! * **oracle** — [`sweep_naive`]: the naive dense solve rebuilt from
//!   scratch at every point (re-partition, re-allocate, re-factor the
//!   full system) — the independent reference and the baseline;
//! * **plan** — the production [`SweepPlan`]/`SolveWorkspace` pipeline
//!   (block-sparse structure and symbolic analysis frozen once,
//!   allocation-free in-place solves, memoized dispersionless models).
//!   The point loop is driven directly so the *per-point solve* is what
//!   gets timed: the production sweep ([`sweep_with_plan`]) recognizes
//!   these fully dispersionless meshes as wavelength-independent and
//!   runs the whole grid as one stripe — a single solve copied to every
//!   point, wall-clock `points×` faster, but a degenerate measurement of
//!   the solver.
//!
//! The plan is additionally re-measured on a plan pinned to the scalar
//! SIMD tier, producing per-ISA rows (`plan_by_isa`) and the
//! `simd_speedup` of the detected vector tier over scalar; the report
//! records the default tier in `host.simd_level`.
//!
//! Each timing is reported as `{min, median, p90}` over `--reps`
//! repetitions, and the speedups compare medians; the plan is
//! cross-checked against the oracle (`max_abs_diff_vs_oracle` — the
//! conformance tolerance is 1e-8), and the production sweep against the
//! timed per-point loop bit for bit (every sweep runs serially, as one
//! stripe on the caller). `--min-speedup X` turns the run into a CI
//! tripwire: it fails unless the plan beats the oracle by at least `X×`
//! on the largest measured workload.
//!
//! Usage: `cargo run --release -p picbench-bench --bin sweep_bench
//! [-- --reps N --out PATH --mesh 8x8|16x16|both --min-speedup X]`

use picbench_bench::{
    fields, parse_flags, report, rounded, write_report, Summary, ToJson, UsageError,
};
use picbench_math::simd::{available_level, SimdLevel};
use picbench_math::{decomp, CMatrix};
use picbench_netlist::json::Value;
use picbench_problems::meshes::mesh_netlist;
use picbench_sim::{
    sweep_naive, sweep_with_plan, Circuit, ModelRegistry, SolveWorkspace, SweepPlan, WavelengthGrid,
};
use std::time::Instant;

/// `(mesh size, grid points)` per workload. 8×8 keeps the historical
/// 64-point configuration; 16×16 uses a shorter grid (per-point cost is
/// what is compared, and the dense oracle is far dearer per point).
const WORKLOADS: [(usize, usize); 2] = [(8, 64), (16, 16)];

/// Times one planned sweep on `level`, driving the per-point solve
/// directly (plan construction included, as in the oracle path).
fn timed_plan(
    circuit: &Circuit,
    wavelengths: &[f64],
    level: SimdLevel,
    outs: &mut [CMatrix],
) -> f64 {
    let t = Instant::now();
    let plan = SweepPlan::new(circuit)
        .expect("plan builds")
        .with_simd_level(level);
    let mut ws = plan.workspace();
    for (out, &wl) in outs.iter_mut().zip(wavelengths) {
        plan.evaluate_into(&mut ws, wl, out)
            .expect("planned point solve");
    }
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let (reps, out_path, meshes, min_speedup) = parse_flags(
        "usage: sweep_bench [--reps N --out PATH --mesh 8x8|16x16|both --min-speedup X]",
        &[],
        |f| {
            let meshes = match f.value::<String>("--mesh")?.as_deref() {
                None | Some("both") => WORKLOADS.to_vec(),
                Some("8x8") => vec![WORKLOADS[0]],
                Some("16x16") => vec![WORKLOADS[1]],
                Some(_) => return Err(UsageError("--mesh needs 8x8|16x16|both".into())),
            };
            Ok((
                f.value_where("--reps", "a positive integer", |&n: &usize| n >= 1)?
                    .unwrap_or(5),
                f.value::<String>("--out")?
                    .unwrap_or("BENCH_pipeline.json".into()),
                meshes,
                f.value_where("--min-speedup", "a positive number", |&x: &f64| x > 0.0)?,
            ))
        },
    );

    let registry = ModelRegistry::with_builtins();
    let level = available_level();
    // The per-ISA row is only interesting when a vector tier is active.
    let isa_row = level != SimdLevel::Scalar;
    let mut workloads = Vec::new();
    let mut tripwire_speedup = 0.0f64;

    for &(mesh_size, grid_points) in &meshes {
        let target = decomp::dft_matrix(mesh_size);
        let mesh = decomp::clements_decompose(&target).expect("DFT is unitary");
        let netlist = mesh_netlist(&mesh);
        let circuit =
            Circuit::elaborate(&netlist, &registry, None).expect("golden mesh elaborates");
        let grid = WavelengthGrid::new(1.51, 1.59, grid_points);
        let wavelengths = grid.wavelengths();
        let n_ext = circuit.externals.len();

        let memoized = SweepPlan::new(&circuit)
            .expect("plan builds")
            .memoized_instance_count();
        println!(
            "workload: clements-{mesh_size}x{mesh_size} mesh, {} instances ({memoized} memoized), \
             {} global ports, {n_ext} external ports, {grid_points} grid points, {reps} reps",
            circuit.instance_count(),
            circuit.total_ports,
        );

        let mut oracle_ms = Vec::with_capacity(reps);
        let mut plan_ms = Vec::with_capacity(reps);
        let mut scalar_ms = Vec::with_capacity(reps);
        let mut diff_vs_oracle = 0.0f64;
        let mut outs: Vec<CMatrix> = (0..wavelengths.len())
            .map(|_| CMatrix::zeros(n_ext, n_ext))
            .collect();
        let mut scalar_outs = outs.clone();
        for _ in 0..reps {
            let t = Instant::now();
            let oracle = sweep_naive(&circuit, &grid).expect("oracle sweep");
            oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);

            plan_ms.push(timed_plan(&circuit, &wavelengths, level, &mut outs));
            if isa_row {
                scalar_ms.push(timed_plan(
                    &circuit,
                    &wavelengths,
                    SimdLevel::Scalar,
                    &mut scalar_outs,
                ));
                // The cross-tier contract (FMA contraction only): the
                // `simd` conformance axis tolerance.
                let tier_diff = outs
                    .iter()
                    .zip(&scalar_outs)
                    .map(|(out, scalar)| out.max_abs_diff(scalar))
                    .fold(0.0, f64::max);
                assert!(
                    tier_diff < 1e-9,
                    "{level} tier disagrees with the scalar tier by {tier_diff:.3e}"
                );
            }

            for (k, out) in outs.iter().enumerate() {
                let reference = oracle.sample(k).expect("sample exists");
                diff_vs_oracle = diff_vs_oracle.max(out.max_abs_diff(reference));
            }
            assert!(
                diff_vs_oracle < 1e-8,
                "plan disagrees with the dense oracle by {diff_vs_oracle:.3e}"
            );
        }
        let oracle = Summary::of(&oracle_ms);
        let plan = Summary::of(&plan_ms);
        tripwire_speedup = oracle.median / plan.median;
        println!(
            "oracle {:.2} ms -> plan {:.2} ms ({tripwire_speedup:.2}x, \
             max |dS| vs oracle {diff_vs_oracle:.2e})",
            oracle.median, plan.median
        );
        let mut fields = fields! {
            "mesh": format!("clements-{mesh_size}x{mesh_size}"),
            "instances": circuit.instance_count(),
            "memoized_instances": memoized,
            "global_ports": circuit.total_ports,
            "external_ports": n_ext,
            "grid_points": grid_points,
            "oracle_ms": oracle,
            "plan_ms": plan,
            "speedup_vs_oracle": rounded(tripwire_speedup, 2),
            "max_abs_diff_vs_oracle": diff_vs_oracle,
        };
        if isa_row {
            let scalar = Summary::of(&scalar_ms);
            let simd_speedup = scalar.median / plan.median;
            println!(
                "ISA dispatch: scalar {:.2} ms -> {level} {:.2} ms ({simd_speedup:.2}x)",
                scalar.median, plan.median
            );
            let by_isa = vec![
                ("scalar".into(), scalar.to_json()),
                (level.token().into(), plan.to_json()),
            ];
            fields.extend(fields! {
                "plan_by_isa": by_isa,
                "simd_speedup": rounded(simd_speedup, 2),
            });
        }

        // Determinism: the production sweep must reproduce the timed
        // per-point loop bit for bit; the run aborts on any deviation.
        let sweep_plan = SweepPlan::new(&circuit).expect("plan builds");
        let swept = sweep_with_plan(&sweep_plan, &grid, &mut SolveWorkspace::new())
            .expect("production sweep");
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(
                swept.sample(k).expect("sample exists"),
                out,
                "sweep deviates from the per-point solve at point {k}"
            );
        }
        println!("sweep element-wise identical to per-point");

        workloads.push(Value::Object(fields));
    }

    let fields = fields! {
        "benchmark": "wavelength-sweep solver: planned block-sparse vs dense oracle",
        "metric": "wall-clock per full sweep over --reps repetitions, milliseconds, as \
                   {min, median, p90} (per-point solve; the production sweep folds these \
                   fully dispersionless meshes to a single point); speedups compare medians",
        "repetitions": reps,
        "workloads": workloads,
    };
    write_report(&out_path, &report("sweep_bench", fields));

    if let Some(min) = min_speedup {
        if tripwire_speedup >= min {
            println!("min-speedup tripwire: plan is {tripwire_speedup:.2}x the oracle (>= {min})");
        } else {
            eprintln!(
                "min-speedup tripwire FAILED: plan is only {tripwire_speedup:.2}x \
                 the dense oracle (required {min})"
            );
            std::process::exit(1);
        }
    }
}
