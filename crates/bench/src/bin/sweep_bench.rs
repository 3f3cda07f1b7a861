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
//! records the default tier in `simd_level`.
//!
//! The median over `--reps` repetitions is reported; the plan is
//! cross-checked against the oracle (`max_abs_diff_vs_oracle` — the
//! conformance tolerance is 1e-8), and the production sweep against the
//! timed per-point loop bit for bit. The meshes run as one stripe on the
//! caller at any thread count, so no parallel sweep is measured here;
//! `tests/block_sparse.rs` and the simulator's unit tests pin parallel
//! bit-identity. `--min-speedup X` turns the run into a CI tripwire: it
//! fails unless the plan beats the oracle by at least `X×` on the
//! largest measured workload.
//!
//! Usage: `cargo run --release -p picbench-bench --bin sweep_bench
//! [-- --reps N --out PATH --mesh 8x8|16x16|both --min-speedup X]`

use picbench_math::simd::{available_level, SimdLevel};
use picbench_math::{decomp, CMatrix};
use picbench_problems::meshes::mesh_netlist;
use picbench_sim::{
    sweep_naive, sweep_with_plan, Circuit, ModelRegistry, SolveWorkspace, SweepPlan, WavelengthGrid,
};
use std::fmt::Write as _;
use std::time::Instant;

/// `(mesh size, grid points)` per workload. 8×8 keeps the historical
/// 64-point configuration; 16×16 uses a shorter grid (per-point cost is
/// what is compared, and the dense oracle is far dearer per point).
const WORKLOADS: [(usize, usize); 2] = [(8, 64), (16, 16)];

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut meshes: Vec<(usize, usize)> = WORKLOADS.to_vec();
    let mut min_speedup: Option<f64> = None;
    let usage = "usage: sweep_bench [--reps N --out PATH --mesh 8x8|16x16|both \
                 --min-speedup X]";
    let mut i = 0;
    while i < args.len() {
        let fail = |msg: &str| -> ! {
            eprintln!("{msg}; {usage}");
            std::process::exit(2);
        };
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--reps needs a positive integer"));
            }
            "--out" => {
                i += 1;
                out_path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fail("--out needs a path"));
            }
            "--mesh" => {
                i += 1;
                meshes = match args.get(i).map(String::as_str) {
                    Some("8x8") => vec![WORKLOADS[0]],
                    Some("16x16") => vec![WORKLOADS[1]],
                    Some("both") => WORKLOADS.to_vec(),
                    _ => fail("--mesh needs 8x8|16x16|both"),
                };
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&x: &f64| x > 0.0)
                        .unwrap_or_else(|| fail("--min-speedup needs a positive number")),
                );
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    let registry = ModelRegistry::with_builtins();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let level = available_level();
    // The per-ISA row is only interesting when a vector tier is active.
    let isa_row = level != SimdLevel::Scalar;
    let mut workload_json = String::new();
    let mut tripwire_speedup = 0.0f64;

    for (w_index, &(mesh_size, grid_points)) in meshes.iter().enumerate() {
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
        let oracle = median_ms(oracle_ms);
        let plan = median_ms(plan_ms);
        tripwire_speedup = oracle / plan;
        println!(
            "oracle {oracle:.2} ms -> plan {plan:.2} ms ({tripwire_speedup:.2}x, \
             max |dS| vs oracle {diff_vs_oracle:.2e})"
        );
        let isa_json = if isa_row {
            let scalar = median_ms(scalar_ms);
            println!(
                "ISA dispatch: scalar {scalar:.2} ms -> {level} {plan:.2} ms ({:.2}x)",
                scalar / plan
            );
            format!(
                ",\n      \"plan_by_isa\": {{\n        \"scalar\": {scalar:.3},\n        \
                 \"{level}\": {plan:.3}\n      }},\n      \"simd_speedup\": {:.2}",
                scalar / plan
            )
        } else {
            String::new()
        };

        // Determinism: the production sweep must reproduce the timed
        // per-point loop bit for bit; the run aborts on any deviation.
        let sweep_plan = SweepPlan::new(&circuit).expect("plan builds");
        let swept = sweep_with_plan(&sweep_plan, &grid, 1, &mut SolveWorkspace::new())
            .expect("production sweep");
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(
                swept.sample(k).expect("sample exists"),
                out,
                "sweep deviates from the per-point solve at point {k}"
            );
        }
        println!("sweep element-wise identical to per-point");

        if w_index > 0 {
            workload_json.push_str(",\n");
        }
        let _ = write!(
            workload_json,
            "    {{\n      \"mesh\": \"clements-{mesh_size}x{mesh_size}\",\n      \
             \"instances\": {},\n      \"memoized_instances\": {memoized},\n      \
             \"global_ports\": {},\n      \"external_ports\": {n_ext},\n      \
             \"grid_points\": {grid_points},\n      \"oracle_ms\": {oracle:.3},\n      \
             \"plan_ms\": {plan:.3},\n      \"speedup_vs_oracle\": {tripwire_speedup:.2},\n      \
             \"max_abs_diff_vs_oracle\": {diff_vs_oracle:.3e}{isa_json}\n    }}",
            circuit.instance_count(),
            circuit.total_ports,
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"wavelength-sweep solver: planned block-sparse vs dense oracle\",\n  \
         \"metric\": \"median wall-clock per full sweep, milliseconds (per-point solve; \
         the production sweep() folds these fully dispersionless meshes to a single point)\",\n  \
         \"repetitions\": {reps},\n  \"host_cpus\": {cpus},\n  \
         \"simd_level\": \"{level}\",\n  \
         \"workloads\": [\n{workload_json}\n  ],\n  \
         \"generated_by\": {}\n}}\n",
        picbench_bench::generated_by("sweep_bench"),
    );
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!("wrote {out_path}");

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
