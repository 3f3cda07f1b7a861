//! Criterion benches for the S-parameter simulator: the planned solver
//! against the dense oracle, mesh-size scaling and full-band sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use picbench_math::{decomp, CMatrix, MeshScheme};
use picbench_problems::meshes::mesh_netlist;
use picbench_sim::{
    evaluate, sweep, sweep_naive, sweep_with_plan, Circuit, ModelRegistry, SolveWorkspace,
    SweepPlan, WavelengthGrid,
};

/// One planned solve at 1.55 µm on a prebuilt plan and workspace — the
/// per-point cost a sweep pays.
fn bench_planned_point(b: &mut criterion::Bencher, circuit: &Circuit) {
    let plan = SweepPlan::new(circuit).unwrap();
    let mut ws = plan.workspace();
    let mut out = CMatrix::zeros(0, 0);
    b.iter(|| plan.evaluate_into(&mut ws, 1.55, &mut out).unwrap());
}

fn solver_comparison(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let mut group = c.benchmark_group("solver");
    for id in ["mzi-ps", "benes-8x8", "clements-8x8"] {
        let problem = picbench_problems::find(id).expect("problem exists");
        let circuit = Circuit::elaborate(&problem.golden, &registry, None).unwrap();
        group.bench_with_input(BenchmarkId::new("oracle", id), &circuit, |b, circuit| {
            b.iter(|| evaluate(circuit, 1.55).unwrap());
        });
        group.bench_with_input(
            BenchmarkId::new("planned", id),
            &circuit,
            bench_planned_point,
        );
    }
    group.finish();
}

fn mesh_scaling(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let mut group = c.benchmark_group("mesh-scaling");
    for n in [2usize, 4, 6, 8] {
        let target = decomp::dft_matrix(n);
        let mesh = decomp::clements_decompose(&target).unwrap();
        let netlist = mesh_netlist(&mesh);
        let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
        group.bench_with_input(
            BenchmarkId::new("clements", n),
            &circuit,
            bench_planned_point,
        );
    }
    group.finish();
}

fn full_band_sweep(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let problem = picbench_problems::find("wdm-demux").expect("problem exists");
    let circuit = Circuit::elaborate(&problem.golden, &registry, None).unwrap();
    let mut group = c.benchmark_group("sweep");
    for (name, grid) in [
        ("paper-fast-17pt", WavelengthGrid::paper_fast()),
        ("paper-default-81pt", WavelengthGrid::paper_default()),
    ] {
        group.bench_with_input(BenchmarkId::new("wdm-demux", name), &grid, |b, grid| {
            b.iter(|| sweep(&circuit, grid).unwrap());
        });
    }
    group.finish();
}

/// The dense oracle swept point by point vs the plan/execute pipeline on
/// the 64-point × 16-port reference mesh (see `sweep_bench` for the
/// committed `BENCH_pipeline.json` numbers).
fn plan_vs_naive_sweep(c: &mut Criterion) {
    let registry = ModelRegistry::with_builtins();
    let target = decomp::dft_matrix(8);
    let mesh = decomp::clements_decompose(&target).unwrap();
    let netlist = mesh_netlist(&mesh);
    let circuit = Circuit::elaborate(&netlist, &registry, None).unwrap();
    let grid = WavelengthGrid::new(1.51, 1.59, 64);
    let mut group = c.benchmark_group("sweep-pipeline");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("naive", "oracle"), &grid, |b, grid| {
        b.iter(|| sweep_naive(&circuit, grid).unwrap());
    });
    group.bench_with_input(
        BenchmarkId::new("plan", "block-sparse"),
        &grid,
        |b, grid| {
            b.iter(|| {
                let plan = SweepPlan::new(&circuit).unwrap();
                sweep_with_plan(&plan, grid, &mut SolveWorkspace::new()).unwrap()
            });
        },
    );
    // Plan construction alone, to show it amortizes after one point.
    group.bench_with_input(
        BenchmarkId::new("plan-build", "block-sparse"),
        &circuit,
        |b, circuit| {
            b.iter(|| SweepPlan::new(circuit).unwrap());
        },
    );
    group.finish();
}

fn decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for n in [4usize, 8, 16] {
        let target = decomp::dft_matrix(n);
        for scheme in [MeshScheme::Reck, MeshScheme::Clements] {
            group.bench_with_input(
                BenchmarkId::new(scheme.to_string(), n),
                &target,
                |b, target| {
                    b.iter(|| decomp::decompose(target, scheme).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    solver_comparison,
    mesh_scaling,
    full_band_sweep,
    plan_vs_naive_sweep,
    decomposition
);
criterion_main!(benches);
