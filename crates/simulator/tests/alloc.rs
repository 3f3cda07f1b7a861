//! Proof that the steady-state per-point solve is allocation-free.
//!
//! This test binary installs a counting global allocator (per-thread
//! counters, so concurrently running tests cannot pollute each other) and
//! drives [`SweepPlan::evaluate_into`] after a single warm-up point. For a
//! circuit whose models are all wavelength-independent (served from the
//! plan memo), the per-point solve must perform zero heap allocations — the acceptance bar the reusable-workspace design is
//! built around. A dispersive circuit is exercised too, asserting that the
//! only allocations left come from the per-point model evaluations. A
//! whole warmed [`sweep_with_plan`] allocates only what its result holds.

use picbench_math::simd::{available_level, SimdLevel};
use picbench_math::CMatrix;
use picbench_netlist::{Netlist, NetlistBuilder};
use picbench_sim::{sweep_with_plan, Circuit, ModelRegistry, SweepPlan, WavelengthGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

// SAFETY: defers entirely to the system allocator; the bookkeeping only
// touches thread-local counters and allocates nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCATIONS.with(|a| a.set(a.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCATIONS.with(|a| a.set(a.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts this thread's allocations during `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(|a| a.get()), result)
}

fn elaborate(netlist: &Netlist) -> Circuit {
    let registry = ModelRegistry::with_builtins();
    Circuit::elaborate(netlist, &registry, None).unwrap()
}

/// A ladder of couplers and crossings: every model is wavelength-
/// independent, so after planning the per-point work is pure composition.
fn memoizable_ladder(rungs: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    for k in 0..rungs {
        b.instance_with(&format!("dc{k}"), "coupler", &[("coupling", 0.3)])
            .instance(&format!("x{k}"), "crossing");
        b.connect(&format!("dc{k},O1"), &format!("x{k},I1"));
        b.connect(&format!("dc{k},O2"), &format!("x{k},I2"));
        if k > 0 {
            b.connect(&format!("x{},O1", k - 1), &format!("dc{k},I1"));
            b.connect(&format!("x{},O2", k - 1), &format!("dc{k},I2"));
        }
    }
    let last = rungs - 1;
    b.port("I1", "dc0,I1")
        .port("I2", "dc0,I2")
        .port("O1", &format!("x{last},O1"))
        .port("O2", &format!("x{last},O2"))
        .model("coupler", "coupler")
        .model("crossing", "crossing")
        .build()
}

#[test]
fn per_point_solve_is_allocation_free() {
    let circuit = elaborate(&memoizable_ladder(6));
    let plan = SweepPlan::new(&circuit).unwrap();
    assert_eq!(
        plan.memoized_instance_count(),
        circuit.instance_count(),
        "ladder must be fully memoizable for this test to be meaningful"
    );
    let mut ws = plan.workspace();
    let mut out = CMatrix::zeros(0, 0);
    // Warm-up: reach every buffer's high-water mark.
    plan.evaluate_into(&mut ws, 1.55, &mut out).unwrap();

    let (allocations, result) = count_allocations(|| {
        let mut status = Ok(());
        let mut wl = 1.51;
        while wl <= 1.59 {
            if let Err(e) = plan.evaluate_into(&mut ws, wl, &mut out) {
                status = Err(e);
                break;
            }
            wl += 0.005;
        }
        status
    });
    result.unwrap();
    assert_eq!(
        allocations, 0,
        "steady-state per-point solve must not allocate"
    );
}

#[test]
fn batched_stripe_solve_is_allocation_free_after_warmup() {
    // The batched execution: after one warm-up stripe has
    // pushed every buffer (factor values, pivots, scratch, RHS panel,
    // output matrices) to its high-water mark, an entire stripe —
    // assembly, factorization, the panel solve and the per-point output
    // replication (this fully memoized ladder takes the factor-once copy
    // path) — must run without touching the allocator. (The recombine
    // stripe path evaluates dispersive models per point, which allocate
    // by design; its correctness is covered in tests/block_sparse.rs.)
    let circuit = elaborate(&memoizable_ladder(6));
    let plan = SweepPlan::new(&circuit).unwrap();
    let wavelengths: Vec<f64> = (0..16).map(|i| 1.51 + 0.005 * i as f64).collect();
    let n_ext = 4;
    let mut ws = plan.workspace();
    let mut outs: Vec<CMatrix> = (0..wavelengths.len())
        .map(|_| CMatrix::zeros(n_ext, n_ext))
        .collect();
    // Warm-up stripe.
    plan.evaluate_stripe_into(&mut ws, &wavelengths, &mut outs)
        .unwrap();

    let (allocations, result) = count_allocations(|| {
        let mut status = Ok(());
        for _ in 0..4 {
            if let Err((_, e)) = plan.evaluate_stripe_into(&mut ws, &wavelengths, &mut outs) {
                status = Err(e);
                break;
            }
        }
        status
    });
    result.unwrap();
    assert_eq!(
        allocations, 0,
        "batched per-stripe solve must not allocate after warmup"
    );
}

#[test]
fn warmed_planned_sweep_allocates_only_its_result() {
    // The production sweep over a warmed workspace: the stripe itself is
    // allocation-free (above), so what remains is the returned response —
    // per point one matrix buffer, moved into the response as it is — and
    // a few per-sweep buffers (the grid, the one external port list, the
    // sample vector).
    const PER_SWEEP: u64 = 16;
    let circuit = elaborate(&memoizable_ladder(6));
    let plan = SweepPlan::new(&circuit).unwrap();
    let grid = WavelengthGrid::new(1.51, 1.59, 32);
    let mut ws = plan.workspace();
    let warm = sweep_with_plan(&plan, &grid, &mut ws).unwrap();

    let (allocations, response) = count_allocations(|| sweep_with_plan(&plan, &grid, &mut ws));
    assert_eq!(response.unwrap(), warm);
    let per_point = 1;
    let budget = grid.points as u64 * per_point + PER_SWEEP;
    assert!(
        allocations <= budget,
        "{allocations} allocations for a {}-point sweep exceed the result's budget {budget}",
        grid.points
    );
}

#[test]
fn warmed_soa_stripe_solve_is_allocation_free_on_every_dispatch_tier() {
    // The split-complex (SoA) panel kernels must not hide allocations
    // behind ISA dispatch: once the stripe buffers are warmed, the whole
    // solve stays allocation-free both on the default (widest detected)
    // SIMD tier and on a plan pinned to the scalar kernels — the tiers
    // share the panel workspace layout, they differ only in the kernel
    // bodies.
    let circuit = elaborate(&memoizable_ladder(6));
    let wavelengths: Vec<f64> = (0..16).map(|i| 1.51 + 0.005 * i as f64).collect();
    for level in [available_level(), SimdLevel::Scalar] {
        let plan = SweepPlan::new(&circuit).unwrap().with_simd_level(level);
        let mut ws = plan.workspace();
        let mut outs: Vec<CMatrix> = (0..wavelengths.len())
            .map(|_| CMatrix::zeros(4, 4))
            .collect();
        plan.evaluate_stripe_into(&mut ws, &wavelengths, &mut outs)
            .unwrap();
        let (allocations, result) =
            count_allocations(|| plan.evaluate_stripe_into(&mut ws, &wavelengths, &mut outs));
        result.map_err(|(_, e)| e).unwrap();
        assert_eq!(
            allocations, 0,
            "warmed SoA stripe solve must not allocate on the {level} tier"
        );
    }
}

#[test]
fn dispersive_circuits_only_allocate_in_model_evaluation() {
    // With waveguides in the loop the models themselves build fresh
    // S-matrices per point; the *composition* must still be free. Sanity
    // bound: a handful of small allocations per instance per point, not
    // O(ports²) matrix churn.
    let netlist = NetlistBuilder::new()
        .instance("split", "mmi1x2")
        .instance("combine", "mmi1x2")
        .instance_with("top", "waveguide", &[("length", 10.0)])
        .instance_with("bottom", "waveguide", &[("length", 25.0)])
        .connect("split,O1", "top,I1")
        .connect("split,O2", "bottom,I1")
        .connect("top,O1", "combine,O1")
        .connect("bottom,O1", "combine,O2")
        .port("I1", "split,I1")
        .port("O1", "combine,I1")
        .model("mmi1x2", "mmi1x2")
        .model("waveguide", "waveguide")
        .build();
    let circuit = elaborate(&netlist);
    let plan = SweepPlan::new(&circuit).unwrap();
    let mut ws = plan.workspace();
    let mut out = CMatrix::zeros(0, 0);
    plan.evaluate_into(&mut ws, 1.55, &mut out).unwrap();

    let points = 16u64;
    let (allocations, result) = count_allocations(|| {
        let mut status = Ok(());
        for i in 0..points {
            let wl = 1.51 + 0.005 * i as f64;
            if let Err(e) = plan.evaluate_into(&mut ws, wl, &mut out) {
                status = Err(e);
                break;
            }
        }
        status
    });
    result.unwrap();
    // Two dispersive waveguides per point; each model evaluation returns
    // a fresh port-labelled S-matrix (its matrix data, its port list and
    // one string per port). Anything beyond that budget means the solve
    // itself regressed.
    let budget = points * 2 * 8;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {points} points exceeds the \
         model-evaluation budget {budget}"
    );
}
