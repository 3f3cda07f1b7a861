//! The plan/execute split of the wavelength-sweep hot path — the
//! production solver.
//!
//! A wavelength sweep evaluates the same circuit at many wavelengths. The
//! naive oracle ([`crate::evaluate`]) rebuilds everything from scratch at
//! every point: it re-derives the port partition, allocates a dozen
//! intermediate matrices, re-evaluates every component model — even the
//! dispersionless ones whose S-matrix cannot change — and factors the
//! full dense scattering system.
//!
//! The planned solver splits the wavelength-independent work into two
//! layers:
//!
//! * a [`SweepSchedule`] — everything determined by the circuit's
//!   **topology** alone: the instance-block partition of the scattering
//!   system, its fill-reducing block-sparse symbolic factorization
//!   ([`picbench_math::sparse`]) and the scatter/combine recipes.
//!   Schedules are immutable, `Send + Sync`, shareable via `Arc`, and a
//!   [`ScheduleCache`] memoizes them by [`Circuit::topology_hash`] so
//!   that candidate circuits which differ only in *settings* (the common
//!   case in evaluation campaigns) skip re-planning entirely;
//! * a [`SweepPlan`] — the schedule plus the per-instance **settings**
//!   state (an [`SMatrixMemo`] per instance holding the block of every
//!   wavelength-independent model, evaluated exactly once) and the SIMD
//!   kernel tier, resolved once when the plan is built.
//!
//! The per-point state lives in a [`SolveWorkspace`]: the assembled
//! global matrix, the baseline images of the wavelength-independent
//! system and right-hand side, the numeric block-sparse factor and the
//! solution panel. All of it is reused between points, so the
//! steady-state scattering solve performs **zero heap allocations**
//! (dispersive component models still build their own small S-matrices;
//! every wavelength-independent model is served from the memo) —
//! property-verified by the counting-allocator test in `tests/alloc.rs`.
//!
//! [`SweepPlan::evaluate_stripe_into`] is the one stripe loop: it runs a
//! contiguous run of grid points per point, or factors once and
//! recombines (or copies) when the system is wavelength-independent.
//! [`crate::sweep_with_plan`] drives it over the whole grid on the
//! caller's workspace.
//!
//! Two plan-based sweeps on the same SIMD tier (whole grid or any split
//! into stripes) are bit-identical. Against the oracle the planned solver
//! agrees to machine precision (~1e-15), not bit for bit — it eliminates
//! in a different order — so cross-checks compare with a tolerance.

use crate::blocks::BlockSchedule;
use crate::elaborate::Circuit;
use crate::oracle::SimError;
use picbench_math::simd::{self, Kernels, SimdLevel};
use picbench_math::{BlockSparseLu, CMatrix, SplitComplexVec};
use picbench_sparams::SMatrixMemo;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything about a sweep that is determined by circuit *topology*
/// alone — no settings, no wavelengths. Immutable and shareable across
/// threads; build once per topology via [`SweepSchedule::for_circuit`] or
/// reuse through a [`ScheduleCache`].
#[derive(Debug)]
pub struct SweepSchedule {
    /// Total global ports of the topology this schedule was built for.
    total_ports: usize,
    /// Block partition, symbolic factorization and scatter/combine
    /// recipes.
    block: BlockSchedule,
}

impl SweepSchedule {
    /// Computes the sweep structure of a circuit's topology: the block
    /// partition plus the symbolic factorization of the connectivity
    /// graph — index bookkeeping and a one-off symbolic analysis,
    /// negligible next to a single sweep point.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        SweepSchedule {
            total_ports: circuit.total_ports,
            block: BlockSchedule::for_circuit(circuit),
        }
    }

    /// Number of external ports.
    pub fn external_count(&self) -> usize {
        self.block.n_ext
    }

    /// Total global ports of the topology.
    pub fn total_ports(&self) -> usize {
        self.total_ports
    }
}

/// Memoizes [`SweepSchedule`]s by [`Circuit::topology_hash`].
///
/// Candidate circuits produced by feedback retries and repeated samples
/// overwhelmingly share topologies (they differ in settings, if at all);
/// holding one of these per evaluator means a cache miss on the
/// *response* level still skips all re-planning. Entries are `Arc`s, so
/// plans built from a cached schedule stay valid if the cache is dropped.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    map: HashMap<u64, Arc<SweepSchedule>>,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// The schedule for `circuit`'s topology, built on first sight.
    pub fn get_or_build(&mut self, circuit: &Circuit) -> Arc<SweepSchedule> {
        Arc::clone(
            self.map
                .entry(circuit.topology_hash())
                .or_insert_with(|| Arc::new(SweepSchedule::for_circuit(circuit))),
        )
    }

    /// Number of distinct topologies seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A schedule bound to one concrete circuit: topology structure plus the
/// per-instance wavelength-independent S-matrix memos and the SIMD
/// kernel tier. See the module docs of `plan` for the full story.
#[derive(Debug)]
pub struct SweepPlan<'c> {
    circuit: &'c Circuit,
    schedule: Arc<SweepSchedule>,
    /// Per-instance memo; holds the block of every wavelength-independent
    /// model after construction.
    memos: Vec<SMatrixMemo>,
    /// The SIMD kernel table every solve of this plan dispatches.
    kernels: &'static Kernels,
}

/// Reference wavelength used to capture wavelength-independent S-matrices.
/// Any value works by definition; the C-band centre keeps diagnostics
/// unsurprising.
const MEMO_WAVELENGTH_UM: f64 = 1.55;

impl<'c> SweepPlan<'c> {
    /// Builds the plan for sweeping `circuit`, computing a fresh
    /// schedule. Prefer [`SweepPlan::with_schedule`] plus a
    /// [`ScheduleCache`] when evaluating many circuits of few topologies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] when a wavelength-independent model
    /// rejects its settings (dispersive models are evaluated per point and
    /// report their errors from [`SweepPlan::evaluate_into`] instead).
    pub fn new(circuit: &'c Circuit) -> Result<Self, SimError> {
        SweepPlan::with_schedule(circuit, Arc::new(SweepSchedule::for_circuit(circuit)))
    }

    /// Builds the plan for `circuit` on a prebuilt (typically cached)
    /// schedule of the same topology.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's port count disagrees with the circuit —
    /// a schedule reused across topologies is a caller bug.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] when a wavelength-independent model
    /// rejects its settings.
    pub fn with_schedule(
        circuit: &'c Circuit,
        schedule: Arc<SweepSchedule>,
    ) -> Result<Self, SimError> {
        assert_eq!(
            schedule.total_ports, circuit.total_ports,
            "schedule was built for a different topology"
        );
        // Memoize every wavelength-independent instance once.
        let mut memos = Vec::with_capacity(circuit.instances.len());
        for inst in &circuit.instances {
            let mut memo = SMatrixMemo::new();
            if inst.model.is_wavelength_independent(&inst.settings) {
                memo.get_or_eval(inst.model.as_ref(), MEMO_WAVELENGTH_UM, &inst.settings)
                    .map_err(|source| SimError::Model {
                        instance: inst.name.clone(),
                        source,
                    })?;
            }
            memos.push(memo);
        }

        Ok(SweepPlan {
            circuit,
            schedule,
            memos,
            kernels: simd::kernels(),
        })
    }

    /// Runs this plan's solves on an explicit SIMD tier instead of the
    /// default [`simd::available_level`]. Sweeps on the scalar tier are
    /// the reference the vector tiers are checked against.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `level` ([`simd::is_supported`]).
    pub fn with_simd_level(mut self, level: SimdLevel) -> Self {
        self.kernels = simd::kernels_for(level);
        self
    }

    /// The circuit this plan was built for.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The SIMD tier this plan's solves run on.
    pub fn simd_level(&self) -> SimdLevel {
        self.kernels.level()
    }

    /// The underlying topology schedule.
    pub fn schedule(&self) -> &Arc<SweepSchedule> {
        &self.schedule
    }

    /// Number of external ports.
    pub fn external_count(&self) -> usize {
        self.schedule.external_count()
    }

    /// How many instances are served from the wavelength-independent memo
    /// (diagnostics; the rest are re-evaluated at every point).
    pub fn memoized_instance_count(&self) -> usize {
        self.memos.iter().filter(|m| m.is_cached()).count()
    }

    /// Whether *every* instance is served from the memo. The composed
    /// response of such a circuit is the same at every wavelength, so a
    /// stripe evaluates a single point and copies it — bit-identical to
    /// solving each grid point, at 1/points the cost. (Interconnect
    /// meshes — phase shifters, couplers, crossings — are the heavyweight
    /// beneficiaries.)
    pub fn is_wavelength_independent(&self) -> bool {
        self.memos.iter().all(|m| m.is_cached())
    }

    /// Allocates a workspace sized for this plan, with all memoized blocks
    /// already written into the global matrix.
    pub fn workspace(&self) -> SolveWorkspace {
        let mut ws = SolveWorkspace::new();
        self.reset_workspace(&mut ws);
        ws
    }

    /// Re-targets an existing workspace at this plan, reusing its buffers:
    /// sizes every buffer for this circuit, rewrites the memoized blocks
    /// and rebuilds the wavelength-independent baseline images. After the
    /// call the workspace is indistinguishable from a fresh
    /// [`SweepPlan::workspace`] — which is what lets an evaluator keep
    /// one workspace across many circuits without re-allocating at every
    /// candidate.
    pub fn reset_workspace(&self, ws: &mut SolveWorkspace) {
        let n0 = self.schedule.total_ports;
        // The staging matrix is block-diagonal by instance, and every
        // read of it (matrix/RHS scatters, ee/ei combine terms) stays
        // inside one instance's diagonal block — written by
        // `write_block` before any read (memoized below, dispersive per
        // point) — so stale cross-instance entries are never read and
        // need no clearing.
        ws.global.reshape(n0, n0);
        for (inst, memo) in self.circuit.instances.iter().zip(&self.memos) {
            if let Some(block) = memo.cached() {
                write_block(&mut ws.global, inst.port_offset, block.matrix());
            }
        }
        if ws.lu.level() != self.simd_level() {
            ws.lu = BlockSparseLu::with_level(self.simd_level());
        }
        // Baselines: the wavelength-independent part of the system
        // assembly (identity + every memoized instance) imaged once;
        // per-point assembly copies the image and scatters only the
        // dispersive instances.
        let sched = &self.schedule.block;
        ws.baseline.resize_zero(sched.sym.values_len());
        ws.rhs_baseline.resize_zero(sched.n_int * sched.n_ext);
        sched.scatter_identity(&mut ws.baseline);
        for (ii, memo) in self.memos.iter().enumerate() {
            if memo.is_cached() {
                sched.scatter_matrix_instance(ii, &ws.global, &mut ws.baseline);
                sched.scatter_rhs_instance(ii, &ws.global, &mut ws.rhs_baseline);
            }
        }
    }

    /// Evaluates the external S-matrix at one wavelength into `out`
    /// (reshaped to `n_ext × n_ext`), reusing `ws` for every intermediate.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::evaluate`]: [`SimError::Model`] when a dispersive
    /// model fails, [`SimError::SingularSystem`] on an undamped resonant
    /// loop, [`SimError::NonFiniteResult`] on a non-finite response.
    pub fn evaluate_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        self.refresh_dispersive(ws, wavelength_um)?;
        self.solve(ws, wavelength_um, out)?;
        if !out.is_finite() {
            return Err(SimError::NonFiniteResult { wavelength_um });
        }
        Ok(())
    }

    /// Refreshes the dispersive blocks of the global matrix; memoized
    /// blocks were written at workspace construction and never change.
    fn refresh_dispersive(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
    ) -> Result<(), SimError> {
        for (inst, memo) in self.circuit.instances.iter().zip(&self.memos) {
            if memo.is_cached() {
                continue;
            }
            let s = inst
                .model
                .s_matrix(wavelength_um, &inst.settings)
                .map_err(|source| SimError::Model {
                    instance: inst.name.clone(),
                    source,
                })?;
            write_block(&mut ws.global, inst.port_offset, s.matrix());
        }
        Ok(())
    }

    /// Whether a batched sweep over this plan may factor the scattering
    /// system **once** and reuse the solved panel for every wavelength
    /// point of a stripe: every instance that feeds the system matrix,
    /// the RHS panel or the `S_ei` combine coefficients is served from
    /// the wavelength-independent memo. (Only instances with no internal
    /// ports may then still be dispersive — they contribute `S_ee`
    /// entries re-read at every point.)
    pub fn stripe_factors_once(&self) -> bool {
        self.memos
            .iter()
            .enumerate()
            .all(|(ii, memo)| memo.is_cached() || !self.schedule.block.instance_touches_system(ii))
    }

    /// Evaluates a stripe of wavelength points in one batched pass,
    /// writing one external S-matrix per point into `outs` — the one
    /// stripe loop; every planned sweep runs its grid through it.
    ///
    /// When [`SweepPlan::stripe_factors_once`] holds, the system is
    /// assembled and factored for the first point only and the solved
    /// panel of RHS columns is reused across the whole stripe —
    /// per-point work drops to refreshing dispersive `S_ee` entries and
    /// recombining (or a plain copy when the circuit is fully
    /// wavelength-independent). Otherwise every point runs the full
    /// [`SweepPlan::evaluate_into`]. Results are element-wise identical
    /// to per-point evaluation in all cases, and the steady-state stripe
    /// performs zero heap allocations (see `tests/alloc.rs`).
    ///
    /// # Errors
    ///
    /// Returns the stripe-local index and [`SimError`] of the first
    /// failing point.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` and `outs` have different lengths.
    pub fn evaluate_stripe_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelengths: &[f64],
        outs: &mut [CMatrix],
    ) -> Result<(), (usize, SimError)> {
        assert_eq!(
            wavelengths.len(),
            outs.len(),
            "one output matrix per stripe wavelength"
        );
        if !self.stripe_factors_once() {
            for (offset, (&wl, out)) in wavelengths.iter().zip(outs.iter_mut()).enumerate() {
                self.evaluate_into(ws, wl, out).map_err(|e| (offset, e))?;
            }
            return Ok(());
        }
        let Some((first_out, rest)) = outs.split_first_mut() else {
            return Ok(());
        };
        self.evaluate_into(ws, wavelengths[0], first_out)
            .map_err(|e| (0, e))?;
        let copy = self.is_wavelength_independent();
        for (offset, out) in rest.iter_mut().enumerate() {
            if copy {
                out.copy_from(first_out);
            } else {
                self.evaluate_retained_into(ws, wavelengths[offset + 1], out)
                    .map_err(|e| (offset + 1, e))?;
            }
        }
        Ok(())
    }

    /// Recombines the external response at a new wavelength from the
    /// factored system and solved panel retained in `ws` by the previous
    /// [`SweepPlan::evaluate_into`] on this plan. Only meaningful when
    /// [`SweepPlan::stripe_factors_once`] holds (the retained solve is
    /// wavelength-independent then); per-point work reduces to the
    /// dispersive `S_ee` refresh and the sparse combine.
    pub(crate) fn evaluate_retained_into(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        debug_assert!(self.stripe_factors_once());
        self.refresh_dispersive(ws, wavelength_um)?;
        self.schedule
            .block
            .combine(self.kernels, &ws.global, &ws.x, &mut ws.stage, out);
        if !out.is_finite() {
            return Err(SimError::NonFiniteResult { wavelength_um });
        }
        Ok(())
    }

    /// Block-sparse scattering solve on the frozen block schedule:
    /// baseline image + dispersive scatter, numeric factor against the
    /// shared symbolic object, one panel solve for all `n_ext` RHS
    /// columns, sparse recombination.
    fn solve(
        &self,
        ws: &mut SolveWorkspace,
        wavelength_um: f64,
        out: &mut CMatrix,
    ) -> Result<(), SimError> {
        let sched = &self.schedule.block;
        if sched.n_int == 0 {
            ws.x.clear();
            sched.combine(self.kernels, &ws.global, &ws.x, &mut ws.stage, out);
            return Ok(());
        }
        ws.lu.load(&ws.baseline);
        ws.x.copy_from(&ws.rhs_baseline);
        for (ii, memo) in self.memos.iter().enumerate() {
            if memo.is_cached() {
                continue;
            }
            sched.scatter_matrix_instance(ii, &ws.global, ws.lu.values_mut());
            sched.scatter_rhs_instance(ii, &ws.global, &mut ws.x);
        }
        ws.lu
            .factor(&sched.sym)
            .map_err(|_| SimError::SingularSystem { wavelength_um })?;
        ws.lu.solve_in_place(&sched.sym, &mut ws.x, sched.n_ext);
        sched.combine(self.kernels, &ws.global, &ws.x, &mut ws.stage, out);
        Ok(())
    }
}

/// Copies a model block onto the diagonal of the global matrix.
fn write_block(global: &mut CMatrix, offset: usize, block: &CMatrix) {
    let n = block.rows();
    for r in 0..n {
        for c in 0..n {
            *global.at_mut(offset + r, offset + c) = block.at(r, c);
        }
    }
}

/// Reusable per-worker storage for the per-point solve. Create via
/// [`SweepPlan::workspace`] (or re-target an existing one with
/// [`SweepPlan::reset_workspace`]); all buffers are sized once and reused,
/// so the steady-state point loop never touches the allocator.
#[derive(Debug)]
pub struct SolveWorkspace {
    /// Assembled block-diagonal global S-matrix.
    global: CMatrix,
    /// Numeric block-sparse factor, re-factored per point.
    lu: BlockSparseLu,
    /// Baseline image of the wavelength-independent system assembly
    /// (split-complex, the solver's panel layout).
    baseline: SplitComplexVec,
    /// Baseline image of the wavelength-independent RHS panel.
    rhs_baseline: SplitComplexVec,
    /// RHS panel, solved in place into the internal-wave solution `X`.
    x: SplitComplexVec,
    /// Split staging buffer for the `S_ee + S_ei·X` combine.
    stage: SplitComplexVec,
}

impl SolveWorkspace {
    /// An empty workspace. Any plan can adopt it via
    /// [`SweepPlan::reset_workspace`]; its buffers then grow to the
    /// largest circuit seen and are reused thereafter.
    pub fn new() -> Self {
        SolveWorkspace {
            global: CMatrix::zeros(0, 0),
            lu: BlockSparseLu::new(),
            baseline: SplitComplexVec::new(),
            rhs_baseline: SplitComplexVec::new(),
            x: SplitComplexVec::new(),
            stage: SplitComplexVec::new(),
        }
    }
}

impl Default for SolveWorkspace {
    fn default() -> Self {
        SolveWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::evaluate;
    use crate::registry::ModelRegistry;
    use picbench_netlist::{Netlist, NetlistBuilder};

    fn elaborate(netlist: &Netlist) -> Circuit {
        let registry = ModelRegistry::with_builtins();
        Circuit::elaborate(netlist, &registry, None).unwrap()
    }

    fn mzi_from_parts() -> Netlist {
        NetlistBuilder::new()
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
            .build()
    }

    #[test]
    fn plan_matches_the_dense_oracle() {
        let circuit = elaborate(&mzi_from_parts());
        let plan = SweepPlan::new(&circuit).unwrap();
        let mut ws = plan.workspace();
        let mut out = CMatrix::zeros(0, 0);
        let mut wl = 1.51;
        while wl <= 1.59 {
            plan.evaluate_into(&mut ws, wl, &mut out).unwrap();
            let oracle = evaluate(&circuit, wl).unwrap();
            assert!(
                out.max_abs_diff(oracle.matrix()) < 1e-12,
                "plan disagrees at {wl}: {:.3e}",
                out.max_abs_diff(oracle.matrix())
            );
            wl += 0.01;
        }
    }

    #[test]
    fn plan_memoizes_dispersionless_instances() {
        let circuit = elaborate(&mzi_from_parts());
        let plan = SweepPlan::new(&circuit).unwrap();
        // The two MMIs are wavelength-independent; the two waveguides are
        // not.
        assert_eq!(plan.memoized_instance_count(), 2);
    }

    #[test]
    fn workspace_reuse_is_stable() {
        // Evaluating the same wavelength twice through one workspace must
        // be bit-identical — stale state may not leak between points.
        let circuit = elaborate(&mzi_from_parts());
        let plan = SweepPlan::new(&circuit).unwrap();
        let mut ws = plan.workspace();
        let mut first = CMatrix::zeros(0, 0);
        let mut again = CMatrix::zeros(0, 0);
        plan.evaluate_into(&mut ws, 1.55, &mut first).unwrap();
        plan.evaluate_into(&mut ws, 1.532, &mut again).unwrap();
        plan.evaluate_into(&mut ws, 1.55, &mut again).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn reset_workspace_matches_fresh_workspace() {
        // A workspace left dirty by a *different* (larger) circuit, on a
        // different SIMD tier, must be fully re-targeted: same bits as a
        // fresh workspace.
        let big = elaborate(&mzi_from_parts());
        let small_netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .instance("split", "mmi1x2")
            .connect("wg,O1", "split,I1")
            .port("I1", "wg,I1")
            .port("O1", "split,O1")
            .port("O2", "split,O2")
            .model("waveguide", "waveguide")
            .model("mmi1x2", "mmi1x2")
            .build();
        let small = elaborate(&small_netlist);
        let big_plan = SweepPlan::new(&big)
            .unwrap()
            .with_simd_level(SimdLevel::Scalar);
        let small_plan = SweepPlan::new(&small).unwrap();
        let mut ws = big_plan.workspace();
        let mut scratch = CMatrix::zeros(0, 0);
        big_plan.evaluate_into(&mut ws, 1.55, &mut scratch).unwrap();
        // Re-target the dirty workspace at the small circuit.
        small_plan.reset_workspace(&mut ws);
        let mut reused = CMatrix::zeros(0, 0);
        small_plan
            .evaluate_into(&mut ws, 1.55, &mut reused)
            .unwrap();
        let mut fresh_ws = small_plan.workspace();
        let mut fresh = CMatrix::zeros(0, 0);
        small_plan
            .evaluate_into(&mut fresh_ws, 1.55, &mut fresh)
            .unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn schedule_cache_shares_topologies() {
        let a = elaborate(&mzi_from_parts());
        // Same topology, different settings.
        let mut tweaked = mzi_from_parts();
        tweaked
            .instances
            .get_mut("top")
            .unwrap()
            .settings
            .insert("length".to_string(), 40.0);
        let b = elaborate(&tweaked);
        let mut cache = ScheduleCache::new();
        let sa = cache.get_or_build(&a);
        let sb = cache.get_or_build(&b);
        assert!(Arc::ptr_eq(&sa, &sb), "same topology must share a schedule");
        assert_eq!(cache.len(), 1);

        // A cached-schedule plan computes the same bits as a fresh plan.
        let cached_plan = SweepPlan::with_schedule(&b, Arc::clone(&sb)).unwrap();
        let fresh_plan = SweepPlan::new(&b).unwrap();
        let mut ws_c = cached_plan.workspace();
        let mut ws_f = fresh_plan.workspace();
        let mut out_c = CMatrix::zeros(0, 0);
        let mut out_f = CMatrix::zeros(0, 0);
        cached_plan
            .evaluate_into(&mut ws_c, 1.547, &mut out_c)
            .unwrap();
        fresh_plan
            .evaluate_into(&mut ws_f, 1.547, &mut out_f)
            .unwrap();
        assert_eq!(out_c, out_f);
    }

    #[test]
    fn no_connections_circuit_short_circuits() {
        let netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);
        let plan = SweepPlan::new(&circuit).unwrap();
        let mut ws = plan.workspace();
        let mut out = CMatrix::zeros(0, 0);
        plan.evaluate_into(&mut ws, 1.55, &mut out).unwrap();
        let oracle = evaluate(&circuit, 1.55).unwrap();
        assert!(out.max_abs_diff(oracle.matrix()) < 1e-14);
    }

    #[test]
    fn model_errors_carry_instance_names() {
        let netlist = NetlistBuilder::new()
            .instance_with("badcoupler", "coupler", &[("coupling", 2.0)])
            .port("I1", "badcoupler,I1")
            .port("O1", "badcoupler,O1")
            .model("coupler", "coupler")
            .build();
        let circuit = elaborate(&netlist);
        // The coupler is wavelength-independent, so the invalid setting
        // surfaces at plan construction.
        let err = SweepPlan::new(&circuit).unwrap_err();
        match &err {
            SimError::Model { instance, .. } => assert_eq!(instance, "badcoupler"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
