//! Cross-configuration differential checking.
//!
//! Every configuration axis the engine exposes is *required* to agree
//! with the production path — the planned block-sparse sweep — some
//! bit-for-bit (they run the same arithmetic), some to a tight tolerance
//! (they run a genuinely different algorithm):
//!
//! | axis | compared paths | agreement |
//! |------|----------------|-----------|
//! | `oracle` | planned block-sparse sweep vs the naive dense oracle | ≤ [`ORACLE_TOL`] |
//! | `constant-fold` | planned sweep (factor-once grids as one stripe) vs per-point `evaluate_into` on the same plan | bit-identical |
//! | `cache` | cold, cached-cold and cached-hit evaluator | bit-identical |
//! | `canonicalization` | raw vs canonicalized document | bit-identical via the evaluator, ≤ [`ORACLE_TOL`] direct |
//! | `simd` | planned sweep, default SIMD tier vs scalar tier | ≤ [`SIMD_TOL`] |
//!
//! A failed comparison produces a [`Disagreement`]; [`DiffRunner::shrink`]
//! then greedily minimizes the circuit while the disagreement reproduces,
//! yielding a counterexample small enough to debug by hand and check into
//! the regression corpus.
//!
//! For harness self-validation the runner accepts an injected
//! [`Perturbation`] that corrupts the planned response before the oracle
//! comparison — a stand-in solver bug that must be caught and shrunk (see
//! the crate tests).

use crate::shrink::shrink_netlist;
use picbench_core::{EvalCache, Evaluator};
use picbench_math::SimdLevel;
use picbench_netlist::{Netlist, PortSpec};
use picbench_problems::{Category, Problem};
use picbench_sim::{
    sweep, sweep_naive, sweep_with_plan, Circuit, FrequencyResponse, ModelRegistry, SimError,
    SolveWorkspace, SweepPlan, WavelengthGrid,
};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// One configuration axis of the differential matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffAxis {
    /// The planned block-sparse solver vs the independent naive dense
    /// oracle.
    Oracle,
    /// The planned sweep, which runs a grid the plan can factor once as
    /// one stripe (a single solve, copied or recombined per point), vs
    /// evaluating the same plan point by point.
    ConstantFold,
    /// Cold evaluator vs shared-cache evaluator (miss and hit).
    Cache,
    /// Raw document vs its canonical form.
    Canonicalization,
    /// Planned sweep on the default SIMD tier vs the same sweep on the
    /// scalar tier. The vector tiers contract multiply-adds into FMAs,
    /// so agreement is tolerance-gated rather than bit-exact; within one
    /// tier the sweep stays deterministic.
    Simd,
}

impl DiffAxis {
    /// Every axis, in documentation order.
    pub const ALL: [DiffAxis; 5] = [
        DiffAxis::Oracle,
        DiffAxis::ConstantFold,
        DiffAxis::Cache,
        DiffAxis::Canonicalization,
        DiffAxis::Simd,
    ];

    /// Stable kebab-case token used in corpus files and CLI flags.
    pub fn token(&self) -> &'static str {
        match self {
            DiffAxis::Oracle => "oracle",
            DiffAxis::ConstantFold => "constant-fold",
            DiffAxis::Cache => "cache",
            DiffAxis::Canonicalization => "canonicalization",
            DiffAxis::Simd => "simd",
        }
    }
}

impl fmt::Display for DiffAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for DiffAxis {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DiffAxis::ALL
            .iter()
            .find(|a| a.token() == s)
            .copied()
            .ok_or_else(|| format!("unknown differential axis {s:?}"))
    }
}

/// A cross-configuration disagreement on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    /// The axis whose paths diverged.
    pub axis: DiffAxis,
    /// Largest complex entry-wise difference observed (`INFINITY` when
    /// the responses are structurally incomparable or one path errored).
    pub max_diff: f64,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "axis {}: {} (max |ΔS| = {:.3e})",
            self.axis, self.detail, self.max_diff
        )
    }
}

/// A fault-injection hook: mutates a computed response before comparison.
///
/// Used to validate that the harness *would* catch a solver bug: inject a
/// perturbation, assert the runner reports a [`Disagreement`] and shrinks
/// it to a minimal corpus case. Applied to the planned response of the
/// [`DiffAxis::Oracle`] comparison only.
pub type Perturbation = Arc<dyn Fn(&Netlist, &mut FrequencyResponse) + Send + Sync>;

/// Agreement bound of the planned-vs-oracle (and direct
/// canonicalization) comparisons.
pub const ORACLE_TOL: f64 = 1e-8;

/// Agreement bound of the default-tier-vs-scalar-tier comparison.
pub const SIMD_TOL: f64 = 1e-9;

/// The differential runner: fixed registry, grid and axis set.
pub struct DiffRunner {
    registry: ModelRegistry,
    grid: WavelengthGrid,
    axes: Vec<DiffAxis>,
    perturbation: Option<Perturbation>,
}

impl fmt::Debug for DiffRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiffRunner")
            .field("grid", &self.grid)
            .field("axes", &self.axes)
            .field("perturbed", &self.perturbation.is_some())
            .finish()
    }
}

impl Default for DiffRunner {
    fn default() -> Self {
        DiffRunner::new(WavelengthGrid::new(1.51, 1.59, 7))
    }
}

impl DiffRunner {
    /// A runner over all axes on the given grid.
    pub fn new(grid: WavelengthGrid) -> Self {
        DiffRunner {
            registry: ModelRegistry::with_builtins(),
            grid,
            axes: DiffAxis::ALL.to_vec(),
            perturbation: None,
        }
    }

    /// Restricts the axis set.
    pub fn with_axes(mut self, axes: impl IntoIterator<Item = DiffAxis>) -> Self {
        self.axes = axes.into_iter().collect();
        self
    }

    /// Installs a fault-injection hook (see [`Perturbation`]).
    pub fn with_perturbation(mut self, perturbation: Perturbation) -> Self {
        self.perturbation = Some(perturbation);
        self
    }

    /// The sweep grid in use.
    pub fn grid(&self) -> &WavelengthGrid {
        &self.grid
    }

    /// The configured axes.
    pub fn axes(&self) -> &[DiffAxis] {
        &self.axes
    }

    /// Runs every configured axis on one netlist.
    ///
    /// Circuits whose *reference* path — the planned sweep — fails
    /// to simulate (e.g. a shrink candidate that became singular) are
    /// vacuously conformant: there is nothing to compare against.
    ///
    /// # Errors
    ///
    /// Returns the first [`Disagreement`] found.
    pub fn check(&self, netlist: &Netlist) -> Result<(), Disagreement> {
        for &axis in &self.axes {
            self.check_axis(netlist, axis)?;
        }
        Ok(())
    }

    /// Runs one axis on one netlist.
    ///
    /// # Errors
    ///
    /// Returns the [`Disagreement`] when the axis' paths diverge.
    pub fn check_axis(&self, netlist: &Netlist, axis: DiffAxis) -> Result<(), Disagreement> {
        let Ok(circuit) = Circuit::elaborate(netlist, &self.registry, None) else {
            return Ok(());
        };
        let Ok(reference) = sweep(&circuit, &self.grid) else {
            return Ok(());
        };
        match axis {
            DiffAxis::Oracle => self.check_oracle(netlist, &circuit, &reference),
            DiffAxis::ConstantFold => self.check_constant_fold(&circuit, &reference),
            DiffAxis::Cache => self.check_cache(netlist),
            DiffAxis::Canonicalization => self.check_canonicalization(netlist, &reference),
            DiffAxis::Simd => self.check_simd(&circuit, &reference),
        }
    }

    fn check_oracle(
        &self,
        netlist: &Netlist,
        circuit: &Circuit,
        reference: &FrequencyResponse,
    ) -> Result<(), Disagreement> {
        let oracle = sweep_naive(circuit, &self.grid).map_err(|e| Disagreement {
            axis: DiffAxis::Oracle,
            max_diff: f64::INFINITY,
            detail: format!("the dense oracle failed where the planned solver succeeded: {e}"),
        })?;
        let mut planned = reference.clone();
        if let Some(perturbation) = &self.perturbation {
            perturbation(netlist, &mut planned);
        }
        close_enough(DiffAxis::Oracle, &oracle, &planned, ORACLE_TOL)
    }

    fn check_constant_fold(
        &self,
        circuit: &Circuit,
        reference: &FrequencyResponse,
    ) -> Result<(), Disagreement> {
        let failed = |detail: String| Disagreement {
            axis: DiffAxis::ConstantFold,
            max_diff: f64::INFINITY,
            detail,
        };
        let plan = SweepPlan::new(circuit).map_err(|e| failed(format!("planning failed: {e}")))?;
        let mut ws = plan.workspace();
        // Every sample is overwritten whole by its own per-point solve.
        let mut per_point = reference.clone();
        for (i, &wl) in self.grid.wavelengths().iter().enumerate() {
            let out = per_point.sample_mut(i).expect("one sample per grid point");
            plan.evaluate_into(&mut ws, wl, out).map_err(|e| {
                failed(format!(
                    "per-point evaluation failed where the sweep succeeded: {e}"
                ))
            })?;
        }
        bit_identical(DiffAxis::ConstantFold, &per_point, reference)
    }

    fn check_cache(&self, netlist: &Netlist) -> Result<(), Disagreement> {
        let problem = self.as_problem(netlist);
        let eval = |ev: &mut Evaluator| -> Result<Arc<FrequencyResponse>, Disagreement> {
            ev.candidate_response(&problem, netlist)
                .map_err(|issues| Disagreement {
                    axis: DiffAxis::Cache,
                    max_diff: f64::INFINITY,
                    detail: format!(
                        "evaluator rejected a circuit the direct sweep accepted: {issues:?}"
                    ),
                })
        };
        let mut cold = Evaluator::new(self.grid, SimdLevel::default());
        let cold_response = eval(&mut cold)?;
        let cache = Arc::new(EvalCache::new());
        let mut cached =
            Evaluator::new(self.grid, SimdLevel::default()).with_cache(Arc::clone(&cache));
        let miss_response = eval(&mut cached)?;
        let hit_response = eval(&mut cached)?;
        let stats = cache.stats();
        if stats.sim_hits == 0 {
            return Err(Disagreement {
                axis: DiffAxis::Cache,
                max_diff: f64::INFINITY,
                detail: format!("second evaluation did not hit the cache: {stats:?}"),
            });
        }
        bit_identical(DiffAxis::Cache, &cold_response, &miss_response)?;
        bit_identical(DiffAxis::Cache, &cold_response, &hit_response)
    }

    fn check_canonicalization(
        &self,
        netlist: &Netlist,
        reference: &FrequencyResponse,
    ) -> Result<(), Disagreement> {
        let canonical = netlist.canonicalize();
        // The evaluator pipeline simulates canonical forms: raw and
        // canonical documents must produce the same bits.
        let problem = self.as_problem(netlist);
        let mut ev = Evaluator::new(self.grid, SimdLevel::default());
        let via_raw = ev.candidate_response(&problem, netlist);
        let via_canonical = ev.candidate_response(&problem, &canonical);
        match (via_raw, via_canonical) {
            (Ok(a), Ok(b)) => bit_identical(DiffAxis::Canonicalization, &a, &b)?,
            (raw, canon) => {
                return Err(Disagreement {
                    axis: DiffAxis::Canonicalization,
                    max_diff: f64::INFINITY,
                    detail: format!(
                        "validity changed under canonicalization: raw ok = {}, canonical ok = {}",
                        raw.is_ok(),
                        canon.is_ok()
                    ),
                });
            }
        }
        // Simulated directly, the canonical form fixes a different port
        // numbering and block elimination order — physically a no-op.
        let Ok(canon_circuit) = Circuit::elaborate(&canonical, &self.registry, None) else {
            return Err(Disagreement {
                axis: DiffAxis::Canonicalization,
                max_diff: f64::INFINITY,
                detail: "canonical form failed to elaborate".to_string(),
            });
        };
        let direct = sweep(&canon_circuit, &self.grid).map_err(|e| Disagreement {
            axis: DiffAxis::Canonicalization,
            max_diff: f64::INFINITY,
            detail: format!("canonical form failed to sweep: {e}"),
        })?;
        // The canonical form may expose the same ports in sorted order;
        // compare entries by port name, not position.
        let diff = response_diff_by_name(reference, &direct);
        if diff <= ORACLE_TOL {
            Ok(())
        } else {
            Err(Disagreement {
                axis: DiffAxis::Canonicalization,
                max_diff: diff,
                detail: format!(
                    "direct simulation of the canonical form diverged beyond {:.1e}",
                    ORACLE_TOL
                ),
            })
        }
    }

    fn check_simd(
        &self,
        circuit: &Circuit,
        reference: &FrequencyResponse,
    ) -> Result<(), Disagreement> {
        // The reference ran on the default tier (AVX-512/AVX2/NEON where
        // detected; scalar under `PICBENCH_FORCE_SCALAR=1`, which makes
        // this comparison vacuously exact). The scalar-tier plan is its
        // own object, so the two never share kernels.
        let scalar = SweepPlan::new(circuit)
            .and_then(|plan| {
                let plan = plan.with_simd_level(SimdLevel::Scalar);
                sweep_with_plan(&plan, &self.grid, &mut SolveWorkspace::new())
            })
            .map_err(|e: SimError| Disagreement {
                axis: DiffAxis::Simd,
                max_diff: f64::INFINITY,
                detail: format!("scalar-tier sweep failed where the default tier succeeded: {e}"),
            })?;
        close_enough(DiffAxis::Simd, &scalar, reference, SIMD_TOL)
    }

    /// Wraps a netlist as a self-golden problem so it can flow through
    /// the evaluator pipeline (which is keyed by problem spec).
    fn as_problem(&self, netlist: &Netlist) -> Problem {
        let inputs = netlist
            .ports
            .iter()
            .filter(|(name, _)| name.starts_with('I'))
            .count();
        let outputs = netlist.ports.len() - inputs;
        Problem {
            id: format!("conformance-{:016x}", netlist.content_hash()),
            name: "conformance case".to_string(),
            category: Category::FundamentalDevice,
            description: String::new(),
            spec: PortSpec::new(inputs, outputs),
            golden: netlist.clone(),
        }
    }

    /// Greedily shrinks a disagreeing netlist to a minimal counterexample
    /// that still disagrees on the same axis (see
    /// [`shrink_netlist`]).
    pub fn shrink(&self, netlist: &Netlist, axis: DiffAxis) -> Netlist {
        shrink_netlist(netlist, &self.registry, |candidate| {
            self.check_axis(candidate, axis).is_err()
        })
    }
}

/// Exact comparison: the paths run the same arithmetic and must agree on
/// every bit (derived `PartialEq` over the sample matrices; no NaNs can
/// occur because non-finite sweeps error out).
fn bit_identical(
    axis: DiffAxis,
    reference: &FrequencyResponse,
    candidate: &FrequencyResponse,
) -> Result<(), Disagreement> {
    if reference == candidate {
        return Ok(());
    }
    Err(Disagreement {
        axis,
        max_diff: response_diff(reference, candidate),
        detail: "paths required to be bit-identical diverged".to_string(),
    })
}

/// Tolerance comparison for paths running genuinely different algorithms.
fn close_enough(
    axis: DiffAxis,
    reference: &FrequencyResponse,
    candidate: &FrequencyResponse,
    tol: f64,
) -> Result<(), Disagreement> {
    let diff = response_diff(reference, candidate);
    if diff <= tol {
        return Ok(());
    }
    Err(Disagreement {
        axis,
        max_diff: diff,
        detail: format!("entry-wise difference exceeds tolerance {tol:.1e}"),
    })
}

/// Largest complex entry-wise |ΔS| across the whole sweep (`INFINITY`
/// when ports or grids differ structurally).
pub fn response_diff(a: &FrequencyResponse, b: &FrequencyResponse) -> f64 {
    if a.ports() != b.ports() || a.wavelengths() != b.wavelengths() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for i in 0..a.wavelengths().len() {
        match (a.sample(i), b.sample(i)) {
            (Some(sa), Some(sb)) => worst = worst.max(sa.max_abs_diff(sb)),
            _ => return f64::INFINITY,
        }
    }
    worst
}

/// Largest |ΔS| across the sweep, matching entries by *port name* — for
/// responses that expose the same port set in different orders (e.g. a
/// raw document vs its canonical form). `INFINITY` when the port sets or
/// grids differ.
pub fn response_diff_by_name(a: &FrequencyResponse, b: &FrequencyResponse) -> f64 {
    if a.wavelengths() != b.wavelengths() || a.ports().len() != b.ports().len() {
        return f64::INFINITY;
    }
    let mut sorted_a: Vec<&String> = a.ports().iter().collect();
    let mut sorted_b: Vec<&String> = b.ports().iter().collect();
    sorted_a.sort();
    sorted_b.sort();
    if sorted_a != sorted_b {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for from in a.ports() {
        for to in a.ports() {
            let (Some(ta), Some(tb)) = (a.transmission(from, to), b.transmission(from, to)) else {
                return f64::INFINITY;
            };
            for (ca, cb) in ta.iter().zip(&tb) {
                worst = worst.max((*ca - *cb).abs());
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CircuitStrategy, Family};
    use proptest::strategy::Strategy;
    use proptest::TestRng;

    #[test]
    fn axis_tokens_round_trip() {
        for axis in DiffAxis::ALL {
            assert_eq!(axis.token().parse::<DiffAxis>().unwrap(), axis);
        }
        assert!("bogus".parse::<DiffAxis>().is_err());
    }

    #[test]
    fn generated_circuits_agree_on_every_axis() {
        let runner = DiffRunner::default();
        for family in Family::ALL {
            let strategy = CircuitStrategy::family(family);
            let mut rng = TestRng::new(2024);
            for case in 0..8 {
                let gen = strategy.generate(&mut rng);
                if let Err(d) = runner.check(&gen.netlist) {
                    panic!(
                        "{family} case {case} disagreed: {d}\n{}",
                        gen.netlist.to_json_string()
                    );
                }
            }
        }
    }

    /// A stand-in solver bug: corrupts the planned response of any circuit
    /// containing a phase shifter (conditioning on content keeps the
    /// trigger alive while everything unrelated shrinks away).
    fn phaseshifter_bug() -> Perturbation {
        use picbench_math::Complex;
        Arc::new(|netlist: &Netlist, response: &mut FrequencyResponse| {
            let triggered = netlist
                .instances
                .iter()
                .any(|(_, inst)| inst.component == "phaseshifter");
            if !triggered {
                return;
            }
            for i in 0..response.wavelengths().len() {
                if let Some(m) = response.sample_mut(i) {
                    if m.rows() > 0 {
                        m[(0, 0)] += Complex::real(1e-3);
                    }
                }
            }
        })
    }

    #[test]
    fn injected_perturbation_is_caught_and_shrunk_to_a_minimal_case() {
        let runner = DiffRunner::default()
            .with_axes([DiffAxis::Oracle])
            .with_perturbation(phaseshifter_bug());
        let gen = CircuitStrategy::family(Family::MziLattice).generate(&mut TestRng::new(3));
        let disagreement = runner
            .check(&gen.netlist)
            .expect_err("the injected bug must be caught");
        assert_eq!(disagreement.axis, DiffAxis::Oracle);
        assert!(disagreement.max_diff >= 1e-4, "{disagreement}");

        let shrunk = runner.shrink(&gen.netlist, DiffAxis::Oracle);
        assert!(
            runner.check(&shrunk).is_err(),
            "shrunk case no longer reproduces"
        );
        // Minimality: the bug triggers on any phase shifter, so the
        // shrunk circuit should be a single phase-shifter instance.
        assert_eq!(
            shrunk.instances.len(),
            1,
            "not minimal:\n{}",
            shrunk.to_json_string()
        );
        let (_, only) = shrunk.instances.iter().next().unwrap();
        assert_eq!(only.component, "phaseshifter");
        // An unperturbed runner accepts the shrunk case: the corpus entry
        // documents the bug, not broken physics.
        assert!(DiffRunner::default().check(&shrunk).is_ok());
    }
}
