//! Wavelength sweeps and frequency responses.
//!
//! Three sweep entry points:
//!
//! * [`sweep_with_plan`] — the one plan-level sweep: a prebuilt
//!   [`SweepPlan`] and a caller-owned [`SolveWorkspace`]. It runs the
//!   whole grid through [`SweepPlan::evaluate_stripe_into`], the one
//!   stripe loop, on the calling thread;
//! * [`sweep`] — plans a circuit and calls [`sweep_with_plan`] on a
//!   fresh workspace;
//! * [`sweep_naive`] — the independent dense oracle ([`crate::evaluate`])
//!   point by point: the cross-check reference and the benchmark
//!   baseline.
//!
//! All three return a [`FrequencyResponse`]: the external port list once
//! and one dense [`CMatrix`] per grid point, indexed in that port order
//! (the port map plus matrix stack SAX returns). The planned sweep moves
//! the matrices its stripes filled into the response as they are, and
//! the oracle sweep keeps each matrix its dense solve returned.

use crate::elaborate::Circuit;
use crate::oracle::{evaluate_matrix, SimError};
use crate::plan::{SolveWorkspace, SweepPlan};
use picbench_math::{CMatrix, Complex};
use std::fmt;

/// A uniform wavelength grid in micrometres.
///
/// The paper simulates "over the wavelength range of 1510 to 1590 nm";
/// [`WavelengthGrid::paper_default`] reproduces that with 81 points
/// (1 nm steps), and [`WavelengthGrid::paper_fast`] is a coarser grid for
/// Monte-Carlo campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WavelengthGrid {
    /// First wavelength (µm).
    pub start_um: f64,
    /// Last wavelength (µm).
    pub stop_um: f64,
    /// Number of points (≥ 1).
    pub points: usize,
}

impl WavelengthGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0` or `stop_um < start_um`.
    pub fn new(start_um: f64, stop_um: f64, points: usize) -> Self {
        assert!(points >= 1, "grid needs at least one point");
        assert!(stop_um >= start_um, "stop must not precede start");
        WavelengthGrid {
            start_um,
            stop_um,
            points,
        }
    }

    /// The paper's 1510–1590 nm range at 1 nm resolution.
    pub fn paper_default() -> Self {
        WavelengthGrid::new(1.51, 1.59, 81)
    }

    /// The same range at 5 nm resolution, for fast campaign scoring.
    pub fn paper_fast() -> Self {
        WavelengthGrid::new(1.51, 1.59, 17)
    }

    /// The wavelengths, evenly spaced inclusive of both ends.
    pub fn wavelengths(&self) -> Vec<f64> {
        if self.points == 1 {
            return vec![self.start_um];
        }
        let step = (self.stop_um - self.start_um) / (self.points - 1) as f64;
        (0..self.points)
            .map(|i| self.start_um + step * i as f64)
            .collect()
    }
}

/// The simulated frequency response of a circuit: one external port
/// list and one dense S-matrix per grid wavelength, each indexed in
/// [`FrequencyResponse::ports`] order.
///
/// Follows the S-matrix convention of [`picbench_sparams::SMatrix`]: the
/// transfer from port `from` to port `to` is the entry at row `to`,
/// column `from`. The derived `PartialEq` compares ports, grid and every
/// matrix bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyResponse {
    wavelengths: Vec<f64>,
    ports: Vec<String>,
    samples: Vec<CMatrix>,
}

impl FrequencyResponse {
    /// External port names.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// The wavelength grid points (µm).
    pub fn wavelengths(&self) -> &[f64] {
        &self.wavelengths
    }

    /// The S-matrix at grid index `i`, indexed in [`Self::ports`] order.
    pub fn sample(&self, i: usize) -> Option<&CMatrix> {
        self.samples.get(i)
    }

    /// Mutable access to the S-matrix at grid index `i` — the seam
    /// fault-injection harnesses use to perturb a computed response and
    /// prove the checks downstream would catch a solver bug, and that
    /// per-point cross-checks overwrite in place. The caller keeps the
    /// matrix square with dimension `ports().len()`.
    pub fn sample_mut(&mut self, i: usize) -> Option<&mut CMatrix> {
        self.samples.get_mut(i)
    }

    /// The complex transfer series from `from` to `to` across the sweep,
    /// or `None` if either port is unknown.
    pub fn transmission(&self, from: &str, to: &str) -> Option<Vec<Complex>> {
        let port = |name: &str| self.ports.iter().position(|p| p == name);
        let (f, t) = (port(from)?, port(to)?);
        Some(self.samples.iter().map(|m| m[(t, f)]).collect())
    }

    /// The power transmission (|S|²) series in dB.
    pub fn transmission_db(&self, from: &str, to: &str) -> Option<Vec<f64>> {
        Some(
            self.transmission(from, to)?
                .iter()
                .map(|t| picbench_math::power_ratio_to_db(t.norm_sqr()))
                .collect(),
        )
    }

    /// Compares two responses. See [`ResponseComparison`].
    pub fn compare(&self, other: &FrequencyResponse) -> ResponseComparison {
        if self.ports != other.ports {
            return ResponseComparison {
                ports_match: false,
                grids_match: self.wavelengths == other.wavelengths,
                max_power_diff: f64::INFINITY,
                rms_power_diff: f64::INFINITY,
            };
        }
        let grids_match = self.wavelengths == other.wavelengths;
        if !grids_match {
            return ResponseComparison {
                ports_match: true,
                grids_match: false,
                max_power_diff: f64::INFINITY,
                rms_power_diff: f64::INFINITY,
            };
        }
        let mut max_diff = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0usize;
        let n = self.ports.len();
        for (a, b) in self.samples.iter().zip(&other.samples) {
            for r in 0..n {
                for c in 0..n {
                    let pa = a[(r, c)].norm_sqr();
                    let pb = b[(r, c)].norm_sqr();
                    let d = (pa - pb).abs();
                    max_diff = max_diff.max(d);
                    sum_sq += d * d;
                    count += 1;
                }
            }
        }
        let rms = if count > 0 {
            (sum_sq / count as f64).sqrt()
        } else {
            0.0
        };
        ResponseComparison {
            ports_match: true,
            grids_match: true,
            max_power_diff: max_diff,
            rms_power_diff: rms,
        }
    }
}

/// The outcome of comparing two frequency responses.
///
/// The benchmark's functionality check compares the *power* response
/// (|S|²) of every external port pair across the sweep — the same
/// "compare the simulation results between generated code completions and
/// golden reference solutions" criterion the paper uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseComparison {
    /// Whether the external port name lists are identical.
    pub ports_match: bool,
    /// Whether the wavelength grids are identical.
    pub grids_match: bool,
    /// Largest |ΔS|² over all port pairs and wavelengths.
    pub max_power_diff: f64,
    /// Root-mean-square of the power differences.
    pub rms_power_diff: f64,
}

impl ResponseComparison {
    /// Whether the responses agree within `tol` (on the max power diff).
    pub fn is_equivalent(&self, tol: f64) -> bool {
        self.ports_match && self.grids_match && self.max_power_diff <= tol
    }
}

impl fmt::Display for ResponseComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ports_match {
            return write!(f, "external port lists differ");
        }
        if !self.grids_match {
            return write!(f, "wavelength grids differ");
        }
        write!(
            f,
            "max |ΔS|² = {:.3e}, rms = {:.3e}",
            self.max_power_diff, self.rms_power_diff
        )
    }
}

/// Sweeps a circuit over a wavelength grid: plans the circuit and runs
/// [`sweep_with_plan`] on a fresh workspace.
///
/// # Errors
///
/// Returns the [`SimError`] of the lowest-indexed failing grid point.
pub fn sweep(circuit: &Circuit, grid: &WavelengthGrid) -> Result<FrequencyResponse, SimError> {
    sweep_with_plan(&SweepPlan::new(circuit)?, grid, &mut SolveWorkspace::new())
}

/// The oracle sweep: the dense reference solve ([`crate::evaluate`]) rebuilt
/// from scratch at every grid point. Shares nothing with the planned
/// solver, so it is the independent cross-check of every plan-based
/// sweep — and the baseline benchmarks measure the planned solver
/// against.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered at any grid point.
pub fn sweep_naive(
    circuit: &Circuit,
    grid: &WavelengthGrid,
) -> Result<FrequencyResponse, SimError> {
    let wavelengths = grid.wavelengths();
    let samples = wavelengths
        .iter()
        .map(|&wl| evaluate_matrix(circuit, wl))
        .collect::<Result<_, _>>()?;
    Ok(FrequencyResponse {
        wavelengths,
        ports: circuit.external_names(),
        samples,
    })
}

/// Sweeps over a grid on a prebuilt [`SweepPlan`] — the one plan-level
/// sweep, used by [`sweep`] and by callers that reuse plans, schedules
/// and workspaces across many sweeps (the evaluation cache's miss path).
///
/// `ws` is re-targeted at the plan first ([`SweepPlan::reset_workspace`]),
/// so one workspace can serve any sequence of circuits without
/// reallocating once its buffers reach their high-water mark. The whole
/// grid then runs as one stripe through
/// [`SweepPlan::evaluate_stripe_into`] on the calling thread; the filled
/// output matrices become the response's samples without a copy.
/// Sweeps are serial: callers that want parallelism run several sweeps
/// at once, one workspace each.
///
/// # Errors
///
/// Returns the [`SimError`] of the lowest-indexed failing grid point.
pub fn sweep_with_plan(
    plan: &SweepPlan<'_>,
    grid: &WavelengthGrid,
    ws: &mut SolveWorkspace,
) -> Result<FrequencyResponse, SimError> {
    plan.reset_workspace(ws);
    let wavelengths = grid.wavelengths();
    let n_ext = plan.external_count();
    let mut samples: Vec<CMatrix> = (0..wavelengths.len())
        .map(|_| CMatrix::zeros(n_ext, n_ext))
        .collect();
    plan.evaluate_stripe_into(ws, &wavelengths, &mut samples)
        .map_err(|(_, error)| error)?;
    Ok(FrequencyResponse {
        wavelengths,
        ports: plan.circuit().external_names(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use picbench_netlist::NetlistBuilder;

    fn mzi_circuit(delta: f64) -> Circuit {
        let netlist = NetlistBuilder::new()
            .instance_with("m", "mzi", &[("delta_length", delta)])
            .port("I1", "m,I1")
            .port("O1", "m,O1")
            .model("mzi", "mzi")
            .build();
        Circuit::elaborate(&netlist, &ModelRegistry::with_builtins(), None).unwrap()
    }

    #[test]
    fn grid_generation() {
        let g = WavelengthGrid::new(1.0, 2.0, 5);
        assert_eq!(g.wavelengths(), vec![1.0, 1.25, 1.5, 1.75, 2.0]);
        let single = WavelengthGrid::new(1.55, 1.55, 1);
        assert_eq!(single.wavelengths(), vec![1.55]);
    }

    #[test]
    fn paper_grid_covers_cl_band() {
        let g = WavelengthGrid::paper_default();
        let wl = g.wavelengths();
        assert_eq!(wl.len(), 81);
        assert!((wl[0] - 1.51).abs() < 1e-12);
        assert!((wl[80] - 1.59).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_one_sample_per_point() {
        let c = mzi_circuit(10.0);
        let r = sweep(&c, &WavelengthGrid::paper_fast()).unwrap();
        assert_eq!(r.wavelengths().len(), 17);
        assert_eq!(r.ports(), &["I1".to_string(), "O1".to_string()]);
        assert!(r.sample(0).is_some());
        assert!(r.sample(17).is_none());
        assert_eq!(r.transmission("I1", "O1").unwrap().len(), 17);
    }

    #[test]
    fn identical_circuits_compare_equal() {
        let c1 = mzi_circuit(10.0);
        let c2 = mzi_circuit(10.0);
        let g = WavelengthGrid::paper_fast();
        let r1 = sweep(&c1, &g).unwrap();
        let r2 = sweep(&c2, &g).unwrap();
        let cmp = r1.compare(&r2);
        assert!(cmp.is_equivalent(1e-12), "{cmp}");
    }

    #[test]
    fn different_delta_lengths_differ() {
        let g = WavelengthGrid::paper_default();
        let r1 = sweep(&mzi_circuit(10.0), &g).unwrap();
        let r2 = sweep(&mzi_circuit(12.0), &g).unwrap();
        let cmp = r1.compare(&r2);
        assert!(!cmp.is_equivalent(1e-3), "{cmp}");
        assert!(cmp.max_power_diff > 0.01);
    }

    #[test]
    fn port_mismatch_is_never_equivalent() {
        let c1 = mzi_circuit(10.0);
        let netlist = NetlistBuilder::new()
            .instance("s", "mmi1x2")
            .port("I1", "s,I1")
            .port("O1", "s,O1")
            .port("O2", "s,O2")
            .model("mmi1x2", "mmi1x2")
            .build();
        let c2 = Circuit::elaborate(&netlist, &ModelRegistry::with_builtins(), None).unwrap();
        let g = WavelengthGrid::paper_fast();
        let r1 = sweep(&c1, &g).unwrap();
        let r2 = sweep(&c2, &g).unwrap();
        let cmp = r1.compare(&r2);
        assert!(!cmp.ports_match);
        assert!(!cmp.is_equivalent(1e9));
    }

    #[test]
    fn default_sweep_matches_oracle_sweep() {
        let c = mzi_circuit(10.0);
        let g = WavelengthGrid::paper_default();
        let planned = sweep(&c, &g).unwrap();
        let oracle = sweep_naive(&c, &g).unwrap();
        let cmp = planned.compare(&oracle);
        assert!(cmp.is_equivalent(1e-12), "{cmp}");
    }

    #[test]
    fn transmission_db_is_finite_for_passive_circuit() {
        let c = mzi_circuit(10.0);
        let r = sweep(&c, &WavelengthGrid::paper_fast()).unwrap();
        for db in r.transmission_db("I1", "O1").unwrap() {
            assert!(db <= 0.5, "passive circuit cannot have gain, got {db} dB");
        }
    }
}
