//! # picbench-sim
//!
//! The frequency-domain S-parameter circuit simulator of PICBench-rs —
//! the Rust stand-in for SAX, the "open-source simulator" the paper builds
//! its evaluation on.
//!
//! Pipeline: a JSON [`Netlist`] is validated and [`Circuit::elaborate`]d
//! against a [`ModelRegistry`], then [`sweep`]-simulated over a
//! [`WavelengthGrid`], yielding a [`FrequencyResponse`] that the
//! benchmark compares against golden designs.
//!
//! There is one production solver: a topology-aware **block-sparse**
//! scattering solve with a **plan/execute** split. A [`SweepPlan`]
//! freezes every wavelength-independent piece of the composition once
//! per circuit (block partition, fill-reducing symbolic factorization,
//! scatter recipes, memoized dispersionless component S-matrices, the
//! SIMD kernel tier), and per-point solves run allocation-free on
//! reusable [`SolveWorkspace`]s.
//!
//! There are three sweep entry points. [`sweep_with_plan`] is the one
//! plan-level sweep: it runs the whole grid through one stripe loop,
//! [`SweepPlan::evaluate_stripe_into`], on the caller's thread and
//! workspace. Sweeps are serial; parallelism lives a level up, where a
//! campaign runs several sweeps at once. [`sweep`] plans a circuit and
//! calls it on a fresh workspace. One independent oracle checks
//! them: the naive dense solve [`evaluate`], swept point by point by
//! [`sweep_naive`].
//!
//! Every sweep returns the same format, as SAX does: a
//! [`FrequencyResponse`] holds the external port list once and one dense
//! S-matrix per wavelength, indexed in that port order. The planned
//! sweep moves the matrices its stripes filled straight into the
//! response; nothing is copied or relabelled per point.
//!
//! ## Example
//!
//! ```
//! use picbench_netlist::NetlistBuilder;
//! use picbench_sim::{simulate_netlist, ModelRegistry, WavelengthGrid};
//!
//! let netlist = NetlistBuilder::new()
//!     .instance_with("m", "mzi", &[("delta_length", 10.0)])
//!     .port("I1", "m,I1")
//!     .port("O1", "m,O1")
//!     .model("mzi", "mzi")
//!     .build();
//! let registry = ModelRegistry::with_builtins();
//! let response = simulate_netlist(
//!     &netlist,
//!     &registry,
//!     None,
//!     &WavelengthGrid::paper_default(),
//! )?;
//! assert_eq!(response.wavelengths().len(), 81);
//! # Ok::<(), picbench_sim::SimulateError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod blocks;
mod elaborate;
mod oracle;
mod plan;
mod registry;
mod response;

pub use elaborate::{Circuit, ElabInstance, ElaborateError};
pub use oracle::{evaluate, SimError};
pub use plan::{ScheduleCache, SolveWorkspace, SweepPlan, SweepSchedule};
pub use registry::ModelRegistry;
pub use response::{
    sweep, sweep_naive, sweep_with_plan, FrequencyResponse, ResponseComparison, WavelengthGrid,
};

// Re-exported so downstream crates can name the netlist types this crate
// consumes without an extra dependency edge.
pub use picbench_netlist::{Netlist, PortSpec};

use std::error::Error;
use std::fmt;

/// Error from the end-to-end [`simulate_netlist`] convenience function.
#[derive(Debug)]
pub enum SimulateError {
    /// The netlist failed structural validation.
    Elaborate(ElaborateError),
    /// The simulation failed at some wavelength.
    Sim(SimError),
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::Elaborate(e) => write!(f, "{e}"),
            SimulateError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SimulateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimulateError::Elaborate(e) => Some(e),
            SimulateError::Sim(e) => Some(e),
        }
    }
}

impl From<ElaborateError> for SimulateError {
    fn from(e: ElaborateError) -> Self {
        SimulateError::Elaborate(e)
    }
}

impl From<SimError> for SimulateError {
    fn from(e: SimError) -> Self {
        SimulateError::Sim(e)
    }
}

/// Validates, elaborates and sweeps a netlist in one call.
///
/// # Errors
///
/// Returns [`SimulateError::Elaborate`] with all validation issues, or
/// [`SimulateError::Sim`] when a grid point fails to evaluate.
pub fn simulate_netlist(
    netlist: &Netlist,
    registry: &ModelRegistry,
    spec: Option<&PortSpec>,
    grid: &WavelengthGrid,
) -> Result<FrequencyResponse, SimulateError> {
    let circuit = Circuit::elaborate(netlist, registry, spec)?;
    Ok(sweep(&circuit, grid)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::NetlistBuilder;

    #[test]
    fn end_to_end_simulation() {
        let netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 100.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let registry = ModelRegistry::with_builtins();
        let r = simulate_netlist(
            &netlist,
            &registry,
            Some(&PortSpec::new(1, 1)),
            &WavelengthGrid::paper_fast(),
        )
        .unwrap();
        // 100 µm at 2 dB/cm = 0.02 dB loss.
        let db = r.transmission_db("I1", "O1").unwrap();
        assert!(db.iter().all(|&d| (d + 0.02).abs() < 1e-6));
    }

    #[test]
    fn validation_error_propagates() {
        let netlist = NetlistBuilder::new()
            .instance("wg", "warpdrive")
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("warpdrive", "warpdrive")
            .build();
        let registry = ModelRegistry::with_builtins();
        let err =
            simulate_netlist(&netlist, &registry, None, &WavelengthGrid::paper_fast()).unwrap_err();
        assert!(matches!(err, SimulateError::Elaborate(_)));
        assert!(err.to_string().contains("warpdrive"));
    }
}
