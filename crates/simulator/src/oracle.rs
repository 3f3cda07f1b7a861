//! The independent reference solve, and the simulator's error type.
//!
//! Production sweeps run the planned block-sparse solver
//! ([`crate::SweepPlan`]). [`evaluate`] is the one independent oracle
//! they are checked against: it rebuilds the circuit's global S-matrix
//! from scratch at a single wavelength and solves the dense scattering
//! system
//!
//! ```text
//! S_ext = S_ee + S_ei (I − P·S_ii)⁻¹ P·S_ie
//! ```
//!
//! (`P` swaps connected port pairs) with the in-repo complex LU. It
//! shares no structure, ordering or kernels with the planned solver, so
//! agreement between the two (to ~1e-12 on every benchmark golden
//! design) cross-checks the physics. Tests and the conformance harness
//! use it; nothing on the campaign path does.

use crate::elaborate::Circuit;
use picbench_math::{CMatrix, LuDecomposition};
use picbench_sparams::{ModelError, SMatrix};
use std::error::Error;
use std::fmt;

/// Error while evaluating a circuit at a wavelength.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A component model rejected its settings or the wavelength.
    Model {
        /// Instance whose model failed.
        instance: String,
        /// The underlying model error.
        source: ModelError,
    },
    /// The global scattering system is singular (a lossless resonant loop
    /// at exactly this wavelength).
    SingularSystem {
        /// Wavelength at which the solve failed.
        wavelength_um: f64,
    },
    /// The computed response contains non-finite values.
    NonFiniteResult {
        /// Wavelength at which it happened.
        wavelength_um: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model { instance, source } => {
                write!(f, "instance '{instance}': {source}")
            }
            SimError::SingularSystem { wavelength_um } => write!(
                f,
                "scattering system is singular at {wavelength_um} um (undamped resonant loop)"
            ),
            SimError::NonFiniteResult { wavelength_um } => {
                write!(f, "non-finite S-parameters at {wavelength_um} um")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Evaluates every instance model and assembles the block-diagonal global
/// S-matrix.
fn assemble_global(circuit: &Circuit, wavelength_um: f64) -> Result<CMatrix, SimError> {
    let mut global = CMatrix::zeros(circuit.total_ports, circuit.total_ports);
    for inst in &circuit.instances {
        let s = inst
            .model
            .s_matrix(wavelength_um, &inst.settings)
            .map_err(|source| SimError::Model {
                instance: inst.name.clone(),
                source,
            })?;
        let n = s.dim();
        let m = s.matrix();
        for r in 0..n {
            for c in 0..n {
                global[(inst.port_offset + r, inst.port_offset + c)] = m[(r, c)];
            }
        }
    }
    Ok(global)
}

/// Evaluates the circuit's external S-matrix at one wavelength with the
/// naive dense oracle (see the module docs).
///
/// # Errors
///
/// Returns [`SimError`] when a model fails, the system is singular, or the
/// result is non-finite.
pub fn evaluate(circuit: &Circuit, wavelength_um: f64) -> Result<SMatrix, SimError> {
    let m = evaluate_matrix(circuit, wavelength_um)?;
    Ok(SMatrix::from_matrix(circuit.external_names(), m))
}

/// [`evaluate`] without the port labels: the external S-matrix indexed
/// in [`Circuit::external_names`] order, as [`crate::sweep_naive`] stores it.
pub(crate) fn evaluate_matrix(circuit: &Circuit, wavelength_um: f64) -> Result<CMatrix, SimError> {
    let result = evaluate_dense(circuit, wavelength_um)?;
    if !result.is_finite() {
        return Err(SimError::NonFiniteResult { wavelength_um });
    }
    Ok(result)
}

fn evaluate_dense(circuit: &Circuit, wavelength_um: f64) -> Result<CMatrix, SimError> {
    let global = assemble_global(circuit, wavelength_um)?;

    // Partition global ports: external vs. internal (connected).
    let ext_idx: Vec<usize> = circuit.externals.iter().map(|(_, i)| *i).collect();
    let mut int_idx: Vec<usize> = Vec::with_capacity(circuit.connections.len() * 2);
    for &(a, b) in &circuit.connections {
        int_idx.push(a);
        int_idx.push(b);
    }
    // Position of each internal port inside int_idx, for the permutation.
    let mut pos_of = std::collections::HashMap::new();
    for (pos, &g) in int_idx.iter().enumerate() {
        pos_of.insert(g, pos);
    }
    // swap[p] = the position of the port connected to int_idx[p].
    let mut swap = vec![0usize; int_idx.len()];
    for &(a, b) in &circuit.connections {
        let pa = pos_of[&a];
        let pb = pos_of[&b];
        swap[pa] = pb;
        swap[pb] = pa;
    }

    let s_ee = global.submatrix(&ext_idx, &ext_idx);
    let s_ei = global.submatrix(&ext_idx, &int_idx);
    let s_ie = global.submatrix(&int_idx, &ext_idx);
    let s_ii = global.submatrix(&int_idx, &int_idx);

    if int_idx.is_empty() {
        return Ok(s_ee);
    }

    // P·M permutes rows: (P·M)[r] = M[swap(r)].
    let permute_rows =
        |m: &CMatrix| -> CMatrix { CMatrix::from_fn(m.rows(), m.cols(), |r, c| m[(swap[r], c)]) };
    let p_s_ii = permute_rows(&s_ii);
    let p_s_ie = permute_rows(&s_ie);

    let n_int = int_idx.len();
    let system = &CMatrix::identity(n_int) - &p_s_ii;
    let lu =
        LuDecomposition::factor(&system).map_err(|_| SimError::SingularSystem { wavelength_um })?;
    let x = lu.solve_matrix(&p_s_ie);
    Ok(&s_ee + &(&s_ei * &x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::Circuit;
    use crate::registry::ModelRegistry;
    use picbench_netlist::{Netlist, NetlistBuilder};

    fn elaborate(netlist: &Netlist) -> Circuit {
        let registry = ModelRegistry::with_builtins();
        Circuit::elaborate(netlist, &registry, None).unwrap()
    }

    fn two_waveguide_chain(lengths: (f64, f64)) -> Netlist {
        NetlistBuilder::new()
            .instance_with("wg1", "waveguide", &[("length", lengths.0), ("loss", 0.0)])
            .instance_with("wg2", "waveguide", &[("length", lengths.1), ("loss", 0.0)])
            .connect("wg1,O1", "wg2,I1")
            .port("I1", "wg1,I1")
            .port("O1", "wg2,O1")
            .model("waveguide", "waveguide")
            .build()
    }

    #[test]
    fn cascade_multiplies_transfers() {
        let circuit = elaborate(&two_waveguide_chain((7.0, 13.0)));
        let single = elaborate(
            &NetlistBuilder::new()
                .instance_with("wg", "waveguide", &[("length", 20.0), ("loss", 0.0)])
                .port("I1", "wg,I1")
                .port("O1", "wg,O1")
                .model("waveguide", "waveguide")
                .build(),
        );
        let chained = evaluate(&circuit, 1.55).unwrap();
        let direct = evaluate(&single, 1.55).unwrap();
        let a = chained.s("I1", "O1").unwrap();
        let b = direct.s("I1", "O1").unwrap();
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn mzi_circuit_matches_builtin_mzi_model() {
        // The discrete MZI (above, ΔL = 15) must match the built-in `mzi`
        // model with the same ΔL and base length.
        let discrete = NetlistBuilder::new()
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
        let builtin = NetlistBuilder::new()
            .instance_with("m", "mzi", &[("length", 10.0), ("delta_length", 15.0)])
            .port("I1", "m,I1")
            .port("O1", "m,O1")
            .model("mzi", "mzi")
            .build();
        let c1 = elaborate(&discrete);
        let c2 = elaborate(&builtin);
        for wl in [1.51, 1.53, 1.55, 1.57, 1.59] {
            let t1 = evaluate(&c1, wl).unwrap().s("I1", "O1").unwrap();
            let t2 = evaluate(&c2, wl).unwrap().s("I1", "O1").unwrap();
            assert!((t1 - t2).abs() < 1e-10, "wl={wl}: {t1} vs {t2}");
        }
    }

    #[test]
    fn open_internal_ports_absorb() {
        // A 1x2 splitter with one leg unconnected: half the power leaves
        // through the open leg and never returns.
        let netlist = NetlistBuilder::new()
            .instance("split", "mmi1x2")
            .port("I1", "split,I1")
            .port("O1", "split,O1")
            .model("mmi1x2", "mmi1x2")
            .build();
        let circuit = elaborate(&netlist);
        let s = evaluate(&circuit, 1.55).unwrap();
        assert!((s.s("I1", "O1").unwrap().norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_connections_circuit() {
        let netlist = NetlistBuilder::new()
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .port("I1", "wg,I1")
            .port("O1", "wg,O1")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);
        let s = evaluate(&circuit, 1.55).unwrap();
        assert!(s.s("I1", "O1").unwrap().abs() > 0.99);
    }

    #[test]
    fn model_error_carries_instance_name() {
        let netlist = NetlistBuilder::new()
            .instance_with("badcoupler", "coupler", &[("coupling", 2.0)])
            .port("I1", "badcoupler,I1")
            .port("O1", "badcoupler,O1")
            .model("coupler", "coupler")
            .build();
        let circuit = elaborate(&netlist);
        let err = evaluate(&circuit, 1.55).unwrap_err();
        match &err {
            SimError::Model { instance, .. } => assert_eq!(instance, "badcoupler"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("badcoupler"));
    }

    #[test]
    fn ring_from_parts_matches_allpass_model() {
        // Build an all-pass ring discretely: a coupler whose cross ports
        // are joined by a waveguide loop of the ring circumference.
        let radius: f64 = 5.0;
        let circumference = 2.0 * std::f64::consts::PI * radius;
        let kappa = 0.1;
        let netlist = NetlistBuilder::new()
            .instance_with("dc", "coupler", &[("coupling", kappa)])
            .instance_with("loop", "waveguide", &[("length", circumference)])
            .connect("dc,O2", "loop,I1")
            .connect("loop,O1", "dc,I2")
            .port("I1", "dc,I1")
            .port("O1", "dc,O1")
            .model("coupler", "coupler")
            .model("waveguide", "waveguide")
            .build();
        let circuit = elaborate(&netlist);

        let registry = ModelRegistry::with_builtins();
        let ring = registry.get("ringap").unwrap();
        let mut settings = picbench_sparams::Settings::new();
        settings.insert("radius", radius);
        settings.insert("coupling", kappa);

        for wl in [1.52, 1.54, 1.551, 1.56, 1.58] {
            let builtin = ring.s_matrix(wl, &settings).unwrap();
            let discrete = evaluate(&circuit, wl).unwrap();
            let a = discrete.s("I1", "O1").unwrap();
            let b = builtin.s("I1", "O1").unwrap();
            assert!((a.abs() - b.abs()).abs() < 1e-6, "wl={wl}: |{a}| vs |{b}|");
        }
    }
}
