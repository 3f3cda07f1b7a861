//! Optical-computing golden designs: Clements/Reck MZI meshes, the
//! non-linear-sign gate and the 2×2 U-matrix block.

use crate::wiring::WireBus;
use picbench_math::{decomp, CMatrix, MeshDecomposition, MeshScheme};
use picbench_netlist::{Netlist, NetlistBuilder};

/// Builds a netlist realizing a mesh decomposition with `mzi2x2` blocks
/// and output `phaseshifter`s.
///
/// Block `k` (in application order) becomes instance `mzi{k+1}`; output
/// phases become `ophase{w+1}` (zero-length phase shifters, so the phase
/// is exact). The resulting circuit's external S-matrix equals the
/// decomposed unitary to numerical precision.
pub fn mesh_netlist(mesh: &MeshDecomposition) -> Netlist {
    let n = mesh.size;
    let mut b = NetlistBuilder::new();
    let mut bus = WireBus::new(n);

    for (k, f) in mesh.factors.iter().enumerate() {
        let name = format!("mzi{}", k + 1);
        b.instance_with(&name, "mzi2x2", &[("theta", f.theta), ("phi", f.phi)]);
        bus.feed(&mut b, f.mode, &format!("{name},I1"));
        bus.feed(&mut b, f.mode + 1, &format!("{name},I2"));
        bus.drive(f.mode, &format!("{name},O1"));
        bus.drive(f.mode + 1, &format!("{name},O2"));
    }

    for (w, phase) in mesh.output_phases.iter().enumerate() {
        let name = format!("ophase{}", w + 1);
        b.instance_with(
            &name,
            "phaseshifter",
            &[("length", 0.0), ("phase", phase.arg())],
        );
        bus.through(&mut b, w, &format!("{name},I1"), &format!("{name},O1"));
    }

    bus.expose_standard_ports(&mut b);
    b.model("mzi2x2", "mzi2x2");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

/// The deterministic target unitary used by the mesh goldens: the N-point
/// DFT, a maximally mixing "arbitrary" unitary that is the conventional
/// demonstration target for programmable meshes.
pub fn mesh_target(n: usize) -> CMatrix {
    decomp::dft_matrix(n)
}

/// Golden design for the `Clements N×N` / `Reck N×N` problems.
///
/// # Panics
///
/// Panics if `n < 2` (the decomposition of the DFT target cannot fail for
/// valid sizes).
pub fn mesh_golden(n: usize, scheme: MeshScheme) -> Netlist {
    let target = mesh_target(n);
    let mesh = decomp::decompose(&target, scheme)
        .expect("DFT matrix is unitary; decomposition cannot fail");
    mesh_netlist(&mesh)
}

/// Golden design for the `U-matrix block` problem: a single calibrated
/// 2×2 MZI block plus output phases realizing a fixed "arbitrary" 2×2
/// unitary.
pub fn umatrix_golden() -> Netlist {
    // A fixed, non-trivial 2×2 unitary: θ = 0.93, φ = 0.37 with output
    // phases (0.25, −0.60). Any values work; these make every parameter
    // non-default so functional checks are sharp.
    let mut b = NetlistBuilder::new();
    b.instance_with("ublock", "mzi2x2", &[("theta", 0.93), ("phi", 0.37)]);
    b.instance_with(
        "ophase1",
        "phaseshifter",
        &[("length", 0.0), ("phase", 0.25)],
    );
    b.instance_with(
        "ophase2",
        "phaseshifter",
        &[("length", 0.0), ("phase", -0.60)],
    );
    b.connect("ublock,O1", "ophase1,I1");
    b.connect("ublock,O2", "ophase2,I1");
    b.port("I1", "ublock,I1");
    b.port("I2", "ublock,I2");
    b.port("O1", "ophase1,O1");
    b.port("O2", "ophase2,O1");
    b.model("mzi2x2", "mzi2x2");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

/// Golden design for the `NLS` (non-linear sign) gate: the KLM three-mode
/// beam-splitter network with one signal channel (I1/O1) and two ancilla
/// channels.
///
/// Beam-splitter strengths follow the Knill-Laflamme-Milburn construction
/// expressed in this library's coupler convention (`coupling` = cross-port
/// power): the signal/ancilla splitter keeps bar amplitude `√2 − 1` (so
/// its cross coupling is `2√2 − 2 ≈ 0.828`), and the two ancilla
/// splitters use coupling `1/(4 − 2√2) ≈ 0.854`, with a π phase on the
/// signal arm providing the sign flip.
pub fn nls_golden() -> Netlist {
    let sqrt2 = std::f64::consts::SQRT_2;
    let r13 = 1.0 / (4.0 - 2.0 * sqrt2);
    let r2 = 2.0 * sqrt2 - 2.0;

    let mut b = NetlistBuilder::new();
    b.instance_with("bsa", "coupler", &[("coupling", r13)]);
    b.instance_with("bsb", "coupler", &[("coupling", r2)]);
    b.instance_with("bsc", "coupler", &[("coupling", r13)]);
    b.instance_with(
        "psflip",
        "phaseshifter",
        &[("length", 0.0), ("phase", std::f64::consts::PI)],
    );

    // Mode layout: wire 0 = signal, wires 1-2 = ancillas.
    // Stage 1: bsa mixes ancilla wires 1,2.
    // Stage 2: psflip then bsb mixes signal wire 0 with wire 1.
    // Stage 3: bsc mixes wires 1,2 again.
    b.connect("psflip,O1", "bsb,I1");
    b.connect("bsa,O1", "bsb,I2");
    b.connect("bsb,O2", "bsc,I1");

    b.port("I1", "psflip,I1");
    b.port("I2", "bsa,I1");
    b.port("I3", "bsa,I2");
    b.port("O1", "bsb,O1");
    b.port("O2", "bsc,O1");
    b.port("O3", "bsc,O2");

    // bsa,O2 → bsc,I2 closes the ancilla path.
    b.connect("bsa,O2", "bsc,I2");

    b.model("coupler", "coupler");
    b.model("phaseshifter", "phaseshifter");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_sim::{evaluate, Circuit, ModelRegistry};

    fn external_matrix(netlist: &Netlist, n_in: usize, wl: f64) -> CMatrix {
        let registry = ModelRegistry::with_builtins();
        let circuit = Circuit::elaborate(netlist, &registry, None).unwrap();
        let s = evaluate(&circuit, wl).unwrap();
        CMatrix::from_fn(n_in, n_in, |r, c| {
            s.s(&format!("I{}", c + 1), &format!("O{}", r + 1)).unwrap()
        })
    }

    #[test]
    fn clements_mesh_realizes_dft_4() {
        let golden = mesh_golden(4, MeshScheme::Clements);
        let m = external_matrix(&golden, 4, 1.55);
        let err = m.max_abs_diff(&mesh_target(4));
        assert!(err < 1e-9, "mesh does not realize the DFT: {err:.2e}");
    }

    #[test]
    fn reck_mesh_realizes_dft_4() {
        let golden = mesh_golden(4, MeshScheme::Reck);
        let m = external_matrix(&golden, 4, 1.55);
        assert!(m.max_abs_diff(&mesh_target(4)) < 1e-9);
    }

    #[test]
    fn mesh_8x8_has_28_blocks() {
        for scheme in [MeshScheme::Clements, MeshScheme::Reck] {
            let golden = mesh_golden(8, scheme);
            let mzis = golden
                .instances
                .iter()
                .filter(|(_, inst)| inst.component == "mzi2x2")
                .count();
            assert_eq!(mzis, 28, "{scheme}");
            // Plus 8 output phase shifters.
            assert_eq!(golden.instances.len(), 36, "{scheme}");
        }
    }

    #[test]
    fn mesh_8x8_realizes_dft_8() {
        let golden = mesh_golden(8, MeshScheme::Clements);
        let m = external_matrix(&golden, 8, 1.55);
        assert!(m.max_abs_diff(&mesh_target(8)) < 1e-8);
    }

    #[test]
    fn mesh_is_wavelength_flat() {
        // mzi2x2 blocks are idealized (calibrated), so the mesh transfer
        // must not depend on wavelength.
        let golden = mesh_golden(4, MeshScheme::Clements);
        let a = external_matrix(&golden, 4, 1.51);
        let b = external_matrix(&golden, 4, 1.59);
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn umatrix_block_is_unitary() {
        let golden = umatrix_golden();
        let m = external_matrix(&golden, 2, 1.55);
        assert!(m.is_unitary(1e-9));
        // Must be non-trivial (not the identity).
        assert!(m.max_abs_diff(&CMatrix::identity(2)) > 0.3);
    }

    #[test]
    fn nls_gate_is_lossless_three_mode() {
        let golden = nls_golden();
        let m = external_matrix(&golden, 3, 1.55);
        assert!(m.is_unitary(1e-9), "NLS network must be unitary");
        // The KLM signal-signal amplitude is 1 − √2 ≈ −0.414 up to the
        // network's phase conventions.
        let s11 = m[(0, 0)].abs();
        assert!(
            (s11 - (std::f64::consts::SQRT_2 - 1.0)).abs() < 1e-6,
            "signal amplitude should be √2−1, got {s11}"
        );
    }

    #[test]
    fn mesh_netlists_have_no_underscores() {
        let golden = mesh_golden(8, MeshScheme::Clements);
        for (name, _) in golden.instances.iter() {
            assert!(!name.contains('_'));
        }
    }
}
