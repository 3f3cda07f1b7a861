//! # picbench-problems
//!
//! The 24 PIC design problems of PICBench (Table I of the paper), each
//! with a natural-language description (Fig. 2 style), an expected
//! external-port specification and an expert golden design built
//! programmatically and verified by simulation.
//!
//! Categories (Table I): 6 optical-computing circuits, 7 optical
//! interconnects, 9 optical switches and 2 fundamental devices.
//!
//! ## Example
//!
//! ```
//! use picbench_problems::{suite, Category};
//!
//! let problems = suite();
//! assert_eq!(problems.len(), 24);
//! let switches = problems
//!     .iter()
//!     .filter(|p| p.category == Category::OpticalSwitch)
//!     .count();
//! assert_eq!(switches, 9);
//! ```

#![warn(missing_docs)]

pub mod fundamental;
pub mod interconnect;
pub mod meshes;
mod registry;
pub mod routing;
pub mod serde;
pub mod switches;
pub mod wiring;

pub use serde::{problems_from_json, problems_to_json, ProblemDecodeError};

use picbench_math::MeshScheme;
use picbench_netlist::{Netlist, PortSpec};
use std::fmt;

/// The four problem categories of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// MZI meshes, the NLS gate, the U-matrix block.
    OpticalComputing,
    /// Modulators, WDM mux/demux, the 90° hybrid.
    OpticalInterconnect,
    /// Switch fabrics.
    OpticalSwitch,
    /// Foundational multi-component devices.
    FundamentalDevice,
}

impl Category {
    /// All categories in Table I order.
    pub const ALL: [Category; 4] = [
        Category::OpticalComputing,
        Category::OpticalInterconnect,
        Category::OpticalSwitch,
        Category::FundamentalDevice,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::OpticalComputing => write!(f, "Optical Computing"),
            Category::OpticalInterconnect => write!(f, "Optical Interconnects"),
            Category::OpticalSwitch => write!(f, "Optical Switch"),
            Category::FundamentalDevice => write!(f, "Fundamental Devices"),
        }
    }
}

/// One benchmark problem: description, expected ports, golden design.
///
/// Problems are plain data: the built-in Table I suite is constructed in
/// code, and custom problem sets are loaded from JSON
/// ([`problems_from_json`]) by whoever serves them.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Stable identifier, e.g. `"mzi-ps"`.
    pub id: String,
    /// Display name as in Table I, e.g. `"MZI ps"`.
    pub name: String,
    /// Table I category.
    pub category: Category,
    /// The natural-language design brief handed to the language model.
    pub description: String,
    /// Required external ports.
    pub spec: PortSpec,
    /// The expert golden design.
    pub golden: Netlist,
}

impl Problem {
    /// Number of component instances in the golden design — the
    /// difficulty proxy used by the synthetic language models.
    pub fn golden_instance_count(&self) -> usize {
        self.golden.instances.len()
    }
}

fn mesh_description(n: usize, scheme: MeshScheme) -> String {
    format!(
        "Create a {n} x {n} programmable MZI mesh arranged using the {scheme} method. \
         Use the built-in calibrated 2x2 MZI blocks (mzi2x2) as the unit cells, wiring \
         them over {n} parallel waveguide modes in the {scheme} arrangement, and append \
         one zero-length phase shifter per output mode to set the output phases. The mesh \
         must realize the {n}-point discrete Fourier transform unitary.\n\
         Parameters:\n  modes = {n};\n  unit cell = mzi2x2 (theta, phi);\n  \
         target unitary = DFT({n})"
    )
}

fn problem(
    id: &'static str,
    name: &'static str,
    category: Category,
    description: String,
    spec: PortSpec,
    golden: Netlist,
) -> Problem {
    Problem {
        id: id.to_string(),
        name: name.to_string(),
        category,
        description,
        spec,
        golden,
    }
}

/// Constructs the full 24-problem benchmark suite in Table I order.
///
/// This is the expensive rebuild-the-world path; [`suite`] and [`find`]
/// serve clones out of the built-once table instead of calling this per
/// lookup.
pub(crate) fn build_builtin_suite() -> Vec<Problem> {
    let mut problems = Vec::with_capacity(24);

    // --- Optical computing -------------------------------------------
    for (id, name, n) in [
        ("clements-4x4", "Clements 4x4", 4usize),
        ("clements-8x8", "Clements 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalComputing,
            mesh_description(n, MeshScheme::Clements),
            PortSpec::new(n, n),
            meshes::mesh_golden(n, MeshScheme::Clements),
        ));
    }
    for (id, name, n) in [
        ("reck-4x4", "Reck 4x4", 4usize),
        ("reck-8x8", "Reck 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalComputing,
            mesh_description(n, MeshScheme::Reck),
            PortSpec::new(n, n),
            meshes::mesh_golden(n, MeshScheme::Reck),
        ));
    }
    problems.push(problem(
        "nls",
        "NLS",
        Category::OpticalComputing,
        "Create a Non-Linear Sign (NLS) gate with a signal channel and two additional \
         ancilla channels, following the Knill-Laflamme-Milburn construction. Use \
         built-in directional couplers as the beam splitters: one coupler mixing the \
         signal with the first ancilla whose bar amplitude is sqrt(2)-1 (coupling \
         2*sqrt(2)-2), two couplers on the ancilla pair with coupling 1/(4-2*sqrt(2)), \
         and a zero-length phase shifter providing a pi phase flip on the signal arm.\n\
         Parameters:\n  channels = 3 (I1/O1 signal, I2-I3/O2-O3 ancillas);\n  \
         signal coupler coupling = 0.8284;\n  ancilla coupler coupling = 0.8536;\n  \
         signal phase = pi"
            .to_string(),
        PortSpec::new(3, 3),
        meshes::nls_golden(),
    ));
    problems.push(problem(
        "umatrix",
        "U-matrix block",
        Category::OpticalComputing,
        "Create a fundamental block representing a 2x2 unitary matrix of arbitrary \
         values. Use one built-in calibrated 2x2 MZI block (mzi2x2) with theta = 0.93 \
         and phi = 0.37, followed by one zero-length phase shifter per output arm with \
         phases 0.25 and -0.60 respectively.\n\
         Parameters:\n  theta = 0.93 rad;\n  phi = 0.37 rad;\n  \
         output phases = [0.25, -0.60] rad"
            .to_string(),
        PortSpec::new(2, 2),
        meshes::umatrix_golden(),
    ));

    // --- Optical interconnects ---------------------------------------
    problems.push(problem(
        "direct-modulator",
        "Direct modulator",
        Category::OpticalInterconnect,
        "Create an optical direct (intensity) modulator: an input access waveguide, a \
         built-in Mach-Zehnder modulator (mzm) biased at quadrature by driving the top \
         arm with a pi/2 phase, and an output access waveguide.\n\
         Parameters:\n  access waveguide length = 10 microns;\n  \
         mzm phase_top = pi/2"
            .to_string(),
        PortSpec::new(1, 1),
        interconnect::direct_modulator_golden(),
    ));
    problems.push(problem(
        "qpsk-modulator",
        "QPSK modulator",
        Category::OpticalInterconnect,
        "Create an optical QPSK modulator as an IQ stage: split the input with a 1x2 \
         MMI, place one push-pull built-in Mach-Zehnder modulator (mzm, phases \
         +pi/4/-pi/4) on each branch, shift the Q branch by 90 degrees with a \
         zero-length phase shifter, and recombine with a reversed 1x2 MMI.\n\
         Parameters:\n  mzm bias = +pi/4 / -pi/4 push-pull;\n  Q-branch phase = pi/2"
            .to_string(),
        PortSpec::new(1, 1),
        interconnect::qpsk_modulator_golden(),
    ));
    problems.push(problem(
        "qam8-modulator",
        "8-QAM modulator",
        Category::OpticalInterconnect,
        "Create an optical 8-QAM modulator: split the input asymmetrically (2/3 of the \
         power) into a QPSK IQ stage and an amplitude branch consisting of one push-pull \
         mzm followed by a 6.02 dB attenuator, then combine the two branches with a \
         reversed 1x2 MMI.\n\
         Parameters:\n  input split ratio = 2/3;\n  amplitude branch attenuation = \
         6.0206 dB;\n  mzm bias = +pi/4 / -pi/4 push-pull"
            .to_string(),
        PortSpec::new(1, 1),
        interconnect::qam8_modulator_golden(),
    ));
    problems.push(problem(
        "qam64-modulator",
        "64-QAM modulator",
        Category::OpticalInterconnect,
        "Create an optical 64-QAM modulator from three binary-weighted QPSK IQ stages: \
         fan the input out with two splitters, run each branch through its own IQ stage \
         (1x2 MMI, two push-pull mzms, 90-degree phase shifter, reversed 1x2 MMI \
         combiner), weight the stages with 0 dB, 6.02 dB and 12.04 dB attenuators, and \
         recombine through a tree of reversed 1x2 MMIs.\n\
         Parameters:\n  stage weights = 0 / 6.0206 / 12.0412 dB;\n  \
         mzm bias = +pi/4 / -pi/4 push-pull;\n  Q-branch phase = pi/2"
            .to_string(),
        PortSpec::new(1, 1),
        interconnect::qam64_modulator_golden(),
    ));
    problems.push(problem(
        "wdm-mux",
        "WDM mux",
        Category::OpticalInterconnect,
        "Create a 4-channel WDM multiplexer using built-in add-drop microrings \
         (ringad). Chain the four ring through-ports into a common bus ending at the \
         single output; feed each channel into its ring's add port. Tune each ring \
         radius so its azimuthal order-10 resonance sits on its channel: channels at \
         1.52, 1.54, 1.56 and 1.58 microns, couplings 0.05 on both buses.\n\
         Parameters:\n  channels = [1.52, 1.54, 1.56, 1.58] microns;\n  \
         coupling1 = coupling2 = 0.05;\n  azimuthal order m = 10"
            .to_string(),
        PortSpec::new(4, 1),
        interconnect::wdm_mux_golden(),
    ));
    problems.push(problem(
        "wdm-demux",
        "WDM demux",
        Category::OpticalInterconnect,
        "Create a 4-channel WDM demultiplexer using built-in add-drop microrings \
         (ringad). Carry the input past four chained rings on a bus; each ring is \
         resonant at one channel and drops it to its own output port. Channels at 1.52, \
         1.54, 1.56 and 1.58 microns; ring radii set for azimuthal order 10; couplings \
         0.05 on both buses.\n\
         Parameters:\n  channels = [1.52, 1.54, 1.56, 1.58] microns;\n  \
         coupling1 = coupling2 = 0.05;\n  azimuthal order m = 10"
            .to_string(),
        PortSpec::new(1, 4),
        interconnect::wdm_demux_golden(),
    ));
    problems.push(problem(
        "optical-hybrid",
        "Optical hybrid",
        Category::OpticalInterconnect,
        "Create a 90-degree optical hybrid mixing a signal (I1) and a local oscillator \
         (I2) into four quadrature outputs. Split each input with a 1x2 MMI, mix the \
         first halves in one 2x2 MMI and the second halves in another, and insert a \
         90-degree zero-length phase shifter on the local-oscillator path into the \
         second mixer.\n\
         Parameters:\n  hybrid phase = pi/2;\n  outputs = 4 (balanced quarters)"
            .to_string(),
        PortSpec::new(2, 4),
        interconnect::optical_hybrid_golden(),
    ));

    // --- Optical switches ---------------------------------------------
    problems.push(problem(
        "os-2x2",
        "OS 2x2",
        Category::OpticalSwitch,
        "Create a fundamental 2x2 optical switch as a balanced Mach-Zehnder structure: \
         two 2x2 MMIs joined by a top arm holding a phase shifter (length 10 microns, \
         phase pi, i.e. the bar state) and a bottom arm holding a plain waveguide of \
         the same length.\n\
         Parameters:\n  arm length = 10 microns;\n  phase = pi (bar state)"
            .to_string(),
        PortSpec::new(2, 2),
        switches::os2x2_golden(),
    ));
    for (id, name, n) in [
        ("crossbar-4x4", "Crossbar 4x4", 4usize),
        ("crossbar-8x8", "Crossbar 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalSwitch,
            format!(
                "Create a {n} x {n} optical switching network based on the Crossbar \
                 architecture using built-in 2x2 switches (switch2x2). Cell (i, j) takes \
                 the row bus on I1 and the column bus on I2, passing east on O1 and south \
                 on O2; external input i enters row i and external output j leaves the \
                 bottom of column j. Configure the diagonal cells in the cross state so \
                 the fabric routes the identity permutation.\n\
                 Parameters:\n  size = {n} x {n};\n  switches = {};\n  \
                 routing = identity (diagonal cells crossed)",
                n * n
            ),
            PortSpec::new(n, n),
            switches::crossbar_golden(n),
        ));
    }
    for (id, name, n) in [
        ("spanke-4x4", "Spanke 4x4", 4usize),
        ("spanke-8x8", "Spanke 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalSwitch,
            format!(
                "Create a {n} x {n} optical switching network based on the Spanke \
                 architecture using built-in 1x2 switches (switch1x2). Give every input a \
                 binary splitting tree and every output a reversed combining tree, and \
                 connect leaf j of input tree i to leaf i of output tree j. Program the \
                 trees for the identity permutation.\n\
                 Parameters:\n  size = {n} x {n};\n  switches = {};\n  routing = identity",
                2 * n * (n - 1)
            ),
            PortSpec::new(n, n),
            switches::spanke_golden(n),
        ));
    }
    for (id, name, n) in [
        ("benes-4x4", "Benes 4x4", 4usize),
        ("benes-8x8", "Benes 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalSwitch,
            format!(
                "Create a {n} x {n} optical switching network based on the Benes \
                 architecture using built-in 2x2 switches (switch2x2): an input column of \
                 {h} switches, two recursive {h}-port Benes subnetworks, and an output \
                 column of {h} switches, wired in the classic butterfly pattern. Leave \
                 every switch in the bar state so the fabric routes the identity \
                 permutation.\n\
                 Parameters:\n  size = {n} x {n};\n  switches = {s};\n  routing = identity \
                 (all bar)",
                h = n / 2,
                s = n / 2 * (2 * (n as f64).log2() as usize - 1),
            ),
            PortSpec::new(n, n),
            switches::benes_golden(n),
        ));
    }
    for (id, name, n) in [
        ("spankebenes-4x4", "Spanke-Benes 4x4", 4usize),
        ("spankebenes-8x8", "Spanke-Benes 8x8", 8),
    ] {
        problems.push(problem(
            id,
            name,
            Category::OpticalSwitch,
            format!(
                "Create a {n} x {n} optical switching network based on the planar \
                 Spanke-Benes architecture using built-in 2x2 switches (switch2x2): {n} \
                 columns of nearest-neighbour switches, even columns pairing wires \
                 (1,2), (3,4), ... and odd columns pairing (2,3), (4,5), ..., for \
                 {s} switches total. Leave every switch in the bar state so the fabric \
                 routes the identity permutation.\n\
                 Parameters:\n  size = {n} x {n};\n  switches = {s};\n  routing = identity \
                 (all bar)",
                s = n * (n - 1) / 2,
            ),
            PortSpec::new(n, n),
            switches::spankebenes_golden(n),
        ));
    }

    // --- Fundamental devices ------------------------------------------
    problems.push(problem(
        "mzm",
        "MZM",
        Category::FundamentalDevice,
        "Create a Mach-Zehnder modulator as a circuit: split the input with a 1x2 MMI, \
         place a phase shifter of length 10 microns on each arm driven push-pull at \
         +pi/4 and -pi/4, and recombine with a reversed 1x2 MMI, biasing the modulator \
         at quadrature.\n\
         Parameters:\n  arm length = 10 microns;\n  bias = +pi/4 / -pi/4"
            .to_string(),
        PortSpec::new(1, 1),
        fundamental::mzm_golden(),
    ));
    problems.push(problem(
        "mzi-ps",
        "MZI ps",
        Category::FundamentalDevice,
        "Create a Mach-Zehnder interferometer (MZI) with a single input and output, \
         featuring a path length difference of dL. A phase shifter with a length of L \
         should be applied to the top arm to modulate the phase of the optical signal. \
         Use the built-in multimode interferometer (MMI) component for splitting and \
         combining the optical signals, and the built-in phase shifters to achieve the \
         desired phase modulation.\n\
         Parameters:\n  dL = 10 microns;\n  L = 10 microns"
            .to_string(),
        PortSpec::new(1, 1),
        fundamental::mzi_ps_golden(),
    ));

    problems
}

/// The full 24-problem benchmark suite in Table I order.
///
/// The suite is constructed (and its descriptions rendered) exactly once
/// per process, then cloned per call. It is fixed: custom problems live
/// in the problem sets that [`problems_from_json`] decodes.
pub fn suite() -> Vec<Problem> {
    registry::builtins().problems.clone()
}

/// Looks up a built-in problem by id — O(1) after the table's first
/// access.
pub fn find(id: &str) -> Option<Problem> {
    registry::builtins().get(id).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_24_problems_in_table_i_proportions() {
        let problems = suite();
        assert_eq!(problems.len(), 24);
        let count = |c: Category| problems.iter().filter(|p| p.category == c).count();
        assert_eq!(count(Category::OpticalComputing), 6);
        assert_eq!(count(Category::OpticalInterconnect), 7);
        assert_eq!(count(Category::OpticalSwitch), 9);
        assert_eq!(count(Category::FundamentalDevice), 2);
    }

    #[test]
    fn ids_are_unique_and_kebab_case() {
        let problems = suite();
        let mut ids: Vec<&str> = problems.iter().map(|p| p.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
        for id in ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "bad id {id}"
            );
        }
    }

    #[test]
    fn descriptions_follow_fig2_shape() {
        for p in suite() {
            assert!(
                p.description.starts_with("Create"),
                "{}: description should open with the design brief",
                p.id
            );
            assert!(
                p.description.contains("Parameters:"),
                "{}: description should list parameters as in Fig. 2",
                p.id
            );
        }
    }

    #[test]
    fn find_by_id() {
        assert_eq!(find("mzi-ps").unwrap().name, "MZI ps");
        assert!(find("warp-core").is_none());
    }

    #[test]
    fn port_specs_match_golden_ports() {
        for p in suite() {
            assert_eq!(
                p.golden.ports.len(),
                p.spec.inputs + p.spec.outputs,
                "{}: golden port count vs spec",
                p.id
            );
            for name in p.spec.expected_names() {
                assert!(
                    p.golden.ports.contains_key(&name),
                    "{}: golden missing expected port {name}",
                    p.id
                );
            }
        }
    }

    #[test]
    fn golden_instance_counts_span_difficulty_range() {
        let problems = suite();
        let min = problems
            .iter()
            .map(Problem::golden_instance_count)
            .min()
            .unwrap();
        let max = problems
            .iter()
            .map(Problem::golden_instance_count)
            .max()
            .unwrap();
        assert!(min <= 5, "easiest problem should be small, got {min}");
        assert!(max >= 36, "hardest problem should be large, got {max}");
    }
}
