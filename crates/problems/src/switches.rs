//! Optical-switch golden designs: the elementary 2×2 switch circuit and
//! the crossbar, Spanke, Benes and Spanke-Benes fabrics (4×4 and 8×8).
//!
//! Each fabric builder produces a netlist whose switches default to an
//! identity routing; [`crate::routing`] computes the switch states for an
//! arbitrary permutation.

use picbench_netlist::{Netlist, NetlistBuilder};
use std::f64::consts::PI;

/// Golden design for the `OS 2×2` problem: a fundamental 2×2 optical
/// switch realized as a balanced MZI — two 2×2 MMIs with a phase shifter
/// on the top arm (biased at π ⇒ bar state).
pub fn os2x2_golden() -> Netlist {
    let mut b = NetlistBuilder::new();
    b.instance("mmia", "mmi22");
    b.instance("mmib", "mmi22");
    b.instance_with("pstop", "phaseshifter", &[("length", 10.0), ("phase", PI)]);
    b.instance_with("wgbot", "waveguide", &[("length", 10.0)]);
    b.connect("mmia,O1", "pstop,I1");
    b.connect("mmia,O2", "wgbot,I1");
    b.connect("pstop,O1", "mmib,I1");
    b.connect("wgbot,O1", "mmib,I2");
    b.port("I1", "mmia,I1");
    b.port("I2", "mmia,I2");
    b.port("O1", "mmib,O1");
    b.port("O2", "mmib,O2");
    b.model("mmi22", "mmi2x2");
    b.model("phaseshifter", "phaseshifter");
    b.model("waveguide", "waveguide");
    b.build()
}

// ---------------------------------------------------------------------
// Crossbar
// ---------------------------------------------------------------------

/// Instance name of the crossbar cell at `row`, `col` (1-based).
pub fn crossbar_cell(row: usize, col: usize) -> String {
    format!("sw{row}{col}")
}

/// Builds an `n×n` crossbar switch fabric.
///
/// Cell `(i, j)` receives the row bus from the west on `I1` and the
/// column bus from the north on `I2`; `O1` continues east, `O2`
/// continues south. An input is routed to column `j` by putting cell
/// `(i, j)` in the cross state. `states[i]` gives the target column
/// (0-based) for input `i` — the identity uses `states[i] = i`.
///
/// # Panics
///
/// Panics if `n` is 0 or ≥ 10 (cell names use single digits) or if
/// `active` is not a permutation of `0..n`.
pub fn crossbar_fabric(n: usize, active: &[usize]) -> Netlist {
    assert!(n > 0 && n < 10, "crossbar size must be 1..=9");
    assert_eq!(active.len(), n, "active must assign a column per row");
    let mut b = NetlistBuilder::new();
    for i in 1..=n {
        for j in 1..=n {
            let state = if active[i - 1] == j - 1 { 1.0 } else { 0.0 };
            b.instance_with(&crossbar_cell(i, j), "switch2x2", &[("state", state)]);
        }
    }
    for i in 1..=n {
        for j in 1..=n {
            if j < n {
                b.connect(
                    &format!("{},O1", crossbar_cell(i, j)),
                    &format!("{},I1", crossbar_cell(i, j + 1)),
                );
            }
            if i < n {
                b.connect(
                    &format!("{},O2", crossbar_cell(i, j)),
                    &format!("{},I2", crossbar_cell(i + 1, j)),
                );
            }
        }
    }
    for i in 1..=n {
        b.port(&format!("I{i}"), &format!("{},I1", crossbar_cell(i, 1)));
    }
    for j in 1..=n {
        b.port(&format!("O{j}"), &format!("{},O2", crossbar_cell(n, j)));
    }
    b.model("switch2x2", "switch2x2");
    b.build()
}

/// Golden design for the `Crossbar n×n` problems (identity routing).
pub fn crossbar_golden(n: usize) -> Netlist {
    let identity: Vec<usize> = (0..n).collect();
    crossbar_fabric(n, &identity)
}

// ---------------------------------------------------------------------
// Spanke
// ---------------------------------------------------------------------

/// Instance name of a Spanke tree switch: input (`it`) or output (`ot`)
/// tree `tree`, stage `stage`, position `pos`.
pub fn spanke_switch(input_side: bool, tree: usize, stage: usize, pos: usize) -> String {
    let side = if input_side { "it" } else { "ot" };
    format!("{side}{tree}s{stage}p{pos}")
}

/// Builds an `n×n` Spanke fabric (`n` a power of two).
///
/// Each input feeds a binary tree of 1×2 switches whose `n` leaves
/// connect to the corresponding leaves of the output-side combining
/// trees (reversed 1×2 switches). `targets[i]` is the output each input
/// is routed to — the tree states encode the target's bits.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2 or `targets` is not a
/// permutation.
pub fn spanke_fabric(n: usize, targets: &[usize]) -> Netlist {
    assert!(n.is_power_of_two() && n >= 2, "Spanke size must be 2^k");
    assert_eq!(targets.len(), n);
    let depth = n.trailing_zeros() as usize;
    let mut b = NetlistBuilder::new();

    // Inverse permutation: which input each output listens to.
    let mut inverse = vec![0usize; n];
    for (i, &t) in targets.iter().enumerate() {
        inverse[t] = i;
    }

    // Create tree switches with their routing states.
    for tree in 0..n {
        for stage in 0..depth {
            for pos in 0..(1 << stage) {
                // The switch at (stage, pos) lies on the path to leaf L
                // iff the first `stage` bits of L equal pos; its state is
                // the next bit of the leaf index being routed to.
                let in_leaf = targets[tree];
                let in_state = if in_leaf >> (depth - stage) == pos {
                    ((in_leaf >> (depth - stage - 1)) & 1) as f64
                } else {
                    0.0
                };
                b.instance_with(
                    &spanke_switch(true, tree, stage, pos),
                    "switch1x2",
                    &[("state", in_state)],
                );
                let out_leaf = inverse[tree];
                let out_state = if out_leaf >> (depth - stage) == pos {
                    ((out_leaf >> (depth - stage - 1)) & 1) as f64
                } else {
                    0.0
                };
                b.instance_with(
                    &spanke_switch(false, tree, stage, pos),
                    "switch1x2",
                    &[("state", out_state)],
                );
            }
        }
    }

    // Internal tree wiring: switch (s, p) output O1/O2 feeds (s+1, 2p) /
    // (s+1, 2p+1). Input trees run forward; output trees are reversed
    // (their O ports face the cross links, their root I1 is the output).
    for tree in 0..n {
        for stage in 0..depth.saturating_sub(1) {
            for pos in 0..(1 << stage) {
                for (port, child) in [("O1", 2 * pos), ("O2", 2 * pos + 1)] {
                    b.connect(
                        &format!("{},{port}", spanke_switch(true, tree, stage, pos)),
                        &format!("{},I1", spanke_switch(true, tree, stage + 1, child)),
                    );
                    b.connect(
                        &format!("{},I1", spanke_switch(false, tree, stage + 1, child)),
                        &format!("{},{port}", spanke_switch(false, tree, stage, pos)),
                    );
                }
            }
        }
    }

    // Cross links: input tree i, leaf j ↔ output tree j, leaf i.
    let leaf_port = |input_side: bool, tree: usize, leaf: usize| -> String {
        let stage = depth - 1;
        let pos = leaf >> 1;
        let port = if leaf & 1 == 0 { "O1" } else { "O2" };
        format!("{},{port}", spanke_switch(input_side, tree, stage, pos))
    };
    for i in 0..n {
        for j in 0..n {
            b.connect(&leaf_port(true, i, j), &leaf_port(false, j, i));
        }
    }

    for i in 0..n {
        b.port(
            &format!("I{}", i + 1),
            &format!("{},I1", spanke_switch(true, i, 0, 0)),
        );
        b.port(
            &format!("O{}", i + 1),
            &format!("{},I1", spanke_switch(false, i, 0, 0)),
        );
    }
    b.model("switch1x2", "switch1x2");
    b.build()
}

/// Golden design for the `Spanke n×n` problems (identity routing).
pub fn spanke_golden(n: usize) -> Netlist {
    let identity: Vec<usize> = (0..n).collect();
    spanke_fabric(n, &identity)
}

// ---------------------------------------------------------------------
// Benes
// ---------------------------------------------------------------------

/// The recursive structure of a Benes network, used by the looping
/// routing algorithm to address individual switches.
#[derive(Debug, Clone)]
pub enum BenesNode {
    /// A single 2×2 switch (the `n = 2` base case).
    Switch {
        /// Instance name.
        name: String,
    },
    /// An outer stage pair around two half-size subnetworks.
    Stage {
        /// Half size (`n/2` switches per column).
        half: usize,
        /// Input-column switch names (`half` of them).
        input_col: Vec<String>,
        /// Output-column switch names.
        output_col: Vec<String>,
        /// Upper subnetwork.
        top: Box<BenesNode>,
        /// Lower subnetwork.
        bottom: Box<BenesNode>,
    },
}

impl BenesNode {
    /// Every switch name in this subtree.
    pub fn switch_names(&self) -> Vec<String> {
        match self {
            BenesNode::Switch { name } => vec![name.clone()],
            BenesNode::Stage {
                input_col,
                output_col,
                top,
                bottom,
                ..
            } => {
                let mut names = input_col.clone();
                names.extend(top.switch_names());
                names.extend(bottom.switch_names());
                names.extend(output_col.clone());
                names
            }
        }
    }
}

/// A built Benes fabric: netlist plus the recursive switch map.
#[derive(Debug, Clone)]
pub struct BenesFabric {
    /// The netlist (all switches default to bar = identity routing).
    pub netlist: Netlist,
    /// Recursive topology for routing.
    pub root: BenesNode,
    /// Port count.
    pub n: usize,
}

/// Recursively constructs a Benes subnetwork, returning
/// `(node, input endpoints, output endpoints)`.
fn benes_sub(
    b: &mut NetlistBuilder,
    n: usize,
    counter: &mut usize,
) -> (BenesNode, Vec<String>, Vec<String>) {
    fn new_switch(b: &mut NetlistBuilder, counter: &mut usize) -> String {
        *counter += 1;
        let name = format!("sw{counter}");
        b.instance_with(&name, "switch2x2", &[("state", 0.0)]);
        name
    }

    if n == 2 {
        let name = new_switch(b, counter);
        return (
            BenesNode::Switch { name: name.clone() },
            vec![format!("{name},I1"), format!("{name},I2")],
            vec![format!("{name},O1"), format!("{name},O2")],
        );
    }

    let half = n / 2;
    let input_col: Vec<String> = (0..half).map(|_| new_switch(b, counter)).collect();
    let (top, top_in, top_out) = benes_sub(b, half, counter);
    let (bottom, bot_in, bot_out) = benes_sub(b, half, counter);
    let output_col: Vec<String> = (0..half).map(|_| new_switch(b, counter)).collect();

    for k in 0..half {
        b.connect(&format!("{},O1", input_col[k]), &top_in[k]);
        b.connect(&format!("{},O2", input_col[k]), &bot_in[k]);
        b.connect(&top_out[k], &format!("{},I1", output_col[k]));
        b.connect(&bot_out[k], &format!("{},I2", output_col[k]));
    }

    let inputs = input_col
        .iter()
        .flat_map(|s| [format!("{s},I1"), format!("{s},I2")])
        .collect();
    let outputs = output_col
        .iter()
        .flat_map(|s| [format!("{s},O1"), format!("{s},O2")])
        .collect();

    (
        BenesNode::Stage {
            half,
            input_col,
            output_col,
            top: Box::new(top),
            bottom: Box::new(bottom),
        },
        inputs,
        outputs,
    )
}

/// Builds an `n×n` Benes fabric (identity routing by default).
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2.
pub fn benes_fabric(n: usize) -> BenesFabric {
    assert!(n.is_power_of_two() && n >= 2, "Benes size must be 2^k");
    let mut b = NetlistBuilder::new();
    let mut counter = 0usize;
    let (root, inputs, outputs) = benes_sub(&mut b, n, &mut counter);
    for (i, input) in inputs.iter().enumerate() {
        b.port(&format!("I{}", i + 1), input);
    }
    for (o, output) in outputs.iter().enumerate() {
        b.port(&format!("O{}", o + 1), output);
    }
    b.model("switch2x2", "switch2x2");
    BenesFabric {
        netlist: b.build(),
        root,
        n,
    }
}

/// Golden design for the `Benes n×n` problems (identity routing).
pub fn benes_golden(n: usize) -> Netlist {
    benes_fabric(n).netlist
}

// ---------------------------------------------------------------------
// Spanke-Benes
// ---------------------------------------------------------------------

/// Instance name of the Spanke-Benes switch at `col` (0-based) covering
/// wire pair `(row, row+1)`.
pub fn spankebenes_switch(col: usize, row: usize) -> String {
    format!("sbc{col}r{row}")
}

/// The wire pairs covered by column `col` of an `n`-wide Spanke-Benes
/// (planar, nearest-neighbour) network: even columns pair (0,1), (2,3),
/// …; odd columns pair (1,2), (3,4), ….
pub fn spankebenes_column_pairs(n: usize, col: usize) -> Vec<usize> {
    let start = col % 2;
    (start..n.saturating_sub(1)).step_by(2).collect()
}

/// Builds an `n×n` Spanke-Benes fabric with explicit per-switch states.
///
/// `states[col]` holds one state per switch in that column (in
/// [`spankebenes_column_pairs`] order). The network has `n` columns and
/// `n(n−1)/2` switches.
///
/// # Panics
///
/// Panics if `n < 2` or the state array does not match the topology.
pub fn spankebenes_fabric(n: usize, states: &[Vec<f64>]) -> Netlist {
    assert!(n >= 2, "Spanke-Benes needs at least two wires");
    assert_eq!(states.len(), n, "one state vector per column");
    let mut b = NetlistBuilder::new();
    let mut bus = crate::wiring::WireBus::new(n);

    for (col, col_states) in states.iter().enumerate() {
        let pairs = spankebenes_column_pairs(n, col);
        assert_eq!(col_states.len(), pairs.len(), "column {col} state count");
        for (&row, &state) in pairs.iter().zip(col_states) {
            let name = spankebenes_switch(col, row);
            b.instance_with(&name, "switch2x2", &[("state", state)]);
            bus.feed(&mut b, row, &format!("{name},I1"));
            bus.feed(&mut b, row + 1, &format!("{name},I2"));
            bus.drive(row, &format!("{name},O1"));
            bus.drive(row + 1, &format!("{name},O2"));
        }
    }
    bus.expose_standard_ports(&mut b);
    b.model("switch2x2", "switch2x2");
    b.build()
}

/// Golden design for the `Spanke-Benes n×n` problems (identity routing —
/// all switches bar).
pub fn spankebenes_golden(n: usize) -> Netlist {
    let states: Vec<Vec<f64>> = (0..n)
        .map(|col| vec![0.0; spankebenes_column_pairs(n, col).len()])
        .collect();
    spankebenes_fabric(n, &states)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use picbench_sim::{evaluate, Circuit, ModelRegistry};

    /// Computes the power routing matrix `P[out][in]` at 1.55 µm.
    pub(crate) fn routing_matrix(netlist: &Netlist, n: usize) -> Vec<Vec<f64>> {
        let registry = ModelRegistry::with_builtins();
        let circuit = Circuit::elaborate(netlist, &registry, None).unwrap();
        let s = evaluate(&circuit, 1.55).unwrap();
        (0..n)
            .map(|o| {
                (0..n)
                    .map(|i| {
                        s.s(&format!("I{}", i + 1), &format!("O{}", o + 1))
                            .unwrap()
                            .norm_sqr()
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts the fabric routes input i → output perm[i] with ≥ `min`
    /// power and everything else below `max_leak`.
    pub(crate) fn assert_routes(netlist: &Netlist, perm: &[usize], min: f64, max_leak: f64) {
        let n = perm.len();
        let p = routing_matrix(netlist, n);
        for i in 0..n {
            for (o, row) in p.iter().enumerate().take(n) {
                if perm[i] == o {
                    assert!(
                        row[i] >= min,
                        "input {i} → output {o} expected ≥ {min}, got {}",
                        row[i]
                    );
                } else {
                    assert!(
                        row[i] <= max_leak,
                        "input {i} → output {o} expected ≤ {max_leak}, got {}",
                        row[i]
                    );
                }
            }
        }
    }

    #[test]
    fn os2x2_default_is_bar() {
        let id = [0usize, 1];
        assert_routes(&os2x2_golden(), &id, 0.99, 1e-9);
    }

    #[test]
    fn crossbar4_identity_routes() {
        let id: Vec<usize> = (0..4).collect();
        assert_routes(&crossbar_golden(4), &id, 0.99, 1e-9);
    }

    #[test]
    fn crossbar4_arbitrary_permutation_routes() {
        let perm = vec![2, 0, 3, 1];
        assert_routes(&crossbar_fabric(4, &perm), &perm, 0.99, 1e-9);
    }

    #[test]
    fn crossbar8_identity_routes() {
        let id: Vec<usize> = (0..8).collect();
        assert_routes(&crossbar_golden(8), &id, 0.99, 1e-9);
    }

    #[test]
    fn crossbar_has_n_squared_switches() {
        assert_eq!(crossbar_golden(4).instances.len(), 16);
        assert_eq!(crossbar_golden(8).instances.len(), 64);
    }

    #[test]
    fn spanke4_identity_routes() {
        let id: Vec<usize> = (0..4).collect();
        assert_routes(&spanke_golden(4), &id, 0.99, 1e-9);
    }

    #[test]
    fn spanke4_arbitrary_permutation_routes() {
        let perm = vec![3, 1, 0, 2];
        assert_routes(&spanke_fabric(4, &perm), &perm, 0.99, 1e-9);
    }

    #[test]
    fn spanke8_permutation_routes() {
        let perm = vec![5, 2, 7, 0, 3, 6, 1, 4];
        assert_routes(&spanke_fabric(8, &perm), &perm, 0.99, 1e-9);
    }

    #[test]
    fn spanke_switch_counts() {
        // 2·n·(n−1) 1×2 switches.
        assert_eq!(spanke_golden(4).instances.len(), 2 * 4 * 3);
        assert_eq!(spanke_golden(8).instances.len(), 2 * 8 * 7);
    }

    #[test]
    fn benes_identity_routes() {
        for n in [2, 4, 8] {
            let id: Vec<usize> = (0..n).collect();
            assert_routes(&benes_golden(n), &id, 0.99, 1e-9);
        }
    }

    #[test]
    fn benes_switch_counts() {
        assert_eq!(benes_golden(4).instances.len(), 6);
        assert_eq!(benes_golden(8).instances.len(), 20);
    }

    #[test]
    fn spankebenes_identity_routes() {
        for n in [4, 8] {
            let id: Vec<usize> = (0..n).collect();
            assert_routes(&spankebenes_golden(n), &id, 0.99, 1e-9);
        }
    }

    #[test]
    fn spankebenes_switch_counts() {
        assert_eq!(spankebenes_golden(4).instances.len(), 6);
        assert_eq!(spankebenes_golden(8).instances.len(), 28);
    }

    #[test]
    fn fabrics_have_no_underscores_in_names() {
        for netlist in [
            crossbar_golden(8),
            spanke_golden(8),
            benes_golden(8),
            spankebenes_golden(8),
        ] {
            for (name, _) in netlist.instances.iter() {
                assert!(!name.contains('_'), "{name}");
            }
        }
    }
}
