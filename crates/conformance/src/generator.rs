//! Seeded random circuit generation over the benchmark's structural
//! families.
//!
//! The generator is a [`Strategy`] (the vendored proptest machinery), so
//! it plugs into `proptest!` blocks, composes with `prop_map`/`Union`,
//! and draws from the same deterministic [`TestRng`] the rest of the test
//! suite uses: a `(seed, case index)` pair reproduces a circuit exactly.
//!
//! Every emitted netlist is **guaranteed structurally valid**: all
//! endpoints reference real instance ports, no port is used twice, every
//! component is bound to a built-in model, external ports follow the
//! benchmark's `I1..In`/`O1..Om` convention, and the circuit elaborates
//! and simulates on both solver paths. Validity is by construction (each
//! family is wired as a closed recipe), and re-checked by the harness
//! tests against the real validator.

use picbench_netlist::{Netlist, NetlistBuilder};
use proptest::strategy::Strategy;
use proptest::TestRng;
use std::fmt;
use std::str::FromStr;

/// The structural families the generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Binary `mmi1x2`/`splitter` fan-out trees (1 → 2^depth ports).
    SplitterTree,
    /// Cascaded discrete MZI stages (split / two arms / combine).
    MziLattice,
    /// All-pass microring chains on a lossy bus.
    RingChain,
    /// Fabry–Pérot cavities: partial mirrors around waveguide sections.
    FabryPerot,
    /// Clements-style rectangular `mzi2x2` meshes (lossless, unitary).
    ClementsMesh,
    /// Layered mixed interconnects over n parallel wires.
    MixedInterconnect,
}

impl Family {
    /// Every family, in declaration order.
    pub const ALL: [Family; 6] = [
        Family::SplitterTree,
        Family::MziLattice,
        Family::RingChain,
        Family::FabryPerot,
        Family::ClementsMesh,
        Family::MixedInterconnect,
    ];

    /// Stable kebab-case token used in corpus files and CLI flags.
    pub fn token(&self) -> &'static str {
        match self {
            Family::SplitterTree => "splitter-tree",
            Family::MziLattice => "mzi-lattice",
            Family::RingChain => "ring-chain",
            Family::FabryPerot => "fabry-perot",
            Family::ClementsMesh => "clements-mesh",
            Family::MixedInterconnect => "mixed-interconnect",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for Family {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Family::ALL
            .iter()
            .find(|f| f.token() == s)
            .copied()
            .ok_or_else(|| format!("unknown circuit family {s:?}"))
    }
}

/// One generated test circuit plus the metadata the oracles need.
#[derive(Debug, Clone, PartialEq)]
pub struct GenCircuit {
    /// The guaranteed-valid netlist.
    pub netlist: Netlist,
    /// Which structural family produced it.
    pub family: Family,
    /// Whether the circuit is built exclusively from lossless unitary
    /// blocks — the precondition of the unitarity oracle.
    pub lossless: bool,
}

/// Size/mix distribution knobs of the generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Families to draw from (uniformly). Must be non-empty.
    pub families: Vec<Family>,
    /// Cap on stage/depth/layer counts (≥ 1).
    pub max_stages: usize,
    /// Cap on parallel modes for meshes and interconnects (≥ 2, even
    /// values are used for meshes).
    pub max_modes: usize,
    /// Probability that a mixed interconnect is drawn from the lossless
    /// unitary palette instead of the full lossy one.
    pub lossless_bias: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            families: Family::ALL.to_vec(),
            max_stages: 4,
            max_modes: 6,
            lossless_bias: 0.5,
        }
    }
}

/// The circuit [`Strategy`]: draws one [`GenCircuit`] per case.
#[derive(Debug, Clone)]
pub struct CircuitStrategy {
    config: GeneratorConfig,
}

impl CircuitStrategy {
    /// A strategy over the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration enables no families or uses degenerate
    /// size caps.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(!config.families.is_empty(), "no families enabled");
        assert!(config.max_stages >= 1, "max_stages must be at least 1");
        assert!(config.max_modes >= 2, "max_modes must be at least 2");
        CircuitStrategy { config }
    }

    /// A strategy restricted to one family.
    pub fn family(family: Family) -> Self {
        CircuitStrategy::new(GeneratorConfig {
            families: vec![family],
            ..GeneratorConfig::default()
        })
    }

    /// Draws `count` circuits from a fresh generator seeded with `seed` —
    /// the convenience entry for callers that don't otherwise deal in
    /// proptest machinery (the `conformance` binary, corpus tooling).
    pub fn sample(&self, seed: u64, count: usize) -> Vec<GenCircuit> {
        let mut rng = TestRng::new(seed);
        (0..count).map(|_| self.generate(&mut rng)).collect()
    }
}

impl Default for CircuitStrategy {
    fn default() -> Self {
        CircuitStrategy::new(GeneratorConfig::default())
    }
}

impl Strategy for CircuitStrategy {
    type Value = GenCircuit;

    fn generate(&self, rng: &mut TestRng) -> GenCircuit {
        let family = self.config.families[rng.below(self.config.families.len())];
        match family {
            Family::SplitterTree => splitter_tree(rng, &self.config),
            Family::MziLattice => mzi_lattice(rng, &self.config),
            Family::RingChain => ring_chain(rng, &self.config),
            Family::FabryPerot => fabry_perot(rng, &self.config),
            Family::ClementsMesh => clements_mesh(rng, &self.config),
            Family::MixedInterconnect => mixed_interconnect(rng, &self.config),
        }
    }
}

/// Uniform draw from an inclusive integer range.
fn pick(rng: &mut TestRng, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi);
    lo + rng.below(hi - lo + 1)
}

/// Uniform draw from an f64 range, rounded to 4 decimals so generated
/// settings stay human-readable in corpus files.
fn pick_f64(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let raw = lo + rng.unit_f64() * (hi - lo);
    (raw * 1e4).round() / 1e4
}

/// Binds the standard 1:1 model names used by every family.
fn bind_models(b: &mut NetlistBuilder, models: &[&str]) {
    for m in models {
        b.model(m, m);
    }
}

/// A 1 → 2^depth fan-out tree of 1x2 splitting elements with waveguide
/// spacers on a random subset of edges. Three-port splitting elements
/// absorb the power mismatch of their reverse direction, so the tree is
/// passive and reciprocal but never unitary.
fn splitter_tree(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let depth = pick(rng, 1, config.max_stages.min(3));
    let mut b = NetlistBuilder::new();
    let mut idx = 0usize;
    // Frontier of open output ends, written "instance,port".
    let mut frontier: Vec<String> = Vec::new();

    let root = format!("sp{idx}");
    idx += 1;
    add_split_node(&mut b, rng, &root);
    frontier.push(format!("{root},O1"));
    frontier.push(format!("{root},O2"));

    for _ in 1..depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for open in frontier {
            // Optionally insert a spacer waveguide before the next node.
            let feed = if rng.below(2) == 0 {
                let wg = format!("wg{idx}");
                idx += 1;
                b.instance_with(&wg, "waveguide", &[("length", pick_f64(rng, 1.0, 60.0))]);
                b.connect(&open, &format!("{wg},I1"));
                format!("{wg},O1")
            } else {
                open
            };
            let node = format!("sp{idx}");
            idx += 1;
            add_split_node(&mut b, rng, &node);
            b.connect(&feed, &format!("{node},I1"));
            next.push(format!("{node},O1"));
            next.push(format!("{node},O2"));
        }
        frontier = next;
    }

    b.port("I1", &format!("{root},I1"));
    for (i, open) in frontier.iter().enumerate() {
        b.port(&format!("O{}", i + 1), open);
    }
    bind_models(&mut b, &["mmi1x2", "splitter", "waveguide"]);
    GenCircuit {
        netlist: b.build(),
        family: Family::SplitterTree,
        lossless: false,
    }
}

/// One 1x2 splitting element: an ideal MMI or a ratio splitter.
fn add_split_node(b: &mut NetlistBuilder, rng: &mut TestRng, name: &str) {
    if rng.below(2) == 0 {
        b.instance(name, "mmi1x2");
    } else {
        b.instance_with(name, "splitter", &[("ratio", pick_f64(rng, 0.2, 0.8))]);
    }
}

/// A cascade of discrete MZI stages: split, a phase-shifted top arm and a
/// plain bottom arm, recombine through a reversed 1x2 MMI.
fn mzi_lattice(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let stages = pick(rng, 1, config.max_stages);
    let mut b = NetlistBuilder::new();
    let mut open = String::new();
    for s in 0..stages {
        let base = pick_f64(rng, 5.0, 40.0);
        let delta = pick_f64(rng, 0.0, 30.0);
        let phase = pick_f64(rng, 0.0, std::f64::consts::TAU);
        b.instance(&format!("split{s}"), "mmi1x2");
        b.instance_with(
            &format!("top{s}"),
            "phaseshifter",
            &[("length", base + delta), ("phase", phase)],
        );
        b.instance_with(&format!("bot{s}"), "waveguide", &[("length", base)]);
        b.instance(&format!("join{s}"), "mmi1x2");
        b.connect(&format!("split{s},O1"), &format!("top{s},I1"));
        b.connect(&format!("split{s},O2"), &format!("bot{s},I1"));
        b.connect(&format!("top{s},O1"), &format!("join{s},O1"));
        b.connect(&format!("bot{s},O1"), &format!("join{s},O2"));
        if s > 0 {
            b.connect(&open, &format!("split{s},I1"));
        }
        open = format!("join{s},I1");
    }
    b.port("I1", "split0,I1");
    b.port("O1", &open);
    bind_models(&mut b, &["mmi1x2", "phaseshifter", "waveguide"]);
    GenCircuit {
        netlist: b.build(),
        family: Family::MziLattice,
        lossless: false,
    }
}

/// A bus of all-pass rings separated by lossy waveguide sections. The
/// couplings are kept well away from zero so the ring loops never become
/// undamped resonators (which would be a legitimately singular system).
fn ring_chain(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let rings = pick(rng, 1, config.max_stages);
    let mut b = NetlistBuilder::new();
    let mut open = String::new();
    for r in 0..rings {
        let wg = format!("bus{r}");
        b.instance_with(&wg, "waveguide", &[("length", pick_f64(rng, 5.0, 40.0))]);
        if r > 0 {
            b.connect(&open, &format!("{wg},I1"));
        }
        let ring = format!("ring{r}");
        b.instance_with(
            &ring,
            "ringap",
            &[
                ("radius", pick_f64(rng, 3.0, 10.0)),
                ("coupling", pick_f64(rng, 0.3, 0.8)),
            ],
        );
        b.connect(&format!("{wg},O1"), &format!("{ring},I1"));
        open = format!("{ring},O1");
    }
    let tail = "tail";
    b.instance_with(tail, "waveguide", &[("length", pick_f64(rng, 5.0, 40.0))]);
    b.connect(&open, &format!("{tail},I1"));
    b.port("I1", "bus0,I1");
    b.port("O1", &format!("{tail},O1"));
    bind_models(&mut b, &["waveguide", "ringap"]);
    GenCircuit {
        netlist: b.build(),
        family: Family::RingChain,
        lossless: false,
    }
}

/// Fabry–Pérot cavities: waveguide sections sandwiched between partial
/// mirrors. Reflectivities are capped below 1 so the round-trip gain of
/// every cavity stays strictly under unity.
fn fabry_perot(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let cavities = pick(rng, 1, config.max_stages.min(3));
    let mut b = NetlistBuilder::new();
    b.instance_with("in", "waveguide", &[("length", pick_f64(rng, 2.0, 20.0))]);
    let mut open = "in,O1".to_string();
    for c in 0..cavities {
        let m1 = format!("m{c}a");
        let cav = format!("cav{c}");
        let m2 = format!("m{c}b");
        b.instance_with(
            &m1,
            "reflector",
            &[("reflectivity", pick_f64(rng, 0.2, 0.9))],
        );
        b.instance_with(&cav, "waveguide", &[("length", pick_f64(rng, 20.0, 80.0))]);
        b.instance_with(
            &m2,
            "reflector",
            &[("reflectivity", pick_f64(rng, 0.2, 0.9))],
        );
        b.connect(&open, &format!("{m1},I1"));
        b.connect(&format!("{m1},O1"), &format!("{cav},I1"));
        b.connect(&format!("{cav},O1"), &format!("{m2},I1"));
        open = format!("{m2},O1");
    }
    b.instance_with("out", "waveguide", &[("length", pick_f64(rng, 2.0, 20.0))]);
    b.connect(&open, "out,I1");
    b.port("I1", "in,I1");
    b.port("O1", "out,O1");
    bind_models(&mut b, &["waveguide", "reflector"]);
    GenCircuit {
        netlist: b.build(),
        family: Family::FabryPerot,
        lossless: false,
    }
}

/// A Clements-style rectangular mesh of dispersionless `mzi2x2` blocks
/// with random `(theta, phi)` per cell and zero-length output phase
/// shifters. Fully feedforward and built from unitary blocks only, so
/// the composed S-matrix must itself be unitary.
fn clements_mesh(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let modes = 2 * pick(rng, 1, (config.max_modes / 2).max(1));
    let columns = pick(rng, 1, config.max_stages);
    let mut b = NetlistBuilder::new();
    // wire[i] = open "instance,port" end of mode i; seeded by lossless
    // feed waveguides so every mode has an instance to anchor ports on.
    let mut wire: Vec<String> = (0..modes)
        .map(|i| {
            b.instance_with(
                &format!("feed{i}"),
                "waveguide",
                &[("length", pick_f64(rng, 1.0, 20.0)), ("loss", 0.0)],
            );
            format!("feed{i},O1")
        })
        .collect();
    for c in 0..columns {
        let start = c % 2;
        let mut i = start;
        while i + 1 < modes {
            let cell = format!("mzi{c}x{i}");
            b.instance_with(
                &cell,
                "mzi2x2",
                &[
                    ("theta", pick_f64(rng, 0.0, std::f64::consts::TAU)),
                    ("phi", pick_f64(rng, 0.0, std::f64::consts::TAU)),
                ],
            );
            b.connect(&wire[i], &format!("{cell},I1"));
            b.connect(&wire[i + 1], &format!("{cell},I2"));
            wire[i] = format!("{cell},O1");
            wire[i + 1] = format!("{cell},O2");
            i += 2;
        }
    }
    for (i, open) in wire.iter_mut().enumerate() {
        let ps = format!("ops{i}");
        b.instance_with(
            &ps,
            "phaseshifter",
            &[
                ("length", 0.0),
                ("phase", pick_f64(rng, 0.0, std::f64::consts::TAU)),
            ],
        );
        b.connect(open, &format!("{ps},I1"));
        *open = format!("{ps},O1");
    }
    for i in 0..modes {
        b.port(&format!("I{}", i + 1), &format!("feed{i},I1"));
    }
    for (i, open) in wire.iter().enumerate() {
        b.port(&format!("O{}", i + 1), open);
    }
    bind_models(&mut b, &["waveguide", "mzi2x2", "phaseshifter"]);
    GenCircuit {
        netlist: b.build(),
        family: Family::ClementsMesh,
        lossless: true,
    }
}

/// Layered mixed interconnect over n parallel wires: each layer places a
/// two-port element on one wire or a four-port element across an adjacent
/// pair. The lossless variant draws only from unitary blocks (with
/// explicit `loss = 0` guide overrides); the lossy variant adds
/// attenuators, crossings and default propagation loss.
fn mixed_interconnect(rng: &mut TestRng, config: &GeneratorConfig) -> GenCircuit {
    let modes = pick(rng, 2, config.max_modes);
    let layers = pick(rng, 1, config.max_stages * 2);
    let lossless = rng.unit_f64() < config.lossless_bias;
    let mut b = NetlistBuilder::new();
    let mut idx = 0usize;
    let mut wire: Vec<String> = (0..modes)
        .map(|i| {
            let settings: &[(&str, f64)] = if lossless {
                &[("length", 5.0), ("loss", 0.0)]
            } else {
                &[("length", 5.0)]
            };
            b.instance_with(&format!("feed{i}"), "waveguide", settings);
            format!("feed{i},O1")
        })
        .collect();

    for _ in 0..layers {
        if modes >= 2 && rng.below(3) != 0 {
            // Four-port element on an adjacent pair.
            let i = rng.below(modes - 1);
            let name = format!("el{idx}");
            idx += 1;
            let choice = rng.below(if lossless { 4 } else { 5 });
            match choice {
                0 => {
                    b.instance_with(&name, "coupler", &[("coupling", pick_f64(rng, 0.1, 0.9))]);
                }
                1 => {
                    b.instance(&name, "mmi2x2");
                }
                2 => {
                    b.instance_with(
                        &name,
                        "mzi2x2",
                        &[
                            ("theta", pick_f64(rng, 0.0, std::f64::consts::TAU)),
                            ("phi", pick_f64(rng, 0.0, std::f64::consts::TAU)),
                        ],
                    );
                }
                3 => {
                    b.instance_with(&name, "switch2x2", &[("state", rng.below(2) as f64)]);
                }
                _ => {
                    b.instance(&name, "crossing");
                }
            }
            b.connect(&wire[i], &format!("{name},I1"));
            b.connect(&wire[i + 1], &format!("{name},I2"));
            wire[i] = format!("{name},O1");
            wire[i + 1] = format!("{name},O2");
        } else {
            // Two-port element on one wire.
            let i = rng.below(modes);
            let name = format!("el{idx}");
            idx += 1;
            let choice = rng.below(if lossless { 2 } else { 3 });
            match choice {
                0 => {
                    if lossless {
                        b.instance_with(
                            &name,
                            "waveguide",
                            &[("length", pick_f64(rng, 1.0, 50.0)), ("loss", 0.0)],
                        );
                    } else {
                        b.instance_with(
                            &name,
                            "waveguide",
                            &[("length", pick_f64(rng, 1.0, 50.0))],
                        );
                    }
                }
                1 => {
                    let mut settings = vec![
                        ("length", pick_f64(rng, 0.0, 20.0)),
                        ("phase", pick_f64(rng, 0.0, std::f64::consts::TAU)),
                    ];
                    if lossless {
                        settings.push(("loss", 0.0));
                    }
                    b.instance_with(&name, "phaseshifter", &settings);
                }
                _ => {
                    b.instance_with(
                        &name,
                        "attenuator",
                        &[("attenuation", pick_f64(rng, 0.0, 6.0))],
                    );
                }
            }
            b.connect(&wire[i], &format!("{name},I1"));
            wire[i] = format!("{name},O1");
        }
    }

    for i in 0..modes {
        b.port(&format!("I{}", i + 1), &format!("feed{i},I1"));
    }
    for (i, open) in wire.iter().enumerate() {
        b.port(&format!("O{}", i + 1), open);
    }
    bind_models(
        &mut b,
        &[
            "waveguide",
            "phaseshifter",
            "coupler",
            "mmi2x2",
            "mzi2x2",
            "switch2x2",
            "crossing",
            "attenuator",
        ],
    );
    GenCircuit {
        netlist: b.build(),
        family: Family::MixedInterconnect,
        lossless,
    }
}

/// A structurally identical permutation of a netlist: instances, ports
/// and model bindings re-inserted in shuffled order, and every
/// connection's endpoints flipped with probability one half. The result
/// canonicalizes and hashes identically to the input — the property the
/// round-trip and canonicalization tests pin down.
pub fn shuffle_netlist(netlist: &Netlist, rng: &mut TestRng) -> Netlist {
    fn shuffled_keys<V>(map: &picbench_netlist::OrderedMap<V>, rng: &mut TestRng) -> Vec<String> {
        let mut keys: Vec<String> = map.keys().map(str::to_string).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        keys
    }

    let mut out = Netlist::default();
    for name in shuffled_keys(&netlist.instances, rng) {
        out.instances.insert(
            name.clone(),
            netlist.instances.get(&name).expect("key").clone(),
        );
    }
    let mut connections = netlist.connections.clone();
    for i in (1..connections.len()).rev() {
        connections.swap(i, rng.below(i + 1));
    }
    for c in &mut connections {
        if rng.below(2) == 0 {
            std::mem::swap(&mut c.a, &mut c.b);
        }
    }
    out.connections = connections;
    for name in shuffled_keys(&netlist.ports, rng) {
        out.ports
            .insert(name.clone(), netlist.ports.get(&name).expect("key").clone());
    }
    for name in shuffled_keys(&netlist.models, rng) {
        out.models.insert(
            name.clone(),
            netlist.models.get(&name).expect("key").clone(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::validate;
    use picbench_sim::ModelRegistry;

    #[test]
    fn family_tokens_round_trip() {
        for family in Family::ALL {
            assert_eq!(family.token().parse::<Family>().unwrap(), family);
        }
        assert!("warp-core".parse::<Family>().is_err());
    }

    #[test]
    fn every_family_generates_valid_netlists() {
        let registry = ModelRegistry::with_builtins();
        for family in Family::ALL {
            let strategy = CircuitStrategy::family(family);
            let mut rng = TestRng::new(42);
            for case in 0..25 {
                let gen = strategy.generate(&mut rng);
                assert_eq!(gen.family, family);
                let issues = validate(&gen.netlist, &registry, None);
                assert!(
                    issues.is_empty(),
                    "{family} case {case} invalid: {issues:?}\n{}",
                    gen.netlist.to_json_string()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strategy = CircuitStrategy::default();
        let a = strategy.generate(&mut TestRng::new(7));
        let b = strategy.generate(&mut TestRng::new(7));
        let c = strategy.generate(&mut TestRng::new(8));
        assert_eq!(a, b);
        assert!(a != c || a.netlist.content_hash() == c.netlist.content_hash());
    }

    #[test]
    fn shuffle_preserves_content_hash() {
        let strategy = CircuitStrategy::default();
        let mut rng = TestRng::new(11);
        for _ in 0..20 {
            let gen = strategy.generate(&mut rng);
            let shuffled = shuffle_netlist(&gen.netlist, &mut rng);
            assert_eq!(gen.netlist.content_hash(), shuffled.content_hash());
            assert_eq!(gen.netlist.canonicalize(), shuffled.canonicalize());
        }
    }
}
