//! Corruption operators — one per Table II failure type, plus functional
//! corruptions.
//!
//! A synthetic model's "mistake" is a concrete, parameterized edit of the
//! golden design (or of the rendered JSON text). Every operator is
//! deterministic once sampled, so a model's belief state can always be
//! reconstructed as `golden + active corruptions`, which is what makes
//! feedback repair (dropping corruptions one by one) trivially consistent.

use crate::knowledge;
use picbench_netlist::{Connection, FailureType, Netlist, PortRef};
use rand::seq::SliceRandom;
use rand::Rng;

/// A concrete mistake, ready to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum Corruption {
    /// Bind a component to a fabricated model reference.
    UndefinedModel {
        /// Which `models` entry to clobber.
        component: String,
        /// The invented reference.
        bogus_ref: String,
    },
    /// Wire an external port's target into the internal connections too.
    BoundIo {
        /// External port name.
        external: String,
        /// The other endpoint of the illegal connection.
        other: PortRef,
    },
    /// Swap a `models` entry into the `"<ref>": component` form.
    SwapModelsEntry {
        /// The component whose entry gets swapped.
        component: String,
    },
    /// Decorate the result section with fences/prose/comments.
    ExtraText {
        /// Wrap the JSON in markdown fences.
        fence: bool,
        /// Add prose around the JSON.
        prose: bool,
        /// Insert a `//` comment into the JSON body.
        comment: bool,
    },
    /// Connect an already-used port a second time.
    DuplicateConnection {
        /// The port to double-book.
        endpoint: PortRef,
        /// Where the bogus second connection goes.
        other: PortRef,
    },
    /// Expose an arbitrary extra external port.
    DanglingPort {
        /// The invented external name.
        name: String,
        /// The internal target.
        target: PortRef,
    },
    /// Drop a required external port.
    RemoveExternalPort {
        /// Name of the port to drop.
        name: String,
    },
    /// Re-target a connection endpoint to a port the component lacks.
    WrongPort {
        /// Index into `connections`.
        conn_index: usize,
        /// Mutate endpoint `a` (else `b`).
        endpoint_a: bool,
        /// The non-existent port name.
        new_port: String,
    },
    /// Rename an instance to contain an underscore.
    UnderscoreRename {
        /// Original instance name.
        original: String,
    },
    /// Corrupt the JSON text itself.
    BreakJson {
        /// 0 = truncate the closing brace, 1 = doubled comma.
        mode: u8,
    },
    /// Syntax-clean but functionally wrong: change a parameter value.
    FunctionalTweak {
        /// Instance whose setting changes.
        instance: String,
        /// Parameter name.
        param: String,
        /// The wrong value.
        value: f64,
    },
    /// Syntax-clean but functionally wrong: swap two external mappings.
    FunctionalPortSwap {
        /// First external port name.
        a: String,
        /// Second external port name.
        b: String,
    },
}

impl Corruption {
    /// The Table II category this mistake is designed to trigger, or
    /// `None` for functional corruptions.
    pub fn category(&self) -> Option<FailureType> {
        match self {
            Corruption::UndefinedModel { .. } => Some(FailureType::UndefinedModel),
            Corruption::BoundIo { .. } => Some(FailureType::BoundIoPorts),
            Corruption::SwapModelsEntry { .. } => Some(FailureType::InstancesModelsConfusion),
            Corruption::ExtraText { .. } => Some(FailureType::ExtraJsonContent),
            Corruption::DuplicateConnection { .. } => Some(FailureType::DuplicatePortConnection),
            Corruption::DanglingPort { .. } => Some(FailureType::DanglingPortConnection),
            Corruption::RemoveExternalPort { .. } => Some(FailureType::WrongPortCount),
            Corruption::WrongPort { .. } => Some(FailureType::WrongPort),
            Corruption::UnderscoreRename { .. } => Some(FailureType::InvalidComponentName),
            Corruption::BreakJson { .. } => Some(FailureType::OtherSyntax),
            Corruption::FunctionalTweak { .. } | Corruption::FunctionalPortSwap { .. } => None,
        }
    }

    /// Whether this is a functional (syntax-clean) corruption.
    pub fn is_functional(&self) -> bool {
        self.category().is_none()
    }

    /// Applies the structural part of the mistake to a netlist.
    /// Text-level corruptions ([`Corruption::ExtraText`],
    /// [`Corruption::BreakJson`]) are applied at render time instead.
    pub fn apply(&self, netlist: &mut Netlist) {
        match self {
            Corruption::UndefinedModel {
                component,
                bogus_ref,
            } => {
                netlist.models.insert(component.clone(), bogus_ref.clone());
            }
            Corruption::BoundIo { external, other } => {
                if let Some(target) = netlist.ports.get(external).cloned() {
                    netlist.connections.push(Connection {
                        a: other.clone(),
                        b: target,
                    });
                }
            }
            Corruption::SwapModelsEntry { component } => {
                if let Some(model_ref) = netlist.models.remove(component) {
                    netlist.models.insert(model_ref, component.clone());
                }
            }
            Corruption::ExtraText { .. } | Corruption::BreakJson { .. } => {}
            Corruption::DuplicateConnection { endpoint, other } => {
                netlist.connections.push(Connection {
                    a: endpoint.clone(),
                    b: other.clone(),
                });
            }
            Corruption::DanglingPort { name, target } => {
                netlist.ports.insert(name.clone(), target.clone());
            }
            Corruption::RemoveExternalPort { name } => {
                netlist.ports.remove(name);
            }
            Corruption::WrongPort {
                conn_index,
                endpoint_a,
                new_port,
            } => {
                if let Some(conn) = netlist.connections.get_mut(*conn_index) {
                    if *endpoint_a {
                        conn.a.port = new_port.clone();
                    } else {
                        conn.b.port = new_port.clone();
                    }
                }
            }
            Corruption::UnderscoreRename { original } => {
                if let Some(inst) = netlist.instances.remove(original) {
                    let renamed = underscore_name(original);
                    netlist.instances.insert(renamed.clone(), inst);
                    for conn in &mut netlist.connections {
                        if conn.a.instance == *original {
                            conn.a.instance = renamed.clone();
                        }
                        if conn.b.instance == *original {
                            conn.b.instance = renamed.clone();
                        }
                    }
                    let externals: Vec<String> = netlist.ports.keys().map(str::to_string).collect();
                    for ext in externals {
                        if let Some(pr) = netlist.ports.get_mut(&ext) {
                            if pr.instance == *original {
                                pr.instance = renamed.clone();
                            }
                        }
                    }
                }
            }
            Corruption::FunctionalTweak {
                instance,
                param,
                value,
            } => {
                if let Some(inst) = netlist.instances.get_mut(instance) {
                    inst.settings.insert(param.clone(), *value);
                }
            }
            Corruption::FunctionalPortSwap { a, b } => {
                let pa = netlist.ports.get(a).cloned();
                let pb = netlist.ports.get(b).cloned();
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    netlist.ports.insert(a.clone(), pb);
                    netlist.ports.insert(b.clone(), pa);
                }
            }
        }
    }

    /// Applies the text-level part of the mistake to the rendered JSON.
    pub fn apply_text(&self, json: &str) -> String {
        match self {
            Corruption::ExtraText {
                fence,
                prose,
                comment,
            } => {
                let mut body = json.to_string();
                if *comment {
                    if let Some(pos) = body.find('{') {
                        body.insert_str(
                            pos + 1,
                            "\n  // using default values for all unspecified parameters",
                        );
                    }
                }
                let mut out = String::new();
                if *prose {
                    out.push_str("Here is the JSON netlist for the requested design:\n");
                }
                if *fence {
                    out.push_str("```json\n");
                }
                out.push_str(&body);
                if *fence {
                    out.push_str("\n```");
                }
                if *prose {
                    out.push_str("\nI hope this helps! Let me know if you need any changes.");
                }
                out
            }
            Corruption::BreakJson { mode } => match mode {
                0 => {
                    // Truncate the final closing brace.
                    let trimmed = json.trim_end();
                    trimmed[..trimmed.len().saturating_sub(1)].to_string()
                }
                _ => {
                    // Double a comma — a pure syntax slip (not "extra
                    // content", which is its own category).
                    match json.find(',') {
                        Some(pos) => {
                            let mut out = json.to_string();
                            out.insert(pos, ',');
                            out
                        }
                        None => {
                            let trimmed = json.trim_end();
                            trimmed[..trimmed.len().saturating_sub(1)].to_string()
                        }
                    }
                }
            },
            _ => json.to_string(),
        }
    }
}

fn underscore_name(original: &str) -> String {
    // Split camelCase at the first internal capital, else append a suffix.
    if let Some(pos) = original
        .char_indices()
        .skip(1)
        .find(|(_, c)| c.is_ascii_uppercase())
        .map(|(i, _)| i)
    {
        let (head, tail) = original.split_at(pos);
        format!("{}_{}", head, tail.to_lowercase())
    } else {
        format!("{original}_1")
    }
}

/// Parameters considered "magnitude-affecting": tweaking one measurably
/// changes |S|² so the functional check reliably fails.
const TWEAKABLE: &[&str] = &[
    "delta_length",
    "state",
    "theta",
    "coupling",
    "coupling1",
    "coupling2",
    "ratio",
    "radius",
    "attenuation",
    "length",
];

fn tweaked_value(param: &str, old: f64) -> f64 {
    match param {
        "state" => 1.0 - old,
        "theta" => old + 0.5,
        "coupling" | "coupling1" | "coupling2" => (old * 0.4 + 0.25).clamp(0.0, 1.0),
        "ratio" => (1.0 - old).clamp(0.05, 0.95),
        "radius" => old * 1.15,
        "attenuation" => old + 10.0,
        // Lengths: large multiplicative change so even low-loss paths
        // shift measurably above the functional tolerance.
        _ => old * 3.0 + 20.0,
    }
}

/// Samples one syntax corruption of the requested category against the
/// golden design. Returns `None` when the category cannot be staged on
/// this particular design (e.g. no swappable models entry).
pub fn sample_syntax_corruption<R: Rng + ?Sized>(
    golden: &Netlist,
    category: FailureType,
    rng: &mut R,
) -> Option<Corruption> {
    match category {
        FailureType::UndefinedModel => {
            let components: Vec<&str> = golden.models.keys().collect();
            let component = components.choose(rng)?.to_string();
            let bogus = ["mmi3x3", "ring", "ps", "splitter4", "ybranch", "mzmx"]
                .choose(rng)
                .unwrap()
                .to_string();
            Some(Corruption::UndefinedModel {
                component,
                bogus_ref: bogus,
            })
        }
        FailureType::BoundIoPorts => {
            let externals: Vec<&str> = golden.ports.keys().collect();
            let external = externals.choose(rng)?.to_string();
            let other = pick_other_port(golden, rng)?;
            Some(Corruption::BoundIo { external, other })
        }
        FailureType::InstancesModelsConfusion => {
            // Swapping is only visible when component != ref.
            let swappable: Vec<&str> = golden
                .models
                .iter()
                .filter(|(c, r)| *c != r.as_str() && knowledge::is_builtin(r))
                .map(|(c, _)| c)
                .collect();
            let component = swappable.choose(rng)?.to_string();
            Some(Corruption::SwapModelsEntry { component })
        }
        FailureType::ExtraJsonContent => {
            let style = rng.gen_range(0..3);
            Some(Corruption::ExtraText {
                fence: style == 0 || style == 2,
                prose: style == 1,
                comment: style == 2,
            })
        }
        FailureType::DuplicatePortConnection => {
            let conn = golden.connections.choose(rng)?;
            let endpoint = if rng.gen_bool(0.5) {
                conn.a.clone()
            } else {
                conn.b.clone()
            };
            let other = pick_other_port(golden, rng)?;
            Some(Corruption::DuplicateConnection { endpoint, other })
        }
        FailureType::DanglingPortConnection => {
            let free = knowledge::unused_ports(golden);
            let target = if let Some(&(inst, port)) = free.choose(rng) {
                PortRef::new(inst, port)
            } else {
                // No genuinely free port: re-expose an existing target
                // under a surplus name (still classified as dangling).
                let (_, pr) = golden.ports.get_index(0)?;
                pr.clone()
            };
            let name = format!("O{}", golden.ports.len() + rng.gen_range(1..4usize));
            Some(Corruption::DanglingPort { name, target })
        }
        FailureType::WrongPortCount => {
            let externals: Vec<&str> = golden.ports.keys().collect();
            let name = externals.choose(rng)?.to_string();
            Some(Corruption::RemoveExternalPort { name })
        }
        FailureType::WrongPort => {
            if golden.connections.is_empty() {
                return None;
            }
            let conn_index = rng.gen_range(0..golden.connections.len());
            let endpoint_a = rng.gen_bool(0.5);
            let conn = &golden.connections[conn_index];
            let instance = if endpoint_a {
                &conn.a.instance
            } else {
                &conn.b.instance
            };
            let new_port = knowledge::bogus_port(golden, instance)?;
            Some(Corruption::WrongPort {
                conn_index,
                endpoint_a,
                new_port,
            })
        }
        FailureType::InvalidComponentName => {
            let instances: Vec<&str> = golden.instances.keys().collect();
            let original = instances.choose(rng)?.to_string();
            Some(Corruption::UnderscoreRename { original })
        }
        FailureType::OtherSyntax => Some(Corruption::BreakJson {
            mode: rng.gen_range(0..2),
        }),
    }
}

/// Samples one functional corruption.
pub fn sample_functional_corruption<R: Rng + ?Sized>(
    golden: &Netlist,
    rng: &mut R,
) -> Option<Corruption> {
    // Prefer a parameter tweak on an instance that already sets a
    // magnitude-affecting parameter.
    let mut candidates: Vec<(&str, &str, f64)> = Vec::new();
    for (name, inst) in golden.instances.iter() {
        for (param, value) in inst.settings.iter() {
            if TWEAKABLE.contains(&param) {
                candidates.push((name, param, *value));
            }
        }
    }
    if let Some(&(instance, param, old)) = candidates.choose(rng) {
        return Some(Corruption::FunctionalTweak {
            instance: instance.to_string(),
            param: param.to_string(),
            value: tweaked_value(param, old),
        });
    }
    // Next: swap two same-direction external ports.
    let outputs: Vec<&str> = golden.ports.keys().filter(|p| p.starts_with('O')).collect();
    if outputs.len() >= 2 {
        let a = outputs[rng.gen_range(0..outputs.len())].to_string();
        let mut b = outputs[rng.gen_range(0..outputs.len())].to_string();
        while b == a {
            b = outputs[rng.gen_range(0..outputs.len())].to_string();
        }
        return Some(Corruption::FunctionalPortSwap { a, b });
    }
    // Last resort: make some instance very lossy.
    let instances: Vec<&str> = golden.instances.keys().collect();
    let instance = instances.choose(rng)?.to_string();
    Some(Corruption::FunctionalTweak {
        instance,
        param: "loss".to_string(),
        value: 500.0,
    })
}

fn pick_other_port<R: Rng + ?Sized>(golden: &Netlist, rng: &mut R) -> Option<PortRef> {
    // Prefer genuinely unused ports so the corruption stays focused on
    // its own category.
    let free = knowledge::unused_ports(golden);
    if let Some(&(inst, port)) = free.choose(rng) {
        return Some(PortRef::new(inst, port));
    }
    let conn = golden.connections.choose(rng)?;
    Some(conn.a.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn golden() -> Netlist {
        picbench_netlist::NetlistBuilder::new()
            .instance("mmi1", "mmi")
            .instance("mmi2", "mmi")
            .instance_with("waveBottom", "waveguide", &[("length", 20.0)])
            .instance_with("phaseShifter", "phaseshifter", &[("length", 10.0)])
            .connect("mmi1,O1", "waveBottom,I1")
            .connect("waveBottom,O1", "mmi2,O1")
            .connect("mmi1,O2", "phaseShifter,I1")
            .connect("phaseShifter,O1", "mmi2,O2")
            .port("I1", "mmi1,I1")
            .port("O1", "mmi2,I1")
            .model("mmi", "mmi1x2")
            .model("waveguide", "waveguide")
            .model("phaseshifter", "phaseshifter")
            .build()
    }

    #[test]
    fn every_category_can_be_sampled_on_the_reference_design() {
        let g = golden();
        let mut rng = StdRng::seed_from_u64(1);
        for category in FailureType::ALL {
            let c = sample_syntax_corruption(&g, category, &mut rng)
                .unwrap_or_else(|| panic!("cannot stage {category:?}"));
            assert_eq!(c.category(), Some(category));
        }
    }

    #[test]
    fn wrong_port_mutates_a_connection() {
        let g = golden();
        let c = Corruption::WrongPort {
            conn_index: 1,
            endpoint_a: false,
            new_port: "I2".to_string(),
        };
        let mut n = g.clone();
        c.apply(&mut n);
        assert_eq!(n.connections[1].b.port, "I2");
        assert_eq!(g.connections[1].b.port, "O1");
    }

    #[test]
    fn underscore_rename_updates_references() {
        let g = golden();
        let c = Corruption::UnderscoreRename {
            original: "phaseShifter".to_string(),
        };
        let mut n = g.clone();
        c.apply(&mut n);
        assert!(n.instances.contains_key("phase_shifter"));
        assert!(!n.instances.contains_key("phaseShifter"));
        assert!(n
            .connections
            .iter()
            .any(|conn| conn.a.instance == "phase_shifter" || conn.b.instance == "phase_shifter"));
    }

    #[test]
    fn functional_tweak_changes_setting() {
        let g = golden();
        let mut rng = StdRng::seed_from_u64(3);
        let c = sample_functional_corruption(&g, &mut rng).unwrap();
        assert!(c.is_functional());
        let mut n = g.clone();
        c.apply(&mut n);
        assert_ne!(n, g, "functional corruption must change the netlist");
    }

    #[test]
    fn extra_text_renders_fences_and_comments() {
        let c = Corruption::ExtraText {
            fence: true,
            prose: true,
            comment: true,
        };
        let out = c.apply_text("{\"a\": 1}");
        assert!(out.contains("```json"));
        assert!(out.contains("// using default values"));
        assert!(out.contains("hope this helps"));
    }

    #[test]
    fn break_json_truncates() {
        let c = Corruption::BreakJson { mode: 0 };
        assert_eq!(c.apply_text("{\"a\": 1}"), "{\"a\": 1");
        let c = Corruption::BreakJson { mode: 1 };
        assert_eq!(
            c.apply_text("{\"a\": 1, \"b\": 2}"),
            "{\"a\": 1,, \"b\": 2}"
        );
        // No comma to double: falls back to truncation.
        assert_eq!(c.apply_text("{}"), "{");
    }

    #[test]
    fn swap_models_entry_round() {
        let g = golden();
        let c = Corruption::SwapModelsEntry {
            component: "mmi".to_string(),
        };
        let mut n = g.clone();
        c.apply(&mut n);
        assert!(!n.models.contains_key("mmi"));
        assert_eq!(n.models.get("mmi1x2").map(String::as_str), Some("mmi"));
    }

    #[test]
    fn port_swap_functional_on_multi_output() {
        let multi = picbench_netlist::NetlistBuilder::new()
            .instance("s", "splitter")
            .port("I1", "s,I1")
            .port("O1", "s,O1")
            .port("O2", "s,O2")
            .model("splitter", "splitter")
            .build();
        let c = Corruption::FunctionalPortSwap {
            a: "O1".to_string(),
            b: "O2".to_string(),
        };
        let mut n = multi.clone();
        c.apply(&mut n);
        assert_eq!(n.ports.get("O1"), multi.ports.get("O2"));
        assert_eq!(n.ports.get("O2"), multi.ports.get("O1"));
    }
}
