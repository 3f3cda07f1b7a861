//! Structural validation of netlists against the Table II rules.
//!
//! Validation is deliberately *exhaustive* (it reports every issue it can
//! find, not just the first) because the feedback loop wants the full
//! error report, and the error-classification loop wants accurate
//! categories.
//!
//! Checks that need to know which models exist and which ports a component
//! exposes go through the [`ComponentCatalog`] trait, implemented by the
//! simulator's model registry.

use crate::failure::{FailureType, ValidationIssue};
use crate::schema::{Netlist, PortRef};
use std::collections::{HashMap, HashSet};

/// Knowledge about available component models, provided by the simulator.
pub trait ComponentCatalog {
    /// Whether `model_ref` names a known model.
    fn has_model(&self, model_ref: &str) -> bool;

    /// The port list of a model, or `None` if unknown.
    fn ports_of(&self, model_ref: &str) -> Option<&[String]>;
}

/// Expected external port counts for a problem (the "Wrong ports number"
/// rule checks against this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Required number of external input ports (`I1..In`).
    pub inputs: usize,
    /// Required number of external output ports (`O1..Om`).
    pub outputs: usize,
}

impl PortSpec {
    /// Creates a port spec.
    pub const fn new(inputs: usize, outputs: usize) -> Self {
        PortSpec { inputs, outputs }
    }

    /// The expected external port names: `I1..In` then `O1..Om`.
    pub fn expected_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.inputs + self.outputs);
        for i in 1..=self.inputs {
            names.push(format!("I{i}"));
        }
        for o in 1..=self.outputs {
            names.push(format!("O{o}"));
        }
        names
    }
}

/// Validates a netlist, returning every issue found.
///
/// `spec` enables the external-port-count checks when provided.
///
/// The rules, in Table II order:
///
/// 1. every instance's component must be bound in `models`, and every
///    binding must reference a known model (**Use undefined models**);
/// 2. external port targets must not also appear in internal connections
///    (**Bind the I/O ports**);
/// 3. a `models` entry keyed by a known model ref whose value is *not* a
///    known ref is the classic swapped form (**Mess up 'Instances' and
///    'models'**) — the structural variant (object instead of string) is
///    caught earlier at schema time;
/// 4. *(Extra JSON content is detected at extraction/parse time, not
///    here)*;
/// 5. no instance port may be used by more than one connection endpoint
///    (**Duplicate connections to the same port**);
/// 6. external ports beyond the specification that merely re-expose unused
///    internal ports (**Wrong connections for dangling ports**);
/// 7. external port names/counts must match the specification (**Wrong
///    ports number**);
/// 8. every endpoint must reference an existing instance and one of its
///    real ports (**Wrong ports**) — including the paper's
///    `Instance mmi2 does not contain port I2. Available ports: [...]`;
/// 9. instance names must not contain underscores (**Wrong component
///    name**).
pub fn validate(
    netlist: &Netlist,
    catalog: &dyn ComponentCatalog,
    spec: Option<&PortSpec>,
) -> Vec<ValidationIssue> {
    let mut issues = Vec::new();

    check_component_names(netlist, &mut issues);
    check_models(netlist, catalog, &mut issues);
    check_endpoints_exist(netlist, catalog, &mut issues);
    let uses = endpoint_uses(netlist);
    check_duplicate_connections(&uses, &mut issues);
    check_bound_io(netlist, &uses, &mut issues);
    if let Some(spec) = spec {
        check_port_spec(netlist, spec, &mut issues);
    }
    issues
}

fn check_component_names(netlist: &Netlist, issues: &mut Vec<ValidationIssue>) {
    for (name, _) in netlist.instances.iter() {
        if name.contains('_') {
            issues.push(ValidationIssue::new(
                FailureType::InvalidComponentName,
                format!("Component name '{name}' contains an underscore, which is prohibited."),
            ));
        }
        if name.is_empty() {
            issues.push(ValidationIssue::new(
                FailureType::InvalidComponentName,
                "Component name must not be empty.".to_string(),
            ));
        }
    }
}

fn check_models(
    netlist: &Netlist,
    catalog: &dyn ComponentCatalog,
    issues: &mut Vec<ValidationIssue>,
) {
    // Every component used by an instance needs a model binding (or must
    // itself be a known model ref).
    for (name, inst) in netlist.instances.iter() {
        let has_binding = netlist.models.contains_key(&inst.component);
        if !has_binding && !catalog.has_model(&inst.component) {
            issues.push(ValidationIssue::new(
                FailureType::UndefinedModel,
                format!(
                    "Component '{}' used by instance '{name}' has no model reference \
                     in the models section and is not a built-in model.",
                    inst.component
                ),
            ));
        }
    }
    // Every binding must reference a known model. The components in use
    // are only collected once a binding fails.
    let mut used_components: Option<HashSet<&str>> = None;
    for (component, model_ref) in netlist.models.iter() {
        if !catalog.has_model(model_ref) {
            // The swapped form '"<ref>" : <component>' the paper calls
            // out: the key is a valid model reference and the value is a
            // component type that instances actually use — distinguishing
            // it from a plain hallucinated reference.
            let used = used_components.get_or_insert_with(|| {
                netlist
                    .instances
                    .values()
                    .map(|inst| inst.component.as_str())
                    .collect()
            });
            if catalog.has_model(component) && used.contains(model_ref.as_str()) {
                issues.push(ValidationIssue::new(
                    FailureType::InstancesModelsConfusion,
                    format!(
                        "Models entry '{component}: \"{model_ref}\"' appears swapped: \
                         '{component}' is a built-in model reference but '{model_ref}' is the \
                         component name. Write '<component> : \"<ref>\"'."
                    ),
                ));
            } else {
                issues.push(ValidationIssue::new(
                    FailureType::UndefinedModel,
                    format!("Model reference '{model_ref}' is not a built-in model."),
                ));
            }
        }
    }
}

fn check_endpoints_exist(
    netlist: &Netlist,
    catalog: &dyn ComponentCatalog,
    issues: &mut Vec<ValidationIssue>,
) {
    // The port list of every instance whose model is known, by instance
    // position.
    let ports: Vec<Option<&[String]>> = netlist
        .instances
        .values()
        .map(|inst| {
            let model_ref = match netlist.models.get(&inst.component) {
                Some(r) => r.as_str(),
                // Fall back to the component name itself; several designs
                // bind components 1:1 (e.g. "waveguide": "waveguide").
                None => inst.component.as_str(),
            };
            catalog.ports_of(model_ref)
        })
        .collect();
    // Formatted on the first unknown instance, then reused.
    let mut defined: Option<String> = None;
    for pr in netlist.all_endpoint_refs() {
        let Some(position) = netlist.instances.position(&pr.instance) else {
            let defined = defined.get_or_insert_with(|| {
                format!("{:?}", netlist.instances.keys().collect::<Vec<_>>())
            });
            issues.push(ValidationIssue::new(
                FailureType::WrongPort,
                format!(
                    "Instance {} does not exist. Defined instances: {defined}.",
                    pr.instance
                ),
            ));
            continue;
        };
        if let Some(ports) = ports[position] {
            if !ports.iter().any(|p| p == &pr.port) {
                // The exact message format of Fig. 4 in the paper.
                issues.push(ValidationIssue::new(
                    FailureType::WrongPort,
                    format!(
                        "Instance {} does not contain port {}. Available ports: {:?}.",
                        pr.instance, pr.port, ports
                    ),
                ));
            }
        }
    }
}

/// How often one instance port is used: `(connection endpoints, external
/// port targets)`.
type Uses = (usize, usize);

fn endpoint_key(pr: &PortRef) -> (&str, &str) {
    (pr.instance.as_str(), pr.port.as_str())
}

/// Every instance port the document uses, with its [`Uses`].
fn endpoint_uses(netlist: &Netlist) -> HashMap<(&str, &str), Uses> {
    let mut uses: HashMap<(&str, &str), Uses> =
        HashMap::with_capacity(2 * netlist.connections.len() + netlist.ports.len());
    for c in &netlist.connections {
        uses.entry(endpoint_key(&c.a)).or_default().0 += 1;
        uses.entry(endpoint_key(&c.b)).or_default().0 += 1;
    }
    for pr in netlist.ports.values() {
        uses.entry(endpoint_key(pr)).or_default().1 += 1;
    }
    uses
}

fn check_duplicate_connections(
    uses: &HashMap<(&str, &str), Uses>,
    issues: &mut Vec<ValidationIssue>,
) {
    // External port targets also occupy their internal port, so both
    // kinds of use count. Ports are counted under their "instance,port"
    // text. A comma inside
    // a name can make two distinct ports read the same, so those are
    // merged by text; any other port used once can never be reported.
    let mut by_text: HashMap<String, usize> = HashMap::new();
    for (&(instance, port), &(in_connections, in_ports)) in uses {
        let count = in_connections + in_ports;
        if count > 1 || instance.contains(',') || port.contains(',') {
            *by_text.entry(format!("{instance},{port}")).or_insert(0) += count;
        }
    }
    let mut duplicated: Vec<(String, usize)> =
        by_text.into_iter().filter(|&(_, n)| n > 1).collect();
    duplicated.sort();
    for (port, count) in duplicated {
        issues.push(ValidationIssue::new(
            FailureType::DuplicatePortConnection,
            format!(
                "Port {port} is connected {count} times; each port can only be connected once."
            ),
        ));
    }
}

fn check_bound_io(
    netlist: &Netlist,
    uses: &HashMap<(&str, &str), Uses>,
    issues: &mut Vec<ValidationIssue>,
) {
    // An external port target must not appear in internal connections.
    // (check_duplicate_connections already counts it once for the ports
    // section; here we produce the specific Table II category.)
    for (external, pr) in netlist.ports.iter() {
        let bound_internally = uses.get(&endpoint_key(pr)).is_some_and(|u| u.0 > 0);
        if bound_internally {
            issues.push(ValidationIssue::new(
                FailureType::BoundIoPorts,
                format!(
                    "External port '{external}' maps to {pr}, which also appears in the \
                     internal connections; I/O ports must only mark the system's start or \
                     end points."
                ),
            ));
        }
    }
}

fn check_port_spec(netlist: &Netlist, spec: &PortSpec, issues: &mut Vec<ValidationIssue>) {
    let expected = spec.expected_names();
    let actual: Vec<&str> = netlist.ports.keys().collect();

    let missing: Vec<&String> = expected
        .iter()
        .filter(|e| !actual.iter().any(|a| a == &e.as_str()))
        .collect();
    let extra: Vec<&&str> = actual
        .iter()
        .filter(|a| !expected.iter().any(|e| e == **a))
        .collect();

    if !missing.is_empty() {
        issues.push(ValidationIssue::new(
            FailureType::WrongPortCount,
            format!(
                "The design requires {} input port(s) and {} output port(s) \
                 ({:?}), but {:?} are missing.",
                spec.inputs, spec.outputs, expected, missing
            ),
        ));
    }
    if !extra.is_empty() {
        // Counts match the spec only when nothing is missing; surplus port
        // names are the "arbitrary or unused port names" of Table II.
        let failure = if missing.is_empty() {
            FailureType::DanglingPortConnection
        } else {
            FailureType::WrongPortCount
        };
        issues.push(ValidationIssue::new(
            failure,
            format!(
                "Port mapping(s) {extra:?} are not required by the design \
                 specification; omit unneeded port names."
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    /// A catalog with the handful of models the tests reference.
    struct TestCatalog(HashMap<&'static str, Vec<String>>);

    impl ComponentCatalog for TestCatalog {
        fn has_model(&self, model_ref: &str) -> bool {
            self.0.contains_key(model_ref)
        }

        fn ports_of(&self, model_ref: &str) -> Option<&[String]> {
            self.0.get(model_ref).map(Vec::as_slice)
        }
    }

    fn catalog() -> TestCatalog {
        let ports = |names: &[&str]| names.iter().map(|p| p.to_string()).collect();
        TestCatalog(HashMap::from([
            ("mmi1x2", ports(&["I1", "O1", "O2"])),
            ("mmi2x2", ports(&["I1", "I2", "O1", "O2"])),
            ("waveguide", ports(&["I1", "O1"])),
            ("phaseshifter", ports(&["I1", "O1"])),
        ]))
    }

    /// The paper's golden MZI-ps-like design (correct).
    fn golden() -> Netlist {
        NetlistBuilder::new()
            .instance("mmi1", "mmi")
            .instance("mmi2", "mmi")
            .instance_with("waveBottom", "waveguide", &[("length", 20.0)])
            .instance("phaseShifter", "phaseshifter")
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

    const SPEC: PortSpec = PortSpec::new(1, 1);

    #[test]
    fn golden_design_is_clean() {
        let issues = validate(&golden(), &catalog(), Some(&SPEC));
        assert!(issues.is_empty(), "unexpected issues: {issues:?}");
    }

    #[test]
    fn wrong_port_reproduces_paper_message() {
        // The exact error of Fig. 4: connecting to non-existent mmi2,I2.
        let mut n = golden();
        n.connections[1].b = crate::PortRef::new("mmi2", "I2");
        let issues = validate(&n, &catalog(), Some(&SPEC));
        let wrong: Vec<_> = issues
            .iter()
            .filter(|i| i.failure == FailureType::WrongPort)
            .collect();
        assert_eq!(wrong.len(), 1);
        assert!(
            wrong[0]
                .message
                .starts_with("Instance mmi2 does not contain port I2. Available ports:"),
            "message was: {}",
            wrong[0].message
        );
    }

    #[test]
    fn unknown_instance_is_wrong_port() {
        let mut n = golden();
        n.connections[0].b = crate::PortRef::new("ghost", "I1");
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::WrongPort && i.message.contains("ghost")));
    }

    #[test]
    fn undefined_model_detected() {
        let mut n = golden();
        n.models.insert("mmi".into(), "super_mmi_3000".into());
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::UndefinedModel
                && i.message.contains("super_mmi_3000")));
    }

    #[test]
    fn missing_model_binding_detected() {
        let mut n = golden();
        n.models.remove("mmi");
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::UndefinedModel && i.message.contains("'mmi'")));
    }

    #[test]
    fn swapped_models_entry_is_confusion() {
        let mut n = golden();
        n.models.remove("mmi");
        // The swapped form the paper shows: '"<ref>" : ...'.
        n.models.insert("mmi1x2".into(), "mmi".into());
        // Rebind instances so the missing-binding rule doesn't also fire.
        let issues = validate(&n, &catalog(), None);
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::InstancesModelsConfusion));
    }

    #[test]
    fn duplicate_connection_detected() {
        let mut n = golden();
        // Connect mmi1,O1 a second time.
        n.connections.push(crate::Connection {
            a: crate::PortRef::new("mmi1", "O1"),
            b: crate::PortRef::new("mmi2", "I1"),
        });
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::DuplicatePortConnection
                && i.message.contains("mmi1,O1")));
    }

    #[test]
    fn ports_reading_the_same_are_counted_together() {
        // Built in code, names may hold commas: "a,b" + "c" and "a" +
        // "b,c" both read "a,b,c", and are counted as one port.
        let mut n = golden();
        n.connections.push(crate::Connection {
            a: crate::PortRef::new("a,b", "c"),
            b: crate::PortRef::new("a", "b,c"),
        });
        let issues = validate(&n, &catalog(), None);
        let duplicates: Vec<&str> = issues
            .iter()
            .filter(|i| i.failure == FailureType::DuplicatePortConnection)
            .map(|i| i.message.as_str())
            .collect();
        assert_eq!(
            duplicates,
            ["Port a,b,c is connected 2 times; each port can only be connected once."]
        );
    }

    #[test]
    fn bound_io_detected() {
        let mut n = golden();
        // External I1 maps to mmi1,I1; also wire mmi1,I1 internally.
        n.connections.push(crate::Connection {
            a: crate::PortRef::new("phaseShifter", "O1"),
            b: crate::PortRef::new("mmi1", "I1"),
        });
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::BoundIoPorts));
        // It is *also* a duplicate connection (phaseShifter,O1 used twice),
        // which mirrors how real tool errors overlap.
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::DuplicatePortConnection));
    }

    #[test]
    fn underscore_in_instance_name_detected() {
        let n = NetlistBuilder::new()
            .instance("phase_shifter", "phaseshifter")
            .port("I1", "phase_shifter,I1")
            .port("O1", "phase_shifter,O1")
            .model("phaseshifter", "phaseshifter")
            .build();
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::InvalidComponentName));
    }

    #[test]
    fn missing_external_port_is_wrong_count() {
        let mut n = golden();
        n.ports.remove("O1");
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::WrongPortCount && i.message.contains("O1")));
    }

    #[test]
    fn surplus_external_port_is_dangling() {
        let mut n = golden();
        n.ports
            .insert("O9".into(), crate::PortRef::new("mmi2", "I1"));
        // mmi2,I1 now used twice (O1 and O9) → also duplicate; and O9 is a
        // surplus name → dangling.
        let issues = validate(&n, &catalog(), Some(&SPEC));
        assert!(issues
            .iter()
            .any(|i| i.failure == FailureType::DanglingPortConnection && i.message.contains("O9")));
    }

    #[test]
    fn no_spec_skips_port_count_checks() {
        let mut n = golden();
        n.ports.remove("O1");
        let issues = validate(&n, &catalog(), None);
        assert!(issues
            .iter()
            .all(|i| i.failure != FailureType::WrongPortCount));
    }

    #[test]
    fn port_spec_expected_names() {
        let spec = PortSpec::new(2, 3);
        assert_eq!(spec.expected_names(), vec!["I1", "I2", "O1", "O2", "O3"]);
    }
}
