//! Component knowledge used by the synthetic models.
//!
//! A real LLM has (imperfect) knowledge of the component API from its
//! prompt and training. The synthetic models carry the same information:
//! the port list of every built-in model, read once from the models'
//! own infos. Corruption operators use it to craft *specific* realistic
//! mistakes (connecting to a port the component does not have,
//! re-exposing genuinely unused ports, …).

use picbench_netlist::{Instance, Netlist};
use std::collections::HashSet;
use std::sync::OnceLock;

/// The port list of a built-in model, if known.
pub fn ports_of(model_ref: &str) -> Option<&'static [String]> {
    static PORTS: OnceLock<Vec<(&'static str, Vec<String>)>> = OnceLock::new();
    PORTS
        .get_or_init(|| {
            picbench_sparams::builtin_models()
                .iter()
                .map(|m| (m.info().name, m.info().ports()))
                .collect()
        })
        .iter()
        .find(|(name, _)| *name == model_ref)
        .map(|(_, ports)| ports.as_slice())
}

/// Whether a name is a built-in model reference.
pub fn is_builtin(model_ref: &str) -> bool {
    ports_of(model_ref).is_some()
}

/// Resolves an instance's model reference through the netlist's `models`
/// section (falling back to the component name itself).
pub fn instance_model_ref<'a>(netlist: &'a Netlist, instance: &str) -> Option<&'a str> {
    Some(model_ref(netlist, netlist.instances.get(instance)?))
}

fn model_ref<'a>(netlist: &'a Netlist, inst: &'a Instance) -> &'a str {
    netlist
        .models
        .get(&inst.component)
        .map_or(inst.component.as_str(), String::as_str)
}

/// The port list of an instance in a netlist, if its model is built-in.
pub fn instance_ports(netlist: &Netlist, instance: &str) -> Option<&'static [String]> {
    ports_of(instance_model_ref(netlist, instance)?)
}

/// Every `(instance, port)` pair in the netlist that exists on its
/// component but is used by no connection and no external port, in
/// instance order. One pass over the endpoints builds the set of used
/// pairs, so the cost is linear in the size of the design.
pub fn unused_ports(netlist: &Netlist) -> Vec<(&str, &'static str)> {
    let used: HashSet<(&str, &str)> = netlist
        .all_endpoint_refs()
        .into_iter()
        .map(|pr| (pr.instance.as_str(), pr.port.as_str()))
        .collect();
    let mut free = Vec::new();
    for (name, inst) in netlist.instances.iter() {
        for port in ports_of(model_ref(netlist, inst)).unwrap_or_default() {
            let port = port.as_str();
            if !used.contains(&(name, port)) {
                free.push((name, port));
            }
        }
    }
    free
}

/// A port name that does **not** exist on the given instance — the raw
/// material of a "Wrong ports" mistake. Returns `None` when the model is
/// unknown.
pub fn bogus_port(netlist: &Netlist, instance: &str) -> Option<String> {
    let ports = instance_ports(netlist, instance)?;
    for candidate in ["I2", "O2", "I3", "O3", "I4", "O4"] {
        if !ports.iter().any(|p| p == candidate) {
            return Some(candidate.to_string());
        }
    }
    Some("X9".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        NetlistBuilder::new()
            .instance("mmi1", "mmi")
            .instance_with("wg", "waveguide", &[("length", 5.0)])
            .connect("mmi1,O1", "wg,I1")
            .port("I1", "mmi1,I1")
            .port("O1", "wg,O1")
            .model("mmi", "mmi1x2")
            .model("waveguide", "waveguide")
            .build()
    }

    #[test]
    fn resolves_instance_ports_via_models_section() {
        let n = sample();
        assert_eq!(instance_model_ref(&n, "mmi1"), Some("mmi1x2"));
        assert_eq!(instance_ports(&n, "mmi1").unwrap(), &["I1", "O1", "O2"]);
        assert_eq!(instance_ports(&n, "nope"), None);
    }

    #[test]
    fn finds_unused_ports() {
        let n = sample();
        let free = unused_ports(&n);
        // mmi1,O2 is the only free port.
        assert_eq!(free, vec![("mmi1", "O2")]);
    }

    #[test]
    fn bogus_port_is_never_real() {
        let n = sample();
        let bogus = bogus_port(&n, "mmi1").unwrap();
        assert!(!instance_ports(&n, "mmi1").unwrap().contains(&bogus));
        // The classic Fig. 4 mistake: I2 on a 1x2 MMI.
        assert_eq!(bogus, "I2");
    }
}
