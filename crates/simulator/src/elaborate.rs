//! Netlist elaboration: from a validated document to a simulatable circuit.

use crate::registry::ModelRegistry;
use picbench_netlist::{validate, Netlist, PortSpec, ValidationIssue};
use picbench_sparams::{Model, Settings};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// One resolved instance inside a [`Circuit`].
pub struct ElabInstance {
    /// Instance name from the netlist.
    pub name: String,
    /// The resolved model.
    pub model: Arc<dyn Model>,
    /// Settings converted for model evaluation.
    pub settings: Settings,
    /// Port names, in the model's order.
    pub port_names: Vec<String>,
    /// Global index of this instance's first port.
    pub port_offset: usize,
}

impl fmt::Debug for ElabInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElabInstance")
            .field("name", &self.name)
            .field("model", &self.model.info().name)
            .field("ports", &self.port_names)
            .field("port_offset", &self.port_offset)
            .finish()
    }
}

/// A fully resolved circuit ready for S-parameter evaluation.
///
/// Ports of all instances are numbered globally; connections and external
/// ports refer to those global indices.
#[derive(Debug)]
pub struct Circuit {
    /// Resolved instances in netlist order.
    pub instances: Vec<ElabInstance>,
    /// Internal connections as global port index pairs.
    pub connections: Vec<(usize, usize)>,
    /// External ports: `(external name, global port index)` in netlist
    /// order.
    pub externals: Vec<(String, usize)>,
    /// Total number of global ports.
    pub total_ports: usize,
}

/// Error from [`Circuit::elaborate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ElaborateError {
    /// Every issue the structural validator found.
    pub issues: Vec<ValidationIssue>,
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist failed validation with {} issue(s):",
            self.issues.len()
        )?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl Error for ElaborateError {}

impl Circuit {
    /// Validates and elaborates a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateError`] carrying every [`ValidationIssue`] when
    /// the netlist violates the structural rules (Table II) or references
    /// unknown models/ports.
    pub fn elaborate(
        netlist: &Netlist,
        registry: &ModelRegistry,
        spec: Option<&PortSpec>,
    ) -> Result<Circuit, ElaborateError> {
        let issues = validate(netlist, registry, spec);
        if !issues.is_empty() {
            return Err(ElaborateError { issues });
        }

        let mut instances = Vec::with_capacity(netlist.instances.len());
        let mut offset = 0usize;
        for (name, inst) in netlist.instances.iter() {
            let model_ref = netlist
                .models
                .get(&inst.component)
                .unwrap_or(&inst.component);
            let model = registry
                .get(model_ref)
                .cloned()
                .ok_or_else(|| ElaborateError {
                    issues: vec![ValidationIssue::new(
                        picbench_netlist::FailureType::UndefinedModel,
                        format!("Model reference '{model_ref}' is not a built-in model."),
                    )],
                })?;
            let port_names = model.info().ports();
            let settings: Settings = inst
                .settings
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            let n_ports = port_names.len();
            instances.push(ElabInstance {
                name: name.to_string(),
                model,
                settings,
                port_names,
                port_offset: offset,
            });
            offset += n_ports;
        }
        let total_ports = offset;

        // `instances` is in netlist order, so the netlist's own index
        // finds an instance by name.
        let global_index = |instance: &str, port: &str| -> Option<usize> {
            let inst = &instances[netlist.instances.position(instance)?];
            let local = inst.port_names.iter().position(|p| p == port)?;
            Some(inst.port_offset + local)
        };

        let mut connections = Vec::with_capacity(netlist.connections.len());
        for c in &netlist.connections {
            let a = global_index(&c.a.instance, &c.a.port).ok_or_else(|| ElaborateError {
                issues: vec![ValidationIssue::new(
                    picbench_netlist::FailureType::WrongPort,
                    format!("Connection endpoint {} could not be resolved.", c.a),
                )],
            })?;
            let b = global_index(&c.b.instance, &c.b.port).ok_or_else(|| ElaborateError {
                issues: vec![ValidationIssue::new(
                    picbench_netlist::FailureType::WrongPort,
                    format!("Connection endpoint {} could not be resolved.", c.b),
                )],
            })?;
            connections.push((a, b));
        }

        let mut externals = Vec::with_capacity(netlist.ports.len());
        for (name, pr) in netlist.ports.iter() {
            let idx = global_index(&pr.instance, &pr.port).ok_or_else(|| ElaborateError {
                issues: vec![ValidationIssue::new(
                    picbench_netlist::FailureType::WrongPort,
                    format!("External port target {pr} could not be resolved."),
                )],
            })?;
            externals.push((name.to_string(), idx));
        }

        Ok(Circuit {
            instances,
            connections,
            externals,
            total_ports,
        })
    }

    /// External port names in netlist order.
    pub fn external_names(&self) -> Vec<String> {
        self.externals.iter().map(|(n, _)| n.clone()).collect()
    }

    /// 64-bit FNV-1a digest of the circuit's *topology*: the total port
    /// count, the ordered connection index pairs and the external port
    /// indices.
    ///
    /// Two circuits with equal topology hashes have identical sweep
    /// structure — port partitions, permutations and elimination
    /// schedules — regardless of their component settings, so a
    /// [`crate::SweepSchedule`] built for one is valid for the other.
    /// Instance names and external port *names* are deliberately
    /// excluded: they label the result but do not shape the solve.
    pub fn topology_hash(&self) -> u64 {
        let mut h = picbench_netlist::Fnv64::new();
        h.write_u64(self.total_ports as u64);
        h.write_u64(self.connections.len() as u64);
        for &(a, b) in &self.connections {
            h.write_u64(a as u64);
            h.write_u64(b as u64);
        }
        h.write_u64(self.externals.len() as u64);
        for (_, idx) in &self.externals {
            h.write_u64(*idx as u64);
        }
        h.finish()
    }

    /// Total number of component instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picbench_netlist::NetlistBuilder;

    fn mzi_ps_netlist() -> Netlist {
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

    #[test]
    fn elaborates_valid_netlist() {
        let registry = ModelRegistry::with_builtins();
        let circuit = Circuit::elaborate(&mzi_ps_netlist(), &registry, None).unwrap();
        assert_eq!(circuit.instance_count(), 4);
        // 3 + 3 + 2 + 2 global ports.
        assert_eq!(circuit.total_ports, 10);
        assert_eq!(circuit.connections.len(), 4);
        assert_eq!(circuit.external_names(), vec!["I1", "O1"]);
    }

    #[test]
    fn port_offsets_are_disjoint() {
        let registry = ModelRegistry::with_builtins();
        let circuit = Circuit::elaborate(&mzi_ps_netlist(), &registry, None).unwrap();
        let mut seen = std::collections::HashSet::new();
        for inst in &circuit.instances {
            for local in 0..inst.port_names.len() {
                assert!(seen.insert(inst.port_offset + local));
            }
        }
        assert_eq!(seen.len(), circuit.total_ports);
    }

    #[test]
    fn invalid_netlist_reports_issues() {
        let registry = ModelRegistry::with_builtins();
        let mut netlist = mzi_ps_netlist();
        netlist.connections[1].b = picbench_netlist::PortRef::new("mmi2", "I2");
        let err = Circuit::elaborate(&netlist, &registry, None).unwrap_err();
        assert_eq!(err.issues.len(), 1);
        assert!(err.to_string().contains("does not contain port I2"));
    }

    #[test]
    fn spec_violations_block_elaboration() {
        let registry = ModelRegistry::with_builtins();
        let spec = PortSpec::new(2, 2);
        let err = Circuit::elaborate(&mzi_ps_netlist(), &registry, Some(&spec)).unwrap_err();
        assert!(err
            .issues
            .iter()
            .any(|i| i.failure == picbench_netlist::FailureType::WrongPortCount));
    }
}
