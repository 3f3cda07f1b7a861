//! Hierarchical (composite) models: a netlist packaged as a reusable
//! component.
//!
//! SAX supports nesting circuits as models of larger circuits; this is the
//! equivalent. A [`CompositeModel`] elaborates and schedules its netlist
//! once and then solves the sub-circuit's external S-matrix on demand
//! with the planned block-sparse solver, exposing the sub-circuit's
//! external ports as its own.

use crate::elaborate::{Circuit, ElaborateError};
use crate::plan::{SweepPlan, SweepSchedule};
use crate::registry::ModelRegistry;
use picbench_math::CMatrix;
use picbench_netlist::Netlist;
use picbench_sparams::{Model, ModelError, ModelInfo, PortDirection, SMatrix, Settings};
use std::sync::Arc;

/// A model backed by an elaborated sub-circuit.
pub struct CompositeModel {
    info: ModelInfo,
    circuit: Circuit,
    schedule: Arc<SweepSchedule>,
}

impl std::fmt::Debug for CompositeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeModel")
            .field("name", &self.info.name)
            .field("instances", &self.circuit.instance_count())
            .finish()
    }
}

impl CompositeModel {
    /// Packages a netlist as a component model.
    ///
    /// The external ports of the netlist become the model's ports;
    /// `I*`-named ports are reported as inputs, everything else as
    /// outputs. Composites take no runtime parameters — fix the
    /// sub-circuit's settings in its netlist.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateError`] when the netlist fails validation.
    pub fn from_netlist(
        name: &'static str,
        description: &'static str,
        netlist: &Netlist,
        registry: &ModelRegistry,
    ) -> Result<Self, ElaborateError> {
        let circuit = Circuit::elaborate(netlist, registry, None)?;
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (port, _) in &circuit.externals {
            match picbench_sparams::port_direction(port) {
                PortDirection::Input => inputs.push(port.clone()),
                _ => outputs.push(port.clone()),
            }
        }
        let schedule = Arc::new(SweepSchedule::for_circuit(&circuit));
        Ok(CompositeModel {
            info: ModelInfo {
                name,
                description,
                inputs,
                outputs,
                params: Vec::new(),
            },
            circuit,
            schedule,
        })
    }

    /// Number of instances in the packaged sub-circuit.
    pub fn instance_count(&self) -> usize {
        self.circuit.instance_count()
    }
}

impl Model for CompositeModel {
    fn info(&self) -> &ModelInfo {
        &self.info
    }

    fn s_matrix(&self, wavelength_um: f64, settings: &Settings) -> Result<SMatrix, ModelError> {
        picbench_sparams::check_known_params(&self.info, settings)?;
        let mut solved = CMatrix::zeros(0, 0);
        SweepPlan::with_schedule(&self.circuit, Arc::clone(&self.schedule))
            .and_then(|plan| plan.evaluate_into(&mut plan.workspace(), wavelength_um, &mut solved))
            .map_err(|e| ModelError::InvalidValue {
                model: self.info.name.to_string(),
                param: "<subcircuit>".to_string(),
                value: wavelength_um,
                constraint: e.to_string(),
            })?;
        let inner = SMatrix::from_matrix(self.circuit.external_names(), solved);
        // Reorder to the declared inputs-then-outputs port order.
        let ports = self.info.ports();
        let mut s = SMatrix::new(ports.clone());
        for from in &ports {
            for to in &ports {
                let v = inner.s(from, to).expect("composite ports must exist");
                s.set(from, to, v);
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::evaluate;
    use picbench_netlist::NetlistBuilder;

    fn mzi_netlist() -> Netlist {
        NetlistBuilder::new()
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
            .build()
    }

    #[test]
    fn composite_wraps_subcircuit() {
        let registry = ModelRegistry::with_builtins();
        let comp = CompositeModel::from_netlist("mymzi", "packaged MZI", &mzi_netlist(), &registry)
            .unwrap();
        assert_eq!(comp.info().name, "mymzi");
        assert_eq!(comp.info().inputs, vec!["I1"]);
        assert_eq!(comp.info().outputs, vec!["O1"]);
        assert_eq!(comp.instance_count(), 4);
        let s = comp.s_matrix(1.55, &Settings::new()).unwrap();
        assert!(s.s("I1", "O1").unwrap().abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn composite_registers_and_elaborates_hierarchically() {
        let mut registry = ModelRegistry::with_builtins();
        let comp = CompositeModel::from_netlist("mymzi", "packaged MZI", &mzi_netlist(), &registry)
            .unwrap();
        registry.register(Arc::new(comp));

        // Use the packaged MZI inside a larger circuit.
        let outer = NetlistBuilder::new()
            .instance("stage1", "mymzi")
            .instance("stage2", "mymzi")
            .connect("stage1,O1", "stage2,I1")
            .port("I1", "stage1,I1")
            .port("O1", "stage2,O1")
            .model("mymzi", "mymzi")
            .build();
        let circuit = Circuit::elaborate(&outer, &registry, None).unwrap();
        let s = evaluate(&circuit, 1.55).unwrap();

        // Two cascaded identical MZIs square the single-stage transfer.
        let inner = Circuit::elaborate(&mzi_netlist(), &registry, None).unwrap();
        let single = evaluate(&inner, 1.55).unwrap().s("I1", "O1").unwrap();
        let cascade = s.s("I1", "O1").unwrap();
        assert!((cascade - single * single).abs() < 1e-10);
    }

    #[test]
    fn composite_rejects_parameters() {
        let registry = ModelRegistry::with_builtins();
        let comp = CompositeModel::from_netlist("mymzi", "packaged MZI", &mzi_netlist(), &registry)
            .unwrap();
        let mut settings = Settings::new();
        settings.insert("delta_length", 3.0);
        assert!(matches!(
            comp.s_matrix(1.55, &settings),
            Err(ModelError::UnknownParameter { .. })
        ));
    }

    #[test]
    fn invalid_subcircuit_fails_to_package() {
        let registry = ModelRegistry::with_builtins();
        let mut netlist = mzi_netlist();
        // Rebind the waveguide component to a model that does not exist.
        netlist
            .models
            .insert("waveguide".to_string(), "hyperguide".to_string());
        assert!(CompositeModel::from_netlist("broken", "broken", &netlist, &registry).is_err());
    }
}
