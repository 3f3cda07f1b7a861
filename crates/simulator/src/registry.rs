//! The model registry: name → component model.

use picbench_netlist::ComponentCatalog;
use picbench_sparams::{builtin_models, Model};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The built-in component models, addressable by reference name.
///
/// The table is fixed: it holds exactly `picbench_sparams::builtin_models()`,
/// and [`ModelRegistry::builtin`] is the instance every evaluator and
/// server shares. The `models` section of a netlist binds component types
/// to these reference names. The registry implements
/// [`picbench_netlist::ComponentCatalog`] so the structural validator can
/// check model existence and port names.
///
/// # Examples
///
/// ```
/// use picbench_sim::ModelRegistry;
/// use picbench_netlist::ComponentCatalog;
///
/// let registry = ModelRegistry::with_builtins();
/// assert!(registry.has_model("mmi1x2"));
/// assert_eq!(
///     registry.ports_of("waveguide").unwrap(),
///     vec!["I1".to_string(), "O1".to_string()]
/// );
/// ```
#[derive(Clone)]
pub struct ModelRegistry {
    models: HashMap<String, Registered>,
    order: Vec<String>,
}

/// A registered model with its port list, kept so validation can borrow
/// it instead of building one per instance.
#[derive(Clone)]
struct Registered {
    model: Arc<dyn Model>,
    ports: Vec<String>,
}

impl ModelRegistry {
    /// Creates a registry holding every built-in model.
    pub fn with_builtins() -> Self {
        let models = builtin_models();
        ModelRegistry {
            order: models.iter().map(|m| m.info().name.to_string()).collect(),
            models: models
                .into_iter()
                .map(|model| {
                    let ports = model.info().ports();
                    (model.info().name.to_string(), Registered { model, ports })
                })
                .collect(),
        }
    }

    /// The process-wide built-in registry, built once on first access.
    /// It never changes, so every evaluator and server shares it.
    pub fn builtin() -> &'static ModelRegistry {
        static BUILTIN: OnceLock<ModelRegistry> = OnceLock::new();
        BUILTIN.get_or_init(ModelRegistry::with_builtins)
    }

    /// Looks up a model by reference name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Model>> {
        self.models.get(name).map(|r| &r.model)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterates over the models in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Model>> {
        self.order.iter().filter_map(|name| self.get(name))
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::with_builtins()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.order)
            .finish()
    }
}

impl ComponentCatalog for ModelRegistry {
    fn has_model(&self, model_ref: &str) -> bool {
        self.models.contains_key(model_ref)
    }

    fn ports_of(&self, model_ref: &str) -> Option<&[String]> {
        self.models.get(model_ref).map(|r| r.ports.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered() {
        let reg = ModelRegistry::with_builtins();
        for name in [
            "waveguide",
            "phaseshifter",
            "mmi1x2",
            "mmi2x2",
            "coupler",
            "mzi",
        ] {
            assert!(reg.has_model(name), "missing {name}");
        }
        assert!(!reg.has_model("flux_capacitor"));
        assert!(!reg.is_empty());
    }

    #[test]
    fn catalog_ports_match_model_info() {
        let reg = ModelRegistry::with_builtins();
        assert_eq!(
            reg.ports_of("mmi1x2").unwrap(),
            vec!["I1".to_string(), "O1".to_string(), "O2".to_string()]
        );
        assert_eq!(reg.ports_of("nope"), None);
    }

    #[test]
    fn registration_order_is_preserved() {
        let reg = ModelRegistry::with_builtins();
        let first = reg.iter().next().unwrap().info().name;
        assert_eq!(first, "waveguide");
        assert_eq!(reg.iter().count(), reg.len());
    }
}
