//! The netlist data model and its JSON mapping.
//!
//! The document layout follows the paper's system prompt (Fig. 3):
//!
//! ```json
//! {
//!   "netlist": {
//!     "instances": {
//!       "mmi1": "mmi",
//!       "ps1": {"component": "phaseshifter", "settings": {"phase": 1.57}}
//!     },
//!     "connections": { "mmi1,O1": "ps1,I1" },
//!     "ports": { "I1": "mmi1,I1", "O1": "ps1,O1" }
//!   },
//!   "models": { "mmi": "mmi1x2", "phaseshifter": "phaseshifter" }
//! }
//! ```
//!
//! `instances` maps instance names to component types (optionally with
//! settings); `models` binds component types to built-in model references;
//! `connections` joins instance ports pairwise; `ports` exposes external
//! ports.

use crate::json::{self, Value};
use crate::OrderedMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A reference to one port of one instance, serialized as
/// `"instance,port"`.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Instance name.
    pub instance: String,
    /// Port name on that instance.
    pub port: String,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(instance: impl Into<String>, port: impl Into<String>) -> Self {
        PortRef {
            instance: instance.into(),
            port: port.into(),
        }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.instance, self.port)
    }
}

/// Error when a `"instance,port"` string is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePortRefError {
    /// The offending text.
    pub text: String,
}

impl fmt::Display for ParsePortRefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid port reference {:?}: expected \"<instance>,<port>\"",
            self.text
        )
    }
}

impl Error for ParsePortRefError {}

impl FromStr for PortRef {
    type Err = ParsePortRefError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(2, ',');
        let instance = parts.next().unwrap_or("").trim();
        let port = parts.next().unwrap_or("").trim();
        if instance.is_empty() || port.is_empty() || port.contains(',') {
            return Err(ParsePortRefError {
                text: s.to_string(),
            });
        }
        Ok(PortRef::new(instance, port))
    }
}

/// One instantiated component.
#[derive(Debug, PartialEq, Default)]
pub struct Instance {
    /// Component type name (bound to a model by the `models` section).
    pub component: String,
    /// Parameter overrides.
    pub settings: OrderedMap<f64>,
}

impl Instance {
    /// Creates an instance of a component with default settings.
    pub fn new(component: impl Into<String>) -> Self {
        Instance {
            component: component.into(),
            settings: OrderedMap::new(),
        }
    }

    /// Adds a setting (builder style).
    pub fn with_setting(mut self, name: impl Into<String>, value: f64) -> Self {
        self.settings.insert(name.into(), value);
        self
    }
}

/// A pairwise connection between two instance ports.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Connection {
    /// First endpoint (the JSON key).
    pub a: PortRef,
    /// Second endpoint (the JSON value).
    pub b: PortRef,
}

/// A complete design document: netlist sections plus model bindings.
///
/// `clone_from` reuses the target's allocations field by field, so
/// refilling a working copy of a design costs copies, not allocations.
#[derive(Debug, PartialEq, Default)]
pub struct Netlist {
    /// Instance name → component.
    pub instances: OrderedMap<Instance>,
    /// Pairwise port connections.
    pub connections: Vec<Connection>,
    /// External port name → internal instance port.
    pub ports: OrderedMap<PortRef>,
    /// Component type → built-in model reference.
    pub models: OrderedMap<String>,
}

/// Implements `Clone` field by field, forwarding `clone_from` so that
/// refilling a copy reuses its string buffers (the derived `clone_from`
/// reallocates every string).
macro_rules! clone_by_field {
    ($ty:ident: $($field:ident),+) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)+
            }
        }
    };
}

clone_by_field!(PortRef: instance, port);
clone_by_field!(Instance: component, settings);
clone_by_field!(Connection: a, b);
clone_by_field!(Netlist: instances, connections, ports, models);

/// Structural error while interpreting parsed JSON as a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// A required section is missing.
    MissingSection {
        /// Section name, e.g. `"netlist"` or `"instances"`.
        section: &'static str,
    },
    /// A node has the wrong JSON type.
    WrongType {
        /// Dotted path of the offending node.
        path: String,
        /// Expected type name.
        expected: &'static str,
        /// Found type name.
        found: &'static str,
    },
    /// A `"instance,port"` string did not parse.
    BadPortRef {
        /// Dotted path of the offending node.
        path: String,
        /// The malformed text.
        text: String,
    },
    /// A settings value was not numeric.
    NonNumericSetting {
        /// Instance name.
        instance: String,
        /// Parameter name.
        param: String,
        /// Found type name.
        found: &'static str,
    },
    /// A model binding was not a string reference (the
    /// instances/models-confusion signature).
    ModelRefNotString {
        /// Component key in the `models` section.
        component: String,
        /// Found type name.
        found: &'static str,
    },
    /// A section holds more entries than the netlist size caps allow
    /// ([`Netlist::MAX_INSTANCES`] and its siblings).
    TooLarge {
        /// Dotted path of the oversized object.
        path: String,
        /// Entries it holds.
        count: usize,
        /// The cap.
        limit: usize,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::MissingSection { section } => {
                write!(f, "required section '{section}' is missing")
            }
            SchemaError::WrongType {
                path,
                expected,
                found,
            } => write!(f, "'{path}' must be a {expected}, found {found}"),
            SchemaError::BadPortRef { path, text } => write!(
                f,
                "'{path}' contains invalid port reference {text:?}: expected \"<instance>,<port>\""
            ),
            SchemaError::NonNumericSetting {
                instance,
                param,
                found,
            } => write!(
                f,
                "setting '{param}' of instance '{instance}' must be a number, found {found}"
            ),
            SchemaError::ModelRefNotString { component, found } => write!(
                f,
                "models entry '{component}' must be a string model reference like \"<ref>\", found {found}"
            ),
            SchemaError::TooLarge { path, count, limit } => write!(
                f,
                "'{path}' holds {count} entries, more than the limit of {limit}"
            ),
        }
    }
}

impl Error for SchemaError {}

/// The entries of the object `v`, of which there may be at most
/// `limit`; `path` names `v` in the error otherwise.
fn object_at(
    v: &Value,
    limit: usize,
    path: impl FnOnce() -> String,
) -> Result<&[(String, Value)], SchemaError> {
    match v.as_object() {
        None => Err(SchemaError::WrongType {
            path: path(),
            expected: "object",
            found: v.type_name(),
        }),
        Some(entries) if entries.len() > limit => Err(SchemaError::TooLarge {
            path: path(),
            count: entries.len(),
            limit,
        }),
        Some(entries) => Ok(entries),
    }
}

impl Netlist {
    /// The most instances [`Netlist::from_value`] accepts. The largest
    /// benchmark design (an 8×8 Spanke fabric) has 112.
    pub const MAX_INSTANCES: usize = 1024;
    /// The most connections [`Netlist::from_value`] accepts (the 8×8
    /// Spanke fabric has 160).
    pub const MAX_CONNECTIONS: usize = 2048;
    /// The most external ports [`Netlist::from_value`] accepts (the 8×8
    /// Spanke fabric has 16).
    pub const MAX_PORTS: usize = 256;
    /// The most settings one instance may carry (built-in models take at
    /// most a handful of parameters).
    pub const MAX_SETTINGS: usize = 64;

    /// Interprets a parsed JSON document as a netlist.
    ///
    /// Sections larger than the size caps ([`Netlist::MAX_INSTANCES`],
    /// [`Netlist::MAX_CONNECTIONS`], [`Netlist::MAX_PORTS`],
    /// [`Netlist::MAX_SETTINGS`]; `models` shares the instance cap) are
    /// rejected before their entries are read, so an oversized document
    /// never reaches validation or elaboration.
    ///
    /// # Errors
    ///
    /// Returns the first [`SchemaError`] encountered.
    pub fn from_value(v: &Value) -> Result<Netlist, SchemaError> {
        object_at(v, usize::MAX, || "$".into())?;
        let netlist_v = v
            .get("netlist")
            .ok_or(SchemaError::MissingSection { section: "netlist" })?;
        let instances_v = netlist_v
            .get("instances")
            .ok_or(SchemaError::MissingSection {
                section: "instances",
            })?;
        let connections_v = netlist_v
            .get("connections")
            .ok_or(SchemaError::MissingSection {
                section: "connections",
            })?;
        let ports_v = netlist_v
            .get("ports")
            .ok_or(SchemaError::MissingSection { section: "ports" })?;
        let models_v = v
            .get("models")
            .ok_or(SchemaError::MissingSection { section: "models" })?;

        // Instances.
        let inst_entries = object_at(instances_v, Self::MAX_INSTANCES, || {
            "netlist.instances".into()
        })?;
        let mut instances = OrderedMap::new();
        for (name, spec) in inst_entries {
            let instance = match spec {
                Value::String(component) => Instance::new(component.clone()),
                Value::Object(_) => {
                    let component_v = spec.get("component").ok_or(SchemaError::MissingSection {
                        section: "component",
                    })?;
                    let component = component_v.as_str().ok_or_else(|| SchemaError::WrongType {
                        path: format!("netlist.instances.{name}.component"),
                        expected: "string",
                        found: component_v.type_name(),
                    })?;
                    let mut instance = Instance::new(component);
                    if let Some(settings_v) = spec.get("settings") {
                        let entries = object_at(settings_v, Self::MAX_SETTINGS, || {
                            format!("netlist.instances.{name}.settings")
                        })?;
                        for (param, value) in entries {
                            let num =
                                value
                                    .as_f64()
                                    .ok_or_else(|| SchemaError::NonNumericSetting {
                                        instance: name.clone(),
                                        param: param.clone(),
                                        found: value.type_name(),
                                    })?;
                            instance.settings.insert(param.clone(), num);
                        }
                    }
                    instance
                }
                other => {
                    return Err(SchemaError::WrongType {
                        path: format!("netlist.instances.{name}"),
                        expected: "string or object",
                        found: other.type_name(),
                    })
                }
            };
            instances.insert(name.clone(), instance);
        }

        // Connections.
        let conn_entries = object_at(connections_v, Self::MAX_CONNECTIONS, || {
            "netlist.connections".into()
        })?;
        let mut connections = Vec::with_capacity(conn_entries.len());
        for (from, to_v) in conn_entries {
            let a: PortRef = from.parse().map_err(|_| SchemaError::BadPortRef {
                path: "netlist.connections".into(),
                text: from.clone(),
            })?;
            let to = to_v.as_str().ok_or_else(|| SchemaError::WrongType {
                path: format!("netlist.connections.{from}"),
                expected: "string",
                found: to_v.type_name(),
            })?;
            let b: PortRef = to.parse().map_err(|_| SchemaError::BadPortRef {
                path: format!("netlist.connections.{from}"),
                text: to.to_string(),
            })?;
            connections.push(Connection { a, b });
        }

        // External ports.
        let port_entries = object_at(ports_v, Self::MAX_PORTS, || "netlist.ports".into())?;
        let mut ports = OrderedMap::new();
        for (name, target_v) in port_entries {
            let target = target_v.as_str().ok_or_else(|| SchemaError::WrongType {
                path: format!("netlist.ports.{name}"),
                expected: "string",
                found: target_v.type_name(),
            })?;
            let pr: PortRef = target.parse().map_err(|_| SchemaError::BadPortRef {
                path: format!("netlist.ports.{name}"),
                text: target.to_string(),
            })?;
            ports.insert(name.clone(), pr);
        }

        // Models.
        let mut models = OrderedMap::new();
        for (component, ref_v) in object_at(models_v, Self::MAX_INSTANCES, || "models".into())? {
            let model_ref = ref_v
                .as_str()
                .ok_or_else(|| SchemaError::ModelRefNotString {
                    component: component.clone(),
                    found: ref_v.type_name(),
                })?;
            models.insert(component.clone(), model_ref.to_string());
        }

        Ok(Netlist {
            instances,
            connections,
            ports,
            models,
        })
    }

    /// Parses a JSON string directly into a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistParseError`] wrapping either a JSON or a schema
    /// error.
    pub fn from_json_str(text: &str) -> Result<Netlist, NetlistParseError> {
        let value = json::parse(text).map_err(NetlistParseError::Json)?;
        Netlist::from_value(&value).map_err(NetlistParseError::Schema)
    }

    /// Converts the netlist back to a JSON value in the canonical layout.
    pub fn to_value(&self) -> Value {
        let mut inst_entries = Vec::new();
        for (name, inst) in self.instances.iter() {
            let v = if inst.settings.is_empty() {
                Value::String(inst.component.clone())
            } else {
                let settings = Value::Object(
                    inst.settings
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Number(*v)))
                        .collect(),
                );
                Value::Object(vec![
                    (
                        "component".to_string(),
                        Value::String(inst.component.clone()),
                    ),
                    ("settings".to_string(), settings),
                ])
            };
            inst_entries.push((name.to_string(), v));
        }

        let conn_entries = self
            .connections
            .iter()
            .map(|c| (c.a.to_string(), Value::String(c.b.to_string())))
            .collect();

        let port_entries = self
            .ports
            .iter()
            .map(|(name, pr)| (name.to_string(), Value::String(pr.to_string())))
            .collect();

        let model_entries = self
            .models
            .iter()
            .map(|(component, model_ref)| (component.to_string(), Value::String(model_ref.clone())))
            .collect();

        Value::Object(vec![
            (
                "netlist".to_string(),
                Value::Object(vec![
                    ("instances".to_string(), Value::Object(inst_entries)),
                    ("connections".to_string(), Value::Object(conn_entries)),
                    ("ports".to_string(), Value::Object(port_entries)),
                ]),
            ),
            ("models".to_string(), Value::Object(model_entries)),
        ])
    }

    /// Serializes to pretty-printed JSON — byte for byte what
    /// `json::to_string_pretty(&self.to_value())` gives, written straight
    /// into one buffer without building the [`Value`] tree.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        let mut w = json::Writer::new(&mut out, 2);
        w.begin('{');
        w.key(&["netlist"]);
        w.begin('{');
        w.key(&["instances"]);
        w.begin('{');
        for (name, inst) in self.instances.iter() {
            w.key(&[name]);
            if inst.settings.is_empty() {
                w.string(&[&inst.component]);
                continue;
            }
            w.begin('{');
            w.key(&["component"]);
            w.string(&[&inst.component]);
            w.key(&["settings"]);
            w.begin('{');
            for (param, value) in inst.settings.iter() {
                w.key(&[param]);
                w.number(*value);
            }
            w.end('}');
            w.end('}');
        }
        w.end('}');
        w.key(&["connections"]);
        w.begin('{');
        for c in &self.connections {
            w.key(&[&c.a.instance, ",", &c.a.port]);
            w.string(&[&c.b.instance, ",", &c.b.port]);
        }
        w.end('}');
        w.key(&["ports"]);
        w.begin('{');
        for (name, pr) in self.ports.iter() {
            w.key(&[name]);
            w.string(&[&pr.instance, ",", &pr.port]);
        }
        w.end('}');
        w.end('}');
        w.key(&["models"]);
        w.begin('{');
        for (component, model_ref) in self.models.iter() {
            w.key(&[component]);
            w.string(&[model_ref]);
        }
        w.end('}');
        w.end('}');
        out
    }

    /// Enough capacity for the pretty JSON of a typical design, so the
    /// writer rarely regrows its buffer.
    fn json_len_hint(&self) -> usize {
        let settings: usize = self.instances.values().map(|i| i.settings.len()).sum();
        let entries = self.instances.len()
            + settings
            + self.connections.len()
            + self.ports.len()
            + self.models.len();
        64 * (entries + 2)
    }

    /// Removes an instance together with everything that references it:
    /// its connections, the external ports targeting it, and — when no
    /// other instance uses the same component — its model binding.
    /// Returns `false` (leaving the netlist untouched) when no instance
    /// of that name exists.
    ///
    /// Structural validity is preserved: a valid netlist stays valid
    /// because every dangling reference is dropped along with the
    /// instance. This is the primitive counterexample shrinkers are
    /// built from.
    pub fn remove_instance(&mut self, name: &str) -> bool {
        let Some(removed) = self.instances.remove(name) else {
            return false;
        };
        self.connections
            .retain(|c| c.a.instance != name && c.b.instance != name);
        let orphaned_ports: Vec<String> = self
            .ports
            .iter()
            .filter(|(_, pr)| pr.instance == name)
            .map(|(port, _)| port.to_string())
            .collect();
        for port in orphaned_ports {
            self.ports.remove(&port);
        }
        let component_still_used = self
            .instances
            .iter()
            .any(|(_, inst)| inst.component == removed.component);
        if !component_still_used {
            self.models.remove(&removed.component);
        }
        true
    }

    /// All connection endpoints plus external port targets — every
    /// instance-port usage in the document.
    pub fn all_endpoint_refs(&self) -> Vec<&PortRef> {
        let mut refs: Vec<&PortRef> = Vec::new();
        for c in &self.connections {
            refs.push(&c.a);
            refs.push(&c.b);
        }
        for (_, pr) in self.ports.iter() {
            refs.push(pr);
        }
        refs
    }
}

/// Error from [`Netlist::from_json_str`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistParseError {
    /// The text is not valid JSON.
    Json(json::JsonError),
    /// The JSON does not have the netlist structure.
    Schema(SchemaError),
}

impl fmt::Display for NetlistParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistParseError::Json(e) => write!(f, "JSON error: {e}"),
            NetlistParseError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl Error for NetlistParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetlistParseError::Json(e) => Some(e),
            NetlistParseError::Schema(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MZI_PS: &str = r#"{
      "netlist": {
        "instances": {
          "mmi1": "mmi",
          "mmi2": "mmi",
          "waveBottom": {"component": "waveguide", "settings": {"length": 20}},
          "phaseShifter": {"component": "phaseshifter", "settings": {"length": 10}}
        },
        "connections": {
          "mmi1,O1": "waveBottom,I1",
          "waveBottom,O1": "mmi2,O1",
          "mmi1,O2": "phaseShifter,I1",
          "phaseShifter,O1": "mmi2,O2"
        },
        "ports": {
          "I1": "mmi1,I1",
          "O1": "mmi2,I1"
        }
      },
      "models": {
        "mmi": "mmi1x2",
        "waveguide": "waveguide",
        "phaseshifter": "phaseshifter"
      }
    }"#;

    #[test]
    fn parses_the_paper_example() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        assert_eq!(n.instances.len(), 4);
        assert_eq!(n.connections.len(), 4);
        assert_eq!(n.ports.len(), 2);
        assert_eq!(n.models.len(), 3);
        assert_eq!(
            n.instances
                .get("waveBottom")
                .unwrap()
                .settings
                .get("length"),
            Some(&20.0)
        );
        assert_eq!(n.models.get("mmi").map(String::as_str), Some("mmi1x2"));
        assert_eq!(n.ports.get("O1"), Some(&PortRef::new("mmi2", "I1")));
    }

    #[test]
    fn portref_parsing() {
        let pr: PortRef = "mmi1,O2".parse().unwrap();
        assert_eq!(pr, PortRef::new("mmi1", "O2"));
        assert_eq!(pr.to_string(), "mmi1,O2");
        assert!(" spaced , O1 ".parse::<PortRef>().is_ok());
        assert!("noport".parse::<PortRef>().is_err());
        assert!(",".parse::<PortRef>().is_err());
        assert!("a,b,c".parse::<PortRef>().is_err());
        assert!("a,".parse::<PortRef>().is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        let text = n.to_json_string();
        let n2 = Netlist::from_json_str(&text).unwrap();
        assert_eq!(n, n2);
    }

    #[test]
    fn missing_sections_are_reported() {
        let err = Netlist::from_json_str(r#"{"models": {}}"#).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::MissingSection { section: "netlist" })
        ));
        let err = Netlist::from_json_str(
            r#"{"netlist": {"instances": {}, "connections": {}, "ports": {}}}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::MissingSection { section: "models" })
        ));
    }

    #[test]
    fn model_ref_must_be_string() {
        let text = r#"{
          "netlist": {"instances": {}, "connections": {}, "ports": {}},
          "models": {"mmi1x2": {"component": "mmi"}}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        match err {
            NetlistParseError::Schema(SchemaError::ModelRefNotString { component, found }) => {
                assert_eq!(component, "mmi1x2");
                assert_eq!(found, "object");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_numeric_setting_is_reported() {
        let text = r#"{
          "netlist": {
            "instances": {"wg": {"component": "waveguide", "settings": {"length": "ten"}}},
            "connections": {},
            "ports": {}
          },
          "models": {"waveguide": "waveguide"}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::NonNumericSetting { .. })
        ));
    }

    #[test]
    fn bad_portref_in_connection() {
        let text = r#"{
          "netlist": {
            "instances": {"a": "waveguide"},
            "connections": {"a": "b,I1"},
            "ports": {}
          },
          "models": {"waveguide": "waveguide"}
        }"#;
        let err = Netlist::from_json_str(text).unwrap_err();
        assert!(matches!(
            err,
            NetlistParseError::Schema(SchemaError::BadPortRef { .. })
        ));
    }

    #[test]
    fn endpoint_refs_cover_connections_and_ports() {
        let n = Netlist::from_json_str(MZI_PS).unwrap();
        let refs = n.all_endpoint_refs();
        assert_eq!(refs.len(), 4 * 2 + 2);
    }

    #[test]
    fn remove_instance_drops_all_references() {
        let mut n = Netlist::from_json_str(MZI_PS).unwrap();
        assert!(n.remove_instance("mmi2"));
        assert!(!n.instances.contains_key("mmi2"));
        assert!(n.all_endpoint_refs().iter().all(|pr| pr.instance != "mmi2"));
        // "mmi" is still used by mmi1, so the binding survives; removing
        // the unique phaseShifter takes its binding with it.
        assert!(n.models.contains_key("mmi"));
        assert!(n.remove_instance("phaseShifter"));
        assert!(!n.models.contains_key("phaseshifter"));
        assert!(!n.remove_instance("phantom"));
    }

    /// A document whose sections hold the given numbers of entries
    /// (`models` at least 1: `waveguide` is always bound).
    fn sized(
        instances: usize,
        settings: usize,
        connections: usize,
        ports: usize,
        models: usize,
    ) -> String {
        let settings: Vec<String> = (0..settings).map(|i| format!("\"p{i}\": 1")).collect();
        let mut inst: Vec<String> = (0..instances)
            .map(|i| format!("\"wg{i}\": \"waveguide\""))
            .collect();
        if let Some(first) = inst.first_mut() {
            *first = format!(
                "\"wg0\": {{\"component\": \"waveguide\", \"settings\": {{{}}}}}",
                settings.join(", ")
            );
        }
        let conns: Vec<String> = (0..connections)
            .map(|i| format!("\"wg{i},O1\": \"wg{},I1\"", i + 1))
            .collect();
        let ports: Vec<String> = (0..ports)
            .map(|i| format!("\"O{i}\": \"wg0,O1\""))
            .collect();
        let models: Vec<String> = std::iter::once("\"waveguide\": \"waveguide\"".to_string())
            .chain((1..models).map(|i| format!("\"c{i}\": \"waveguide\"")))
            .collect();
        format!(
            "{{\"netlist\": {{\"instances\": {{{}}}, \"connections\": {{{}}}, \"ports\": {{{}}}}}, \
             \"models\": {{{}}}}}",
            inst.join(", "),
            conns.join(", "),
            ports.join(", "),
            models.join(", ")
        )
    }

    fn too_large(text: &str) -> (String, usize, usize) {
        match Netlist::from_json_str(text) {
            Err(NetlistParseError::Schema(SchemaError::TooLarge { path, count, limit })) => {
                (path, count, limit)
            }
            other => panic!("expected a size-cap error, got {other:?}"),
        }
    }

    #[test]
    fn sections_at_their_caps_parse() {
        let n = Netlist::from_json_str(&sized(
            Netlist::MAX_INSTANCES,
            Netlist::MAX_SETTINGS,
            Netlist::MAX_CONNECTIONS.min(Netlist::MAX_INSTANCES - 1),
            Netlist::MAX_PORTS,
            Netlist::MAX_INSTANCES,
        ))
        .unwrap();
        assert_eq!(n.instances.len(), Netlist::MAX_INSTANCES);
        assert_eq!(
            n.instances.get("wg0").unwrap().settings.len(),
            Netlist::MAX_SETTINGS
        );
        assert_eq!(n.ports.len(), Netlist::MAX_PORTS);
        assert_eq!(n.models.len(), Netlist::MAX_INSTANCES);
    }

    #[test]
    fn sections_beyond_their_caps_are_rejected() {
        let limit = Netlist::MAX_INSTANCES;
        assert_eq!(
            too_large(&sized(limit + 1, 0, 0, 0, 1)),
            ("netlist.instances".to_string(), limit + 1, limit)
        );
        let limit = Netlist::MAX_SETTINGS;
        assert_eq!(
            too_large(&sized(1, limit + 1, 0, 0, 1)),
            (
                "netlist.instances.wg0.settings".to_string(),
                limit + 1,
                limit
            )
        );
        let limit = Netlist::MAX_CONNECTIONS;
        assert_eq!(
            too_large(&sized(1, 0, limit + 1, 0, 1)),
            ("netlist.connections".to_string(), limit + 1, limit)
        );
        let limit = Netlist::MAX_PORTS;
        assert_eq!(
            too_large(&sized(1, 0, 0, limit + 1, 1)),
            ("netlist.ports".to_string(), limit + 1, limit)
        );
        let limit = Netlist::MAX_INSTANCES;
        assert_eq!(
            too_large(&sized(1, 0, 0, 0, limit + 1)),
            ("models".to_string(), limit + 1, limit)
        );
    }

    #[test]
    fn json_error_passthrough() {
        let err = Netlist::from_json_str("not json").unwrap_err();
        assert!(matches!(err, NetlistParseError::Json(_)));
        assert!(err.to_string().contains("JSON error"));
    }
}
