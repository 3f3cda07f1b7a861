//! JSON (de)serialization of [`Problem`] definitions.
//!
//! A problem set is a JSON document of the form
//!
//! ```json
//! {
//!   "problems": [
//!     {
//!       "id": "mzi-ps",
//!       "name": "MZI ps",
//!       "category": "fundamental-device",
//!       "description": "Create a Mach-Zehnder interferometer ...",
//!       "spec": {"inputs": 1, "outputs": 1},
//!       "golden": { "netlist": { ... }, "models": { ... } }
//!     }
//!   ]
//! }
//! ```
//!
//! (a bare top-level array of problem objects is also accepted). The
//! golden design uses the same netlist schema the language models emit,
//! so problem sets round-trip byte-stably through
//! [`problems_to_json`] / [`problems_from_json`] and can be authored by
//! hand, exported from the built-in suite, or generated by tooling —
//! the one way to add problems beyond the built-in suite. The server's
//! `POST /v1/problem-sets` decodes sets through [`problems_from_json`]
//! and holds them itself.

use crate::{Category, Problem};
use picbench_netlist::json::{self, Value};
use picbench_netlist::{Netlist, PortSpec};
use std::collections::HashSet;
use std::fmt;

impl Category {
    /// The stable serialization token of this category.
    pub fn token(&self) -> &'static str {
        match self {
            Category::OpticalComputing => "optical-computing",
            Category::OpticalInterconnect => "optical-interconnect",
            Category::OpticalSwitch => "optical-switch",
            Category::FundamentalDevice => "fundamental-device",
        }
    }

    /// Parses a serialization token back into a category.
    pub fn from_token(token: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.token() == token)
    }
}

/// Why a problem-set document failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemDecodeError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// The document parsed but does not describe a problem set.
    Schema(String),
    /// The set decoded, but a problem in it is inconsistent: an empty or
    /// repeated id, or a golden design whose external port count does
    /// not match its spec.
    Invalid(String),
}

impl fmt::Display for ProblemDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemDecodeError::Json(e) => write!(f, "problem set is not valid JSON: {e}"),
            ProblemDecodeError::Schema(why) => write!(f, "problem set schema error: {why}"),
            ProblemDecodeError::Invalid(why) => write!(f, "invalid problem: {why}"),
        }
    }
}

impl std::error::Error for ProblemDecodeError {}

fn schema_err<T>(why: impl Into<String>) -> Result<T, ProblemDecodeError> {
    Err(ProblemDecodeError::Schema(why.into()))
}

fn require_str(obj: &Value, key: &str, context: &str) -> Result<String, ProblemDecodeError> {
    match obj.get(key) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(other) => schema_err(format!(
            "{context}: field {key:?} must be a string, got {}",
            other.type_name()
        )),
        None => schema_err(format!("{context}: missing field {key:?}")),
    }
}

fn require_count(obj: &Value, key: &str, context: &str) -> Result<usize, ProblemDecodeError> {
    match obj.get(key) {
        Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 => Ok(*n as usize),
        Some(other) => schema_err(format!(
            "{context}: field {key:?} must be a non-negative integer, got {}",
            json::to_string(other)
        )),
        None => schema_err(format!("{context}: missing field {key:?}")),
    }
}

impl Problem {
    /// Serializes this problem to a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), Value::String(self.id.clone())),
            ("name".to_string(), Value::String(self.name.clone())),
            (
                "category".to_string(),
                Value::String(self.category.token().to_string()),
            ),
            (
                "description".to_string(),
                Value::String(self.description.clone()),
            ),
            (
                "spec".to_string(),
                Value::Object(vec![
                    ("inputs".to_string(), Value::Number(self.spec.inputs as f64)),
                    (
                        "outputs".to_string(),
                        Value::Number(self.spec.outputs as f64),
                    ),
                ]),
            ),
            ("golden".to_string(), self.golden.to_value()),
        ])
    }

    /// Deserializes a problem from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`ProblemDecodeError::Schema`] describing the first
    /// missing or mistyped field, including golden-netlist schema errors.
    pub fn from_value(v: &Value) -> Result<Problem, ProblemDecodeError> {
        if v.as_object().is_none() {
            return schema_err(format!(
                "a problem must be an object, got {}",
                v.type_name()
            ));
        }
        let id = require_str(v, "id", "problem")?;
        let context = format!("problem {id:?}");
        let name = require_str(v, "name", &context)?;
        let category_token = require_str(v, "category", &context)?;
        let category = Category::from_token(&category_token).ok_or_else(|| {
            ProblemDecodeError::Schema(format!("{context}: unknown category {category_token:?}"))
        })?;
        let description = require_str(v, "description", &context)?;
        let spec_value = v.get("spec").ok_or_else(|| {
            ProblemDecodeError::Schema(format!("{context}: missing field \"spec\""))
        })?;
        let spec = PortSpec::new(
            require_count(spec_value, "inputs", &context)?,
            require_count(spec_value, "outputs", &context)?,
        );
        let golden_value = v.get("golden").ok_or_else(|| {
            ProblemDecodeError::Schema(format!("{context}: missing field \"golden\""))
        })?;
        let golden = Netlist::from_value(golden_value)
            .map_err(|e| ProblemDecodeError::Schema(format!("{context}: golden netlist: {e}")))?;
        Ok(Problem {
            id,
            name,
            category,
            description,
            spec,
            golden,
        })
    }
}

/// Serializes a problem set to pretty-printed JSON.
pub fn problems_to_json(problems: &[Problem]) -> String {
    let set = Value::Object(vec![(
        "problems".to_string(),
        Value::Array(problems.iter().map(Problem::to_value).collect()),
    )]);
    json::to_string_pretty(&set)
}

/// Parses a problem-set document: either `{"problems": [...]}` or a bare
/// top-level array of problem objects.
///
/// # Errors
///
/// Returns [`ProblemDecodeError::Json`] on malformed JSON,
/// [`ProblemDecodeError::Schema`] on structural mismatches and
/// [`ProblemDecodeError::Invalid`] on an empty or repeated id or a golden
/// whose port count does not match its spec.
pub fn problems_from_json(text: &str) -> Result<Vec<Problem>, ProblemDecodeError> {
    let value = json::parse(text).map_err(ProblemDecodeError::Json)?;
    let items = match (&value, value.get("problems")) {
        (_, Some(Value::Array(items))) => items.as_slice(),
        (Value::Array(items), None) => items.as_slice(),
        (_, Some(other)) => {
            return schema_err(format!(
                "field \"problems\" must be an array, got {}",
                other.type_name()
            ))
        }
        _ => {
            return schema_err(format!(
                "expected {{\"problems\": [...]}} or a top-level array, got {}",
                value.type_name()
            ))
        }
    };
    let problems: Vec<Problem> = items
        .iter()
        .map(Problem::from_value)
        .collect::<Result<_, _>>()?;
    let mut ids = HashSet::with_capacity(problems.len());
    for problem in &problems {
        if problem.id.is_empty() {
            return Err(ProblemDecodeError::Invalid("empty problem id".to_string()));
        }
        if !ids.insert(problem.id.as_str()) {
            return Err(ProblemDecodeError::Invalid(format!(
                "problem id {:?} appears more than once in the set",
                problem.id
            )));
        }
        let expected = problem.spec.inputs + problem.spec.outputs;
        if problem.golden.ports.len() != expected {
            return Err(ProblemDecodeError::Invalid(format!(
                "problem {:?}: golden exposes {} external ports but the spec requires {expected}",
                problem.id,
                problem.golden.ports.len(),
            )));
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_tokens_round_trip() {
        for category in Category::ALL {
            assert_eq!(Category::from_token(category.token()), Some(category));
        }
        assert_eq!(Category::from_token("warp-drive"), None);
    }

    #[test]
    fn whole_suite_round_trips_preserving_goldens_and_specs() {
        let suite = crate::suite();
        let text = problems_to_json(&suite);
        let decoded = problems_from_json(&text).unwrap();
        assert_eq!(decoded.len(), suite.len());
        for (original, copy) in suite.iter().zip(&decoded) {
            assert_eq!(original, copy, "{} changed across round trip", original.id);
            // Golden netlists must survive *exactly* — same content hash,
            // same serialized bytes.
            assert_eq!(
                original.golden.to_json_string(),
                copy.golden.to_json_string()
            );
            assert_eq!(original.spec, copy.spec);
        }
    }

    #[test]
    fn bare_array_documents_are_accepted() {
        let suite = crate::suite();
        let array = Value::Array(vec![suite[0].to_value()]);
        let decoded = problems_from_json(&json::to_string(&array)).unwrap();
        assert_eq!(decoded[0], suite[0]);
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let err = problems_from_json(r#"{"problems": [{"id": "x"}]}"#).unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
        let err = problems_from_json("not json").unwrap_err();
        assert!(matches!(err, ProblemDecodeError::Json(_)));
        let err = problems_from_json(r#"{"problems": 3}"#).unwrap_err();
        assert!(err.to_string().contains("array"), "{err}");
    }

    #[test]
    fn from_json_rejects_duplicates_and_inconsistent_specs() {
        let mzi = crate::find("mzi-ps").unwrap();
        let mut unnamed = mzi.clone();
        unnamed.id.clear();
        let mut mismatched = crate::find("mzm").unwrap();
        mismatched.spec = PortSpec::new(4, 4);
        for (set, needle) in [
            (vec![unnamed], "empty problem id"),
            (vec![mzi.clone(), mzi], "more than once"),
            (vec![mismatched], "spec requires 8"),
        ] {
            let err = problems_from_json(&problems_to_json(&set)).unwrap_err();
            assert!(matches!(err, ProblemDecodeError::Invalid(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn from_json_is_all_or_nothing() {
        let mut good = crate::find("mzi-ps").unwrap();
        good.id = "mzi-ps-json".to_string();
        let mut bad = crate::find("mzm").unwrap();
        bad.id = "mzm-json-broken".to_string();
        bad.spec = PortSpec::new(4, 4); // golden/spec mismatch → Invalid
        let text = problems_to_json(&[good.clone(), bad]);
        // A valid problem ahead of an invalid one is not returned alone:
        // the whole set is rejected.
        let err = problems_from_json(&text).unwrap_err();
        assert!(matches!(err, ProblemDecodeError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("mzm-json-broken"), "{err}");
        let alone = problems_from_json(&problems_to_json(&[good.clone()])).unwrap();
        assert_eq!(alone, vec![good]);
    }
}
