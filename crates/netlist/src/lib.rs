//! # picbench-netlist
//!
//! The netlist layer of the PICBench-rs reproduction: the JSON document
//! format LLM-generated photonic designs arrive in, plus everything needed
//! to judge their *structure*:
//!
//! * [`json`] — a from-scratch strict JSON parser/serializer with
//!   positioned errors (the offline crate set has no `serde_json`, and the
//!   benchmark wants to classify *why* parses fail);
//! * [`extract`] — locating the JSON payload inside a raw chat response
//!   (`<result>` sections, markdown fences, stray prose);
//! * the schema types [`Netlist`], [`Instance`], [`Connection`],
//!   [`PortRef`] with JSON round-tripping. [`Netlist::to_json_string`]
//!   is the one netlist writer: it drives the same formatter as
//!   [`json::to_string_pretty`] field by field, with no [`json::Value`]
//!   tree in between, so its cost is linear in the design.
//!   [`Netlist::to_value`] stays for callers that need the tree, and
//!   serves the tests as the writer's oracle;
//! * [`FailureType`] — the ten-entry Table II error taxonomy with its
//!   restriction texts;
//! * [`validate`] — the structural rule checks that produce classified
//!   [`ValidationIssue`]s;
//! * [`NetlistBuilder`] — fluent programmatic construction for golden
//!   designs and tests;
//! * [`Netlist::canonicalize`] / [`Netlist::content_hash`] — the canonical
//!   form and its 64-bit content digest, the key of the evaluation cache
//!   (structurally identical designs hash equal regardless of JSON key
//!   order, instance ordering or connection direction).
//!
//! ## Example
//!
//! ```
//! use picbench_netlist::{Netlist, NetlistBuilder};
//!
//! let netlist = NetlistBuilder::new()
//!     .instance("wg", "waveguide")
//!     .port("I1", "wg,I1")
//!     .port("O1", "wg,O1")
//!     .model("waveguide", "waveguide")
//!     .build();
//! let text = netlist.to_json_string();
//! assert_eq!(Netlist::from_json_str(&text)?, netlist);
//! # Ok::<(), picbench_netlist::NetlistParseError>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod canon;
pub mod extract;
mod failure;
pub mod json;
mod ordmap;
mod schema;
mod validate;

pub use builder::NetlistBuilder;
pub use canon::Fnv64;
pub use failure::{FailureType, ValidationIssue};
pub use ordmap::OrderedMap;
pub use schema::{
    Connection, Instance, Netlist, NetlistParseError, ParsePortRefError, PortRef, SchemaError,
};
pub use validate::{validate, ComponentCatalog, PortSpec};
