//! # picbench-conformance
//!
//! The verification backbone of PICBench-rs: a generative conformance
//! harness that checks the simulator's every configuration against the
//! others and against physics, so performance work on the hot paths can
//! land without silently corrupting verdicts.
//!
//! Three layers:
//!
//! 1. [`generator`] — a seeded random circuit generator over the suite's
//!    structural families (splitter trees, MZI lattices, ring and
//!    Fabry–Pérot chains, Clements-style meshes, mixed interconnects),
//!    built on the vendored proptest [`Strategy`] machinery. Every
//!    emitted netlist is guaranteed valid.
//! 2. [`oracle`] — physics oracles: reciprocity (`S = Sᵀ`), passivity,
//!    unitarity for lossless model mixes, and wavelength continuity with
//!    an analytic per-circuit bound, probed on either [`SolverPath`].
//! 3. [`differential`] — a runner sweeping every circuit through the
//!    configuration axes that are required to agree (the planned
//!    block-sparse solver vs the naive dense oracle, the batched sweep
//!    vs per-point evaluation, cached vs uncached evaluation,
//!    canonicalized vs raw documents, default vs scalar SIMD tier), with
//!    greedy counterexample [`shrink`]ing and a replayable JSON
//!    [`corpus`].
//!
//! The [`runner`] module ties the layers into the single-call sweep the
//! `conformance` bench binary and CI gate drive.
//!
//! ## Example
//!
//! ```
//! use picbench_conformance::{run_conformance, ConformanceConfig};
//!
//! let report = run_conformance(&ConformanceConfig {
//!     cases: 4,
//!     seed: 1,
//!     ..ConformanceConfig::default()
//! });
//! assert!(report.is_conformant());
//! ```
//!
//! [`Strategy`]: proptest::Strategy

#![warn(missing_docs)]

pub mod corpus;
pub mod differential;
pub mod generator;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use corpus::{load_corpus_dir, CorpusCase, CorpusError};
pub use differential::{response_diff, DiffAxis, DiffRunner, Disagreement, Perturbation};
pub use generator::{shuffle_netlist, CircuitStrategy, Family, GenCircuit, GeneratorConfig};
pub use oracle::{
    check_circuit, effective_optical_length_um, OracleConfig, OracleViolation, SolverPath,
};
pub use runner::{run_conformance, CaseFailure, ConformanceConfig, ConformanceReport, FailureKind};
pub use shrink::{normalize_port_names, shrink_netlist};
