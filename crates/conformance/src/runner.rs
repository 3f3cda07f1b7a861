//! The end-to-end conformance sweep: generate → differential-check →
//! oracle-check → shrink failures.
//!
//! This is what the `conformance` bench binary and the CI gate drive: a
//! seeded batch of generated circuits, each swept through every
//! configured differential axis and every physics oracle, with failures
//! shrunk to minimal replayable [`CorpusCase`]s.

use crate::corpus::CorpusCase;
use crate::differential::{DiffAxis, DiffRunner, Disagreement};
use crate::generator::{CircuitStrategy, Family, GenCircuit, GeneratorConfig};
use crate::oracle::{check_circuit, OracleConfig, OracleViolation, SolverPath};
use crate::shrink::shrink_netlist;
use picbench_sim::{ModelRegistry, WavelengthGrid};
use proptest::strategy::Strategy;
use proptest::TestRng;
use std::fmt;

/// Configuration of one conformance sweep.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Number of circuits to generate and check.
    pub cases: usize,
    /// Master seed: the whole sweep is a pure function of it.
    pub seed: u64,
    /// Generator distribution knobs.
    pub generator: GeneratorConfig,
    /// Differential axes to sweep.
    pub axes: Vec<DiffAxis>,
    /// Oracle tolerances and probes.
    pub oracle: OracleConfig,
    /// Sweep grid of the differential comparisons.
    pub grid: WavelengthGrid,
    /// Solver paths the oracles probe (the differential axes always
    /// compare both regardless).
    pub oracle_paths: Vec<SolverPath>,
    /// Whether failures are shrunk before reporting (disable for a
    /// faster fail-fast sweep).
    pub shrink: bool,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            cases: 64,
            seed: 20_250_205,
            generator: GeneratorConfig::default(),
            axes: DiffAxis::ALL.to_vec(),
            oracle: OracleConfig::default(),
            grid: WavelengthGrid::new(1.51, 1.59, 7),
            oracle_paths: SolverPath::ALL.to_vec(),
            shrink: true,
        }
    }
}

/// Why one generated case failed conformance.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// Two configuration paths disagreed.
    Differential(Disagreement),
    /// A physical invariant was violated.
    Oracle {
        /// Solver path on which the oracle fired.
        path: SolverPath,
        /// All violations found on that path.
        violations: Vec<OracleViolation>,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Differential(d) => write!(f, "differential: {d}"),
            FailureKind::Oracle { path, violations } => {
                write!(f, "oracle on {path}:")?;
                for v in violations {
                    write!(f, " [{v}]")?;
                }
                Ok(())
            }
        }
    }
}

/// One failing case, shrunk and ready for the corpus.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Index of the case in the sweep (replay via `seed` + index).
    pub case_index: usize,
    /// The family the generator drew.
    pub family: Family,
    /// Whether the generator marked the circuit lossless — preserved so
    /// a replayed counterexample keeps exercising the unitarity oracle.
    pub lossless: bool,
    /// What failed.
    pub kind: FailureKind,
    /// The original generated netlist.
    pub original: picbench_netlist::Netlist,
    /// The minimized netlist that still fails (equals `original` when
    /// shrinking is disabled).
    pub shrunk: picbench_netlist::Netlist,
}

impl CaseFailure {
    /// Converts the failure into a replayable corpus case.
    pub fn to_corpus_case(&self, sweep_seed: u64, grid: WavelengthGrid) -> CorpusCase {
        CorpusCase {
            name: format!("shrunk-{}-case{}", self.family, self.case_index),
            seed: sweep_seed,
            family: Some(self.family),
            lossless: self.lossless,
            grid,
            note: format!("found by conformance sweep: {}", self.kind),
            netlist: self.shrunk.clone(),
        }
    }
}

/// The outcome of a conformance sweep.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Per-family case counts, in [`Family::ALL`] order.
    pub family_counts: Vec<(Family, usize)>,
    /// Axes that were swept.
    pub axes: Vec<DiffAxis>,
    /// All failures (empty = fully conformant).
    pub failures: Vec<CaseFailure>,
}

impl ConformanceReport {
    /// Whether every case agreed on every axis and satisfied every
    /// oracle.
    pub fn is_conformant(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs a conformance sweep: `config.cases` seeded circuits through all
/// configured axes and oracles, shrinking any failure.
pub fn run_conformance(config: &ConformanceConfig) -> ConformanceReport {
    let registry = ModelRegistry::with_builtins();
    let strategy = CircuitStrategy::new(config.generator.clone());
    let runner = DiffRunner::new(config.grid).with_axes(config.axes.iter().copied());
    let mut rng = TestRng::new(config.seed);
    let mut family_counts: Vec<(Family, usize)> = Family::ALL.iter().map(|f| (*f, 0)).collect();
    let mut failures = Vec::new();

    for case_index in 0..config.cases {
        let gen = strategy.generate(&mut rng);
        if let Some(entry) = family_counts.iter_mut().find(|(f, _)| *f == gen.family) {
            entry.1 += 1;
        }
        if let Err(disagreement) = runner.check(&gen.netlist) {
            let shrunk = if config.shrink {
                runner.shrink(&gen.netlist, disagreement.axis)
            } else {
                gen.netlist.clone()
            };
            failures.push(CaseFailure {
                case_index,
                family: gen.family,
                lossless: gen.lossless,
                kind: FailureKind::Differential(disagreement),
                original: gen.netlist.clone(),
                shrunk,
            });
            continue;
        }
        for &path in &config.oracle_paths {
            let violations = check_circuit(&gen, &registry, path, &config.oracle);
            if violations.is_empty() {
                continue;
            }
            let shrunk = if config.shrink {
                let lossless = gen.lossless;
                let family = gen.family;
                shrink_netlist(&gen.netlist, &registry, |candidate| {
                    let candidate_gen = GenCircuit {
                        netlist: candidate.clone(),
                        family,
                        lossless,
                    };
                    !check_circuit(&candidate_gen, &registry, path, &config.oracle).is_empty()
                })
            } else {
                gen.netlist.clone()
            };
            failures.push(CaseFailure {
                case_index,
                family: gen.family,
                lossless: gen.lossless,
                kind: FailureKind::Oracle { path, violations },
                original: gen.netlist.clone(),
                shrunk,
            });
            break;
        }
    }

    ConformanceReport {
        cases: config.cases,
        family_counts,
        axes: config.axes.clone(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_fully_conformant() {
        let config = ConformanceConfig {
            cases: 24,
            seed: 7,
            oracle_paths: SolverPath::ALL.to_vec(),
            ..ConformanceConfig::default()
        };
        let report = run_conformance(&config);
        assert_eq!(report.cases, 24);
        assert!(
            report.is_conformant(),
            "unexpected failures: {:#?}",
            report
                .failures
                .iter()
                .map(|f| (f.case_index, f.kind.to_string()))
                .collect::<Vec<_>>()
        );
        let generated: usize = report.family_counts.iter().map(|(_, n)| n).sum();
        assert_eq!(generated, 24);
    }

    #[test]
    fn sweeps_are_deterministic_per_seed() {
        let config = ConformanceConfig {
            cases: 8,
            seed: 99,
            ..ConformanceConfig::default()
        };
        let a = run_conformance(&config);
        let b = run_conformance(&config);
        assert_eq!(a.family_counts, b.family_counts);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
