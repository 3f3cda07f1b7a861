//! # picbench-synthllm
//!
//! Synthetic language models substituting the five commercial LLM APIs of
//! the paper's evaluation (GPT-4, GPT-o1-mini, GPT-4o, Claude 3.5 Sonnet,
//! Gemini 1.5 Pro), which are unavailable in this environment.
//!
//! Each [`SyntheticLlm`] is driven by a calibrated [`ModelProfile`]: it
//! answers the initial query with the problem's golden design perturbed
//! by mistakes drawn from the Table II taxonomy (frequency scaled by
//! problem difficulty and by the presence of restrictions in the system
//! prompt), and reacts to feedback turns by repairing the reported errors
//! with its profile's self-correction probability. The evaluation
//! pipeline sees only rendered chat text — the corruptions are *real*
//! netlist defects that the *real* validator, simulator and classifier
//! must catch.
//!
//! ## Example
//!
//! ```
//! use picbench_prompt::{Conversation, Role};
//! use picbench_synthllm::{LanguageModel, ModelProfile, SyntheticLlm};
//!
//! let problem = picbench_problems::find("mzi-ps").unwrap();
//! let mut llm = SyntheticLlm::new(ModelProfile::claude35_sonnet(), 42);
//! llm.begin_sample(&problem, 0);
//! let mut conversation = Conversation::with_system("You are a PIC designer…");
//! conversation.push(Role::User, problem.description.clone());
//! let response = llm.respond(&conversation);
//! assert!(response.contains("<result>"));
//! ```

#![warn(missing_docs)]

pub mod corrupt;
mod knowledge;
mod profile;
mod provider;
mod retry;
mod synthetic;

pub use corrupt::Corruption;
pub use knowledge::{bogus_port, instance_ports, ports_of, unused_ports};
pub use profile::ModelProfile;
pub use provider::{
    FailureKind, FlakyProvider, FlakySchedule, ModelProvider, ReplayLlm, FATAL_AUTH_RESPONSE,
    GARBLED_SUFFIX, MISSING_TRANSCRIPT, NO_ACTIVE_SAMPLE, PAPER_SEED, RATE_LIMIT_RESPONSE,
    TIMEOUT_RESPONSE, TRANSIENT_IO_RESPONSE,
};
pub use retry::{
    classify_transport, Jitter, RetryEvent, RetryPolicy, RetryProvider, RetrySink,
    TransportErrorKind,
};
pub use synthetic::{PerfectLlm, SyntheticLlm};

use picbench_problems::Problem;
use picbench_prompt::Conversation;

/// A chat-style design generator: the interface the benchmark drives.
///
/// The paper's harness is "compatible with a wide range of LLMs as long
/// as they provide a Python API"; this trait is the Rust equivalent of
/// that seam. [`SyntheticLlm`] implements it stochastically,
/// [`PerfectLlm`] as an oracle; a real API client could implement it too.
pub trait LanguageModel: Send {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Resets per-sample state; called once before each sample's first
    /// query. `sample_index` distinguishes the n Pass@k samples.
    fn begin_sample(&mut self, problem: &Problem, sample_index: u64);

    /// Produces the raw chat response to the conversation so far.
    fn respond(&mut self, conversation: &Conversation) -> String;
}
