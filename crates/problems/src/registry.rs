//! The built-in problem table.
//!
//! The seed implementation rebuilt the entire 24-problem suite for every
//! `find(id)` call — re-rendering every description string and re-wiring
//! every golden netlist per lookup. This table constructs the built-in
//! suite exactly once per process (on first access), indexes it by id,
//! and never changes afterwards. Custom problem sets are decoded by
//! [`crate::problems_from_json`] and held by whoever decoded them.

use crate::{build_builtin_suite, Problem};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The built-in suite in Table I order, with an id index.
pub(crate) struct Builtins {
    pub(crate) problems: Vec<Problem>,
    by_id: HashMap<String, usize>,
}

impl Builtins {
    /// Looks up a built-in problem by id — a hash-map hit, no rebuild.
    pub(crate) fn get(&self, id: &str) -> Option<&Problem> {
        self.by_id.get(id).map(|&i| &self.problems[i])
    }
}

/// The process-wide table, built (once) on first access.
pub(crate) fn builtins() -> &'static Builtins {
    static TABLE: OnceLock<Builtins> = OnceLock::new();
    TABLE.get_or_init(|| {
        let problems = build_builtin_suite();
        let by_id = problems
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        Builtins { problems, by_id }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_serves_builtins_without_rebuilding() {
        let table = builtins();
        assert_eq!(table.problems.len(), 24);
        // Two lookups return the *same allocation* — the suite was built
        // once and cached, not reconstructed per call.
        let a = table.get("mzi-ps").unwrap();
        let b = builtins().get("mzi-ps").unwrap();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.name, "MZI ps");
    }

    #[test]
    fn find_routes_through_the_registry() {
        assert_eq!(crate::find("mzi-ps").as_ref(), builtins().get("mzi-ps"));
        assert_eq!(crate::suite(), builtins().problems);
        assert!(crate::find("warp-core").is_none());
    }
}
