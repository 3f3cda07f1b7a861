//! Canonicalization and content-addressed hashing of netlists.
//!
//! LLM responses (and the synthetic corruption engine) routinely produce
//! documents that are *structurally identical* but differ in JSON key
//! order, instance ordering, or connection endpoint direction. The
//! evaluation cache must treat all of those as one design, and — because
//! cached results are replayed bit for bit — the simulator must also
//! *evaluate* all of them identically.
//!
//! Both needs are served by one definition: the **canonical form** of a
//! netlist.
//!
//! * instances sorted by name, each instance's settings sorted by key;
//! * every connection's endpoints ordered lexicographically by
//!   `(instance, port)` (the pairwise interconnect is symmetric, so the
//!   JSON key/value direction carries no information);
//! * connections sorted by their ordered endpoints;
//! * external ports sorted by external name;
//! * model bindings sorted by component.
//!
//! [`Netlist::canonicalize`] produces that form; [`Netlist::content_hash`]
//! is a 64-bit FNV-1a digest *of* that form, computed without building it.
//! The two are consistent by construction:
//! `n.canonicalize().content_hash() == n.content_hash()`, and the hash is
//! invariant under instance reordering, JSON key permutation and
//! connection flips — but distinct under any change to a component,
//! setting value, connection, port or model binding.

use crate::schema::{Connection, Netlist, PortRef};
use crate::OrderedMap;

/// Incremental FNV-1a (64-bit) over length-delimited fields.
///
/// Every variable-length field is prefixed with its byte length so that
/// adjacent fields can never alias each other's boundaries. Shared by
/// every content digest in the workspace (netlist hashes here, circuit
/// topology hashes in the simulator, cache keys in the evaluator) so the
/// mixing constants live in exactly one place.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;

    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// One-shot digest of a string (no length delimiter).
    pub fn hash_str(s: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_bytes(s.as_bytes());
        h.finish()
    }

    /// Mixes raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Mixes a length-delimited string into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Mixes a float by bit pattern: any representable change — including
    /// `0.0` vs `-0.0` — yields a different digest.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The map's entries sorted by key. Keys are unique, so the order is
/// total and an unstable sort is deterministic.
fn sorted_entries<V>(map: &OrderedMap<V>) -> Vec<(&str, &V)> {
    let mut entries: Vec<(&str, &V)> = map.iter().collect();
    entries.sort_unstable_by_key(|&(key, _)| key);
    entries
}

fn endpoint_key(p: &PortRef) -> (&str, &str) {
    (p.instance.as_str(), p.port.as_str())
}

/// The connection with its endpoints in canonical (lexicographic) order.
fn ordered_connection(c: &Connection) -> (&PortRef, &PortRef) {
    if endpoint_key(&c.a) <= endpoint_key(&c.b) {
        (&c.a, &c.b)
    } else {
        (&c.b, &c.a)
    }
}

impl Netlist {
    /// Returns the canonical form of this netlist (see the
    /// module docs of `canon`).
    ///
    /// Canonicalization is idempotent, preserves structural validity and
    /// is physically a no-op: the canonical netlist elaborates to an
    /// equivalent circuit. It *does* fix the port numbering and
    /// elimination order the simulator sees, which is exactly why the
    /// evaluation pipeline simulates canonical forms: every member of a
    /// hash class then produces the same frequency response bit for bit.
    pub fn canonicalize(&self) -> Netlist {
        let mut instances = OrderedMap::new();
        for (name, inst) in sorted_entries(&self.instances) {
            let mut canon = crate::Instance::new(inst.component.clone());
            for (key, &value) in sorted_entries(&inst.settings) {
                canon.settings.insert(key.to_string(), value);
            }
            instances.insert(name.to_string(), canon);
        }

        let mut connections: Vec<Connection> = self
            .connections
            .iter()
            .map(|c| {
                let (a, b) = ordered_connection(c);
                Connection {
                    a: a.clone(),
                    b: b.clone(),
                }
            })
            .collect();
        connections.sort_by(|x, y| {
            (endpoint_key(&x.a), endpoint_key(&x.b)).cmp(&(endpoint_key(&y.a), endpoint_key(&y.b)))
        });

        let mut ports = OrderedMap::new();
        for (name, target) in sorted_entries(&self.ports) {
            ports.insert(name.to_string(), target.clone());
        }

        let mut models = OrderedMap::new();
        for (component, model_ref) in sorted_entries(&self.models) {
            models.insert(component.to_string(), model_ref.clone());
        }

        Netlist {
            instances,
            connections,
            ports,
            models,
        }
    }

    /// 64-bit content hash of the canonical form.
    ///
    /// Two netlists have equal hashes whenever they are structurally
    /// identical — regardless of JSON key order, instance ordering or
    /// connection endpoint direction. Any change to a component type,
    /// setting (key or value bits), connection, external port or model
    /// binding changes the digest (up to the usual 64-bit collision odds).
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("picbench-netlist/v1");

        h.write_str("instances");
        h.write_u64(self.instances.len() as u64);
        for (name, inst) in sorted_entries(&self.instances) {
            h.write_str(name);
            h.write_str(&inst.component);
            h.write_u64(inst.settings.len() as u64);
            for (key, &value) in sorted_entries(&inst.settings) {
                h.write_str(key);
                h.write_f64(value);
            }
        }

        h.write_str("connections");
        h.write_u64(self.connections.len() as u64);
        let mut conns: Vec<(&str, &str, &str, &str)> = self
            .connections
            .iter()
            .map(|c| {
                let (a, b) = ordered_connection(c);
                (
                    a.instance.as_str(),
                    a.port.as_str(),
                    b.instance.as_str(),
                    b.port.as_str(),
                )
            })
            .collect();
        conns.sort_unstable();
        for (ai, ap, bi, bp) in conns {
            h.write_str(ai);
            h.write_str(ap);
            h.write_str(bi);
            h.write_str(bp);
        }

        h.write_str("ports");
        h.write_u64(self.ports.len() as u64);
        for (name, target) in sorted_entries(&self.ports) {
            h.write_str(name);
            h.write_str(&target.instance);
            h.write_str(&target.port);
        }

        h.write_str("models");
        h.write_u64(self.models.len() as u64);
        for (component, model_ref) in sorted_entries(&self.models) {
            h.write_str(component);
            h.write_str(model_ref);
        }

        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn mzi() -> Netlist {
        NetlistBuilder::new()
            .instance("split", "mmi1x2")
            .instance("combine", "mmi1x2")
            .instance_with("top", "waveguide", &[("length", 10.0), ("loss", 2.0)])
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

    /// The same design entered in a different order everywhere.
    fn mzi_permuted() -> Netlist {
        NetlistBuilder::new()
            .instance_with("bottom", "waveguide", &[("length", 25.0)])
            .instance_with("top", "waveguide", &[("loss", 2.0), ("length", 10.0)])
            .instance("combine", "mmi1x2")
            .instance("split", "mmi1x2")
            .connect("combine,O2", "bottom,O1") // flipped endpoints
            .connect("top,O1", "combine,O1")
            .connect("bottom,I1", "split,O2")
            .connect("split,O1", "top,I1")
            .port("O1", "combine,I1")
            .port("I1", "split,I1")
            .model("waveguide", "waveguide")
            .model("mmi1x2", "mmi1x2")
            .build()
    }

    #[test]
    fn hash_invariant_under_reordering_and_flips() {
        assert_eq!(mzi().content_hash(), mzi_permuted().content_hash());
    }

    #[test]
    fn canonical_forms_of_permutations_are_equal() {
        assert_eq!(mzi().canonicalize(), mzi_permuted().canonicalize());
    }

    #[test]
    fn canonicalize_is_idempotent_and_hash_consistent() {
        let n = mzi();
        let canon = n.canonicalize();
        assert_eq!(canon, canon.canonicalize());
        assert_eq!(canon.content_hash(), n.content_hash());
    }

    #[test]
    fn hash_distinct_under_setting_change() {
        let mut tweaked = mzi();
        tweaked
            .instances
            .get_mut("top")
            .unwrap()
            .settings
            .insert("length".to_string(), 10.0 + 1e-12);
        assert_ne!(mzi().content_hash(), tweaked.content_hash());
    }

    #[test]
    fn hash_distinct_under_negative_zero_setting() {
        let mut a = mzi();
        a.instances
            .get_mut("top")
            .unwrap()
            .settings
            .insert("loss".to_string(), 0.0);
        let mut b = mzi();
        b.instances
            .get_mut("top")
            .unwrap()
            .settings
            .insert("loss".to_string(), -0.0);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn hash_distinct_under_structural_changes() {
        let base = mzi().content_hash();
        let mut renamed = mzi();
        let inst = renamed.instances.remove("top").unwrap();
        renamed.instances.insert("topmost".to_string(), inst);
        assert_ne!(base, renamed.content_hash());

        let mut rewired = mzi();
        rewired.connections[0].b = PortRef::new("bottom", "I1");
        assert_ne!(base, rewired.content_hash());

        let mut reported = mzi();
        reported
            .ports
            .insert("O2".to_string(), PortRef::new("combine", "O2"));
        assert_ne!(base, reported.content_hash());

        let mut remodeled = mzi();
        remodeled
            .models
            .insert("waveguide".to_string(), "mzi".to_string());
        assert_ne!(base, remodeled.content_hash());
    }

    #[test]
    fn canonical_form_roundtrips_through_json() {
        let canon = mzi().canonicalize();
        let back = Netlist::from_json_str(&canon.to_json_string()).unwrap();
        assert_eq!(back, canon);
        assert_eq!(back.content_hash(), canon.content_hash());
    }

    #[test]
    fn empty_netlists_hash_equal() {
        assert_eq!(
            Netlist::default().content_hash(),
            Netlist::default().content_hash()
        );
    }
}
