//! Property-based tests for JSON and netlist round-trips and for payload
//! extraction from noisy responses.

use picbench_netlist::{extract, json, Connection, Instance, Netlist, OrderedMap, PortRef};
use proptest::prelude::*;

fn json_value_strategy() -> impl Strategy<Value = json::Value> {
    let leaf = prop_oneof![
        Just(json::Value::Null),
        any::<bool>().prop_map(json::Value::Bool),
        (-1e9f64..1e9).prop_map(|n| json::Value::Number((n * 1e3).round() / 1e3)),
        "[a-zA-Z0-9 _,.\\-{}\"\\\\]{0,20}".prop_map(json::Value::String),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(json::Value::Array),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..5).prop_map(|entries| {
                // JSON objects keep first occurrence of duplicate keys.
                let mut seen = Vec::new();
                let mut out = Vec::new();
                for (k, v) in entries {
                    if !seen.contains(&k) {
                        seen.push(k.clone());
                        out.push((k, v));
                    }
                }
                json::Value::Object(out)
            }),
        ]
    })
}

fn identifier() -> impl Strategy<Value = String> {
    "[a-z][a-zA-Z0-9]{0,10}"
}

type InstanceSpec = (String, String, Vec<(String, f64)>);
type PortRefSpec = (String, String, String, String);

fn assemble(
    instances: Vec<InstanceSpec>,
    connections: Vec<PortRefSpec>,
    ports: Vec<(String, String, String)>,
    models: Vec<(String, String)>,
) -> Netlist {
    let mut netlist = Netlist::default();
    for (name, component, settings) in instances {
        let mut inst = Instance::new(component);
        for (param, value) in settings {
            inst.settings.insert(param, value);
        }
        netlist.instances.insert(name, inst);
    }
    for (ai, ap, bi, bp) in connections {
        netlist.connections.push(Connection {
            a: PortRef::new(ai, ap),
            b: PortRef::new(bi, bp),
        });
    }
    let mut port_map = OrderedMap::new();
    for (ext, inst, port) in ports {
        port_map.insert(ext, PortRef::new(inst, port));
    }
    netlist.ports = port_map;
    for (component, model_ref) in models {
        netlist.models.insert(component, model_ref);
    }
    netlist
}

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    (
        proptest::collection::vec(
            (
                identifier(),
                identifier(),
                proptest::collection::vec(
                    (
                        "[a-z]{1,8}",
                        (-100.0f64..100.0).prop_map(|v| (v * 1e3).round() / 1e3),
                    ),
                    0..3,
                ),
            ),
            1..6,
        ),
        proptest::collection::vec((identifier(), "[IO][1-4]", identifier(), "[IO][1-4]"), 0..6),
        proptest::collection::vec(("[IO][1-9]", identifier(), "[IO][1-4]"), 0..4),
        proptest::collection::vec((identifier(), identifier()), 0..4),
    )
        .prop_map(|(instances, connections, ports, models)| {
            assemble(instances, connections, ports, models)
        })
}

/// Names drawn from every character class the string escaper treats
/// differently: quotes, backslashes, control characters, DEL, commas
/// and multi-byte UTF-8.
const AWKWARD: &str = "[a-zA-Z0-9 ,_\"\\\\\u{0}-\u{1f}\u{7f}µé→😀]{0,12}";

/// Settings values covering every branch of the number formatter.
fn awkward_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0f64),
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(999_999_999_999_999.0),
        Just(1e15),
        Just(-1e15),
        Just(1e300),
        Just(5e-324),
        (-1e6f64..1e6).prop_map(f64::round),
        -1e6f64..1e6,
        1e15f64..1e20,
    ]
}

/// Structurally arbitrary netlists with awkward names and numbers:
/// material for writer comparisons, not for schema round-trips.
fn awkward_netlist_strategy() -> impl Strategy<Value = Netlist> {
    (
        proptest::collection::vec(
            (
                AWKWARD,
                AWKWARD,
                proptest::collection::vec((AWKWARD, awkward_number()), 0..3),
            ),
            0..5,
        ),
        proptest::collection::vec((AWKWARD, AWKWARD, AWKWARD, AWKWARD), 0..5),
        proptest::collection::vec((AWKWARD, AWKWARD, AWKWARD), 0..4),
        proptest::collection::vec((AWKWARD, AWKWARD), 0..4),
    )
        .prop_map(|(instances, connections, ports, models)| {
            assemble(instances, connections, ports, models)
        })
}

/// Rebuilds a netlist with every section's entry order driven by `perm`
/// (a stream of pseudo-random ranks) and with connection endpoints
/// flipped where `flips` says so — structurally identical, differently
/// serialized.
fn permute_netlist(n: &Netlist, perm: u64) -> Netlist {
    // Splitmix-style rank stream: deterministic per (perm, index).
    let rank = |i: usize| -> u64 {
        let mut z = perm ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    let reorder = |keys: Vec<String>| -> Vec<String> {
        let mut ranked: Vec<(u64, String)> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (rank(i), k))
            .collect();
        ranked.sort();
        ranked.into_iter().map(|(_, k)| k).collect()
    };

    let mut out = Netlist::default();
    for name in reorder(n.instances.keys().map(str::to_string).collect()) {
        let inst = n.instances.get(&name).unwrap();
        let mut copy = Instance::new(inst.component.clone());
        for key in reorder(inst.settings.keys().map(str::to_string).collect()) {
            copy.settings
                .insert(key.clone(), *inst.settings.get(&key).unwrap());
        }
        out.instances.insert(name, copy);
    }
    let mut ranked_conns: Vec<(u64, Connection)> = n
        .connections
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let flipped = rank(i + 1000) % 2 == 0;
            let conn = if flipped {
                Connection {
                    a: c.b.clone(),
                    b: c.a.clone(),
                }
            } else {
                c.clone()
            };
            (rank(i), conn)
        })
        .collect();
    ranked_conns.sort_by_key(|x| x.0);
    out.connections = ranked_conns.into_iter().map(|(_, c)| c).collect();
    for name in reorder(n.ports.keys().map(str::to_string).collect()) {
        out.ports
            .insert(name.clone(), n.ports.get(&name).unwrap().clone());
    }
    for component in reorder(n.models.keys().map(str::to_string).collect()) {
        out.models
            .insert(component.clone(), n.models.get(&component).unwrap().clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_roundtrip_compact(v in json_value_strategy()) {
        let text = json::to_string(&v);
        let back = json::parse(&text).expect("serialized JSON must parse");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_roundtrip_pretty(v in json_value_strategy()) {
        let text = json::to_string_pretty(&v);
        let back = json::parse(&text).expect("pretty JSON must parse");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_rejects_truncation(v in json_value_strategy()) {
        let text = json::to_string(&v);
        prop_assume!(text.len() > 1);
        // Cutting the last byte must never parse to the same value.
        let truncated = &text[..text.len() - 1];
        if let Ok(other) = json::parse(truncated) { prop_assert_ne!(other, v) }
    }

    #[test]
    fn netlist_roundtrip(n in netlist_strategy()) {
        let text = n.to_json_string();
        let back = Netlist::from_json_str(&text).expect("netlist JSON must parse");
        prop_assert_eq!(back, n);
    }

    #[test]
    fn direct_writer_matches_the_value_tree(
        awkward in awkward_netlist_strategy(),
        plain in netlist_strategy(),
    ) {
        // The `Value` path is the oracle of the direct writer.
        for n in [awkward, plain] {
            prop_assert_eq!(n.to_json_string(), json::to_string_pretty(&n.to_value()));
        }
    }

    #[test]
    fn portref_display_parse_roundtrip(inst in "[a-zA-Z][a-zA-Z0-9]{0,10}", port in "[IO][0-9]{1,2}") {
        let pr = PortRef::new(inst, port);
        let back: PortRef = pr.to_string().parse().expect("round-trip");
        prop_assert_eq!(back, pr);
    }

    #[test]
    fn content_hash_invariant_under_permutation(n in netlist_strategy(), perm in any::<u64>()) {
        // Reordering sections, settings and connections (including endpoint
        // flips) must not change the canonical hash or the canonical form.
        let permuted = permute_netlist(&n, perm);
        prop_assert_eq!(permuted.content_hash(), n.content_hash());
        prop_assert_eq!(permuted.canonicalize(), n.canonicalize());
        // And serializing through JSON (which permutes nothing further but
        // exercises the parser) keeps the digest stable.
        let reparsed = Netlist::from_json_str(&permuted.to_json_string()).unwrap();
        prop_assert_eq!(reparsed.content_hash(), n.content_hash());
    }

    #[test]
    fn content_hash_distinct_under_setting_change(
        n in netlist_strategy(),
        delta in prop_oneof![Just(1e-9f64), Just(0.5), Just(1000.0)],
    ) {
        // Changing any one settings value must change the digest.
        let victim = n
            .instances
            .iter()
            .find(|(_, inst)| !inst.settings.is_empty())
            .map(|(name, inst)| {
                let key = inst.settings.keys().next().unwrap().to_string();
                (name.to_string(), key)
            });
        prop_assume!(victim.is_some());
        let (inst_name, key) = victim.unwrap();
        let mut tweaked = n.clone();
        let slot = tweaked
            .instances
            .get_mut(&inst_name)
            .unwrap()
            .settings
            .get_mut(&key)
            .unwrap();
        *slot += delta;
        prop_assert_ne!(tweaked.content_hash(), n.content_hash());
    }
}

/// Characters whose case mapping changes their UTF-8 length (or maps
/// them onto ASCII), markup look-alikes, and JSON punctuation.
const TRICKY_CHARS: &[char] = &[
    'İ', 'ẞ', 'Σ', 'ς', 'K', 'Ω', 'ﬁ', 'Ⱥ', 'ȿ', 'é', '😀', '<', '>', '/', 'r', 'R', '{', '}', '"',
    '`', '\n',
];

/// Random Unicode text: tricky characters mixed with arbitrary scalar
/// values from every plane.
fn unicode_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u64>(), 0..24).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| {
                if d & 1 == 0 {
                    TRICKY_CHARS[(d >> 1) as usize % TRICKY_CHARS.len()]
                } else {
                    char::from_u32(((d >> 1) % 0x11_0000) as u32).unwrap_or('\u{FFFD}')
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extract_payload_survives_unicode_around_a_valid_response(
        n in netlist_strategy(),
        prefix in unicode_text(),
        suffix in unicode_text(),
    ) {
        // Text before the first `<result>` and after `</result>` is
        // outside the section, so it must not change what is found.
        prop_assume!(!prefix.to_ascii_lowercase().contains("<result>"));
        let response = format!(
            "<analysis>wiring it up</analysis>\n<result>\n{}\n</result>",
            n.to_json_string()
        );
        let clean = extract::extract_payload(&response).expect("valid response extracts");
        let noisy = extract::extract_payload(&format!("{prefix}{response}{suffix}"))
            .expect("noise outside the section is ignored");
        prop_assert_eq!(noisy, clean);
        // Noise alone never panics either, whatever it is classified as.
        let _ = extract::extract_payload(&format!("{prefix}<result>{suffix}"));
        let _ = extract::extract_payload(&format!("{suffix}{prefix}"));
    }
}
