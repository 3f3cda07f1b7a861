//! Property tests of the content-addressed evaluation pipeline: cached
//! evaluation must be **bit-identical** to cold evaluation over random
//! netlists and grids, and permuted-but-identical documents must share
//! one cache entry and one frequency response.

use picbench_core::{EvalCache, Evaluator};
use picbench_math::SimdLevel;
use picbench_netlist::{Connection, Instance, Netlist, OrderedMap};
use picbench_problems::Problem;
use picbench_sim::WavelengthGrid;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomized two-arm interferometer: golden-problem-shaped but with
/// arbitrary arm lengths, entered in a permutation-driven order.
fn random_mzi(arm_top: f64, arm_bottom: f64, perm: u64) -> Netlist {
    let mut sections: Vec<(String, Instance)> = vec![
        ("split".into(), Instance::new("mmi1x2")),
        ("combine".into(), Instance::new("mmi1x2")),
        (
            "top".into(),
            Instance::new("waveguide").with_setting("length", arm_top),
        ),
        (
            "bottom".into(),
            Instance::new("waveguide").with_setting("length", arm_bottom),
        ),
    ];
    let section_shift = (perm % sections.len() as u64) as usize;
    sections.rotate_left(section_shift);

    let mut n = Netlist::default();
    for (name, inst) in sections {
        n.instances.insert(name, inst);
    }
    let mut connections = vec![
        Connection {
            a: "split,O1".parse().unwrap(),
            b: "top,I1".parse().unwrap(),
        },
        Connection {
            a: "split,O2".parse().unwrap(),
            b: "bottom,I1".parse().unwrap(),
        },
        Connection {
            a: "top,O1".parse().unwrap(),
            b: "combine,O1".parse().unwrap(),
        },
        Connection {
            a: "bottom,O1".parse().unwrap(),
            b: "combine,O2".parse().unwrap(),
        },
    ];
    let connection_shift = (perm / 7 % connections.len() as u64) as usize;
    connections.rotate_left(connection_shift);
    if perm.is_multiple_of(2) {
        for c in &mut connections {
            std::mem::swap(&mut c.a, &mut c.b);
        }
    }
    n.connections = connections;
    let mut ports = OrderedMap::new();
    if perm.is_multiple_of(3) {
        ports.insert("O1".to_string(), "combine,I1".parse().unwrap());
        ports.insert("I1".to_string(), "split,I1".parse().unwrap());
    } else {
        ports.insert("I1".to_string(), "split,I1".parse().unwrap());
        ports.insert("O1".to_string(), "combine,I1".parse().unwrap());
    }
    n.ports = ports;
    n.models.insert("mmi1x2".to_string(), "mmi1x2".to_string());
    n.models
        .insert("waveguide".to_string(), "waveguide".to_string());
    n
}

fn problem() -> Problem {
    picbench_problems::find("mzi-ps").unwrap()
}

fn wrap(netlist: &Netlist) -> String {
    format!("<result>\n{}\n</result>", netlist.to_json_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_evaluation_is_bit_identical_to_cold(
        arm_top in 1.0f64..60.0,
        arm_bottom in 1.0f64..60.0,
        perm in any::<u64>(),
        points in 2usize..24,
        scalar_tier in any::<bool>(),
    ) {
        let simd = if scalar_tier { SimdLevel::Scalar } else { SimdLevel::default() };
        let grid = WavelengthGrid::new(1.51, 1.59, points);
        let problem = problem();
        let netlist = random_mzi(arm_top, arm_bottom, perm);
        let permuted = random_mzi(arm_top, arm_bottom, perm.wrapping_add(1));
        prop_assert_eq!(netlist.content_hash(), permuted.content_hash());

        let cache = Arc::new(EvalCache::new());
        let mut cached = Evaluator::new(grid, simd).with_cache(Arc::clone(&cache));
        let mut cold = Evaluator::new(grid, simd);

        // Cold response vs the response that seeds the cache: identical bits.
        let cold_response = cold
            .candidate_response(&problem, &netlist)
            .expect("mzi candidate is structurally valid");
        let warm_response = cached
            .candidate_response(&problem, &netlist)
            .expect("mzi candidate is structurally valid");
        prop_assert_eq!(&*cold_response, &*warm_response);

        // A replay — and a permuted twin — must return the *same shared*
        // response object, and the verdict reports must agree.
        let replay = cached.candidate_response(&problem, &netlist).unwrap();
        prop_assert!(Arc::ptr_eq(&warm_response, &replay));
        let twin = cached.candidate_response(&problem, &permuted).unwrap();
        prop_assert!(Arc::ptr_eq(&warm_response, &twin));
        // The cold evaluator sees the permuted document for the first
        // time; canonical simulation makes it bit-identical anyway.
        let cold_twin = cold.candidate_response(&problem, &permuted).unwrap();
        prop_assert_eq!(&*cold_twin, &*warm_response);

        // The golden comes from the cold evaluator, so it seeds nothing.
        let golden = cold.golden(&problem).expect("mzi golden simulates");
        let report_cold = cold.evaluate_response(&problem, &golden, &wrap(&netlist));
        let report_cached = cached.evaluate_response(&problem, &golden, &wrap(&netlist));
        prop_assert_eq!(report_cold.syntax_pass(), report_cached.syntax_pass());
        prop_assert_eq!(report_cold.functional, report_cached.functional);
        prop_assert_eq!(report_cold.comparison, report_cached.comparison);

        let stats = cache.stats();
        // One structure, one sweep.
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(cache.simulation_count(), 1);
    }
}
