//! Run a miniature PICBench campaign: two model profiles on the
//! fundamental-device and computing problems, with and without the
//! Table II restrictions, printing Pass@k tables and a per-problem
//! breakdown.
//!
//! The full paper-scale campaign is available via
//! `cargo run --release -p picbench-bench --bin repro -- table3 table4`.
//!
//! ```sh
//! cargo run --release --example run_benchmark
//! ```

use picbench::core::{render_csv, render_table, Campaign, CampaignConfig, CampaignReport};
use picbench::problems::Problem;
use picbench::sim::WavelengthGrid;
use picbench::synthllm::ModelProfile;

fn run_matrix(
    profiles: &[ModelProfile],
    problems: &[Problem],
    config: CampaignConfig,
) -> CampaignReport {
    Campaign::builder()
        .problems(problems.to_vec())
        .profiles(profiles)
        .config(config)
        .build()
        .expect("a valid campaign definition")
        .run()
}

fn main() {
    let profiles = vec![ModelProfile::gpt4o(), ModelProfile::claude35_sonnet()];
    let problems: Vec<_> = picbench::problems::suite()
        .into_iter()
        .filter(|p| {
            matches!(
                p.id.as_str(),
                "mzi-ps" | "mzm" | "umatrix" | "nls" | "clements-4x4" | "os-2x2"
            )
        })
        .collect();

    for restrictions in [false, true] {
        let config = CampaignConfig {
            samples_per_problem: 5,
            k_values: vec![1, 5],
            feedback_iters: vec![0, 1, 3],
            restrictions,
            seed: 7,
            grid: WavelengthGrid::paper_fast(),
            threads: 0,
            ..CampaignConfig::default()
        };
        let report = run_matrix(&profiles, &problems, config);
        let title = if restrictions {
            "Mini-campaign WITH restrictions"
        } else {
            "Mini-campaign WITHOUT restrictions"
        };
        println!("{}", render_table(&report, title));

        // Per-problem breakdown for the no-feedback condition.
        for condition in &report.conditions {
            if condition.feedback_iters != 0 {
                continue;
            }
            println!("per-problem (model {}, no feedback):", condition.model);
            let mut ids: Vec<&String> = condition.tallies.keys().collect();
            ids.sort();
            for id in ids {
                let t = condition.tallies[id];
                println!(
                    "  {:<14} syntax {}/{}  functional {}/{}",
                    id, t.syntax_passes, t.n, t.functional_passes, t.n
                );
            }
            println!();
        }
    }

    // Machine-readable output for downstream analysis.
    let config = CampaignConfig {
        samples_per_problem: 5,
        restrictions: false,
        seed: 7,
        ..CampaignConfig::default()
    };
    let report = run_matrix(&profiles, &problems, config);
    println!("CSV export:\n{}", render_csv(&report));
}
