//! **Extension**: constrained DSE — maximise performance under power and
//! area budgets (the problem framing ArchRanker uses). Bottleneck-removal
//! search with a constrained objective versus random search at the same
//! simulation budget.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_constrained \
//!     [budget=N] [instrs=N] [power_cap=W] [area_cap=MM2] [workloads=N]
//! ```

use archexplorer::cliopt::{self, get};
use archexplorer::dse::archexplorer::{run_archexplorer, ArchExplorerOptions, Objective};
use archexplorer::dse::baselines::run_random_search;
use archexplorer::prelude::*;
use archx_bench::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    cliopt::run(|_, kv| {
        let budget = get(kv, "budget", 240u64)?;
        let instrs = get(kv, "instrs", 15_000usize)?;
        let power_cap: f64 = get(kv, "power_cap", 0.15)?;
        let area_cap: f64 = get(kv, "area_cap", 4.5)?;
        let limit = get(kv, "workloads", 6usize)?;

        let suite = truncate_suite(spec06_suite(), limit.max(1));
        let cfg = CampaignConfig {
            instrs_per_workload: instrs,
            ..CampaignConfig::default()
        };
        let space = DesignSpace::table4();
        let objective = Objective::ConstrainedPerf {
            power_cap,
            area_cap,
        };

        eprintln!("constrained DSE: max IPC s.t. power <= {power_cap} W, area <= {area_cap} mm²");
        let mut t = Table::new([
            "method",
            "best_feasible_ipc",
            "power_w",
            "area_mm2",
            "feasible_designs",
        ]);
        for (name, constrained) in [("ArchExplorer(constrained)", true), ("Random", false)] {
            let ev = build_evaluator_in(&suite, &cfg, TraceStore::global());
            let log = if constrained {
                let opts = ArchExplorerOptions {
                    objective,
                    ..Default::default()
                };
                run_archexplorer(&space, &ev, budget, 1, &opts)
            } else {
                run_random_search(&space, &ev, budget, 1)
            };
            let feasible: Vec<_> = log
                .records
                .iter()
                .filter(|r| objective.feasible(&r.ppa))
                .collect();
            let best = feasible
                .iter()
                .max_by(|a, b| a.ppa.ipc.partial_cmp(&b.ppa.ipc).expect("finite ipc"));
            match best {
                Some(rec) => t.row([
                    name.to_string(),
                    format!("{:.4}", rec.ppa.ipc),
                    format!("{:.4}", rec.ppa.power_w),
                    format!("{:.4}", rec.ppa.area_mm2),
                    feasible.len().to_string(),
                ]),
                None => t.row([
                    name.to_string(),
                    "none".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "0".to_string(),
                ]),
            };
        }
        println!(
            "\nConstrained exploration ({budget} sims, {} workloads)\n{}",
            suite.len(),
            t.to_text()
        );
        println!("expected: the constrained bottleneck search finds a faster design inside the");
        println!("budgets than random sampling, and spends most of its budget on feasible points.");
        Ok(())
    })
}
