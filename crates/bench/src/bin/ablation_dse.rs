//! Ablation study of the ArchExplorer loop's design choices (called out in
//! DESIGN.md): the full configuration versus (a) single-rung moves,
//! (b) naive zero-only shrinking, (c) no freeze rule, (d) no
//! intensifying restarts — all at identical budgets/seeds, scored by
//! Pareto hypervolume.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ablation_dse \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N]
//! ```

use archexplorer::cliopt::{self, get};
use archexplorer::dse::archexplorer::{run_archexplorer, ArchExplorerOptions};
use archexplorer::prelude::*;
use archx_bench::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    cliopt::run(|_, kv| {
        let budget = get(kv, "budget", 240u64)?;
        let instrs = get(kv, "instrs", 12_000usize)?;
        let seed = get(kv, "seed", 1u64)?;
        let limit = get(kv, "workloads", 6usize)?;
        let suite = truncate_suite(spec06_suite(), limit.max(1));
        let cfg = CampaignConfig {
            instrs_per_workload: instrs,
            seed,
            ..CampaignConfig::default()
        };
        let space = DesignSpace::table4();

        let base = ArchExplorerOptions::default();
        let variants: Vec<(&str, ArchExplorerOptions)> = vec![
            ("full", base.clone()),
            ("single-rung moves", {
                let mut o = base.clone();
                o.reassign.rungs_per_contribution = 0.0;
                o
            }),
            ("naive shrink (zero-only)", {
                let mut o = base.clone();
                o.reassign.cost_aware_shrink = false;
                o
            }),
            ("no freeze rule", {
                let mut o = base.clone();
                o.freeze_threshold = f64::NEG_INFINITY;
                o
            }),
            ("no intensifying restarts", {
                let mut o = base.clone();
                o.intensify_prob = 0.0;
                o
            }),
        ];

        let r = RefPoint::default();
        let mut t = Table::new(["variant", "final_hv", "best_tradeoff", "designs"]);
        for (name, opts) in variants {
            let ev = build_evaluator_in(&suite, &cfg, TraceStore::global());
            let log = run_archexplorer(&space, &ev, budget, seed, &opts);
            let pts: Vec<_> = log.records.iter().map(|rec| rec.ppa).collect();
            let hv = hypervolume(&pts, &r);
            let best = log.best_tradeoff().map_or(0.0, |b| b.ppa.tradeoff());
            eprintln!("[{name}] done ({} designs)", log.records.len());
            t.row([
                name.to_string(),
                format!("{hv:.4}"),
                format!("{best:.4}"),
                log.records.len().to_string(),
            ]);
        }
        println!(
            "\nArchExplorer ablations ({budget} sims, {} workloads):\n{}",
            suite.len(),
            t.to_text()
        );
        Ok(())
    })
}
