//! **Figure 14** (the per-benchmark results bars): for each method's best
//! PPA-trade-off design, the per-workload trade-off across both suites.
//!
//! Paper shape: ArchExplorer's best design wins or ties on most workloads.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig14_per_workload \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N]
//! ```

use archexplorer::cliopt::{self, get};
use archexplorer::dse::campaign::{build_evaluator_in, CampaignConfig, CampaignRunner};
use archexplorer::prelude::*;
use archexplorer::workloads::TraceStore;
use archx_bench::Table;
use std::process::ExitCode;

fn main() -> ExitCode {
    cliopt::run(|_, kv| {
        let cfg = CampaignConfig {
            sim_budget: get(kv, "budget", 240u64)?,
            instrs_per_workload: get(kv, "instrs", 20_000usize)?,
            seed: get(kv, "seed", 1u64)?,
            ..CampaignConfig::default()
        };
        let limit = get(kv, "workloads", usize::MAX)?;
        let methods = [
            Method::ArchExplorer,
            Method::AdaBoost,
            Method::ArchRanker,
            Method::BoomExplorer,
        ];

        for (name, suite) in [("SPEC06", spec06_suite()), ("SPEC17", spec17_suite())] {
            let suite = truncate_suite(suite, limit.max(1));

            // Find each method's best design, then re-evaluate per workload.
            eprintln!(
                "[{name}] {} methods: exploring {} sims each...",
                methods.len(),
                cfg.sim_budget
            );
            let campaign = CampaignRunner::new()
                .run(&methods, &DesignSpace::table4(), &suite, &cfg)
                .expect("infallible without per-run setup hooks");
            let best: Vec<(String, MicroArch)> = campaign
                .logs
                .iter()
                .map(|log| {
                    let rec = log.best_tradeoff().expect("non-empty log");
                    (log.method.clone(), rec.arch)
                })
                .collect();

            let evaluator = build_evaluator_in(&suite, &cfg, TraceStore::global());
            let mut header = vec!["workload".to_string()];
            header.extend(best.iter().map(|(m, _)| m.clone()));
            let mut t = Table::new(header);
            let evals: Vec<_> = best
                .iter()
                .map(|(_, arch)| evaluator.evaluate(arch).expect("winning designs evaluate"))
                .collect();
            let mut wins = vec![0usize; best.len()];
            for (wi, wl) in suite.iter().enumerate() {
                let mut row = vec![wl.id.0.to_string()];
                let tr: Vec<f64> = evals
                    .iter()
                    .map(|e| e.per_workload[wi].tradeoff())
                    .collect();
                let top = tr
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                wins[top] += 1;
                for v in &tr {
                    row.push(format!("{v:.4}"));
                }
                t.row(row);
            }
            println!(
                "\nFigure 14 [{name}]: per-workload PPA trade-off of each method's best design"
            );
            println!("{}", t.to_text());
            for ((m, _), w) in best.iter().zip(&wins) {
                println!("  {m}: best on {w}/{} workloads", suite.len());
            }
        }
        Ok(())
    })
}
