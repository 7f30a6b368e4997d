//! **Figure 12**: Pareto-hypervolume-versus-simulations curves for every
//! DSE method on the SPEC06- and SPEC17-like suites.
//!
//! Paper shape: ArchExplorer's curve rises earliest and dominates the
//! black-box baselines across budgets.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig12_hypervolume \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N] [suite=spec06|spec17|both] \
//!     [seeds=N] [jobs=N] [threads=N]
//! ```
//!
//! Defaults keep the run in minutes; raise `budget`/`instrs` for smoother
//! curves (the paper runs to 3000+ simulations of 100 K-instruction
//! Simpoint windows). `jobs=N` fans the (method × seed) runs out across N
//! worker threads under a global governor (`threads=` caps the total);
//! results are identical to `jobs=1`, only wall-clock changes.

use archexplorer::cliopt::parse_suite;
use archexplorer::cliopt::{self, get};
use archexplorer::dse::campaign::{CampaignRunner, ParallelConfig};
use archexplorer::prelude::*;
use archx_bench::Table;
use std::process::ExitCode;

/// Multi-seed variant: prints mean ± std hypervolume per budget point.
fn run_suite_sweep(
    name: &str,
    suite: Vec<Workload>,
    cfg: &CampaignConfig,
    seeds: &[u64],
    parallel: &ParallelConfig,
) {
    let space = DesignSpace::table4();
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Random,
        Method::Calipers,
    ];
    eprintln!(
        "[{name}] sweeping {} methods x {} sims x {} seeds ({} jobs)...",
        methods.len(),
        cfg.sim_budget,
        seeds.len(),
        parallel.jobs
    );
    let r = RefPoint::default();
    let step = (cfg.sim_budget / 12).max(1);
    let curves = CampaignRunner::new()
        .parallel(*parallel)
        .sweep(&methods, &space, &suite, cfg, seeds, &r, step)
        .expect("seeds sample aligned budget grids");
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|c| c.method.clone()));
    let mut t = Table::new(header);
    let len = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![((i as u64 + 1) * step).to_string()];
        for c in &curves {
            row.push(
                c.points
                    .get(i)
                    .map(|&(_, mean, std)| format!("{mean:.3}±{std:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        t.row(row);
    }
    println!(
        "
Figure 12 [{name}] over seeds {seeds:?}: mean ± std hypervolume
{}",
        t.to_text()
    );
}

fn run_suite(name: &str, suite: Vec<Workload>, cfg: &CampaignConfig, parallel: &ParallelConfig) {
    let space = DesignSpace::table4();
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Random,
        Method::Calipers,
    ];
    eprintln!(
        "[{name}] running {} methods x {} sims ({} workloads, {} instrs each, {} jobs)...",
        methods.len(),
        cfg.sim_budget,
        suite.len(),
        cfg.instrs_per_workload,
        parallel.jobs
    );
    let campaign = CampaignRunner::new()
        .parallel(*parallel)
        .run(&methods, &space, &suite, cfg)
        .expect("infallible without per-run setup hooks");

    let r = RefPoint::default();
    let step = (cfg.sim_budget / 12).max(1);
    let curves = campaign.curves(&r, step);
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|(m, _)| m.clone()));
    let mut t = Table::new(header);
    let len = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![((i as u64 + 1) * step).to_string()];
        for (_, curve) in &curves {
            row.push(
                curve
                    .get(i)
                    .map(|(_, hv)| format!("{hv:.4}"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        t.row(row);
    }
    println!(
        "\nFigure 12 [{name}]: Pareto hypervolume vs simulations\n{}",
        t.to_text()
    );

    // Shape check: where does ArchExplorer stand at the final budget?
    let finals: Vec<(String, f64)> = curves
        .iter()
        .filter_map(|(m, c)| c.last().map(|&(_, hv)| (m.clone(), hv)))
        .collect();
    let ax = finals
        .iter()
        .find(|(m, _)| m == "ArchExplorer")
        .map(|&(_, hv)| hv)
        .unwrap_or(0.0);
    let beaten = finals
        .iter()
        .filter(|(m, hv)| m != "ArchExplorer" && ax >= *hv)
        .count();
    println!(
        "[{name}] ArchExplorer final HV {ax:.4} ≥ {beaten}/{} baselines",
        finals.len() - 1
    );
}

fn main() -> ExitCode {
    cliopt::run(|_, kv| {
        let cfg = CampaignConfig {
            sim_budget: get(kv, "budget", 360u64)?,
            instrs_per_workload: get(kv, "instrs", 20_000usize)?,
            seed: get(kv, "seed", 1u64)?,
            ..CampaignConfig::default()
        };
        let limit = get(kv, "workloads", usize::MAX)?;
        let which = get(kv, "suite", "both".to_string())?;
        let n_seeds = get(kv, "seeds", 1usize)?;
        let parallel = cliopt::parallel(kv)?;

        let names = match which.as_str() {
            "both" => vec!["spec06", "spec17"],
            one => vec![one],
        };
        // Resolve every name before running anything, so a typo fails fast.
        let suites: Vec<(String, Vec<Workload>)> = names
            .into_iter()
            .map(|name| {
                let suite = parse_suite(name)?;
                Ok((name.to_uppercase(), truncate_suite(suite, limit.max(1))))
            })
            .collect::<Result<_, String>>()?;
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| cfg.seed + i).collect();
        for (name, suite) in suites {
            if n_seeds > 1 {
                run_suite_sweep(&name, suite, &cfg, &seeds, &parallel);
            } else {
                run_suite(&name, suite, &cfg, &parallel);
            }
        }
        Ok(())
    })
}
