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

use archexplorer::dse::archexplorer::{run_archexplorer, ArchExplorerOptions};
use archexplorer::dse::eval::Evaluator;
use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let telemetry_mode = args.telemetry();
    let budget = args.get_u64("budget", 240);
    let instrs = args.get_usize("instrs", 12_000);
    let seed = args.get_u64("seed", 1);
    let limit = args.get_usize("workloads", 6);
    let suite = truncate_suite(spec06_suite(), limit.max(1));
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
        let ev = Evaluator::builder(suite.clone())
            .window(instrs)
            .seed(seed)
            .build();
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
    archx_bench::emit::emit_telemetry(&telemetry_mode);
}
