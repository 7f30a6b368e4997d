//! End-to-end DSE behaviour: budget accounting, determinism, and
//! ArchExplorer's edge over unguided search at equal budgets.

use archexplorer::dse::campaign::{build_evaluator_in, run_method_on, CampaignConfig};
use archexplorer::prelude::*;
use archexplorer::workloads::TraceStore;

fn cfg(budget: u64) -> CampaignConfig {
    CampaignConfig {
        sim_budget: budget,
        instrs_per_workload: 4_000,
        seed: 11,
        trace_seed: None,
        threads: 2,
        ..CampaignConfig::default()
    }
}

fn suite() -> Vec<Workload> {
    let mut s: Vec<_> = spec06_suite().into_iter().take(3).collect();
    for w in &mut s {
        w.weight = 1.0 / 3.0;
    }
    s
}

/// One search on a fresh evaluator over the shared suite.
fn run(method: Method, budget: u64) -> RunLog {
    let cfg = cfg(budget);
    let evaluator = build_evaluator_in(&suite(), &cfg, TraceStore::global());
    run_method_on(method, &DesignSpace::table4(), &evaluator, budget, cfg.seed)
}

#[test]
fn methods_are_deterministic() {
    for m in [Method::ArchExplorer, Method::Random, Method::BoomExplorer] {
        let a = run(m, 24);
        let b = run(m, 24);
        assert_eq!(a, b, "{m:?} must be deterministic");
    }
}

#[test]
fn every_method_respects_its_budget() {
    for m in Method::ALL {
        let log = run(m, 21);
        let last = log.records.last().expect("non-empty log").sims_after;
        assert!(last >= 21, "{m:?} stopped early at {last}");
        assert!(last <= 21 + 3, "{m:?} overshot to {last}");
    }
}

#[test]
fn archexplorer_beats_random_at_equal_budget() {
    let budget = 90;
    let ax = run(Method::ArchExplorer, budget);
    let rnd = run(Method::Random, budget);
    let best_ax = ax.best_tradeoff().expect("non-empty").ppa.tradeoff();
    let best_rnd = rnd.best_tradeoff().expect("non-empty").ppa.tradeoff();
    assert!(
        best_ax >= best_rnd * 0.95,
        "bottleneck-driven search must at least match random: {best_ax} vs {best_rnd}"
    );
}

#[test]
fn exploration_set_hypervolume_is_monotone_over_the_run() {
    let log = run(Method::ArchExplorer, 45);
    let curve = log.hypervolume_curve(&RefPoint::default(), 9);
    assert!(!curve.is_empty());
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-12);
    }
}

#[test]
fn constrained_objective_finds_feasible_designs() {
    use archexplorer::dse::archexplorer::{run_archexplorer, ArchExplorerOptions, Objective};
    use archexplorer::dse::eval::Evaluator;
    let space = DesignSpace::table4();
    let objective = Objective::ConstrainedPerf {
        power_cap: 0.2,
        area_cap: 5.0,
    };
    let ev = Evaluator::builder(suite())
        .window(3_000)
        .seed(1)
        .threads(2)
        .build();
    let opts = ArchExplorerOptions {
        objective,
        ..Default::default()
    };
    let log = run_archexplorer(&space, &ev, 60, 5, &opts);
    let feasible = log
        .records
        .iter()
        .filter(|r| objective.feasible(&r.ppa))
        .count();
    assert!(
        feasible > log.records.len() / 4,
        "constrained search must concentrate on feasible designs: {feasible}/{}",
        log.records.len()
    );
    // Scoring sanity: infeasible designs score negative, feasible by IPC.
    let over = archexplorer::power::PpaResult {
        ipc: 3.0,
        power_w: 1.0,
        area_mm2: 20.0,
    };
    assert!(objective.score(&over) < 0.0);
    let ok = archexplorer::power::PpaResult {
        ipc: 0.8,
        power_w: 0.1,
        area_mm2: 4.0,
    };
    assert!((objective.score(&ok) - 0.8).abs() < 1e-12);
}

#[test]
fn frontier_designs_are_mutually_nondominated() {
    let log = run(Method::Random, 45);
    let frontier = log.frontier();
    for (i, (_, a)) in frontier.iter().enumerate() {
        for (j, (_, b)) in frontier.iter().enumerate() {
            if i != j {
                assert!(
                    !archexplorer::dse::pareto::dominates(a, b),
                    "frontier contains a dominated point"
                );
            }
        }
    }
}
