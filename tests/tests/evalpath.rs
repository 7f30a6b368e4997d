//! The shared-trace-store / evaluation-arena hot path, end to end:
//! a campaign synthesises each `(workload, seed, window)` trace exactly
//! once however many jobs run, retries slice the shared trace instead of
//! regenerating it, and arena reuse never changes an evaluation result.

use archexplorer::dse::campaign::{
    build_evaluator_in, CampaignConfig, CampaignRunner, ParallelConfig, RunSpec,
};
use archexplorer::prelude::*;
use archexplorer::workloads::TraceStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn suite(n: usize) -> Vec<Workload> {
    truncate_suite(spec06_suite(), n)
}

#[test]
fn campaign_at_jobs_4_synthesises_each_trace_exactly_once() {
    let suite = suite(3);
    let cfg = CampaignConfig {
        sim_budget: 8,
        instrs_per_workload: 600,
        seed: 1,
        trace_seed: None,
        threads: 1,
        ..CampaignConfig::default()
    };
    // 4 concurrent jobs, every run over the same trace seed: the store
    // must miss exactly once per workload — the first-arriving job
    // synthesises, the other three share the Arc.
    let store = Arc::new(TraceStore::new());
    let specs: Vec<RunSpec> = [1u64, 2, 3, 4]
        .iter()
        .map(|&seed| RunSpec {
            method: Method::Random,
            seed,
        })
        .collect();
    let logs = CampaignRunner::new()
        .parallel(ParallelConfig::with_jobs(4))
        .trace_store(Arc::clone(&store))
        .run_specs(&specs, &DesignSpace::table4(), &suite, &cfg)
        .expect("campaign runs");
    assert_eq!(logs.len(), specs.len());
    assert_eq!(
        store.misses(),
        suite.len() as u64,
        "each (workload, seed, window) must be synthesised exactly once"
    );
    assert_eq!(
        store.hits(),
        (specs.len() as u64 - 1) * suite.len() as u64,
        "every other evaluator shares the stored trace"
    );
}

#[test]
fn campaign_store_results_match_per_run_generation() {
    let suite = suite(2);
    let cfg = CampaignConfig {
        sim_budget: 6,
        instrs_per_workload: 500,
        seed: 5,
        trace_seed: None,
        threads: 1,
        ..CampaignConfig::default()
    };
    let specs = [RunSpec {
        method: Method::Random,
        seed: 5,
    }];
    let space = DesignSpace::table4();
    // Two dedicated stores: each campaign synthesises independently, so
    // identical logs prove the store itself adds nothing to the results.
    let a = CampaignRunner::new()
        .trace_store(Arc::new(TraceStore::new()))
        .run_specs(&specs, &space, &suite, &cfg)
        .expect("runs");
    let b = CampaignRunner::new()
        .trace_store(Arc::new(TraceStore::new()))
        .run_specs(&specs, &space, &suite, &cfg)
        .expect("runs");
    assert_eq!(a, b);
}

#[test]
fn arena_reuse_is_byte_identical_to_fresh_allocation() {
    let suite = suite(2);
    // The two fixed designs plus seeded random points of the Table 4
    // lattice.
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(1);
    let designs: Vec<MicroArch> = [MicroArch::baseline(), MicroArch::tiny()]
        .into_iter()
        .chain((0..6).map(|_| space.random(&mut rng)))
        .collect();
    let cfg = CampaignConfig {
        instrs_per_workload: 2_000,
        threads: 1,
        ..CampaignConfig::default()
    };
    let build = || build_evaluator_in(&suite, &cfg, Arc::new(TraceStore::new()));
    // Cold: every design on a freshly spawned thread, which starts with a
    // fresh thread-local evaluation arena. Warm: every design in sequence
    // on this thread, reusing one arena throughout.
    let cold_ev = build();
    let cold: Vec<DesignEval> = designs
        .iter()
        .map(|arch| {
            std::thread::scope(|s| {
                s.spawn(|| cold_ev.evaluate_with(arch, Analysis::NewDeg))
                    .join()
                    .expect("evaluation thread")
            })
            .expect("evaluates")
        })
        .collect();
    let warm_ev = build();
    for (arch, cold) in designs.iter().zip(&cold) {
        let warm = warm_ev
            .evaluate_with(arch, Analysis::NewDeg)
            .expect("evaluates");
        assert_eq!(
            &warm, cold,
            "arena reuse must not change results for {arch}"
        );
    }
}

#[test]
fn retry_window_is_a_prefix_of_the_shared_trace() {
    // The halved-window retry path slices the stored trace; the slice
    // must equal a direct synthesis of the shorter window (the generator
    // is prefix-stable), so retries never regenerate.
    let store = TraceStore::new();
    let w = &suite(1)[0];
    let full = store.get(w, 2_000, 7);
    let half = store.get(w, 1_000, 7);
    assert_eq!(&full[..1_000], &half[..]);
    assert_eq!(store.misses(), 2, "two windows, two syntheses");
    assert_eq!(
        &full[..1_000],
        &w.generate(1_000, 7)[..],
        "sub-slice equals direct generation of the shorter window"
    );
}

#[test]
fn fused_evaluation_matches_a_materialised_replay() {
    // The evaluator never induces the DEG: its critical-path sweep
    // generates the virtual edges. Replaying every workload by hand over
    // the materialised induced DEG must give the same `DesignEval`.
    use archexplorer::deg::bottleneck::analyze;

    let suite = suite(2);
    let (window, seed) = (1_500, 3);
    let cfg = CampaignConfig {
        instrs_per_workload: window,
        seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let ev = build_evaluator_in(&suite, &cfg, Arc::new(TraceStore::new()));
    let mut arena = DegArena::new();
    for arch in [MicroArch::baseline(), MicroArch::tiny()] {
        let eval = ev
            .evaluate_with(&arch, Analysis::NewDeg)
            .expect("evaluates");
        let mut per_workload = Vec::new();
        let mut reports = Vec::new();
        for w in &suite {
            let r = OooCore::new(arch)
                .run(&w.generate(window, seed))
                .expect("simulates");
            per_workload.push(PowerModel::default().evaluate(&arch, &r.stats));
            let mut induced = induce(build_deg(&r));
            let path = critical_path_in(&mut arena, &mut induced);
            reports.push(analyze(&induced, &path));
        }
        let n = per_workload.len() as f64;
        let weights: Vec<f64> = suite.iter().map(|w| w.weight).collect();
        let replay = DesignEval {
            ppa: PpaResult {
                ipc: per_workload.iter().map(|p| p.ipc).sum::<f64>() / n,
                power_w: per_workload.iter().map(|p| p.power_w).sum::<f64>() / n,
                area_mm2: per_workload[0].area_mm2,
            },
            report: Some(merge_reports(&reports, &weights)),
            per_workload,
            analysis: Analysis::NewDeg,
        };
        assert_eq!(eval, replay, "fused evaluation diverged for {arch}");
    }
}
