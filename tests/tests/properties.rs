//! Property-based tests over the cross-crate pipeline: arbitrary workload
//! specifications and lattice designs must preserve every structural
//! invariant of the simulator, the DEG, and the Pareto machinery.

use archexplorer::deg::prelude::*;
use archexplorer::power::{PowerModel, PpaResult};
use archexplorer::prelude::*;
use archexplorer::sim::OooCore;
use archexplorer::workloads::{BranchProfile, MemoryProfile, OpMix, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..0.35,
        0.0f64..0.2,
        0.0f64..0.25,
        1.0f64..20.0,
        0.0f64..1.0,
        (64u64..8 << 20),
        64u32..4096,
    )
        .prop_map(
            |(load, store, branch, dep, streaming, footprint, code)| WorkloadSpec {
                mix: OpMix {
                    load,
                    store,
                    branch,
                    call_ret: 0.01,
                    fp_alu: 0.05,
                    fp_mult: 0.03,
                    fp_div: 0.002,
                    int_mult: 0.02,
                    int_div: 0.002,
                },
                mean_dep_distance: dep,
                branches: BranchProfile {
                    biased_fraction: 0.7,
                    bias: 0.9,
                    patterned_fraction: 0.2,
                    pattern_period: 3,
                },
                memory: MemoryProfile {
                    footprint_bytes: footprint,
                    streaming_fraction: streaming,
                    stride: 8,
                    hot_fraction: 0.8,
                    hot_bytes: (footprint / 2).max(64),
                },
                code_instrs: code,
            },
        )
}

/// The critical-path sweep over the built DEG (which generates the
/// induced DEG's virtual edges itself) must agree bit for bit with the
/// materialised induced DEG, as a path and as a bottleneck report. The
/// `deg/fused_vs_materialised` oracle inside `validate_exactness`
/// additionally holds both against the plain reference dynamic program.
fn check_fused(r: &archexplorer::sim::SimResult) {
    use archexplorer::deg::bottleneck::analyze;
    let trace = format!("{}-instruction trace", r.trace.events.len());
    let oracle = validate_exactness(r).unwrap_or_else(|e| panic!("{trace}: {e}"));
    let mut base = build_deg(r);
    let fused = critical_path(&mut base);
    let fused_report = analyze(&base, &fused);
    let mut induced = induce(base);
    let materialised = critical_path(&mut induced);
    let materialised_report = analyze(&induced, &materialised);
    assert_eq!(fused, oracle, "{trace}");
    assert_eq!(fused, materialised, "{trace}");
    assert_eq!(fused_report.length, materialised_report.length, "{trace}");
    for (a, b) in fused_report
        .contributions
        .iter()
        .zip(&materialised_report.contributions)
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{trace}");
    }
}

#[test]
fn fused_critical_path_matches_reference_on_degenerate_traces() {
    use archexplorer::sim::trace_gen;
    for (trace, arch) in [
        (trace_gen::independent_int_ops(1), MicroArch::baseline()),
        (trace_gen::independent_int_ops(4), MicroArch::baseline()),
        (trace_gen::pointer_chase(800, 8 << 20, 5), MicroArch::tiny()),
    ] {
        check_fused(&OooCore::new(arch).run(&trace).expect("simulates"));
    }
}

fn arb_design() -> impl Strategy<Value = MicroArch> {
    any::<u64>().prop_map(|seed| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        DesignSpace::table4().random(&mut StdRng::seed_from_u64(seed))
    })
}

/// PPA points mixing the cases the incremental frontier must handle:
/// continuous values, ties on a coarse grid (duplicates and equal
/// coordinates), a NaN coordinate, and points outside the default
/// reference box.
fn arb_ppa() -> impl Strategy<Value = PpaResult> {
    (0u32..11, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(kind, a, b, c)| {
        let grid = |v: f64| (v * 3.0).floor() / 3.0;
        let (a, b, c) = match kind {
            0..=3 => (a, b, c),
            4..=7 => (grid(a), grid(b), grid(c)),
            8 => (f64::NAN, b, c),
            9 => (a, b + 2.0, c),
            _ => (a, b, c + 2.0),
        };
        PpaResult {
            ipc: 0.1 + 2.0 * a,
            power_w: 0.05 + 2.0 * b,
            area_mm2: 2.0 + 25.0 * c,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_hold_for_arbitrary_specs(spec in arb_spec(), design in arb_design()) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_500, 5);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        prop_assert_eq!(r.stats.committed, 1_500);
        let mut prev_r = 0;
        let mut prev_c = 0;
        for ev in &r.trace.events {
            // Stage ordering per instruction.
            prop_assert!(ev.f1 <= ev.f2 && ev.f2 <= ev.f && ev.f < ev.dc);
            prop_assert!(ev.dc < ev.r && ev.r < ev.dp && ev.dp <= ev.i);
            prop_assert!(ev.i <= ev.m && ev.m < ev.p && ev.p < ev.c);
            // Rename and commit are program-ordered.
            prop_assert!(ev.r >= prev_r);
            prop_assert!(ev.c >= prev_c);
            prev_r = ev.r;
            prev_c = ev.c;
        }
    }

    #[test]
    fn deg_exactness_holds_for_arbitrary_specs(spec in arb_spec(), design in arb_design()) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_200, 9);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let mut deg = induce(build_deg(&r));
        validate_deg(&deg).expect("well-formed induced DEG");
        let path = archexplorer::deg::critical::critical_path(&mut deg);
        prop_assert_eq!(path.total_delay, r.trace.cycles);
        let report = archexplorer::deg::bottleneck::analyze(&deg, &path);
        let total = report.total();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&total));
    }

    // Trace lengths like the ones the evaluator's halving retry produces.
    #[test]
    fn fused_critical_path_matches_reference_on_random_traces(
        design in arb_design(),
        workload in 0usize..12,
        len in 1usize..1_200,
    ) {
        let suite = spec06_suite();
        let w = &suite[workload % suite.len()];
        check_fused(&OooCore::new(design).run(&w.generate(len, 7)).expect("simulates"));
    }

    #[test]
    fn power_model_is_positive_and_monotone_in_activity(design in arb_design()) {
        let trace = spec06_suite()[0].generate(1_000, 1);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let ppa = PowerModel::default().evaluate(&design, &r.stats);
        prop_assert!(ppa.power_w > 0.0);
        prop_assert!(ppa.area_mm2 > 0.0);
        prop_assert!(ppa.ipc > 0.0);
    }

    #[test]
    fn hypervolume_is_monotone_under_union(
        xs in proptest::collection::vec((0.1f64..2.0, 0.05f64..1.0, 2.0f64..12.0), 1..20)
    ) {
        let pts: Vec<PpaResult> = xs
            .iter()
            .map(|&(ipc, power_w, area_mm2)| PpaResult { ipc, power_w, area_mm2 })
            .collect();
        let r = RefPoint::default();
        let mut prev = 0.0;
        for k in 1..=pts.len() {
            let hv = hypervolume(&pts[..k], &r);
            prop_assert!(hv >= prev - 1e-12, "hypervolume must grow with points");
            prev = hv;
        }
        // And never exceeds the reference box.
        prop_assert!(prev <= 2.0 * r.power_w * r.area_mm2);
    }

    #[test]
    fn exploration_set_matches_brute_force_frontier_and_hypervolume(
        xs in proptest::collection::vec(arb_ppa(), 0..40)
    ) {
        let r = RefPoint::default();
        let mut set = ExplorationSet::new();
        for k in 1..=xs.len() {
            set.push(xs[k - 1]);
            let all = &xs[..k];
            let want = hypervolume(all, &r);
            let got = set.hypervolume(&r);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "front-only hypervolume {got} vs all-points {want}"
            );
            let front = set.frontier();
            let brute: Vec<PpaResult> = pareto_front(all).into_iter().map(|i| all[i]).collect();
            prop_assert_eq!(front.len(), brute.len());
            for p in &front {
                prop_assert!(brute.contains(p), "{p:?} is not on the brute-force front");
            }
        }
    }

    #[test]
    fn space_index_roundtrip(seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let space = DesignSpace::table4();
        let a = space.random(&mut StdRng::seed_from_u64(seed));
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(space.design_at(space.index_of(&a)), a);
    }
}
