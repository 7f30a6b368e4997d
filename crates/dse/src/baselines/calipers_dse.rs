//! Bottleneck-driven DSE guided by the *previous* DEG formulation
//! (the paper's Calipers comparison): the same reassignment loop as
//! ArchExplorer, but with bottleneck reports from the static-weight model —
//! so mis-estimated contributions steer the search.

use crate::archexplorer::{run_bottleneck_driven, ArchExplorerOptions};
use crate::eval::{Analysis, Evaluator, RunLog};
use crate::space::DesignSpace;

/// Runs the Calipers-guided bottleneck-removal DSE with ArchExplorer's
/// default settings.
pub fn run_calipers_dse(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
) -> RunLog {
    run_bottleneck_driven(
        space,
        evaluator,
        sim_budget,
        seed,
        &ArchExplorerOptions::default(),
        "Calipers",
        |ev, arch| {
            ev.evaluate_with(arch, Analysis::Calipers)
                .map(|e| (e.ppa, e.report.expect("analysis requested")))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_uses_static_reports() {
        let ev = crate::eval::test_evaluator(2, 1_000, 1);
        let log = run_calipers_dse(&DesignSpace::table4(), &ev, 16, 1);
        assert!(ev.sim_count() >= 16);
        assert_eq!(log.method, "Calipers");
        assert!(!log.records.is_empty());
    }
}
