//! Uniform random search over the design space: the acquisition loop with
//! no model, so every round simulates one random design.

use super::surrogate::{run_surrogate, Acquisition};
use crate::eval::{Evaluator, RunLog};
use crate::space::DesignSpace;

/// Evaluates uniformly random designs until the budget is exhausted.
pub fn run_random_search(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
) -> RunLog {
    run_surrogate(
        space,
        evaluator,
        sim_budget,
        seed,
        Acquisition {
            method: "Random",
            pool: 0,
            batch: 0,
        },
        |_| Vec::new(),
        |_, _| None::<fn(&[f64]) -> f64>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;

    #[test]
    fn explores_until_budget() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let ev = Evaluator::builder(suite)
            .window(1_000)
            .seed(1)
            .threads(1)
            .build();
        let log = run_random_search(&DesignSpace::table4(), &ev, 10, 42);
        assert!(ev.sim_count() >= 10);
        assert!(log.records.len() >= 5);
        // Designs should (almost surely) be distinct.
        let distinct: std::collections::HashSet<_> = log.records.iter().map(|r| r.arch).collect();
        assert!(distinct.len() > 1);
    }
}
