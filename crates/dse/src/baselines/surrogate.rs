//! The acquisition loop shared by the model-guided baselines (and, with
//! no model, by random search).

use crate::eval::{Evaluator, RunLog};
use crate::space::DesignSpace;
use archx_sim::MicroArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// What distinguishes one acquisition loop besides its model.
pub(super) struct Acquisition {
    /// Method name recorded in the [`RunLog`].
    pub method: &'static str,
    /// Random candidates scored per round.
    pub pool: usize,
    /// Best-scored candidates simulated per round.
    pub batch: usize,
}

/// Runs the acquisition loop until `sim_budget` simulations are spent:
///
/// 1. Simulate the initial sample `init` draws from the search RNG.
/// 2. Each round, `fit` sees the features and PPA trade-offs of every
///    design simulated so far (at least one) and returns the round's
///    scorer (higher is better), or `None` to decline.
/// 3. Score a pool of random candidates and drop the ones already seen.
/// 4. Simulate the best-scored `batch` (stable sort, highest first) while
///    budget remains.
/// 5. When there is nothing to fit yet, the model declines, or nothing
///    was simulated that round, simulate one random design instead.
pub(super) fn run_surrogate<M>(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
    acq: Acquisition,
    init: impl FnOnce(&mut StdRng) -> Vec<MicroArch>,
    mut fit: impl FnMut(&[Vec<f64>], &[f64]) -> Option<M>,
) -> RunLog
where
    M: Fn(&[f64]) -> f64,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = Simulated {
        log: RunLog::new(acq.method),
        seen: HashSet::new(),
        x: Vec::new(),
        y: Vec::new(),
    };

    for arch in init(&mut rng) {
        if evaluator.sim_count() >= sim_budget {
            return run.log;
        }
        run.simulate(space, evaluator, arch);
    }

    while evaluator.sim_count() < sim_budget {
        let mut advanced = false;
        // No model is fitted to an empty sample (every design so far was
        // quarantined); the round falls back to a random design.
        let scorer = if run.y.is_empty() {
            None
        } else {
            fit(&run.x, &run.y)
        };
        if let Some(score) = scorer {
            let mut scored: Vec<(f64, MicroArch)> = (0..acq.pool)
                .map(|_| {
                    let a = space.random(&mut rng);
                    (score(&space.features(&a)), a)
                })
                .filter(|(_, a)| !run.seen.contains(a))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            for (_, arch) in scored.into_iter().take(acq.batch) {
                if evaluator.sim_count() >= sim_budget {
                    break;
                }
                run.simulate(space, evaluator, arch);
                advanced = true;
            }
        }
        if !advanced {
            let arch = space.random(&mut rng);
            run.simulate(space, evaluator, arch);
        }
    }
    run.log
}

/// Everything simulated so far: the log, the dedup set, and the model's
/// training data (features and trade-off of each successful design).
struct Simulated {
    log: RunLog,
    seen: HashSet<MicroArch>,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl Simulated {
    /// Simulates `arch` unless it was tried before.
    fn simulate(&mut self, space: &DesignSpace, evaluator: &Evaluator, arch: MicroArch) {
        if !self.seen.insert(arch) {
            return;
        }
        // A quarantined design trains nothing; its budget is spent.
        let Ok(e) = evaluator.evaluate(&arch) else {
            return;
        };
        self.log.push(arch, e.ppa, evaluator.sim_count());
        self.x.push(space.features(&arch));
        self.y.push(e.ppa.tradeoff());
    }
}
