//! The three benchmark workloads and the seeds that generate their inputs.
//!
//! Every workload is a closed loop: the search proposes its next design
//! only after the previous evaluation returns. Sizes follow the defaults of
//! `archx explore` and `archx campaign`; see `NOTES.md` for why each
//! workload exists and which layers it loads or bypasses.

use archexplorer::dse::campaign::Method;
use archexplorer::workloads::{spec06_suite, Workload};

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One search through `build_evaluator_in` + `run_method_on`.
    Explore {
        /// The search method.
        method: Method,
    },
    /// All six methods through `CampaignRunner::run_specs`, one journal
    /// per run, `jobs = nproc`.
    Campaign,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// Leading spec06 workloads used.
    pub suite_len: usize,
    /// Instructions per workload trace.
    pub window: usize,
    /// Simulation budget per search.
    pub budget: u64,
    /// Host seconds one repetition takes on the reference host (2-core
    /// Xeon); `--seconds` is divided by it to fix the repetition count, so
    /// the work per run is a function of the arguments only.
    pub nominal_rep_s: f64,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Spec; 3] = [
    Spec {
        name: "explore-deg",
        kind: Kind::Explore {
            method: Method::ArchExplorer,
        },
        suite_len: 12,
        window: 20_000,
        budget: 240,
        nominal_rep_s: 8.0,
    },
    Spec {
        name: "explore-sim",
        kind: Kind::Explore {
            method: Method::Random,
        },
        suite_len: 12,
        window: 20_000,
        budget: 720,
        nominal_rep_s: 6.0,
    },
    Spec {
        name: "campaign-all",
        kind: Kind::Campaign,
        suite_len: 2,
        window: 2_000,
        budget: 300,
        nominal_rep_s: 8.0,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.iter().copied().find(|s| s.name == name)
    }

    /// The workload suite with equal weights, as `archx` builds it.
    pub fn suite(&self) -> Vec<Workload> {
        let mut suite = spec06_suite();
        suite.truncate(self.suite_len);
        let w = 1.0 / suite.len() as f64;
        for x in &mut suite {
            x.weight = w;
        }
        suite
    }

    /// Repetitions a run of `seconds` makes (at least one).
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_s).floor() as usize).max(1)
    }
}

/// Trace and search seed of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Seed of trace synthesis.
    pub trace: u64,
    /// Seed of the search.
    pub search: u64,
}

impl Seeds {
    /// Seeds of repetition `k`: each repetition searches from its own
    /// seed over the same traces, so a run's medians average over several
    /// search paths; repetition 0 searches from the given seed itself.
    pub fn rep(self, k: usize) -> Seeds {
        Seeds {
            trace: self.trace,
            search: self.search.wrapping_add(1_000_003 * k as u64),
        }
    }
}
