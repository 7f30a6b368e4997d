//! A high-level session API tying the simulator, power model, DEG
//! analysis and explorers together behind one builder.

use archx_deg::BottleneckReport;
use archx_dse::campaign::{build_evaluator_in, run_method_on, CampaignConfig, Method};
use archx_dse::eval::{Analysis, DesignEval, EvalFailure, Evaluator, RunLog};
use archx_dse::space::DesignSpace;
use archx_sim::MicroArch;
use archx_telemetry::ProgressSink;
use archx_workloads::{spec06_suite, spec17_suite, truncate_suite, TraceStore, Workload};
use std::sync::Arc;

/// Which bundled workload suite to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The 12 SPEC CPU2006-like workloads.
    Spec06,
    /// The 14 SPEC CPU2017-like workloads.
    Spec17,
}

impl Suite {
    /// Materialises the workload list.
    pub fn workloads(self) -> Vec<Workload> {
        match self {
            Suite::Spec06 => spec06_suite(),
            Suite::Spec17 => spec17_suite(),
        }
    }
}

/// Errors surfaced by [`Session`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The evaluator produced no bottleneck report for the requested
    /// analysis backend (it evaluated, but analysis yielded nothing).
    MissingReport {
        /// The analysis backend that was requested.
        analysis: Analysis,
    },
    /// An exploration run evaluated no designs (e.g. a zero budget).
    EmptyExploration {
        /// The method that was run.
        method: Method,
        /// The simulation budget it was given.
        sim_budget: u64,
    },
    /// A design evaluation failed past its retry budget and was
    /// quarantined (typed simulator error, worker panic, or non-finite
    /// PPA).
    EvaluationFailed {
        /// The design that failed.
        arch: MicroArch,
        /// Why it failed and how many attempts were made (boxed to keep
        /// the error type small on the happy path).
        failure: Box<EvalFailure>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingReport { analysis } => {
                write!(
                    f,
                    "evaluation produced no bottleneck report for {analysis:?}"
                )
            }
            SessionError::EmptyExploration { method, sim_budget } => {
                write!(
                    f,
                    "{method} explored no designs within a budget of {sim_budget} simulations"
                )
            }
            SessionError::EvaluationFailed { arch, failure } => {
                write!(f, "evaluation of {arch} failed: {failure}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Builder for [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    suite: Suite,
    workload_limit: usize,
    cfg: CampaignConfig,
    trace_store: Option<Arc<TraceStore>>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            suite: Suite::Spec06,
            workload_limit: usize::MAX,
            cfg: CampaignConfig::default(),
            trace_store: None,
        }
    }
}

impl SessionBuilder {
    /// Selects the workload suite.
    pub fn suite(mut self, suite: Suite) -> Self {
        self.suite = suite;
        self
    }

    /// Uses only the first `n` workloads (useful for fast experiments).
    pub fn workload_limit(mut self, n: usize) -> Self {
        self.workload_limit = n.max(1);
        self
    }

    /// Instructions simulated per workload (the paper's analysis window).
    pub fn instrs_per_workload(mut self, n: usize) -> Self {
        self.cfg.instrs_per_workload = n.max(100);
        self
    }

    /// Search seed (also the trace seed unless [`Self::trace_seed`] is set).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Fixes the workload-trace seed independently of the search seed, so
    /// seed sweeps measure search variance rather than workload variance.
    pub fn trace_seed(mut self, seed: u64) -> Self {
        self.cfg.trace_seed = Some(seed);
        self
    }

    /// Worker threads for workload-parallel simulation.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Hard per-simulation cycle budget (`None` = unlimited). Runs that
    /// exceed it fail with a typed error instead of spinning forever.
    pub fn cycle_budget(mut self, budget: Option<u64>) -> Self {
        self.cfg.cycle_budget = budget;
        self
    }

    /// Retries allowed per failed evaluation (each with a halved
    /// instruction window) before the design is quarantined.
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.cfg.max_retries = max_retries;
        self
    }

    /// Resolves workload traces through `store` instead of the
    /// process-global [`TraceStore`]. Sessions sharing a store share
    /// their synthesised traces zero-copy.
    pub fn trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.trace_store = Some(store);
        self
    }

    /// Builds the session (resolves the workload traces through the
    /// trace store, synthesising only those not already shared).
    pub fn build(self) -> Session {
        let suite = truncate_suite(self.suite.workloads(), self.workload_limit);
        let store = self.trace_store.unwrap_or_else(TraceStore::global);
        let evaluator = build_evaluator_in(&suite, &self.cfg, Arc::clone(&store));
        Session {
            space: DesignSpace::table4(),
            suite,
            evaluator,
            cfg: self.cfg,
            store,
        }
    }
}

/// A configured exploration/analysis session.
#[derive(Debug)]
pub struct Session {
    space: DesignSpace,
    suite: Vec<Workload>,
    evaluator: Evaluator,
    cfg: CampaignConfig,
    store: Arc<TraceStore>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The Table 4 design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The session's workload suite.
    pub fn suite(&self) -> &[Workload] {
        &self.suite
    }

    /// The shared evaluator (design cache + simulation counter).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Simulates a design over the suite and returns its PPA evaluation.
    /// A design that fails past its retry budget is quarantined and the
    /// failure surfaced as [`SessionError::EvaluationFailed`].
    pub fn evaluate(&self, arch: &MicroArch) -> Result<DesignEval, SessionError> {
        self.evaluator
            .evaluate(arch)
            .map_err(|failure| SessionError::EvaluationFailed {
                arch: *arch,
                failure: Box::new(failure),
            })
    }

    /// Full bottleneck analysis of a design (new DEG, merged over the
    /// suite with Eq. 2 weights).
    pub fn analyze(&self, arch: &MicroArch) -> Result<BottleneckReport, SessionError> {
        self.evaluator
            .evaluate_with(arch, Analysis::NewDeg)
            .map_err(|failure| SessionError::EvaluationFailed {
                arch: *arch,
                failure: Box::new(failure),
            })?
            .report
            .ok_or(SessionError::MissingReport {
                analysis: Analysis::NewDeg,
            })
    }

    /// Runs one DSE method for `sim_budget` simulations on a **fresh**
    /// evaluator (so methods never share caches or budgets) whose traces
    /// come from the session's trace store. With a `sink`, per-evaluation
    /// progress events (simulations done vs. budget, hypervolume, best
    /// trade-off) stream to it while the search runs.
    pub fn explore(
        &self,
        method: Method,
        sim_budget: u64,
        sink: Option<Arc<dyn ProgressSink>>,
    ) -> Result<RunLog, SessionError> {
        let evaluator = build_evaluator_in(&self.suite, &self.cfg, Arc::clone(&self.store));
        if let Some(sink) = sink {
            evaluator.set_progress_sink(sink);
        }
        let log = run_method_on(method, &self.space, &evaluator, sim_budget, self.cfg.seed);
        if log.records.is_empty() {
            return Err(SessionError::EmptyExploration { method, sim_budget });
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_telemetry::CollectingSink;

    fn tiny() -> Session {
        Session::builder()
            .suite(Suite::Spec06)
            .workload_limit(2)
            .instrs_per_workload(1_000)
            .threads(1)
            .build()
    }

    #[test]
    fn builder_limits_and_reweights() {
        let s = tiny();
        assert_eq!(s.suite().len(), 2);
        let total: f64 = s.suite().iter().map(|w| w.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_and_analyze() {
        let s = tiny();
        let e = s.evaluate(&MicroArch::baseline()).expect("evaluates");
        assert!(e.ppa.ipc > 0.0);
        let rep = s
            .analyze(&MicroArch::baseline())
            .expect("analysis succeeds");
        assert!(rep.length > 0);
    }

    #[test]
    fn explore_runs_each_method_fresh() {
        let s = tiny();
        let log = s
            .explore(Method::Random, 6, None)
            .expect("nonzero budget explores");
        assert!(!log.records.is_empty());
        // The session evaluator is untouched by exploration.
        assert_eq!(s.evaluator().sim_count(), 0);
    }

    #[test]
    fn explore_resolves_traces_through_the_session_store() {
        let store = Arc::new(TraceStore::new());
        let s = Session::builder()
            .workload_limit(2)
            .instrs_per_workload(800)
            .threads(1)
            .trace_store(Arc::clone(&store))
            .build();
        let (hits, misses) = (store.hits(), store.misses());
        s.explore(Method::Random, 4, None).expect("explores");
        assert_eq!(
            store.hits(),
            hits + s.suite().len() as u64,
            "the fresh evaluator shares the session's traces"
        );
        assert_eq!(store.misses(), misses, "no trace is synthesised twice");
    }

    #[test]
    fn explore_with_zero_budget_is_an_error() {
        let s = tiny();
        let err = s.explore(Method::Random, 0, None).expect_err("zero budget");
        assert_eq!(
            err,
            SessionError::EmptyExploration {
                method: Method::Random,
                sim_budget: 0
            }
        );
        assert!(err.to_string().contains("budget of 0"));
    }

    #[test]
    fn explore_reports_exact_sim_count_through_sink() {
        let s = tiny(); // 2 workloads => 2 sims per design
        let sink = Arc::new(CollectingSink::new());
        let budget = 6;
        let log = s
            .explore(Method::Random, budget, Some(sink.clone()))
            .expect("explores");
        // Random search evaluates whole designs: with 2 workloads and a
        // budget of 6, exactly 3 designs = 6 simulations are reported.
        assert_eq!(sink.max_sims_done(), budget);
        assert_eq!(sink.len(), log.records.len());
        let last = sink.last().expect("events were emitted");
        assert_eq!(last.sim_budget, budget);
        assert_eq!(last.source, Method::Random.to_string());
        assert!(last.hypervolume > 0.0);
    }

    #[test]
    fn trace_seed_decouples_search_from_traces() {
        let mk = |seed: u64| {
            Session::builder()
                .workload_limit(2)
                .instrs_per_workload(800)
                .threads(1)
                .seed(seed)
                .trace_seed(7)
                .build()
        };
        // Same trace seed: identical workload traces, so the same design
        // evaluates identically regardless of the search seed.
        let a = mk(1).evaluate(&MicroArch::baseline()).expect("evaluates");
        let b = mk(2).evaluate(&MicroArch::baseline()).expect("evaluates");
        assert_eq!(a, b);
    }

    #[test]
    fn cycle_budget_failure_surfaces_as_session_error() {
        let s = Session::builder()
            .workload_limit(1)
            .instrs_per_workload(500)
            .threads(1)
            .cycle_budget(Some(3))
            .max_retries(0)
            .build();
        let err = s
            .evaluate(&MicroArch::baseline())
            .expect_err("a 3-cycle budget cannot finish any workload");
        match &err {
            SessionError::EvaluationFailed { failure, .. } => {
                assert_eq!(failure.error.tag(), "cycle_budget");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(err.to_string().contains("cycle budget"));
        assert_eq!(s.evaluator().quarantine_len(), 1);
    }

    #[test]
    fn spec17_suite_selectable() {
        let s = Session::builder()
            .suite(Suite::Spec17)
            .workload_limit(3)
            .instrs_per_workload(500)
            .threads(1)
            .build();
        assert_eq!(s.suite().len(), 3);
    }
}
