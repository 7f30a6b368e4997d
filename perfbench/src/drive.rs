//! Timed repetitions: set up and run one workload through the program's
//! public entry points (`build_evaluator_in` + `run_method_on`, or
//! `CampaignRunner::run_specs`), timestamping every uncached design
//! completion through the public progress sinks.

use crate::spec::{Kind, Seeds, Spec};
use archexplorer::dse::campaign::{
    build_evaluator_in, run_journal_path, run_method_on, CampaignConfig, CampaignRunner, Method,
    ParallelConfig, RunSpec,
};
use archexplorer::dse::eval::{Analysis, DesignEval, EvalFailure, Evaluator, RunLog};
use archexplorer::dse::journal::{Journal, JournalFingerprint};
use archexplorer::dse::pareto::{hypervolume, RefPoint};
use archexplorer::dse::space::DesignSpace;
use archexplorer::sim::MicroArch;
use archexplorer::telemetry::{self, Progress, ProgressSink, Report};
use archexplorer::workloads::{TraceStore, Workload};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One uncached evaluation the program made, with what it returned.
#[derive(Debug, Clone)]
pub struct Visit {
    /// The design.
    pub arch: MicroArch,
    /// The analysis it was evaluated with.
    pub analysis: Analysis,
    /// The evaluator's result.
    pub outcome: Result<DesignEval, EvalFailure>,
}

/// One search run inside a repetition (one for explore, six for a
/// campaign).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The method.
    pub method: Method,
    /// Uncached evaluations in evaluation order.
    pub visits: Vec<Visit>,
    /// Host seconds from the start of the search to its last completion
    /// (explore: to the return of `run_method_on`).
    pub wall_s: f64,
    /// The search's log.
    pub log: RunLog,
}

/// Everything one repetition measured.
pub struct Rep {
    /// Seeds the repetition ran with.
    pub seeds: Seeds,
    /// Host seconds of trace synthesis and evaluator/campaign construction.
    pub setup_s: f64,
    /// Host seconds from the end of set-up until the run returned.
    pub wall_s: f64,
    /// Simulated instructions the run committed (simulations × window).
    pub instrs: u64,
    /// Milliseconds between consecutive uncached design completions.
    pub turnaround_ms: Vec<f64>,
    /// Mean final hypervolume over the repetition's runs.
    pub hypervolume: f64,
    /// Per-run records.
    pub runs: Vec<RunRecord>,
    /// Quarantined evaluations.
    pub quarantined: u64,
    /// The repetition's trace store (store check, replay).
    pub store: Arc<TraceStore>,
    /// What the program's telemetry recorded (traced repetitions only).
    pub report: Option<Report>,
    /// Store hits when the run returned.
    pub store_hits: u64,
    /// Store misses when the run returned.
    pub store_misses: u64,
}

/// Timestamps every progress event by source label.
#[derive(Default)]
struct Stamps {
    events: Mutex<Vec<(String, Instant)>>,
}

impl ProgressSink for Stamps {
    fn on_progress(&self, event: &Progress) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("progress sink lock is never poisoned")
            .push((event.source.clone(), now));
    }
}

impl Stamps {
    fn take(&self) -> Vec<(String, Instant)> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }
}

/// Worker threads the program would use: `archx` uses all of them.
pub fn nproc() -> usize {
    archexplorer::dse::default_threads()
}

/// The campaign configuration `archx` would use for this workload.
pub fn config(spec: &Spec, seeds: Seeds) -> CampaignConfig {
    CampaignConfig {
        sim_budget: spec.budget,
        instrs_per_workload: spec.window,
        seed: seeds.search,
        trace_seed: Some(seeds.trace),
        threads: nproc(),
        cycle_budget: None,
        max_retries: 1,
    }
}

fn fingerprint(ev: &Evaluator, method: Method, seed: u64) -> JournalFingerprint {
    ev.fingerprint(vec![
        ("method".to_string(), method.to_string()),
        ("search_seed".to_string(), seed.to_string()),
    ])
}

/// Set-up only: a fresh store, synthesised traces and a built evaluator
/// (or, for a campaign, a pre-populated store). Returns host seconds.
pub fn setup_only(spec: &Spec, seeds: Seeds) -> f64 {
    let t = Instant::now();
    let suite = spec.suite();
    let store = Arc::new(TraceStore::new());
    match spec.kind {
        Kind::Explore { .. } => {
            std::hint::black_box(build_evaluator_in(&suite, &config(spec, seeds), store));
        }
        Kind::Campaign => synthesise(&store, &suite, spec.window, seeds.trace),
    }
    t.elapsed().as_secs_f64()
}

fn synthesise(store: &TraceStore, suite: &[Workload], window: usize, seed: u64) {
    for w in suite {
        std::hint::black_box(store.get(w, window, seed));
    }
}

/// Intervals between consecutive completions of one source, the first
/// measured from `start`.
fn intervals(start: Instant, stamps: &[Instant]) -> Vec<f64> {
    let mut prev = start;
    stamps
        .iter()
        .map(|&t| {
            let d = t.duration_since(prev).as_secs_f64() * 1e3;
            prev = t;
            d
        })
        .collect()
}

fn final_hv(log: &RunLog) -> f64 {
    let pts: Vec<_> = log.records.iter().map(|r| r.ppa).collect();
    hypervolume(&pts, &RefPoint::default())
}

/// Runs one repetition. `jobs` only applies to campaigns; `dir` receives
/// journals. A `traced` repetition turns the program's telemetry registry
/// on from the start of set-up until the run returns.
pub fn run(
    spec: &Spec,
    seeds: Seeds,
    jobs: usize,
    dir: &Path,
    traced: bool,
) -> Result<Rep, String> {
    telemetry::global().set_enabled(traced);
    let rep = match spec.kind {
        Kind::Explore { method } => explore(spec, seeds, method),
        Kind::Campaign => campaign(spec, seeds, jobs, dir),
    };
    telemetry::global().set_enabled(false);
    rep
}

/// Ends the traced window and snapshots what the program recorded in it.
fn end_trace() -> Option<Report> {
    let reg = telemetry::global();
    let traced = reg.enabled();
    reg.set_enabled(false);
    traced.then(|| reg.report())
}

fn explore(spec: &Spec, seeds: Seeds, method: Method) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let suite = spec.suite();
    let store = Arc::new(TraceStore::new());
    let evaluator = build_evaluator_in(&suite, &config(spec, seeds), Arc::clone(&store));
    let stamps = Arc::new(Stamps::default());
    evaluator.set_progress_sink(Arc::clone(&stamps) as Arc<dyn ProgressSink>);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let log = run_method_on(
        method,
        &DesignSpace::table4(),
        &evaluator,
        spec.budget,
        seeds.search,
    );
    let wall_s = t_run.elapsed().as_secs_f64();
    let report = end_trace();

    let events: Vec<Instant> = stamps.take().into_iter().map(|(_, t)| t).collect();
    let sims = evaluator.sim_count();
    let visits = explore_visits(&evaluator, &log)?;
    let hv = final_hv(&log);
    Ok(Rep {
        seeds,
        setup_s,
        wall_s,
        instrs: sims * spec.window as u64,
        turnaround_ms: intervals(t_run, &events),
        hypervolume: hv,
        quarantined: evaluator.quarantine_len() as u64,
        runs: vec![RunRecord {
            method,
            visits,
            wall_s,
            log,
        }],
        report,
        store_hits: store.hits(),
        store_misses: store.misses(),
        store,
    })
}

/// The evaluator's uncached evaluations in order: the log's designs by
/// first appearance, then quarantined designs, each with the evaluator's
/// cached result (a cache hit, so it costs no simulation).
fn explore_visits(evaluator: &Evaluator, log: &RunLog) -> Result<Vec<Visit>, String> {
    let sims = evaluator.sim_count();
    let mut seen = HashSet::new();
    let archs = log
        .records
        .iter()
        .map(|r| r.arch)
        .chain(evaluator.quarantine().into_iter().map(|q| q.arch));
    let mut visits = Vec::new();
    for arch in archs {
        if !seen.insert(arch) {
            continue;
        }
        let outcome = evaluator.evaluate(&arch);
        let analysis = outcome.as_ref().map_or(Analysis::None, |e| e.analysis);
        visits.push(Visit {
            arch,
            analysis,
            outcome,
        });
    }
    if evaluator.sim_count() != sims {
        return Err("a logged design was not in the evaluator's cache".into());
    }
    Ok(visits)
}

fn campaign(spec: &Spec, seeds: Seeds, jobs: usize, dir: &Path) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let suite = spec.suite();
    let store = Arc::new(TraceStore::new());
    synthesise(&store, &suite, spec.window, seeds.trace);
    let jdir = dir.join(format!("campaign-{}", seeds.search));
    std::fs::create_dir_all(&jdir).map_err(|e| format!("{}: {e}", jdir.display()))?;
    // Per-run journal and start time, keyed by run label.
    let runs: Mutex<HashMap<String, (JournalFingerprint, Instant)>> = Mutex::new(HashMap::new());
    let setup = |rs: &RunSpec, ev: &Evaluator| -> Result<(), String> {
        let fp = fingerprint(ev, rs.method, rs.seed);
        let journal =
            Journal::create(run_journal_path(&jdir, rs), &fp).map_err(|e| e.to_string())?;
        ev.set_journal(journal);
        runs.lock()
            .expect("setup lock")
            .insert(rs.label(), (fp, Instant::now()));
        Ok(())
    };
    let stamps = Arc::new(Stamps::default());
    let runner = CampaignRunner::new()
        .parallel(ParallelConfig {
            jobs,
            total_threads: jobs.max(nproc()),
        })
        .trace_store(Arc::clone(&store))
        .progress_sink(Arc::clone(&stamps) as Arc<dyn ProgressSink>)
        .setup(&setup);
    let specs = campaign_specs(seeds.search);
    let cfg = config(spec, seeds);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let logs = runner
        .run_specs(&specs, &DesignSpace::table4(), &suite, &cfg)
        .map_err(|e| e.to_string())?;
    let wall_s = t_run.elapsed().as_secs_f64();
    let report = end_trace();

    let mut by_label: HashMap<String, Vec<Instant>> = HashMap::new();
    for (label, t) in stamps.take() {
        by_label.entry(label).or_default().push(t);
    }
    let runs = runs.into_inner().expect("setup lock");
    let mut turnaround_ms = Vec::new();
    let mut records = Vec::new();
    let mut quarantined = 0;
    let mut sims = 0;
    for (rs, log) in specs.iter().zip(logs) {
        let (fp, start) = runs
            .get(&rs.label())
            .ok_or_else(|| format!("run {} never started", rs.label()))?;
        let events = by_label.remove(&rs.label()).unwrap_or_default();
        let run_wall = events
            .last()
            .map_or(0.0, |t| t.duration_since(*start).as_secs_f64());
        turnaround_ms.extend(intervals(*start, &events));
        let (_, journaled) =
            Journal::resume(run_journal_path(&jdir, rs), fp).map_err(|e| e.to_string())?;
        let mut visits = Vec::with_capacity(journaled.len());
        for rec in journaled {
            sims += rec.sims_cost;
            quarantined += u64::from(rec.outcome.is_err());
            visits.push(Visit {
                arch: rec.arch,
                analysis: rec.analysis,
                outcome: rec.outcome,
            });
        }
        records.push(RunRecord {
            method: rs.method,
            visits,
            wall_s: run_wall,
            log,
        });
    }
    let hv = records.iter().map(|r| final_hv(&r.log)).sum::<f64>() / records.len() as f64;
    Ok(Rep {
        seeds,
        setup_s,
        wall_s,
        instrs: sims * spec.window as u64,
        turnaround_ms,
        hypervolume: hv,
        runs: records,
        quarantined,
        report,
        store_hits: store.hits(),
        store_misses: store.misses(),
        store,
    })
}

/// One run per method at the search seed, in `Method::ALL` order.
pub fn campaign_specs(seed: u64) -> Vec<RunSpec> {
    Method::ALL
        .iter()
        .map(|&method| RunSpec { method, seed })
        .collect()
}

/// Resets the kernel's peak-resident-memory mark, so the next
/// [`peak_rss_mb`] covers only what follows. Where the kernel refuses,
/// the mark keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
