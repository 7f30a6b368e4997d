//! Outside-in, layer-by-layer replay of the designs a run visited.
//!
//! Each visited design is re-evaluated by calling every layer's public
//! function directly, in the order the evaluator calls them, with a span
//! recorded around each call: `TraceStore::get`, `OooCore::run_in`,
//! `PowerModel::evaluate`, `build_deg_in`, `induce`, `critical_path_in`,
//! `bottleneck::analyze`/`merge_reports` (or the Calipers model), and —
//! in ledger mode — `ExplorationSet::push`/`hypervolume` and
//! `Journal::append`. The replayed `DesignEval` must equal the
//! evaluator's bit for bit; any difference is a divergence.

use crate::drive::{RunRecord, Visit};
use crate::stats::union_len;
use archexplorer::deg::bottleneck::{analyze, merge_reports, BottleneckReport};
use archexplorer::deg::calipers::CalipersModel;
use archexplorer::deg::{build_deg_in, critical_path_in, induce, DegArena};
use archexplorer::dse::eval::{Analysis, DesignEval, SimLimits};
use archexplorer::dse::journal::{Journal, JournalFingerprint, JournalRecord};
use archexplorer::dse::pareto::{ExplorationSet, RefPoint};
use archexplorer::power::{PowerModel, PpaResult};
use archexplorer::sim::arena::SimArena;
use archexplorer::sim::{MicroArch, OooCore};
use archexplorer::workloads::{TraceStore, Workload};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A layer boundary the ledger records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TraceStore::get`.
    Store,
    /// `OooCore::run_in`.
    Sim,
    /// `PowerModel::evaluate`.
    Power,
    /// `build_deg_in`.
    DegBuild,
    /// `induce`.
    DegInduce,
    /// `critical_path_in`.
    DegCritical,
    /// `bottleneck::analyze` and `merge_reports`.
    DegAnalyze,
    /// `CalipersModel::analyze` (the prior DEG formulation).
    DegCalipers,
    /// `ExplorationSet::push` + `hypervolume`.
    Pareto,
    /// `Journal::append`.
    Journal,
    /// One whole design evaluation (parent of the per-workload layers).
    Eval,
}

const LAYERS: usize = 11;

/// Busy time, calls and instructions processed at one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Summed span nanoseconds.
    pub ns: u64,
    /// Spans recorded.
    pub calls: u64,
    /// Instructions the calls processed (per-instruction layers only).
    pub instrs: u64,
}

/// Spans and per-layer totals recorded by one thread.
#[derive(Debug, Clone)]
pub struct Ledger {
    epoch: Instant,
    acc: [Acc; LAYERS],
    /// Every span as `[start, end)` nanoseconds since the epoch.
    pub spans: Vec<(u64, u64)>,
    /// Simulated cycles.
    pub cycles: u64,
    /// DEG edges before induction.
    pub edges: u64,
    /// DEG edges after induction.
    pub induced_edges: u64,
}

impl Ledger {
    /// An empty ledger timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Ledger {
            epoch,
            acc: [Acc::default(); LAYERS],
            spans: Vec::new(),
            cycles: 0,
            edges: 0,
            induced_edges: 0,
        }
    }

    /// Totals of one layer.
    pub fn get(&self, layer: Layer) -> Acc {
        self.acc[layer as usize]
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant, instrs: u64) {
        let (s, e) = (self.ns(start), self.ns(end));
        let a = &mut self.acc[layer as usize];
        a.ns += e - s;
        a.calls += 1;
        a.instrs += instrs;
        self.spans.push((s, e));
    }

    fn time<T>(&mut self, layer: Layer, instrs: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(layer, start, Instant::now(), instrs);
        out
    }

    fn merge(&mut self, other: Ledger) {
        for (a, b) in self.acc.iter_mut().zip(other.acc) {
            a.ns += b.ns;
            a.calls += b.calls;
            a.instrs += b.instrs;
        }
        self.spans.extend(other.spans);
        self.cycles += other.cycles;
        self.edges += other.edges;
        self.induced_edges += other.induced_edges;
    }
}

/// What the replayed layers need: the suite, its traces and the models
/// the evaluator was built with.
pub struct Ctx<'a> {
    /// The workload suite, in evaluator order.
    pub suite: &'a [Workload],
    /// The store the run resolved its traces through.
    pub store: &'a TraceStore,
    /// Instructions per trace.
    pub window: usize,
    /// Trace seed.
    pub trace_seed: u64,
}

thread_local! {
    /// Per-thread scratch memory, as the evaluator keeps one per worker.
    static ARENA: RefCell<(SimArena, DegArena)> = RefCell::new((SimArena::new(), DegArena::new()));
}

type WorkloadOut = Result<(PpaResult, Option<BottleneckReport>), String>;

fn replay_workload(
    ctx: &Ctx<'_>,
    arch: &MicroArch,
    analysis: Analysis,
    i: usize,
    led: &mut Ledger,
) -> WorkloadOut {
    let trace = led.time(Layer::Store, 0, || {
        ctx.store.get(&ctx.suite[i], ctx.window, ctx.trace_seed)
    });
    let core = OooCore::try_new(*arch)
        .map_err(|e| e.to_string())?
        .with_deadlock_watchdog(SimLimits::default().deadlock_watchdog);
    ARENA.with(|cell| {
        let (sim_arena, deg_arena) = &mut *cell.borrow_mut();
        let n = trace.len() as u64;
        let result = led
            .time(Layer::Sim, n, || core.run_in(sim_arena, &trace))
            .map_err(|e| e.to_string())?;
        if result.stats.committed != n {
            return Err(format!(
                "{} committed {} of {n} instructions",
                ctx.suite[i].id.0, result.stats.committed
            ));
        }
        led.cycles += result.stats.cycles;
        let ppa = led.time(Layer::Power, 0, || {
            PowerModel::default().evaluate(arch, &result.stats)
        });
        let report = match analysis {
            Analysis::None => None,
            Analysis::NewDeg => {
                let deg = led.time(Layer::DegBuild, n, || build_deg_in(deg_arena, &result));
                led.edges += deg.edge_count() as u64;
                let mut deg = led.time(Layer::DegInduce, n, || induce(deg));
                led.induced_edges += deg.edge_count() as u64;
                let path = led.time(Layer::DegCritical, n, || {
                    critical_path_in(deg_arena, &mut deg)
                });
                let report = led.time(Layer::DegAnalyze, n, || analyze(&deg, &path));
                deg_arena.recycle(deg);
                Some(report)
            }
            Analysis::Calipers => Some(led.time(Layer::DegCalipers, n, || {
                CalipersModel::from_arch(arch).analyze(&result).1
            })),
        };
        sim_arena.recycle(result);
        Ok((ppa, report))
    })
}

/// Per-design evaluation timing: wall, summed child busy time, worker
/// capacity, and the part of the wall no child span covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalTiming {
    /// Design evaluation wall nanoseconds.
    pub wall_ns: u64,
    /// Summed per-workload layer nanoseconds.
    pub busy_ns: u64,
    /// Workers × wall.
    pub capacity_ns: u64,
    /// Wall not covered by any child span.
    pub self_ns: u64,
}

impl EvalTiming {
    fn add(&mut self, o: EvalTiming) {
        self.wall_ns += o.wall_ns;
        self.busy_ns += o.busy_ns;
        self.capacity_ns += o.capacity_ns;
        self.self_ns += o.self_ns;
    }
}

/// Re-evaluates one design over the suite, fanning workloads over
/// `workers` threads as the evaluator does.
fn replay_design(
    ctx: &Ctx<'_>,
    visit: &Visit,
    workers: usize,
    led: &mut Ledger,
) -> (Result<DesignEval, String>, EvalTiming) {
    let n = ctx.suite.len();
    let workers = workers.clamp(1, n);
    let mark = led.spans.len();
    let start = Instant::now();
    let outs: Vec<WorkloadOut> = if workers == 1 {
        (0..n)
            .map(|i| replay_workload(ctx, &visit.arch, visit.analysis, i, led))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<WorkloadOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let epoch = led.epoch;
        let ledgers: Vec<Ledger> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut wl = Ledger::new(epoch);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break wl;
                            }
                            let out = replay_workload(ctx, &visit.arch, visit.analysis, i, &mut wl);
                            *slots[i].lock().expect("slot lock") = Some(out);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        for wl in ledgers {
            led.merge(wl);
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("every workload replayed")
            })
            .collect()
    };
    let eval = assemble(ctx, visit.analysis, outs, led);
    let end = Instant::now();
    led.push(Layer::Eval, start, end, 0);
    let mut children: Vec<(u64, u64)> = led.spans[mark..led.spans.len() - 1].to_vec();
    let busy_ns = children.iter().map(|(s, e)| e - s).sum();
    let wall_ns = end.duration_since(start).as_nanos() as u64;
    let timing = EvalTiming {
        wall_ns,
        busy_ns,
        capacity_ns: workers as u64 * wall_ns,
        self_ns: wall_ns.saturating_sub(union_len(&mut children)),
    };
    (eval, timing)
}

/// Combines per-workload results exactly as the evaluator does.
fn assemble(
    ctx: &Ctx<'_>,
    analysis: Analysis,
    outs: Vec<WorkloadOut>,
    led: &mut Ledger,
) -> Result<DesignEval, String> {
    let n = outs.len();
    let mut per_workload = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for out in outs {
        let (ppa, rep) = out?;
        per_workload.push(ppa);
        reports.push(rep);
    }
    let ppa = PpaResult {
        ipc: per_workload.iter().map(|p| p.ipc).sum::<f64>() / n as f64,
        power_w: per_workload.iter().map(|p| p.power_w).sum::<f64>() / n as f64,
        area_mm2: per_workload[0].area_mm2,
    };
    let report = if analysis == Analysis::None {
        None
    } else {
        let reps: Vec<BottleneckReport> = reports.into_iter().flatten().collect();
        let weights: Vec<f64> = ctx.suite.iter().map(|w| w.weight).collect();
        Some(led.time(Layer::DegAnalyze, 0, || merge_reports(&reps, &weights)))
    };
    Ok(DesignEval {
        ppa,
        per_workload,
        report,
        analysis,
    })
}

/// Search bookkeeping replayed for one run.
#[derive(Debug, Clone, Default)]
pub struct RunLedger {
    /// Designs replayed.
    pub designs: u64,
    /// Evaluation timing summed over the run's designs.
    pub eval: EvalTiming,
    /// `ExplorationSet` nanoseconds.
    pub pareto_ns: u64,
    /// Nanoseconds of the last design's frontier update.
    pub last_pareto_ns: u64,
    /// Final frontier size.
    pub front_size: usize,
    /// `Journal::append` nanoseconds.
    pub journal_ns: u64,
    /// Records appended.
    pub appends: u64,
    /// Bytes appended.
    pub journal_bytes: u64,
}

/// How to replay.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'p> {
    /// Mirror the program's concurrency (`concurrent` runs at once, each
    /// design fanned over `workers`) and replay frontier and journal
    /// bookkeeping, journaling into `dir`.
    Ledger {
        /// Runs replayed at once.
        concurrent: usize,
        /// Workload threads per design.
        workers: usize,
        /// Directory for the replay journals.
        dir: &'p Path,
    },
    /// Identity check only: designs replayed independently on `threads`
    /// threads, no bookkeeping.
    Check {
        /// Threads.
        threads: usize,
    },
}

/// Everything a replay measured and found.
pub struct Replay {
    /// Merged per-layer ledger.
    pub ledger: Ledger,
    /// Per-run bookkeeping (ledger mode), in run order.
    pub runs: Vec<RunLedger>,
    /// Host nanoseconds of the whole replay.
    pub wall_ns: u64,
    /// Designs replayed.
    pub designs: u64,
    /// Divergences from the evaluator, one message each.
    pub divergences: Vec<String>,
}

/// Replays every successful visit of `runs`. Quarantined visits are
/// skipped: they are counted as failures by the caller.
pub fn replay(ctx: &Ctx<'_>, runs: &[RunRecord], mode: Mode<'_>) -> Replay {
    let epoch = Instant::now();
    // Units of work: (run index, first visit, end visit).
    let (threads, units): (usize, Vec<(usize, usize, usize)>) = match mode {
        Mode::Ledger { concurrent, .. } => (
            concurrent,
            runs.iter()
                .enumerate()
                .map(|(r, run)| (r, 0, run.visits.len()))
                .collect(),
        ),
        Mode::Check { threads } => (
            threads,
            runs.iter()
                .enumerate()
                .flat_map(|(r, run)| (0..run.visits.len()).map(move |v| (r, v, v + 1)))
                .collect(),
        ),
    };
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, RunLedger, Vec<String>)>> = Mutex::new(Vec::new());
    let ledgers: Vec<Ledger> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, units.len().max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut led = Ledger::new(epoch);
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(r, from, to)) = units.get(u) else {
                            break led;
                        };
                        let out = replay_unit(ctx, r, &runs[r], from..to, mode, &mut led);
                        results.lock().expect("results lock").push(out);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let mut ledger = Ledger::new(epoch);
    for l in ledgers {
        ledger.merge(l);
    }
    let mut parts = results.into_inner().expect("results lock");
    parts.sort_by_key(|p| p.0);
    let mut run_ledgers: Vec<RunLedger> = Vec::new();
    let mut divergences = Vec::new();
    let mut designs = 0;
    for (r, rl, div) in parts {
        designs += rl.designs;
        divergences.extend(div);
        if matches!(mode, Mode::Ledger { .. }) {
            debug_assert_eq!(run_ledgers.len(), r);
            run_ledgers.push(rl);
        }
    }
    Replay {
        ledger,
        runs: run_ledgers,
        wall_ns,
        designs,
        divergences,
    }
}

fn replay_unit(
    ctx: &Ctx<'_>,
    r: usize,
    run: &RunRecord,
    range: std::ops::Range<usize>,
    mode: Mode<'_>,
    led: &mut Ledger,
) -> (usize, RunLedger, Vec<String>) {
    let mut rl = RunLedger::default();
    let mut divergences = Vec::new();
    let (workers, mut book) = match mode {
        Mode::Ledger { workers, dir, .. } => (workers, Some(Book::new(ctx, dir, r))),
        Mode::Check { .. } => (1, None),
    };
    if let Some(Err(e)) = &book {
        divergences.push(format!("replay journal for run {r}: {e}"));
    }
    let mut set = ExplorationSet::new();
    for visit in &run.visits[range] {
        let Ok(expected) = &visit.outcome else {
            continue;
        };
        let (got, timing) = replay_design(ctx, visit, workers, led);
        rl.designs += 1;
        rl.eval.add(timing);
        let got = match got {
            Ok(got) => got,
            Err(e) => {
                divergences.push(format!(
                    "{} design {:?}: replay failed: {e}",
                    run.method, visit.arch
                ));
                continue;
            }
        };
        if &got != expected {
            divergences.push(format!(
                "{} design {:?}: replayed DesignEval differs from the evaluator's",
                run.method, visit.arch
            ));
        }
        if let Some(Ok(book)) = &mut book {
            let start = Instant::now();
            led.time(Layer::Pareto, 0, || {
                set.push(got.ppa);
                std::hint::black_box(set.hypervolume(&RefPoint::default()));
            });
            rl.last_pareto_ns = start.elapsed().as_nanos() as u64;
            rl.pareto_ns += rl.last_pareto_ns;
            let rec = JournalRecord {
                arch: visit.arch,
                analysis: visit.analysis,
                sims_cost: ctx.suite.len() as u64,
                outcome: Ok(got),
            };
            let start = Instant::now();
            if let Err(e) = led.time(Layer::Journal, 0, || book.journal.append(&rec)) {
                divergences.push(format!("replay journal append: {e}"));
            }
            rl.journal_ns += start.elapsed().as_nanos() as u64;
            rl.appends += 1;
        }
    }
    if let Some(Ok(book)) = book {
        rl.front_size = set.frontier().len();
        rl.journal_bytes = book.bytes_appended();
    }
    (r, rl, divergences)
}

/// A replay journal and its header size.
struct Book {
    journal: Journal,
    header: u64,
}

impl Book {
    fn new(ctx: &Ctx<'_>, dir: &Path, r: usize) -> Result<Book, String> {
        let fp = JournalFingerprint {
            workloads: ctx.suite.iter().map(|w| w.id.0.to_string()).collect(),
            instrs_per_workload: ctx.window,
            trace_seed: ctx.trace_seed,
            cycle_budget: None,
            deadlock_watchdog: SimLimits::default().deadlock_watchdog,
            extra: vec![("replay_run".to_string(), r.to_string())],
        };
        let journal = Journal::create(dir.join(format!("replay-{r}.jsonl")), &fp)
            .map_err(|e| e.to_string())?;
        let header = file_len(journal.path());
        Ok(Book { journal, header })
    }

    fn bytes_appended(&self) -> u64 {
        file_len(self.journal.path()).saturating_sub(self.header)
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
