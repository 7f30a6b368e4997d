//! Repository benchmark for archexplorer-rs.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-deg --seed 1 --seconds 10 --trace 0 [--trace-seed 1]
//! ```
//!
//! `--trace 0` times repetitions of the workload with the program's
//! telemetry off and prints the end-to-end metrics. `--trace 1` runs the
//! workload once untraced and once with telemetry on, then replays every
//! design it visited layer by layer and prints the per-layer ledger. Both
//! modes check the program's outputs; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` and the exit code
//! is non-zero on any divergence. See `NOTES.md` for the workloads and
//! what each metric should move.

mod checks;
mod drive;
mod replay;
mod spec;
mod stats;

use archexplorer::dse::campaign::Method;
use archexplorer::telemetry::{self, JsonValue, Report};
use drive::Rep;
use replay::{Layer, Mode, Replay};
use spec::{Kind, Seeds, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <explore-deg|explore-sim|campaign-all> \
--seed <search seed> --seconds <n> --trace <0|1> [--trace-seed <n>]";

/// Trace seed used unless `--trace-seed` is given.
const DEFAULT_TRACE_SEED: u64 = 1;

/// `deg::validate` samples per repetition.
const VALIDATE_SAMPLES: usize = 2;

struct Args {
    spec: Spec,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_seed) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            "--trace-seed" => trace_seed = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        spec,
        seeds: Seeds {
            trace: trace_seed.unwrap_or(DEFAULT_TRACE_SEED),
            search: seed.unwrap_or(1),
        },
        seconds: seconds.unwrap_or(10).max(1) as f64,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one invocation prints.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    quarantined: u64,
    divergences: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // A ratio over an empty set reads 0 rather than NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn failed(&self) -> u64 {
        self.quarantined + self.divergences.len() as u64
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Float(m.value)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "correct".into(),
                JsonValue::Bool(self.divergences.is_empty()),
            ),
            ("attempted".into(), JsonValue::Int(self.attempted.max(1))),
            ("failed".into(), JsonValue::Int(self.failed())),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .render()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the output checks on one repetition; returns the fresh-synthesis
/// timing of the store check.
fn check_rep(spec: &Spec, rep: &Rep, out: &mut Outcome, campaign_identity: bool) -> (u64, u64) {
    let (div, synth_ns, synth_instrs) = checks::store_matches_generate(spec, rep);
    out.divergences.extend(div);
    out.divergences
        .extend(checks::deg_exactness(spec, rep, VALIDATE_SAMPLES));
    if campaign_identity {
        out.divergences
            .extend(checks::campaign_serial_matches(spec, rep));
    }
    out.attempted += rep.runs.iter().map(|r| r.visits.len() as u64).sum::<u64>();
    out.quarantined += rep.quarantined;
    (synth_ns, synth_instrs)
}

fn ctx_of<'a>(
    spec: &Spec,
    rep: &'a Rep,
    suite: &'a [archexplorer::workloads::Workload],
) -> replay::Ctx<'a> {
    replay::Ctx {
        suite,
        store: &rep.store,
        window: spec.window,
        trace_seed: rep.seeds.trace,
    }
}

/// Set-up only samples: at least three and 0.1 s worth (at most 100).
fn setup_burst(spec: &Spec, seeds: Seeds, setups: &mut Vec<f64>) {
    let t = Instant::now();
    for i in 0..100 {
        if i >= 3 && t.elapsed().as_secs_f64() >= 0.1 {
            break;
        }
        setups.push(drive::setup_only(spec, seeds));
    }
}

/// `--trace 0`: timed repetitions, end-to-end metrics, full output checks.
fn end_to_end(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let spec = &args.spec;
    let mut out = Outcome::default();
    // Host speed drifts over seconds, so set-up samples are taken in
    // bursts between the repetitions rather than all at one time. Each
    // repetition is checked, and its traces and results dropped, before
    // the next one starts.
    let suite = spec.suite();
    let (mut setups, mut walls, mut rates, mut rss, mut hvs, mut turnaround, mut searched) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    for k in 0..spec.reps(args.seconds) {
        setup_burst(spec, args.seeds, &mut setups);
        drive::reset_peak_rss();
        let rep = drive::run(spec, args.seeds.rep(k), drive::nproc(), dir, false)?;
        rss.push(drive::peak_rss_mb());
        setups.push(rep.setup_s);
        walls.push(rep.wall_s);
        rates.push(rep.instrs as f64 / rep.wall_s / 1e6);
        hvs.push(rep.hypervolume);
        turnaround.extend_from_slice(&rep.turnaround_ms);
        searched.push(rep.seeds.search.to_string());

        let rp = replay::replay(
            &ctx_of(spec, &rep, &suite),
            &rep.runs,
            Mode::Check {
                threads: drive::nproc(),
            },
        );
        out.divergences.extend(rp.divergences);
        check_rep(spec, &rep, &mut out, spec.kind == Kind::Campaign && k == 0);
    }
    setup_burst(spec, args.seeds, &mut setups);
    let tail = stats::tail(&turnaround, 10);

    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("wall_s", stats::median(&walls), "s");
    out.metric("minstr_per_s", stats::median(&rates), "Minstr/s");
    out.metric("design_p50_ms", stats::median(&turnaround), "ms");
    out.metric("design_tail_ms", tail.value, "ms");
    out.metric("peak_rss_mb", stats::median(&rss), "MiB");
    out.metric(
        "hypervolume",
        hvs.iter().sum::<f64>() / hvs.len() as f64,
        "ipc.W.mm2",
    );
    out.notes.push(format!(
        "{} repetition(s); search seeds {}; trace seed {}; set-up samples {}",
        searched.len(),
        searched.join(","),
        args.seeds.trace,
        setups.len()
    ));
    out.notes.push(format!(
        "design turnaround: n={} p50={:.3} ms, tail = p{:.1} = {:.3} ms (10 samples beyond)",
        tail.n,
        stats::median(&turnaround),
        tail.percentile,
        tail.value
    ));
    out.notes.push(format!(
        "failed_frac = {} / {} = {}",
        out.failed(),
        out.attempted.max(1),
        out.failed() as f64 / out.attempted.max(1) as f64
    ));
    Ok(out)
}

/// `--trace 1`: one untraced and one traced repetition, then the
/// layer-by-layer replay of the traced repetition's designs.
fn ledger(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let spec = &args.spec;
    let seeds = args.seeds.rep(0);
    let jobs = drive::nproc();
    let untraced = drive::run(spec, seeds, jobs, dir, false)?;
    let traced = drive::run(spec, seeds, jobs, dir, true)?;
    let report = traced.report.clone().unwrap_or_default();

    let mut out = Outcome::default();
    let logs = |rep: &Rep| rep.runs.iter().map(|r| r.log.clone()).collect::<Vec<_>>();
    if logs(&untraced) != logs(&traced) {
        out.divergences
            .push("two runs with the same seeds produced different logs".into());
    }

    let suite = spec.suite();
    let (concurrent, workers, journals) = match spec.kind {
        Kind::Explore { .. } => (1, jobs, false),
        Kind::Campaign => (jobs, 1, true),
    };
    let rp = replay::replay(
        &ctx_of(spec, &traced, &suite),
        &traced.runs,
        Mode::Ledger {
            concurrent,
            workers,
            dir,
        },
    );
    out.divergences.extend(rp.divergences.iter().cloned());
    let (synth_ns, synth_instrs) = check_rep(spec, &traced, &mut out, spec.kind == Kind::Campaign);

    ledger_metrics(
        &mut out,
        &untraced,
        &traced,
        &rp,
        &report,
        synth_ns,
        synth_instrs,
        journals,
        jobs,
    );
    out.notes.push(format!(
        "replayed {} designs in {:.3} s; search seed {}; trace seed {}",
        rp.designs,
        rp.wall_ns as f64 / 1e9,
        seeds.search,
        seeds.trace
    ));
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn ledger_metrics(
    out: &mut Outcome,
    untraced: &Rep,
    traced: &Rep,
    rp: &Replay,
    report: &Report,
    synth_ns: u64,
    synth_instrs: u64,
    journals: bool,
    jobs: usize,
) {
    let l = &rp.ledger;
    let per_instr = |layer| {
        let a = l.get(layer);
        ratio(a.ns as f64, a.instrs as f64)
    };
    let counter = |name| report.counter(name) as f64;
    let timer_ns = |name| report.timer(name).map_or(0.0, |t| t.total_ns as f64);
    let designs: u64 = rp.runs.iter().map(|r| r.designs).sum();
    let sum = |f: &dyn Fn(&replay::RunLedger) -> u64| rp.runs.iter().map(f).sum::<u64>() as f64;

    out.metric(
        "workloads.synth_ns_per_instr",
        ratio(synth_ns as f64, synth_instrs as f64),
        "ns/instr",
    );
    out.metric(
        "workloads.store_hit_ratio",
        ratio(
            traced.store_hits as f64,
            (traced.store_hits + traced.store_misses) as f64,
        ),
        "ratio",
    );
    let sim = l.get(Layer::Sim);
    out.metric("sim.calls", sim.calls as f64, "count");
    out.metric("sim.ns_per_instr", per_instr(Layer::Sim), "ns/instr");
    out.metric(
        "sim.ns_per_cycle",
        ratio(sim.ns as f64, l.cycles as f64),
        "ns/cycle",
    );
    out.metric("sim.retries", counter("eval/retry"), "count");
    let power = l.get(Layer::Power);
    out.metric(
        "power.ns_per_call",
        ratio(power.ns as f64, power.calls as f64),
        "ns",
    );
    out.metric(
        "deg.build_ns_per_instr",
        per_instr(Layer::DegBuild),
        "ns/instr",
    );
    out.metric(
        "deg.induce_ns_per_instr",
        per_instr(Layer::DegInduce),
        "ns/instr",
    );
    out.metric(
        "deg.critical_ns_per_instr",
        per_instr(Layer::DegCritical),
        "ns/instr",
    );
    out.metric(
        "deg.analyze_ns_per_instr",
        per_instr(Layer::DegAnalyze),
        "ns/instr",
    );
    out.metric(
        "deg.calipers_ns_per_instr",
        per_instr(Layer::DegCalipers),
        "ns/instr",
    );
    let built = l.get(Layer::DegBuild).instrs as f64;
    out.metric(
        "deg.edges_per_instr",
        ratio(l.edges as f64, built),
        "edges/instr",
    );
    out.metric(
        "deg.induced_edges_per_instr",
        ratio(l.induced_edges as f64, built),
        "edges/instr",
    );

    out.metric(
        "dse.eval.self_us_per_design",
        ratio(sum(&|r| r.eval.self_ns) / 1e3, designs as f64),
        "us",
    );
    out.metric(
        "dse.eval.cache_hit_ratio",
        ratio(
            counter("eval/cache/hit"),
            counter("eval/cache/hit") + counter("eval/cache/miss"),
        ),
        "ratio",
    );
    out.metric(
        "dse.eval.parallel_efficiency",
        ratio(sum(&|r| r.eval.busy_ns), sum(&|r| r.eval.capacity_ns)),
        "ratio",
    );
    out.metric(
        "dse.pareto.us_per_design",
        ratio(sum(&|r| r.pareto_ns) / 1e3, designs as f64),
        "us",
    );
    let last = rp.runs.iter().map(|r| r.last_pareto_ns).max().unwrap_or(0);
    out.metric("dse.pareto.last_design_ms", last as f64 / 1e6, "ms");
    out.metric(
        "dse.pareto.front_size",
        ratio(
            rp.runs.iter().map(|r| r.front_size as f64).sum(),
            rp.runs.len() as f64,
        ),
        "count",
    );
    out.metric(
        "dse.journal.us_per_append",
        ratio(sum(&|r| r.journal_ns) / 1e3, sum(&|r| r.appends)),
        "us",
    );
    out.metric(
        "dse.journal.bytes_per_append",
        ratio(sum(&|r| r.journal_bytes), sum(&|r| r.appends)),
        "B",
    );

    // Search self time: the untraced run's wall minus the replayed
    // evaluation and bookkeeping the program does on the same designs.
    let self_ms = |run: &drive::RunRecord, rl: &replay::RunLedger| {
        let book = rl.pareto_ns + if journals { rl.journal_ns } else { 0 };
        (run.wall_s * 1e9 - (rl.eval.wall_ns + book) as f64) / 1e6
    };
    let mut total_self = 0.0;
    for (run, rl) in untraced.runs.iter().zip(&rp.runs) {
        total_self += self_ms(run, rl);
    }
    out.metric(
        "dse.search.self_ms_per_design",
        ratio(total_self, designs as f64),
        "ms",
    );
    for m in Method::ALL {
        let found = untraced
            .runs
            .iter()
            .zip(&rp.runs)
            .find(|(run, _)| run.method == m);
        let v = found.map_or(0.0, |(run, rl)| ratio(self_ms(run, rl), rl.designs as f64));
        out.metric(format!("dse.search.self_ms_per_design.{m}"), v, "ms");
    }
    let run_sum: f64 = untraced.runs.iter().map(|r| r.wall_s).sum();
    let job_slots = if untraced.runs.len() > 1 { jobs } else { 1 };
    out.metric(
        "dse.campaign.utilization",
        ratio(run_sum, job_slots as f64 * untraced.wall_s),
        "ratio",
    );
    for m in Method::ALL {
        let v = untraced
            .runs
            .iter()
            .find(|r| r.method == m)
            .map_or(0.0, |r| r.wall_s);
        out.metric(format!("dse.campaign.run_s.{m}"), v, "s");
    }

    let mut spans = l.spans.clone();
    let covered = stats::union_len(&mut spans) as f64;
    out.metric(
        "trace.uncovered_frac",
        ratio(rp.wall_ns as f64 - covered, rp.wall_ns as f64),
        "ratio",
    );
    out.metric(
        "trace.overhead_frac",
        ratio(traced.wall_s, untraced.wall_s) - 1.0,
        "ratio",
    );
    // Outside-in busy totals against the program's own span timers for
    // the same calls (0 when the program made no such call).
    for (name, layer, timer) in [
        ("trace.crosscheck.sim", Layer::Sim, "eval/simulate"),
        (
            "trace.crosscheck.deg_build",
            Layer::DegBuild,
            "eval/deg/build",
        ),
        (
            "trace.crosscheck.deg_induce",
            Layer::DegInduce,
            "eval/deg/induce",
        ),
        (
            "trace.crosscheck.deg_critical",
            Layer::DegCritical,
            "eval/deg/critical",
        ),
    ] {
        out.metric(
            name,
            ratio(l.get(layer).ns as f64, timer_ns(timer)),
            "ratio",
        );
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create(workload: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails harmlessly while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Untraced runs measure the program as `archx` runs it by default:
    // with its telemetry registry off.
    telemetry::global().set_enabled(false);
    let result = Scratch::create(args.spec.name).and_then(|scratch| {
        if args.trace {
            ledger(&args, &scratch.0)
        } else {
            end_to_end(&args, &scratch.0)
        }
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", args.spec.name);
            return ExitCode::FAILURE;
        }
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    println!(
        "workload {} (host: {} threads, {cpu})",
        args.spec.name,
        drive::nproc()
    );
    for m in &out.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    for d in &out.divergences {
        println!("  DIVERGENCE: {d}");
    }
    println!("{}", out.json());
    if out.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
