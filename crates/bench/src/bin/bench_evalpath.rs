//! **BENCH_evalpath**: wall-clock of the evaluation hot path in three
//! configurations — cold (fresh trace store per pass, each design on a
//! freshly spawned thread and so a fresh evaluation arena), shared trace
//! store (synthesise once, share `Arc`s, still a fresh thread per design),
//! and shared store plus one long-lived thread whose evaluation arena is
//! reused across every design — with a hard identity gate: both
//! optimised paths must produce [`DesignEval`]s byte-identical to the cold
//! path or the binary exits non-zero.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin bench_evalpath \
//!     [designs=N] [instrs=N] [workloads=N] [repeats=N] [seed=N] [out=PATH]
//! ```
//!
//! Writes a JSON record (`out=`, default `BENCH_evalpath.json`) with the
//! per-mode timings, speedups over cold, trace-store miss accounting, and
//! the identity verdicts.

use archexplorer::dse::eval::{Analysis, DesignEval, Evaluator};
use archexplorer::prelude::*;
use archexplorer::telemetry::JsonValue;
use archexplorer::workloads::TraceStore;
use archx_bench::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One pass: a fresh evaluator (no design cache carry-over) over the same
/// designs, resolving traces through `store`. With `fresh_thread`, each
/// design is evaluated on a newly spawned thread, which starts with an
/// empty thread-local evaluation arena; otherwise every design runs on the
/// calling thread and reuses its arena. Returns the evaluations in design
/// order.
fn run_pass(
    suite: &[Workload],
    instrs: usize,
    store: Arc<TraceStore>,
    fresh_thread: bool,
    designs: &[MicroArch],
) -> Vec<DesignEval> {
    let evaluator = Evaluator::builder(suite.to_vec())
        .window(instrs)
        .seed(1)
        .trace_store(store)
        .threads(1)
        .build();
    let eval = |arch: &MicroArch| {
        evaluator
            .evaluate_with(arch, Analysis::NewDeg)
            .expect("baseline-lattice designs evaluate")
    };
    designs
        .iter()
        .map(|arch| {
            if fresh_thread {
                std::thread::scope(|s| s.spawn(|| eval(arch)).join().expect("evaluation thread"))
            } else {
                eval(arch)
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let telemetry_mode = args.telemetry();
    let out = args.get_str("out", "BENCH_evalpath.json");
    let n_designs = args.get_usize("designs", 8).max(1);
    let instrs = args.get_usize("instrs", 3_000).max(100);
    let repeats = args.get_usize("repeats", 3).max(1);
    let seed = args.get_u64("seed", 1);

    let mut suite = spec06_suite();
    suite.truncate(args.get_usize("workloads", 2).max(1));
    let w = 1.0 / suite.len() as f64;
    for x in &mut suite {
        x.weight = w;
    }
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(seed);
    let designs: Vec<MicroArch> = (0..n_designs).map(|_| space.random(&mut rng)).collect();

    eprintln!(
        "evalpath bench: {} designs x {} workloads x {instrs} instrs, {repeats} pass(es) per mode",
        designs.len(),
        suite.len()
    );

    // Cold: every pass synthesises its traces from scratch (fresh store)
    // and every design allocates its working set from scratch (fresh
    // thread, fresh arena).
    let t0 = Instant::now();
    let mut cold_misses = 0u64;
    let mut cold: Vec<DesignEval> = Vec::new();
    for rep in 0..repeats {
        let store = Arc::new(TraceStore::new());
        let evals = run_pass(&suite, instrs, Arc::clone(&store), true, &designs);
        cold_misses += store.misses();
        if rep == 0 {
            cold = evals;
        }
    }
    let cold_s = t0.elapsed().as_secs_f64();

    // Shared store: one store across every pass — the first pass
    // synthesises, the rest share the `Arc<[Instruction]>`s zero-copy.
    let shared_store = Arc::new(TraceStore::new());
    let t1 = Instant::now();
    let mut shared: Vec<DesignEval> = Vec::new();
    for rep in 0..repeats {
        let evals = run_pass(&suite, instrs, Arc::clone(&shared_store), true, &designs);
        if rep == 0 {
            shared = evals;
        }
    }
    let shared_s = t1.elapsed().as_secs_f64();

    // Arena: shared store plus one thread's scratch arena reused across
    // every design — simulations and DEG analyses clear buffers instead of
    // reallocating them.
    let arena_store = Arc::new(TraceStore::new());
    let t2 = Instant::now();
    let mut arena: Vec<DesignEval> = Vec::new();
    for rep in 0..repeats {
        let evals = run_pass(&suite, instrs, Arc::clone(&arena_store), false, &designs);
        if rep == 0 {
            arena = evals;
        }
    }
    let arena_s = t2.elapsed().as_secs_f64();

    let shared_identical = shared == cold;
    let arena_identical = arena == cold;
    let identical = shared_identical && arena_identical;
    let speedup_shared = cold_s / shared_s.max(1e-9);
    let speedup_arena = cold_s / arena_s.max(1e-9);
    println!(
        "cold {cold_s:.3}s  shared-store {shared_s:.3}s ({speedup_shared:.2}x)  \
         arena {arena_s:.3}s ({speedup_arena:.2}x)  identical results: {identical}"
    );
    println!(
        "trace synthesis: cold {} misses over {repeats} pass(es), shared {} miss(es), \
         arena {} miss(es)",
        cold_misses,
        shared_store.misses(),
        arena_store.misses()
    );

    let json = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("evalpath".into())),
        ("designs".into(), JsonValue::Int(designs.len() as u64)),
        ("workloads".into(), JsonValue::Int(suite.len() as u64)),
        ("instrs_per_workload".into(), JsonValue::Int(instrs as u64)),
        ("repeats".into(), JsonValue::Int(repeats as u64)),
        ("seed".into(), JsonValue::Int(seed)),
        ("cold_seconds".into(), JsonValue::Float(cold_s)),
        ("shared_store_seconds".into(), JsonValue::Float(shared_s)),
        ("arena_seconds".into(), JsonValue::Float(arena_s)),
        (
            "speedup_shared_store".into(),
            JsonValue::Float(speedup_shared),
        ),
        ("speedup_arena".into(), JsonValue::Float(speedup_arena)),
        ("cold_trace_misses".into(), JsonValue::Int(cold_misses)),
        (
            "shared_trace_misses".into(),
            JsonValue::Int(shared_store.misses()),
        ),
        (
            "arena_trace_misses".into(),
            JsonValue::Int(arena_store.misses()),
        ),
        (
            "shared_store_identical".into(),
            JsonValue::Bool(shared_identical),
        ),
        ("arena_identical".into(), JsonValue::Bool(arena_identical)),
        ("results_identical".into(), JsonValue::Bool(identical)),
    ]);
    if let Err(e) = std::fs::write(&out, json.render() + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    archx_bench::emit::emit_telemetry(&telemetry_mode);
    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an optimised evaluation path diverged from the cold path");
        ExitCode::FAILURE
    }
}
