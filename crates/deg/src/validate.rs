//! DEG validation: structural invariants and cross-implementation oracles.
//!
//! The paper's method rests on two exact identities — the DEG is acyclic
//! with every edge weight equal to a measured stage interval (Table 2),
//! and Algorithm 1's critical-path length equals the simulated runtime.
//! This module machine-checks both, plus the agreement of independent
//! computations of the critical path (the sweep that generates the
//! induced DEG's virtual edges vs the plain dynamic program over the
//! materialised induced DEG), forming the oracle hierarchy every later
//! optimisation must pass:
//!
//! 1. [`validate_deg`] — structure: acyclicity (every edge forward in the
//!    topological key order), time-axis monotonicity along each
//!    instruction's pipeline chain, and Table 2 endpoint consistency per
//!    edge kind;
//! 2. [`validate_times`] — the graph's vertex times are exactly the
//!    simulator's event record (with implicit weights, this *is* the
//!    weight/interval consistency of Table 2);
//! 3. [`validate_exactness`] — the end-to-end oracle: structure holds
//!    before and after inducing, `critical_path_in` on the built DEG,
//!    `critical_path_in` on the induced DEG and the plain reference
//!    dynamic program on the induced DEG agree (as paths and as
//!    bottleneck reports), and the path length equals `SimResult` cycles.
//!
//! Every failure increments a `verify/violation/<check>` telemetry
//! counter and carries a stable machine-readable tag.

use crate::arena::DegArena;
use crate::bottleneck::analyze;
use crate::build::build_deg_in;
use crate::critical::{critical_path_in, CriticalPath};
use crate::graph::{Deg, Edge, EdgeKind, Stage};
use crate::induced::induce;
use archx_sim::trace::SimResult;

/// A failed DEG validation check.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationError {
    /// Stable machine-readable tag (e.g. `deg/endpoints`), mirrored by the
    /// `verify/violation/<check>` telemetry counter.
    pub check: &'static str,
    /// Rendered diagnostic.
    pub detail: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DEG validation failed [{}]: {}", self.check, self.detail)
    }
}

impl std::error::Error for ValidationError {}

#[cold]
fn fail(check: &'static str, detail: String) -> ValidationError {
    archx_telemetry::counter_add(&format!("verify/violation/{check}"), 1);
    ValidationError { check, detail }
}

/// Expected endpoint stages for each Table 2 edge kind; `None` leaves the
/// endpoints unconstrained (virtual edges).
fn expected_endpoints(kind: EdgeKind) -> Option<(Stage, Stage)> {
    match kind {
        EdgeKind::Pipeline => None, // consecutive ranks, checked separately
        EdgeKind::Mispredict => Some((Stage::P, Stage::F1)),
        EdgeKind::Resource(_) => Some((Stage::R, Stage::R)),
        EdgeKind::Fu(_) => Some((Stage::I, Stage::I)),
        EdgeKind::Data => Some((Stage::I, Stage::I)),
        EdgeKind::FetchSlot => Some((Stage::F, Stage::F1)),
        EdgeKind::FetchBw => Some((Stage::F, Stage::F)),
        EdgeKind::MemDep => Some((Stage::M, Stage::C)),
        EdgeKind::Virtual => None,
    }
}

/// Validates the structural invariants of a built (or induced) DEG:
/// acyclicity, per-instruction time monotonicity along the pipeline
/// chain, and Table 2 endpoint consistency.
///
/// # Errors
///
/// Returns the first failing check, tagged `deg/acyclic`,
/// `deg/stage_time` or `deg/endpoints`.
pub fn validate_deg(deg: &Deg) -> Result<(), ValidationError> {
    // Acyclicity: every edge strictly increases the topological key, so
    // no cycle can close and no weight can be negative.
    for e in deg.edges() {
        if !deg.is_forward(e.from, e.to) {
            return Err(fail(
                "deg/acyclic",
                format!(
                    "edge {:?} -> {:?} ({:?}) does not go forward",
                    deg.locate(e.from),
                    deg.locate(e.to),
                    e.kind
                ),
            ));
        }
    }
    // Time-axis monotonicity along each instruction's pipeline chain.
    for j in 0..deg.instr_count() {
        for w in Stage::ALL.windows(2) {
            let a = deg.time(deg.node(j, w[0]));
            let b = deg.time(deg.node(j, w[1]));
            if b < a {
                return Err(fail(
                    "deg/stage_time",
                    format!("instruction {j}: {} at {a} after {} at {b}", w[0], w[1]),
                ));
            }
        }
    }
    // Table 2 endpoint consistency.
    for e in deg.edges() {
        let (fi, fs) = deg.locate(e.from);
        let (ti, ts) = deg.locate(e.to);
        match e.kind {
            EdgeKind::Pipeline => {
                if fi != ti || ts.rank() != fs.rank() + 1 {
                    return Err(fail(
                        "deg/endpoints",
                        format!("pipeline edge {fi}:{fs} -> {ti}:{ts} is not a chain step"),
                    ));
                }
            }
            EdgeKind::Virtual => {}
            kind => {
                let (efs, ets) = expected_endpoints(kind).expect("skewed kinds constrained");
                let instr_ok = match kind {
                    // Producers and releasers are strictly older.
                    EdgeKind::Data | EdgeKind::MemDep => fi < ti,
                    _ => fi != ti,
                };
                if fs != efs || ts != ets || !instr_ok {
                    return Err(fail(
                        "deg/endpoints",
                        format!(
                            "{kind:?} edge {fi}:{fs} -> {ti}:{ts}, expected {efs} -> {ets} \
                             across instructions"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Validates that the graph's vertex times are exactly the simulator's
/// event record — with the DEG's implicit weights this is the Table 2
/// weight/interval consistency.
///
/// # Errors
///
/// Returns a `deg/times` failure naming the first mismatched vertex.
pub fn validate_times(deg: &Deg, result: &SimResult) -> Result<(), ValidationError> {
    for j in 0..deg.instr_count() {
        let ev = &result.trace.events[j as usize];
        let expect = [
            ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c,
        ];
        for (stage, &t) in Stage::ALL.iter().zip(&expect) {
            let got = deg.time(deg.node(j, *stage));
            if got != t {
                return Err(fail(
                    "deg/times",
                    format!("instruction {j}: vertex {stage} holds {got}, trace says {t}"),
                ));
            }
        }
    }
    Ok(())
}

/// The end-to-end oracle over a full simulation result: builds the DEG,
/// validates structure and times before and after inducing, requires
/// `critical_path_in` on the built DEG, `critical_path_in` on the induced
/// DEG and the plain reference dynamic program on the induced DEG to
/// agree, and requires the path length to equal the simulated runtime
/// exactly. Returns the critical path for reuse.
///
/// # Errors
///
/// Returns the first failing check: any [`validate_deg`] /
/// [`validate_times`] tag, `deg/fused_vs_materialised` (a critical path
/// or its bottleneck report differs between the three computations) or
/// `deg/exactness` (path length != runtime).
///
/// # Panics
///
/// Panics on an empty trace (no instructions were simulated).
pub fn validate_exactness(result: &SimResult) -> Result<CriticalPath, ValidationError> {
    let mut arena = DegArena::new();
    let mut built = build_deg_in(&mut arena, result);
    validate_deg(&built)?;
    validate_times(&built, result)?;
    let path = critical_path_in(&mut arena, &mut built);
    let report = analyze(&built, &path);

    let mut induced = induce(built);
    validate_deg(&induced)?;
    validate_times(&induced, result)?;

    for (name, other) in [
        (
            "critical_path_in on the induced DEG",
            critical_path_in(&mut arena, &mut induced),
        ),
        (
            "the reference DP on the induced DEG",
            reference_critical_path(&mut induced),
        ),
    ] {
        let other_report = analyze(&induced, &other);
        if other != path || other_report != report {
            return Err(fail(
                "deg/fused_vs_materialised",
                format!(
                    "critical_path_in on the built DEG found (cost {}, delay {}, {} edges), \
                     {name} (cost {}, delay {}, {} edges); reports equal: {}",
                    path.cost,
                    path.total_delay,
                    path.len(),
                    other.cost,
                    other.total_delay,
                    other.len(),
                    other_report == report
                ),
            ));
        }
    }
    if path.total_delay != result.trace.cycles {
        return Err(fail(
            "deg/exactness",
            format!(
                "critical path spans {} cycles, simulation ran {}",
                path.total_delay, result.trace.cycles
            ),
        ));
    }
    Ok(path)
}

/// The plain Algorithm 1 dynamic program over the stored edges only: the
/// reference [`critical_path_in`] is checked against on a materialised
/// induced DEG. Kept deliberately simple and allocating.
fn reference_critical_path(deg: &mut Deg) -> CriticalPath {
    deg.freeze();
    let n = deg.node_count();
    let mut cost = vec![0u64; n];
    let mut delay = vec![0u64; n];
    let mut attr = vec![0u64; n];
    let mut pred: Vec<Option<Edge>> = vec![None; n];
    for node in deg.topo_order() {
        let c0 = cost[node as usize];
        let d0 = delay[node as usize];
        let a0 = attr[node as usize];
        for e in deg.out_edges(node) {
            let w = deg.interval(e);
            let ec = if e.kind.has_cost() { w } else { 0 };
            let ea = if e.kind == EdgeKind::Virtual { 0 } else { w };
            let (nc, nd, na) = (c0 + ec, d0 + w, a0 + ea);
            let t = e.to as usize;
            if (nc, nd, na) > (cost[t], delay[t], attr[t]) {
                cost[t] = nc;
                delay[t] = nd;
                attr[t] = na;
                pred[t] = Some(*e);
            }
        }
    }
    let sink = deg.node(deg.instr_count() - 1, Stage::C);
    let mut edges = Vec::new();
    let mut cur = sink;
    while let Some(e) = pred[cur as usize] {
        edges.push(e);
        cur = e.from;
        assert!(
            edges.len() <= deg.edge_count(),
            "cycle in DEG predecessor chain"
        );
    }
    edges.reverse();
    CriticalPath {
        cost: cost[sink as usize],
        total_delay: delay[sink as usize],
        start: cur,
        end: sink,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::graph::NodeId;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn run(n: usize, seed: u64) -> SimResult {
        OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, seed))
            .expect("simulates")
    }

    #[test]
    fn healthy_results_pass_the_full_oracle() {
        let r = run(2_000, 3);
        let path = validate_exactness(&r).expect("oracle holds");
        assert_eq!(path.total_delay, r.trace.cycles);
    }

    #[test]
    fn branchy_and_memory_bound_results_pass() {
        for r in [
            OooCore::new(MicroArch::baseline())
                .run(&trace_gen::random_branches(2_000, 7))
                .expect("simulates"),
            OooCore::new(MicroArch::tiny())
                .run(&trace_gen::pointer_chase(2_000, 8 << 20, 9))
                .expect("simulates"),
        ] {
            validate_exactness(&r).expect("oracle holds under pressure");
        }
    }

    #[test]
    fn fused_sweep_matches_the_reference_dp() {
        // Shapes with and without skewed edges, through one arena so the
        // generator's tables are reused across graph sizes.
        let mut arena = DegArena::new();
        let baseline = |trace: &[archx_sim::Instruction]| {
            OooCore::new(MicroArch::baseline())
                .run(trace)
                .expect("simulates")
        };
        for r in [
            run(1_500, 6),
            OooCore::new(MicroArch::tiny())
                .run(&trace_gen::pointer_chase(1_000, 8 << 20, 4))
                .expect("simulates"),
            baseline(&trace_gen::independent_int_ops(4)),
            // One instruction: no skewed edges, only F1(I0) -> C(I0).
            baseline(&trace_gen::independent_int_ops(1)),
            run(300, 7),
        ] {
            let mut base = build_deg(&r);
            if r.trace.events.len() == 1 {
                assert!(!base.edges().iter().any(|e| e.kind.is_skewed()));
            }
            let fused = critical_path_in(&mut arena, &mut base);
            let mut induced = induce(base);
            assert_eq!(fused, reference_critical_path(&mut induced));
            assert_eq!(fused, critical_path_in(&mut arena, &mut induced));
            assert_eq!(fused.total_delay, r.trace.cycles);
        }
    }

    #[test]
    fn corrupted_endpoint_is_reported() {
        let r = run(300, 1);
        let mut deg = build_deg(&r);
        // A Data edge must run I -> I; aim one at a commit vertex instead.
        let from = deg.node(0, Stage::I);
        let to = deg.node(200, Stage::C);
        deg.add_edge(from, to, EdgeKind::Data);
        let err = validate_deg(&deg).expect_err("bad endpoint must be caught");
        assert_eq!(err.check, "deg/endpoints");
        assert!(err.to_string().contains("Data"));
    }

    #[test]
    fn corrupted_time_is_reported() {
        let r = run(300, 2);
        let deg = build_deg(&r);
        // Rebuild with one vertex time nudged off the trace.
        let mut times: Vec<_> = (0..deg.node_count() as NodeId)
            .map(|v| deg.time(v))
            .collect();
        let victim = deg.node(100, Stage::I) as usize;
        times[victim] += 1;
        let forged = Deg::new(deg.instr_count(), times);
        let err = validate_times(&forged, &r).expect_err("forged time must be caught");
        assert_eq!(err.check, "deg/times");
    }

    #[test]
    fn violations_count_in_telemetry() {
        archx_telemetry::global().set_enabled(true);
        let r = run(200, 4);
        let mut deg = build_deg(&r);
        let from = deg.node(0, Stage::I);
        let to = deg.node(150, Stage::C);
        deg.add_edge(from, to, EdgeKind::Data);
        let before = archx_telemetry::global()
            .report()
            .counter("verify/violation/deg/endpoints");
        let _ = validate_deg(&deg);
        let after = archx_telemetry::global()
            .report()
            .counter("verify/violation/deg/endpoints");
        assert_eq!(after, before + 1);
    }
}
