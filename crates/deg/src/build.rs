//! Construction of the paper's new DEG formulation from a simulated
//! microexecution (Section 4.1, Table 2).
//!
//! Everything is dynamic: edge weights are the measured intervals between
//! event times, misprediction edges span the *actual* squash latency, and
//! resource-usage edges (`R(i)→R(j)`, `I(i)→I(j)`) come straight from the
//! simulator's scoreboard — which instruction's release of which entry
//! unblocked each stall.

use crate::arena::DegArena;
use crate::graph::{Deg, EdgeKind, Stage};
use archx_sim::trace::{InstrIdx, SimResult};

/// Builds the new-formulation DEG for a full simulation result.
pub fn build_deg(result: &SimResult) -> Deg {
    build_deg_in(&mut DegArena::new(), result)
}

/// Like [`build_deg`], but recycles graph storage from `arena` instead of
/// allocating it — the campaign hot path. Hand the graph back with
/// [`DegArena::recycle`] once analysis is done.
///
/// Producer and releaser indices outside the trace (`NO_INSTR`, "never
/// held") name no vertex, so their edges are dropped.
pub fn build_deg_in(arena: &mut DegArena, result: &SimResult) -> Deg {
    let _timed = archx_telemetry::span("deg/build");
    let events = &result.trace.events;
    let n = events.len() as u32;

    let mut parts = arena.take_parts();
    parts.times.clear();
    parts.times.reserve((n * 10) as usize);
    for ev in events {
        parts.times.extend_from_slice(&[
            ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c,
        ]);
    }
    let mut deg = Deg::from_parts(n, parts);

    let in_trace = |idx: InstrIdx| (idx < n).then_some(idx);

    for (j, ev) in events.iter().enumerate() {
        let j = j as InstrIdx;
        // Pipeline chain F1→F2→F→DC→R→DP→I→M→P→C.
        for w in Stage::ALL.windows(2) {
            deg.add_edge(deg.node(j, w[0]), deg.node(j, w[1]), EdgeKind::Pipeline);
        }
        // Fetch-buffer slot dependence: F(releaser) → F1(j).
        if let Some(from) = ev.fetch_slot_from.and_then(in_trace) {
            deg.add_edge(
                deg.node(from, Stage::F),
                deg.node(j, Stage::F1),
                EdgeKind::FetchSlot,
            );
        }
        // Fetch bandwidth / fetch-queue dependence: F(releaser) → F(j).
        if let Some(from) = ev.fetch_bw_from.and_then(in_trace) {
            deg.add_edge(
                deg.node(from, Stage::F),
                deg.node(j, Stage::F),
                EdgeKind::FetchBw,
            );
        }
        // Misprediction squash: P(branch) → F1(first refilled).
        if let Some(from) = ev.refill_from.and_then(in_trace) {
            deg.add_edge(
                deg.node(from, Stage::P),
                deg.node(j, Stage::F1),
                EdgeKind::Mispredict,
            );
        }
        // Hardware-resource usage dependencies: R(releaser) → R(j).
        for stall in &ev.rename_stalls {
            if let Some(rel) = in_trace(stall.releaser) {
                deg.add_edge(
                    deg.node(rel, Stage::R),
                    deg.node(j, Stage::R),
                    EdgeKind::Resource(stall.resource),
                );
            }
        }
        // Functional-unit usage dependence: I(releaser) → I(j).
        if let Some(wait) = ev.fu_wait {
            if let Some(rel) = in_trace(wait.releaser) {
                deg.add_edge(
                    deg.node(rel, Stage::I),
                    deg.node(j, Stage::I),
                    EdgeKind::Fu(wait.fu),
                );
            }
        }
        // True data dependencies: I(producer) → I(j).
        for &d in &ev.data_deps {
            if let Some(prod) = in_trace(d) {
                deg.add_edge(
                    deg.node(prod, Stage::I),
                    deg.node(j, Stage::I),
                    EdgeKind::Data,
                );
            }
        }
        // Memory-address-dependence misprediction: M(store) → C(load).
        if let Some(store) = ev.mem_dep_violation.and_then(in_trace) {
            deg.add_edge(
                deg.node(store, Stage::M),
                deg.node(j, Stage::C),
                EdgeKind::MemDep,
            );
        }
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_deg;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn run(n: usize) -> SimResult {
        OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, 7))
            .expect("simulates")
    }

    #[test]
    fn graph_shape_matches_trace() {
        let r = run(500);
        let g = build_deg(&r);
        assert_eq!(g.instr_count(), 500);
        assert_eq!(g.node_count(), 5000);
        // At least the 9 pipeline edges per instruction.
        assert!(g.edge_count() >= 9 * 500);
        validate_deg(&g).expect("well-formed DEG");
    }

    #[test]
    fn pipeline_edge_weights_are_measured_intervals() {
        let r = run(200);
        let g = build_deg(&r);
        for e in g.edges() {
            let w = g.interval(e);
            // All weights are non-negative by construction; pipeline F1→F2
            // equals the I-cache access time.
            if e.kind == EdgeKind::Pipeline {
                let (i, s) = g.locate(e.from);
                if s == Stage::F1 {
                    let ev = &r.trace.events[i as usize];
                    assert_eq!(w, ev.f2 - ev.f1);
                }
            }
        }
    }

    #[test]
    fn mispredict_edges_have_dynamic_weights() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::random_branches(5_000, 3))
            .expect("simulates");
        let g = build_deg(&r);
        let mut weights: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Mispredict)
            .map(|e| g.interval(e))
            .collect();
        assert!(
            !weights.is_empty(),
            "random branches must produce squash edges"
        );
        // Squash+redirect takes at least the redirect penalty; the refill
        // may start later still when the front end is busy.
        assert!(
            weights.iter().all(|&w| w >= 3),
            "squash latency below redirect: {weights:?}"
        );
        weights.sort_unstable();
        weights.dedup();
    }

    #[test]
    fn resource_edges_appear_under_pressure() {
        let mut arch = MicroArch::tiny();
        arch.rob_entries = 32;
        let r = OooCore::new(arch)
            .run(&trace_gen::pointer_chase(3_000, 16 << 20, 5))
            .expect("simulates");
        let g = build_deg(&r);
        let has_resource = g
            .edges()
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Resource(_)));
        assert!(
            has_resource,
            "a tiny machine on a memory-bound trace must stall on resources"
        );
    }
}
