//! Critical-path construction (paper Algorithm 1).
//!
//! A dynamic program over the topological order maximises accumulated edge
//! *cost*, where costs are chosen so the path is densely composed of
//! resource-usage dependencies: horizontal (pipeline), virtual, and
//! true-data edges cost zero; misprediction, hardware-resource and
//! functional-unit edges cost their measured interval.
//!
//! Among equal-cost paths the program prefers the larger accumulated
//! *delay* (time span). Because every path's delay telescopes to
//! `t(end) − t(start)`, this tie-break pulls the path's origin back to
//! `F1(I0)` (time 0) whenever the induced DEG connects it, making the
//! critical-path length exactly the simulated runtime.
//!
//! The induced DEG is never built on this path. Its virtual edges depend
//! only on the skewed-edge endpoints, so the sweep generates each
//! vertex's virtual successors when it reaches the vertex, from tables
//! prepared once per graph (see [`induced`](crate::induced)).

use crate::arena::DegArena;
use crate::graph::{Deg, Edge, EdgeKind, NodeId, Stage};
use crate::induced::VirtualEdges;
use archx_sim::trace::Cycle;

/// A constructed critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Edges in execution order (source to sink).
    pub edges: Vec<Edge>,
    /// Total accumulated cost (resource-dependence cycles).
    pub cost: Cycle,
    /// Total time span covered, `t(end) − t(start)`.
    pub total_delay: Cycle,
    /// First vertex of the path.
    pub start: NodeId,
    /// Last vertex of the path (the last instruction's commit).
    pub end: NodeId,
}

impl CriticalPath {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Algorithm 1 state of one vertex: the best `(cost, delay, attributed
/// delay)` of a path reaching it, and the source and kind of that path's
/// last edge. One compact record per vertex keeps a relaxation's reads
/// and writes together in memory.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Best {
    value: (u64, u64, u64),
    pred: Option<(NodeId, EdgeKind)>,
}

/// Runs Algorithm 1 and returns the critical path ending at the last
/// instruction's commit.
///
/// `deg` may be the built DEG or its induced form: the sweep generates
/// the induced DEG's virtual edges itself, so both give the same path.
/// The graph is only mutated by building (and caching) its CSR edge
/// index.
///
/// # Panics
///
/// Panics on an empty graph.
pub fn critical_path(deg: &mut Deg) -> CriticalPath {
    critical_path_in(&mut DegArena::new(), deg)
}

/// Like [`critical_path`], but borrows the dynamic-program arrays, the
/// topological-order buffers and the virtual-edge generator's tables
/// from `arena` instead of allocating them — the campaign hot path. The
/// result is identical to [`critical_path`].
///
/// Each vertex relaxes its stored out-edges first and then the virtual
/// edges [`induce`](crate::induced::induce) would give it. On an
/// induced graph a generated edge therefore duplicates an edge already
/// relaxed with an equal or larger value, and the strict comparison
/// never lets a duplicate win.
///
/// # Panics
///
/// Panics on an empty graph.
pub fn critical_path_in(arena: &mut DegArena, deg: &mut Deg) -> CriticalPath {
    assert!(deg.instr_count() > 0, "empty DEG");
    let _timed = archx_telemetry::span("deg/critical");
    deg.freeze();
    let deg = &*deg;
    let n = deg.node_count();
    // DP value per node: (cost, delay, attributed delay). Cost implements
    // Algorithm 1; delay pulls the path origin back to time zero; the
    // attributed-delay tie-break prefers spans covered by real dependence
    // and pipeline edges over virtual hops, so attribution loses as little
    // of the runtime as possible.
    let DegArena {
        best,
        topo_counts,
        topo_order,
        rules,
        ..
    } = arena;
    best.clear();
    best.resize(n, Best::default());
    deg.topo_order_into(topo_counts, topo_order);
    let mut virtuals = VirtualEdges::new(rules, deg, topo_order);

    for &node in topo_order.iter() {
        let (c0, d0, a0) = best[node as usize].value;
        let t0 = deg.time(node);
        let mut relax = |to: NodeId, kind: EdgeKind| {
            let w = deg.time(to).saturating_sub(t0);
            let ec = if kind.has_cost() { w } else { 0 };
            let ea = if kind == EdgeKind::Virtual { 0 } else { w };
            let value = (c0 + ec, d0 + w, a0 + ea);
            let slot = &mut best[to as usize];
            if value > slot.value {
                *slot = Best {
                    value,
                    pred: Some((node, kind)),
                };
            }
        };
        for e in deg.out_edges(node) {
            relax(e.to, e.kind);
        }
        virtuals.visit(node, |to| relax(to, EdgeKind::Virtual));
    }

    let sink = deg.node(deg.instr_count() - 1, Stage::C);
    let mut edges = Vec::new();
    let mut cur = sink;
    while let Some((from, kind)) = best[cur as usize].pred {
        edges.push(Edge {
            from,
            to: cur,
            kind,
        });
        cur = from;
        // Every path edge goes forward, so a path has fewer edges than
        // the graph has vertices. Generated edges are not stored, which
        // is why the bound is not the edge count.
        assert!(
            edges.len() < n,
            "cycle in DEG predecessor chain — a non-forward edge slipped in"
        );
    }
    edges.reverse();
    let (cost, total_delay, _) = best[sink as usize].value;
    CriticalPath {
        cost,
        total_delay,
        start: cur,
        end: sink,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::induced::induce;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn path_for(trace: &[archx_sim::Instruction], arch: MicroArch) -> (CriticalPath, u64) {
        let r = OooCore::new(arch).run(trace).expect("simulates");
        let mut deg = build_deg(&r);
        (critical_path(&mut deg), r.trace.cycles)
    }

    #[test]
    fn length_equals_simulated_cycles_mixed() {
        let (p, cycles) = path_for(&trace_gen::mixed_workload(2_000, 3), MicroArch::baseline());
        assert_eq!(
            p.total_delay, cycles,
            "new DEG critical path must match runtime exactly"
        );
    }

    #[test]
    fn length_equals_simulated_cycles_under_pressure() {
        let mut arch = MicroArch::tiny();
        arch.rob_entries = 32;
        let (p, cycles) = path_for(&trace_gen::pointer_chase(2_000, 8 << 20, 9), arch);
        assert_eq!(p.total_delay, cycles);
    }

    #[test]
    fn length_equals_simulated_cycles_branchy() {
        let (p, cycles) = path_for(&trace_gen::random_branches(3_000, 5), MicroArch::baseline());
        assert_eq!(p.total_delay, cycles);
    }

    #[test]
    fn path_edges_are_contiguous() {
        let (p, _) = path_for(&trace_gen::mixed_workload(1_000, 4), MicroArch::baseline());
        for w in p.edges.windows(2) {
            assert_eq!(w[0].to, w[1].from, "path must be vertex-contiguous");
        }
        assert!(!p.is_empty());
        assert_eq!(p.edges.first().unwrap().from, p.start);
        assert_eq!(p.edges.last().unwrap().to, p.end);
    }

    #[test]
    fn path_cost_counts_only_costly_edges() {
        let (p, _) = path_for(&trace_gen::mixed_workload(1_000, 6), MicroArch::baseline());
        let mut deg_cost = 0;
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(1_000, 6))
            .expect("simulates");
        let deg = induce(build_deg(&r));
        for e in &p.edges {
            if e.kind.has_cost() {
                deg_cost += deg.interval(e);
            }
        }
        assert_eq!(deg_cost, p.cost);
        assert!(p.cost <= p.total_delay);
    }

    #[test]
    fn serial_chain_path_carries_dependence_edges() {
        // A serial dependence chain: the path routes through skewed
        // dependence edges (data deps and the queue backpressure they
        // induce), not through pipeline/virtual filler alone.

        let (p, _) = path_for(&trace_gen::linear_int_chain(2_000), MicroArch::baseline());
        let skewed = p.edges.iter().filter(|e| e.kind.is_skewed()).count();
        assert!(
            skewed > p.edges.len() / 4,
            "expected a dependence-dominated path, got {skewed}/{}",
            p.edges.len()
        );
    }
}
