//! The induced DEG (paper Section 4.2): virtual edges that connect the
//! "skewed" (inter-instruction) dependence edges so the critical path can
//! chain consecutive resource-usage dependencies.
//!
//! Unlike the prior formulation, the new DEG has **no** serial
//! fetch-to-fetch or commit-to-commit chains — those edges express program
//! order, not resource usage, and would hide resource dependencies from
//! the critical path. Their removal can disconnect the graph, so virtual
//! (zero-cost, non-dependence) edges are added:
//!
//! * **Rule 1 (connect via time):** each skewed-edge endpoint is connected
//!   to the skewed-edge start whose time is closest after it.
//! * **Rule 2 (connect via instruction sequence):** each skewed-edge
//!   endpoint is connected to the skewed-edge start whose instruction
//!   index is closest after its own.
//!
//! Two anchors keep the path spanning the whole trace, mirroring the
//! virtual `R(I10)→C(I11)` edge of the paper's Figure 9(b): the first
//! instruction's `F1` connects into the first skewed starts, and skewed
//! ends with no onward connection link to the last instruction's commit.
//!
//! The rules depend only on the skewed-edge endpoints, so one generator,
//! `VirtualEdges`, yields each vertex's virtual successors as a sweep in
//! topological order reaches it. The critical-path sweep runs it directly
//! and never stores the edges; [`induce`] runs the same sweep once and
//! materialises them into the graph, for export, figures, statistics and
//! the validation oracle.

use crate::graph::{Deg, EdgeKind, NodeId, Stage};

/// Adds virtual edges to `deg`, producing the induced DEG.
///
/// Each vertex, in topological order, gains a `Virtual` edge to every
/// target `VirtualEdges` generates for it, except a target it already
/// has an edge to. Statistics of the transformation are available by
/// comparing [`Deg::edge_count`] before and after.
pub fn induce(mut deg: Deg) -> Deg {
    let _timed = archx_telemetry::span("deg/induce");
    if deg.instr_count() == 0 {
        return deg;
    }
    deg.freeze();
    let order = deg.topo_order();
    let mut scratch = RuleScratch::default();
    let mut virtuals = VirtualEdges::new(&mut scratch, &deg, &order);
    let mut added: Vec<(NodeId, NodeId)> = Vec::new();
    for &node in &order {
        let first = added.len();
        virtuals.visit(node, |to| {
            let stored = deg.out_edges(node).any(|e| e.to == to);
            if !stored && added[first..].iter().all(|&(_, t)| t != to) {
                added.push((node, to));
            }
        });
    }
    for (from, to) in added {
        deg.add_edge(from, to, EdgeKind::Virtual);
    }
    deg
}

/// [`RuleScratch::flags`] bit: the vertex starts a skewed edge.
const START: u8 = 1;
/// [`RuleScratch::flags`] bit: the vertex ends a skewed edge.
const END: u8 = 2;
/// Rule 1 and Rule 2 each connect to at most this many starts.
const RULE_FANOUT: usize = 4;

/// Buffers of the implicit rule generator, kept in
/// [`DegArena`](crate::arena::DegArena) so a sweep allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RuleScratch {
    /// `START` / `END` bits per vertex.
    flags: Vec<u8>,
    /// Skewed starts in topological-key order (Rule 1 candidates).
    by_key: Vec<NodeId>,
    /// Skewed starts in `(instruction, key)` order (Rule 2 candidates).
    by_instr: Vec<NodeId>,
    /// Per instruction `i`: index in `by_instr` of the first start on an
    /// instruction after `i`.
    later: Vec<u32>,
}

/// The induced DEG's virtual edges (Rules 1 and 2 and the two anchors),
/// generated per vertex during a sweep in topological order.
///
/// [`VirtualEdges::visit`] must see every vertex, in the order the sweep
/// was prepared with: Rule 1 is served by a cursor that only moves
/// forward. A generated target may duplicate an edge the graph already
/// stores; [`induce`] skips those.
pub(crate) struct VirtualEdges<'a> {
    deg: &'a Deg,
    flags: &'a [u8],
    by_key: &'a [NodeId],
    by_instr: &'a [NodeId],
    later: &'a [u32],
    source: NodeId,
    sink: NodeId,
    /// Number of skewed starts visited so far: `by_key[cursor..]` are the
    /// starts strictly after the current vertex.
    cursor: usize,
}

impl<'a> VirtualEdges<'a> {
    /// Prepares the generator for a sweep over `topo_order`, the graph's
    /// topological order.
    pub(crate) fn new(scratch: &'a mut RuleScratch, deg: &'a Deg, topo_order: &[NodeId]) -> Self {
        let RuleScratch {
            flags,
            by_key,
            by_instr,
            later,
        } = scratch;
        flags.clear();
        flags.resize(deg.node_count(), 0);
        for e in deg.edges().iter().filter(|e| e.kind.is_skewed()) {
            flags[e.from as usize] |= START;
            flags[e.to as usize] |= END;
        }
        by_key.clear();
        by_key.extend(
            topo_order
                .iter()
                .copied()
                .filter(|&v| flags[v as usize] & START != 0),
        );
        // Stable counting sort of `by_key` by instruction. Each bucket's
        // fill cursor ends at the next bucket's start, which leaves
        // `later[i]` pointing at the first start after instruction `i`.
        let instrs = deg.instr_count() as usize;
        later.clear();
        later.resize(instrs + 1, 0);
        for &s in by_key.iter() {
            later[deg.locate(s).0 as usize + 1] += 1;
        }
        for i in 0..instrs {
            later[i + 1] += later[i];
        }
        by_instr.clear();
        by_instr.resize(by_key.len(), 0);
        for &s in by_key.iter() {
            let slot = &mut later[deg.locate(s).0 as usize];
            by_instr[*slot as usize] = s;
            *slot += 1;
        }
        let n = deg.instr_count();
        VirtualEdges {
            deg,
            flags,
            by_key,
            by_instr,
            later,
            source: deg.node(0, Stage::F1),
            sink: deg.node(n - 1, Stage::C),
            cursor: 0,
        }
    }

    /// Calls `f` with each virtual successor of `node`, the next vertex of
    /// the sweep.
    #[inline]
    pub(crate) fn visit(&mut self, node: NodeId, mut f: impl FnMut(NodeId)) {
        let flag = self.flags[node as usize];
        if flag & START != 0 {
            debug_assert_eq!(self.by_key[self.cursor], node, "sweep out of order");
            self.cursor += 1;
        }
        if flag == 0 && node != self.source {
            return;
        }
        let deg = self.deg;
        if self.by_key.is_empty() {
            // Fully parallel trace: first fetch straight to last commit.
            if deg.is_forward(node, self.sink) {
                f(self.sink);
            }
            return;
        }
        // Rule 1: the starts sharing the earliest time after `node`; all
        // are forward by construction.
        let rule1 = &self.by_key[self.cursor..];
        let mut onward = !rule1.is_empty();
        if let Some(&first) = rule1.first() {
            let t0 = deg.time(first);
            for &s in rule1
                .iter()
                .take(RULE_FANOUT)
                .take_while(|&&s| deg.time(s) == t0)
            {
                f(s);
            }
        }
        // Rule 2: the starts on the closest later instruction that has
        // any, kept only where they go forward.
        let key = deg.topo_key(node);
        let (_, instr, _) = key;
        let rule2 = &self.by_instr[self.later[instr as usize] as usize..];
        if let Some(&first) = rule2.first() {
            let i0 = deg.locate(first).0;
            for &s in rule2
                .iter()
                .take(RULE_FANOUT)
                .take_while(|&&s| deg.locate(s).0 == i0)
            {
                if deg.topo_key(s) > key {
                    f(s);
                    onward = true;
                }
            }
        }
        // Exit anchor: a skewed end with no onward rule target.
        if flag & END != 0 && !onward && deg.topo_key(self.sink) > key {
            f(self.sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::validate::validate_deg;
    use archx_sim::{trace_gen, MicroArch, OooCore};
    use std::collections::BTreeSet;

    fn induced_of(n: usize) -> Deg {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, 11))
            .expect("simulates");
        induce(build_deg(&r))
    }

    #[test]
    fn induction_only_adds_virtual_edges() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(400, 11))
            .expect("simulates");
        let base = build_deg(&r);
        let base_edges = base.edge_count();
        let ind = induce(base.clone());
        assert!(ind.edge_count() >= base_edges);
        let added = &ind.edges()[base_edges..];
        assert!(added.iter().all(|e| e.kind == EdgeKind::Virtual));
        validate_deg(&ind).expect("induced DEG well-formed");
    }

    /// Rules 1 and 2 and the anchors, written out independently of
    /// `VirtualEdges`: every endpoint scans every skewed start.
    fn reference_virtual_edges(deg: &Deg) -> BTreeSet<(NodeId, NodeId)> {
        let n = deg.instr_count();
        let (source, sink) = (deg.node(0, Stage::F1), deg.node(n - 1, Stage::C));
        let skewed: Vec<_> = deg.edges().iter().filter(|e| e.kind.is_skewed()).collect();
        let mut starts: Vec<NodeId> = skewed.iter().map(|e| e.from).collect();
        starts.sort_by_key(|&s| deg.topo_key(s));
        starts.dedup();
        let ends: BTreeSet<NodeId> = skewed.iter().map(|e| e.to).collect();
        let mut out = BTreeSet::new();
        if starts.is_empty() {
            out.insert((source, sink));
        }
        let endpoints = starts.iter().chain(&ends).chain([&source]);
        for &v in endpoints {
            let key = deg.topo_key(v);
            let after: Vec<NodeId> = starts
                .iter()
                .copied()
                .filter(|&s| deg.topo_key(s) > key)
                .collect();
            let rule1: Vec<NodeId> = after
                .iter()
                .copied()
                .filter(|&s| deg.time(s) == deg.time(after[0]))
                .take(RULE_FANOUT)
                .collect();
            let instr = deg.locate(v).0;
            let closest = starts
                .iter()
                .map(|&s| deg.locate(s).0)
                .filter(|&i| i > instr)
                .min();
            let rule2: Vec<NodeId> = starts
                .iter()
                .copied()
                .filter(|&s| Some(deg.locate(s).0) == closest)
                .take(RULE_FANOUT)
                .filter(|&s| deg.topo_key(s) > key)
                .collect();
            out.extend(rule1.iter().chain(&rule2).map(|&t| (v, t)));
            let stuck = rule1.is_empty() && rule2.is_empty();
            if ends.contains(&v) && stuck && deg.topo_key(sink) > key {
                out.insert((v, sink));
            }
        }
        let stored: BTreeSet<_> = deg.edges().iter().map(|e| (e.from, e.to)).collect();
        &out - &stored
    }

    #[test]
    fn induce_adds_exactly_the_reference_rule_edges() {
        let baseline = |trace: &[archx_sim::Instruction]| {
            OooCore::new(MicroArch::baseline())
                .run(trace)
                .expect("simulates")
        };
        for r in [
            baseline(&trace_gen::mixed_workload(800, 11)),
            baseline(&trace_gen::random_branches(800, 3)),
            OooCore::new(MicroArch::tiny())
                .run(&trace_gen::pointer_chase(800, 8 << 20, 5))
                .expect("simulates"),
            baseline(&trace_gen::linear_int_chain(800)),
            baseline(&trace_gen::independent_int_ops(4)),
            baseline(&trace_gen::independent_int_ops(1)),
        ] {
            let base = build_deg(&r);
            let expected = reference_virtual_edges(&base);
            let induced = induce(base);
            let got: BTreeSet<_> = induced
                .edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Virtual)
                .map(|e| (e.from, e.to))
                .collect();
            assert_eq!(got, expected, "{} instructions", r.trace.events.len());
        }
    }

    #[test]
    fn no_duplicate_edges() {
        let g = induced_of(600);
        // Virtual duplicates specifically are forbidden.
        let mut virt = std::collections::HashSet::new();
        for e in g.edges().iter().filter(|e| e.kind == EdgeKind::Virtual) {
            assert!(virt.insert((e.from, e.to)), "duplicate virtual edge");
        }
    }

    #[test]
    fn sink_is_reachable_from_source() {
        let mut g = induced_of(300);
        g.freeze();
        let n = g.instr_count();
        let source = g.node(0, Stage::F1);
        let sink = g.node(n - 1, Stage::C);
        // BFS forward over the DAG.
        let mut reach = vec![false; g.node_count()];
        reach[source as usize] = true;
        for node in g.topo_order() {
            if !reach[node as usize] {
                continue;
            }
            for e in g.out_edges(node) {
                reach[e.to as usize] = true;
            }
        }
        assert!(
            reach[sink as usize],
            "induced DEG must connect F1(I0) to C(In)"
        );
    }

    #[test]
    fn empty_skew_gets_direct_virtual_edge() {
        // A tiny independent trace may produce no skewed edges at all.
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::independent_int_ops(4))
            .expect("simulates");
        let base = build_deg(&r);
        let had_skew = base.edges().iter().any(|e| e.kind.is_skewed());
        let ind = induce(base);
        if !had_skew {
            assert!(ind.edges().iter().any(|e| e.kind == EdgeKind::Virtual));
        }
    }
}
