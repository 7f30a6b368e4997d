//! Reusable DEG analysis scratch memory.
//!
//! Each evaluation on the DSE hot path builds a DEG (tens of thousands of
//! vertices, hundreds of thousands of edges) and runs the Algorithm 1
//! dynamic program over it, generating the induced DEG's virtual edges
//! during the sweep — all of whose storage used to be allocated per
//! design point. A [`DegArena`] owns that storage between evaluations:
//!
//! * the graph's own vectors (vertex times, edge list, CSR adjacency) are
//!   handed to [`build_deg_in`](crate::build::build_deg_in) and travel
//!   *inside* the returned [`Deg`] through the critical-path pass, coming
//!   back via [`DegArena::recycle`];
//! * the DP arrays, the topological-order buffers and the virtual-edge
//!   generator's tables (skewed-endpoint flags, Rule 1 and Rule 2
//!   candidate orders) are borrowed by
//!   [`critical_path_in`](crate::critical::critical_path_in) and stay in
//!   the arena.
//!
//! Everything is cleared (capacity kept) before reuse, so a reused arena
//! gives byte-identical results to a fresh one — and `build_deg` and
//! `critical_path` are just their `_in` forms on a fresh arena. Like
//! [`SimArena`](archx_sim::arena::SimArena), a `DegArena` belongs to one
//! worker thread.

use crate::critical::Best;
use crate::graph::{Deg, DegParts, NodeId};
use crate::induced::RuleScratch;

/// Recyclable scratch buffers for DEG construction and analysis.
///
/// ```
/// use archx_deg::{arena::DegArena, build::build_deg_in, critical::critical_path_in};
/// use archx_sim::{trace_gen, MicroArch, OooCore};
/// let result = OooCore::new(MicroArch::baseline())
///     .run(&trace_gen::mixed_workload(500, 1))
///     .expect("simulates");
/// let mut arena = DegArena::new();
/// for _ in 0..3 {
///     let mut deg = build_deg_in(&mut arena, &result);
///     let path = critical_path_in(&mut arena, &mut deg);
///     assert!(path.total_delay > 0);
///     arena.recycle(deg); // reclaim the graph storage for the next round
/// }
/// ```
#[derive(Debug, Default)]
pub struct DegArena {
    /// Graph storage awaiting the next `build_deg_in`.
    pub(crate) parts: DegParts,
    /// Algorithm 1 DP: best value and incoming edge per node.
    pub(crate) best: Vec<Best>,
    /// Counting-sort scratch for the topological order.
    pub(crate) topo_counts: Vec<u32>,
    /// Topological order of the current graph.
    pub(crate) topo_order: Vec<NodeId>,
    /// Tables of the virtual-edge generator the critical-path sweep uses.
    pub(crate) rules: RuleScratch,
}

impl DegArena {
    /// Creates an empty arena; buffers grow on first use and stick.
    pub fn new() -> Self {
        DegArena::default()
    }

    /// Reclaims the storage of a consumed graph so the next
    /// [`build_deg_in`](crate::build::build_deg_in) on this arena reuses
    /// its allocations.
    pub fn recycle(&mut self, deg: Deg) {
        let parts = deg.into_parts();
        if parts.times.capacity() > self.parts.times.capacity() {
            self.parts.times = parts.times;
        }
        if parts.edges.capacity() > self.parts.edges.capacity() {
            self.parts.edges = parts.edges;
        }
        if parts.csr_starts.capacity() > self.parts.csr_starts.capacity() {
            self.parts.csr_starts = parts.csr_starts;
        }
        if parts.csr_edges.capacity() > self.parts.csr_edges.capacity() {
            self.parts.csr_edges = parts.csr_edges;
        }
    }

    /// Hands out the graph storage for a new build.
    pub(crate) fn take_parts(&mut self) -> DegParts {
        std::mem::take(&mut self.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_deg, build_deg_in};
    use crate::critical::{critical_path, critical_path_in};
    use crate::induced::induce;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    #[test]
    fn arena_path_matches_cold_path_across_reuse() {
        let mut arena = DegArena::new();
        for (n, seed) in [(1_500usize, 3u64), (400, 5), (900, 7)] {
            let result = OooCore::new(MicroArch::baseline())
                .run(&trace_gen::mixed_workload(n, seed))
                .expect("simulates");
            let mut cold = induce(build_deg(&result));
            let cold_path = critical_path(&mut cold);
            let mut warm = induce(build_deg_in(&mut arena, &result));
            let warm_path = critical_path_in(&mut arena, &mut warm);
            assert_eq!(cold, warm, "arena-built DEG must equal cold-built");
            assert_eq!(cold_path, warm_path);
            arena.recycle(warm);
        }
    }
}
