//! Pareto dominance, frontier maintenance, and exact hypervolume
//! (paper Section 5.2, Eq. 3).
//!
//! Objectives: maximise performance (IPC), minimise power, minimise area.

use archx_power::PpaResult;

/// Reference point for hypervolume: must be dominated by every explored
/// design (worse in all three objectives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    /// Lower bound on IPC.
    pub ipc: f64,
    /// Upper bound on power (W).
    pub power_w: f64,
    /// Upper bound on area (mm²).
    pub area_mm2: f64,
}

impl Default for RefPoint {
    /// A reference point comfortably dominated by every design in the
    /// Table 4 space under the bundled workloads.
    fn default() -> Self {
        RefPoint {
            ipc: 0.0,
            power_w: 2.5,
            area_mm2: 30.0,
        }
    }
}

/// Whether `a` dominates `b` (no worse in all objectives, better in one).
pub fn dominates(a: &PpaResult, b: &PpaResult) -> bool {
    let no_worse = a.ipc >= b.ipc && a.power_w <= b.power_w && a.area_mm2 <= b.area_mm2;
    let better = a.ipc > b.ipc || a.power_w < b.power_w || a.area_mm2 < b.area_mm2;
    no_worse && better
}

/// Whether every objective of a point is finite. Non-finite points come
/// only from callers bypassing the evaluator (whose PPA is always
/// finite); the frontier and hypervolume ignore them rather than letting
/// a NaN comparison corrupt the result.
fn finite(p: &PpaResult) -> bool {
    p.ipc.is_finite() && p.power_w.is_finite() && p.area_mm2.is_finite()
}

/// Indices of the Pareto frontier (mutually non-dominated points).
/// Points with a NaN or infinite objective are never on the frontier.
pub fn pareto_front(points: &[PpaResult]) -> Vec<usize> {
    let mut front = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        if !finite(p) {
            continue;
        }
        for (j, q) in points.iter().enumerate() {
            if i != j && finite(q) && (dominates(q, p) || (q == p && j < i)) {
                continue 'outer;
            }
        }
        front.push(i);
    }
    front
}

/// Exact 3-D Pareto hypervolume with respect to `r` (Eq. 3).
///
/// Points not dominating the reference point — and points with any NaN
/// or infinite objective — are ignored. Complexity is O(n² log n) via
/// z-slab sweeping with incremental 2-D hypervolume.
pub fn hypervolume(points: &[PpaResult], r: &RefPoint) -> f64 {
    // Transform to a maximisation problem anchored at the origin.
    let mut pts: Vec<[f64; 3]> = points
        .iter()
        .filter(|p| finite(p) && p.ipc > r.ipc && p.power_w < r.power_w && p.area_mm2 < r.area_mm2)
        .map(|p| {
            [
                p.ipc - r.ipc,
                r.power_w - p.power_w,
                r.area_mm2 - p.area_mm2,
            ]
        })
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    // Sweep z from high to low; between consecutive z levels the covered
    // xy-area is the 2-D hypervolume of all points with z >= level.
    pts.sort_by(|a, b| b[2].total_cmp(&a[2]));
    let mut volume = 0.0;
    let mut active: Vec<[f64; 2]> = Vec::new();
    for k in 0..pts.len() {
        active.push([pts[k][0], pts[k][1]]);
        let z_hi = pts[k][2];
        let z_lo = if k + 1 < pts.len() {
            pts[k + 1][2]
        } else {
            0.0
        };
        if z_hi > z_lo {
            volume += area2d(&active) * (z_hi - z_lo);
        }
    }
    volume
}

/// 2-D hypervolume (area dominated above the origin) of `(x, y)` points.
fn area2d(points: &[[f64; 2]]) -> f64 {
    let mut pts: Vec<[f64; 2]> = points.to_vec();
    // Sort by x descending; sweep accumulating strictly increasing y.
    pts.sort_by(|a, b| b[0].total_cmp(&a[0]));
    let mut area = 0.0;
    let mut best_y = 0.0f64;
    let mut i = 0;
    while i < pts.len() {
        let x = pts[i][0];
        // Max y among points with this x (and any further right already seen).
        let mut y = best_y;
        while i < pts.len() && pts[i][0] == x {
            y = y.max(pts[i][1]);
            i += 1;
        }
        if y > best_y {
            area += x * (y - best_y);
            best_y = y;
        }
    }
    area
}

/// The Pareto frontier of all explored designs, maintained incrementally:
/// only mutually non-dominated points are stored, so pushes cost
/// O(|front|) and the hypervolume is computed over the front alone.
#[derive(Debug, Clone, Default)]
pub struct ExplorationSet {
    front: Vec<PpaResult>,
}

impl ExplorationSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an evaluated design. A non-finite, dominated or duplicate
    /// point is dropped; otherwise the points it dominates are evicted.
    pub fn push(&mut self, ppa: PpaResult) {
        if !finite(&ppa) || self.front.iter().any(|q| *q == ppa || dominates(q, &ppa)) {
            return;
        }
        self.front.retain(|q| !dominates(&ppa, q));
        self.front.push(ppa);
    }

    /// Current Pareto-frontier points, in the order they were first
    /// pushed (the order [`pareto_front`] gives over every point).
    pub fn frontier(&self) -> Vec<PpaResult> {
        self.front.clone()
    }

    /// Hypervolume of the set explored so far.
    pub fn hypervolume(&self, r: &RefPoint) -> f64 {
        hypervolume(&self.front, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ipc: f64, power: f64, area: f64) -> PpaResult {
        PpaResult {
            ipc,
            power_w: power,
            area_mm2: area,
        }
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&p(2.0, 0.2, 5.0), &p(1.0, 0.3, 6.0)));
        assert!(!dominates(&p(2.0, 0.2, 5.0), &p(1.0, 0.1, 6.0)));
        assert!(
            !dominates(&p(1.0, 0.2, 5.0), &p(1.0, 0.2, 5.0)),
            "equal points don't dominate"
        );
    }

    #[test]
    fn frontier_excludes_dominated_and_dedups() {
        let pts = vec![
            p(2.0, 0.2, 5.0),
            p(1.0, 0.3, 6.0), // dominated
            p(1.5, 0.1, 7.0),
            p(2.0, 0.2, 5.0), // duplicate
        ];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![0, 2]);
    }

    #[test]
    fn hypervolume_single_point_is_box() {
        let r = RefPoint {
            ipc: 0.0,
            power_w: 1.0,
            area_mm2: 10.0,
        };
        let hv = hypervolume(&[p(2.0, 0.5, 4.0)], &r);
        assert!((hv - 2.0 * 0.5 * 6.0).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_union_not_sum() {
        let r = RefPoint {
            ipc: 0.0,
            power_w: 1.0,
            area_mm2: 10.0,
        };
        let a = p(2.0, 0.5, 4.0);
        let b = p(1.0, 0.2, 2.0);
        let hv_both = hypervolume(&[a, b], &r);
        let hv_a = hypervolume(&[a], &r);
        let hv_b = hypervolume(&[b], &r);
        assert!(hv_both < hv_a + hv_b, "overlap must not double count");
        assert!(hv_both >= hv_a.max(hv_b));
    }

    #[test]
    fn hypervolume_monotone_under_added_points() {
        let r = RefPoint::default();
        let mut pts = vec![p(1.0, 0.3, 6.0)];
        let hv1 = hypervolume(&pts, &r);
        pts.push(p(1.5, 0.25, 5.0));
        let hv2 = hypervolume(&pts, &r);
        assert!(hv2 >= hv1);
        // A dominated addition changes nothing.
        pts.push(p(0.5, 0.4, 7.0));
        let hv3 = hypervolume(&pts, &r);
        assert!((hv3 - hv2).abs() < 1e-12);
    }

    #[test]
    fn points_outside_reference_are_ignored() {
        let r = RefPoint {
            ipc: 0.0,
            power_w: 1.0,
            area_mm2: 10.0,
        };
        assert_eq!(hypervolume(&[p(1.0, 2.0, 4.0)], &r), 0.0);
        assert_eq!(hypervolume(&[], &r), 0.0);
    }

    #[test]
    fn dominated_point_adds_no_volume() {
        let r = RefPoint {
            ipc: 0.0,
            power_w: 1.0,
            area_mm2: 10.0,
        };
        let big = p(2.0, 0.2, 2.0);
        let small = p(1.0, 0.5, 5.0); // dominated by big
        let hv = hypervolume(&[big, small], &r);
        assert!((hv - hypervolume(&[big], &r)).abs() < 1e-12);
    }

    #[test]
    fn non_finite_points_are_ignored_everywhere() {
        let good = p(2.0, 0.2, 5.0);
        let pts = vec![
            p(f64::NAN, 0.1, 1.0),
            p(f64::INFINITY, 0.1, 1.0), // would dominate everything
            good,
            p(1.0, f64::NEG_INFINITY, 1.0),
        ];
        assert_eq!(pareto_front(&pts), vec![2], "only the finite point");
        let r = RefPoint::default();
        let hv = hypervolume(&pts, &r);
        assert!(hv.is_finite());
        assert!((hv - hypervolume(&[good], &r)).abs() < 1e-12);
    }

    #[test]
    fn exploration_set_tracks_frontier() {
        let mut set = ExplorationSet::new();
        set.push(p(1.0, 0.3, 6.0));
        set.push(p(2.0, 0.2, 5.0));
        set.push(p(0.5, 0.5, 8.0));
        let f = set.frontier();
        assert_eq!(f.len(), 1);
        assert!((f[0].ipc - 2.0).abs() < 1e-12);
        assert!(set.hypervolume(&RefPoint::default()) > 0.0);
    }
}
