//! Hardware resource reassignment (paper Section 4.3).
//!
//! Top-ranked bottleneck sources get the next-larger candidate value of
//! their backing parameter(s); resources with (near-)zero contribution are
//! shrunk to the next-smaller candidate. Branch-predictor and cache
//! parameters obey the paper's freeze rule: once growing them stops
//! improving the PPA trade-off they are not grown again (their returns are
//! limited by the prediction algorithm / access pattern, not capacity).

use crate::space::{DesignSpace, ParamId};
use archx_deg::{BottleneckReport, BottleneckSource};
use archx_power::PowerModel;
use archx_sim::MicroArch;
use std::collections::HashSet;

/// Parameters that back a bottleneck source, in priority order.
pub fn params_for(source: BottleneckSource) -> &'static [ParamId] {
    match source {
        BottleneckSource::Rob => &[ParamId::Rob],
        BottleneckSource::Iq => &[ParamId::Iq],
        BottleneckSource::Lq => &[ParamId::Lq],
        BottleneckSource::Sq => &[ParamId::Sq],
        BottleneckSource::IntRf => &[ParamId::IntRf],
        BottleneckSource::FpRf => &[ParamId::FpRf],
        BottleneckSource::IntAlu => &[ParamId::IntAlu],
        BottleneckSource::IntMultDiv => &[ParamId::IntMultDiv],
        BottleneckSource::FpAlu => &[ParamId::FpAlu],
        BottleneckSource::FpMultDiv => &[ParamId::FpMultDiv],
        // Memory ports are not searchable in Table 4; bigger/faster D-cache
        // paths are the nearest lever.
        BottleneckSource::RdWrPort => &[ParamId::DCacheKb],
        BottleneckSource::ICache => &[ParamId::ICacheKb, ParamId::ICacheAssoc],
        BottleneckSource::DCache => &[ParamId::DCacheKb, ParamId::DCacheAssoc],
        BottleneckSource::BPred => &[
            ParamId::GlobalPredictor,
            ParamId::LocalPredictor,
            ParamId::ChoicePredictor,
            ParamId::Btb,
            ParamId::Ras,
        ],
        BottleneckSource::FetchQueue => &[ParamId::FetchQueue, ParamId::FetchBuffer],
        BottleneckSource::Width => &[ParamId::Width],
        BottleneckSource::TrueDep
        | BottleneckSource::MemDep
        | BottleneckSource::Base
        | BottleneckSource::Unattributed => &[],
    }
}

/// The source a parameter serves (inverse of [`params_for`], first match).
pub fn source_of(param: ParamId) -> BottleneckSource {
    for &s in &BottleneckSource::ALL {
        if params_for(s).contains(&param) {
            return s;
        }
    }
    unreachable!("every parameter backs a source")
}

/// Whether a parameter falls under the paper's cache/branch-predictor
/// freeze rule.
pub fn freezable(param: ParamId) -> bool {
    matches!(
        param,
        ParamId::LocalPredictor
            | ParamId::GlobalPredictor
            | ParamId::ChoicePredictor
            | ParamId::Btb
            | ParamId::Ras
            | ParamId::ICacheKb
            | ParamId::ICacheAssoc
            | ParamId::DCacheKb
            | ParamId::DCacheAssoc
    )
}

/// How many top-ranked bottlenecks to grow per step.
const GROW_TOP_K: usize = 2;
/// Contribution below which a resource counts as redundant.
const SHRINK_THRESHOLD: f64 = 0.002;
/// How many redundant resources to shrink per step.
const SHRINK_MAX: usize = 5;

/// The reassignment policy choices the ablation study switches off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReassignOptions {
    /// Extra candidate rungs to climb per 10% of contribution (dominant
    /// bottlenecks take bigger steps; capped at 3 rungs per move).
    pub rungs_per_contribution: f64,
    /// When false, fall back to the naive rule (shrink only
    /// zero-contribution resources, ignoring their area cost) — kept for
    /// the ablation study.
    pub cost_aware_shrink: bool,
}

impl Default for ReassignOptions {
    fn default() -> Self {
        ReassignOptions {
            rungs_per_contribution: 10.0,
            cost_aware_shrink: true,
        }
    }
}

/// Outcome of one reassignment step.
#[derive(Debug, Clone, PartialEq)]
pub struct Reassignment {
    /// The proposed design (equal to the input when no move was possible).
    pub arch: MicroArch,
    /// Parameters grown this step.
    pub grown: Vec<ParamId>,
    /// Parameters shrunk this step.
    pub shrunk: Vec<ParamId>,
}

/// Proposes the next design from a bottleneck report (paper Section 4.3).
///
/// `frozen` parameters are never grown (the caller maintains the freeze
/// set per the PPA-improvement rule).
pub fn reassign(
    space: &DesignSpace,
    arch: &MicroArch,
    report: &BottleneckReport,
    frozen: &HashSet<ParamId>,
    opts: &ReassignOptions,
) -> Reassignment {
    let mut next = *arch;
    let mut grown = Vec::new();
    let mut shrunk = Vec::new();

    // Grow the top-ranked reassignable bottlenecks.
    for (source, contribution) in report.ranked() {
        if grown.len() >= GROW_TOP_K {
            break;
        }
        if !source.is_reassignable() || contribution <= SHRINK_THRESHOLD {
            continue;
        }
        let rungs = (1.0 + contribution * opts.rungs_per_contribution).min(4.0) as usize;
        for &param in params_for(source) {
            if frozen.contains(&param) {
                continue;
            }
            let mut moved = false;
            for _ in 0..rungs {
                if let Some(v) = space.next_larger(param, param.get(&next)) {
                    param.set(&mut next, v);
                    moved = true;
                } else {
                    break;
                }
            }
            if moved {
                grown.push(param);
                break;
            }
        }
    }

    // Shrink over-provisioned resources to balance power and area
    // (paper §4.3). A resource is over-provisioned when its runtime
    // contribution is small compared to the relative area it would give
    // back when stepped down one candidate — so expensive structures
    // (pipeline width, caches, predictors) shrink even with a small
    // residual contribution, while a cheap queue only shrinks when truly
    // idle.
    let power = PowerModel::default();
    let area_now = power.area(&next);
    let mut shrinkable: Vec<(f64, ParamId)> = ParamId::ALL
        .iter()
        .copied()
        .filter(|&p| !grown.contains(&p))
        .filter_map(|p| {
            let v = space.next_smaller(p, p.get(&next))?;
            let mut smaller = next;
            p.set(&mut smaller, v);
            let saving = (area_now - power.area(&smaller)) / area_now;
            let contribution = report.contribution(source_of(p));
            // Benefit of shrinking minus (bounded) performance risk.
            let score = saving - 0.5 * contribution;
            let limit = if opts.cost_aware_shrink {
                SHRINK_THRESHOLD.max(2.0 * saving)
            } else {
                SHRINK_THRESHOLD
            };
            (contribution <= limit).then_some((score, p))
        })
        .collect();
    shrinkable.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    for (_, param) in shrinkable.into_iter().take(SHRINK_MAX) {
        if let Some(v) = space.next_smaller(param, param.get(&next)) {
            param.set(&mut next, v);
            shrunk.push(param);
        }
    }

    Reassignment {
        arch: next,
        grown,
        shrunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(entries: &[(BottleneckSource, f64)]) -> BottleneckReport {
        let mut contributions = [0.0; archx_deg::NUM_SOURCES];
        for &(s, c) in entries {
            contributions[s.index()] = c;
        }
        BottleneckReport {
            contributions,
            length: 1000,
        }
    }

    #[test]
    fn grows_top_bottleneck_and_shrinks_idle() {
        let space = DesignSpace::table4();
        let arch = space.snap(&MicroArch::baseline());
        let report = report_with(&[
            (BottleneckSource::Sq, 0.38),
            (BottleneckSource::IntRf, 0.10),
            (BottleneckSource::Base, 0.2),
        ]);
        let r = reassign(
            &space,
            &arch,
            &report,
            &HashSet::new(),
            &ReassignOptions::default(),
        );
        assert!(r.grown.contains(&ParamId::Sq), "top bottleneck must grow");
        assert!(r.grown.contains(&ParamId::IntRf));
        assert!(r.arch.sq_entries > arch.sq_entries);
        assert!(!r.shrunk.is_empty(), "idle resources must shrink");
        assert!(r.arch.validate().is_ok());
    }

    #[test]
    fn frozen_params_are_skipped() {
        let space = DesignSpace::table4();
        let arch = space.snap(&MicroArch::baseline());
        let report = report_with(&[(BottleneckSource::BPred, 0.5)]);
        let mut frozen = HashSet::new();
        for p in [
            ParamId::GlobalPredictor,
            ParamId::LocalPredictor,
            ParamId::ChoicePredictor,
            ParamId::Btb,
            ParamId::Ras,
        ] {
            frozen.insert(p);
        }
        let r = reassign(&space, &arch, &report, &frozen, &ReassignOptions::default());
        assert!(r.grown.iter().all(|p| !frozen.contains(p)));
    }

    #[test]
    fn saturated_params_cannot_grow() {
        let space = DesignSpace::table4();
        let mut arch = space.snap(&MicroArch::baseline());
        arch.sq_entries = 48; // lattice max
        let report = report_with(&[(BottleneckSource::Sq, 0.9)]);
        let r = reassign(
            &space,
            &arch,
            &report,
            &HashSet::new(),
            &ReassignOptions::default(),
        );
        assert!(!r.grown.contains(&ParamId::Sq));
        assert_eq!(r.arch.sq_entries, 48);
    }

    #[test]
    fn non_reassignable_sources_ignored() {
        let space = DesignSpace::table4();
        let arch = space.snap(&MicroArch::baseline());
        let report = report_with(&[(BottleneckSource::TrueDep, 0.9)]);
        let r = reassign(
            &space,
            &arch,
            &report,
            &HashSet::new(),
            &ReassignOptions::default(),
        );
        assert!(r.grown.is_empty());
    }

    #[test]
    fn every_param_maps_to_a_source() {
        for &p in &ParamId::ALL {
            let s = source_of(p);
            assert!(params_for(s).contains(&p));
        }
    }

    #[test]
    fn freeze_set_membership() {
        assert!(freezable(ParamId::DCacheKb));
        assert!(freezable(ParamId::Btb));
        assert!(!freezable(ParamId::Rob));
        assert!(!freezable(ParamId::Width));
    }
}
