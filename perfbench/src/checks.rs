//! Output checks that need no stored golden. Each returns the divergences
//! it found, one message each.

use crate::drive::{self, Rep};
use crate::spec::Spec;
use archexplorer::deg::validate::validate_exactness;
use archexplorer::dse::campaign::{CampaignRunner, ParallelConfig};
use archexplorer::dse::space::DesignSpace;
use archexplorer::sim::OooCore;
use archexplorer::workloads::TraceStore;
use std::sync::Arc;
use std::time::Instant;

/// Every trace in the repetition's store equals a fresh
/// `Workload::generate`. Also returns the host nanoseconds and the
/// instructions the fresh synthesis took.
pub fn store_matches_generate(spec: &Spec, rep: &Rep) -> (Vec<String>, u64, u64) {
    let mut divergences = Vec::new();
    let (mut ns, mut instrs) = (0, 0);
    for w in spec.suite() {
        let stored = rep.store.get(&w, spec.window, rep.seeds.trace);
        let t = Instant::now();
        let fresh = w.generate(spec.window, rep.seeds.trace);
        ns += t.elapsed().as_nanos() as u64;
        instrs += fresh.len() as u64;
        if *stored != *fresh {
            divergences.push(format!(
                "{}: stored trace differs from Workload::generate",
                w.id
            ));
        }
    }
    (divergences, ns, instrs)
}

/// `deg::validate` exactness on `samples` full-window DEGs drawn from the
/// repetition's visited designs: arena and allocating builders agree, the
/// graph is well formed before and after induction, and the critical-path
/// length equals the simulated cycles.
pub fn deg_exactness(spec: &Spec, rep: &Rep, samples: usize) -> Vec<String> {
    let suite = spec.suite();
    let designs: Vec<_> = rep
        .runs
        .iter()
        .flat_map(|r| r.visits.iter())
        .filter(|v| v.outcome.is_ok())
        .map(|v| v.arch)
        .collect();
    let mut divergences = Vec::new();
    if designs.is_empty() {
        return divergences;
    }
    // Deterministic sample spread over the visit order and the suite.
    for k in 0..samples {
        let arch = designs[(k * 7919 + rep.seeds.search as usize) % designs.len()];
        let w = &suite[(k * 31 + rep.seeds.search as usize) % suite.len()];
        let trace = rep.store.get(w, spec.window, rep.seeds.trace);
        let result = match OooCore::try_new(arch).and_then(|core| core.run(&trace)) {
            Ok(result) => result,
            Err(e) => {
                divergences.push(format!("{}: validation simulation failed: {e}", w.id));
                continue;
            }
        };
        match validate_exactness(&result) {
            Ok(path) if path.total_delay == result.stats.cycles => {}
            Ok(path) => divergences.push(format!(
                "{}: critical path {} != simulated cycles {}",
                w.id, path.total_delay, result.stats.cycles
            )),
            Err(e) => divergences.push(format!("{}: {e}", w.id)),
        }
    }
    divergences
}

/// The campaign at `jobs = 1` produces logs identical to the timed run at
/// `jobs = nproc`.
pub fn campaign_serial_matches(spec: &Spec, rep: &Rep) -> Vec<String> {
    let cfg = drive::config(spec, rep.seeds);
    let serial = CampaignRunner::new()
        .parallel(ParallelConfig::with_jobs(1))
        .trace_store(Arc::new(TraceStore::new()))
        .run_specs(
            &drive::campaign_specs(rep.seeds.search),
            &DesignSpace::table4(),
            &spec.suite(),
            &cfg,
        );
    match serial {
        Err(e) => vec![format!("serial campaign failed: {e}")],
        Ok(logs) => logs
            .iter()
            .zip(&rep.runs)
            .filter(|(serial, parallel)| **serial != parallel.log)
            .map(|(serial, _)| format!("{}: jobs=1 log differs from jobs=nproc", serial.method))
            .collect(),
    }
}
