//! Golden search trajectories: every method's `RunLog` at a small fixed
//! size is pinned by its record count and a digest of the designs it
//! visited and the simulation count after each one. A refactor of a
//! search loop that changes which designs are simulated, or in what
//! order, fails here.
//!
//! The digest is FNV-1a over little-endian bytes, spelled out below so it
//! does not depend on the standard library's hasher choice.

use archexplorer::prelude::*;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Record count and digest of one search run.
fn trajectory(method: Method, seed: u64) -> (usize, u64) {
    let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
    let evaluator = Evaluator::builder(suite)
        .window(1_000)
        .seed(1)
        .threads(1)
        .build();
    let log = run_method_on(method, &DesignSpace::table4(), &evaluator, 60, seed);
    let mut h = Fnv1a::new();
    for rec in &log.records {
        for p in ParamId::ALL {
            h.write(&p.get(&rec.arch).to_le_bytes());
        }
        h.write(&rec.sims_after.to_le_bytes());
    }
    (log.records.len(), h.0)
}

/// `(method, seed, records, digest)`.
const GOLDEN: [(Method, u64, usize, u64); 12] = [
    (Method::ArchExplorer, 1, 30, 0x2b7e_6bda_67dd_9d9b),
    (Method::ArchExplorer, 2, 30, 0x7ab6_1fb6_1021_4044),
    (Method::Random, 1, 30, 0xcfac_798b_a244_eee3),
    (Method::Random, 2, 30, 0x94ef_c7a7_2aad_a1ad),
    (Method::AdaBoost, 1, 30, 0x987d_be88_aa26_eff4),
    (Method::AdaBoost, 2, 30, 0x6fb2_ecd4_1638_62ec),
    (Method::ArchRanker, 1, 30, 0xa654_ce33_5799_61e0),
    (Method::ArchRanker, 2, 30, 0xf3df_3fd5_32e0_21ba),
    (Method::BoomExplorer, 1, 30, 0x68af_5bfe_6215_773a),
    (Method::BoomExplorer, 2, 30, 0x6b83_3838_b180_0f37),
    (Method::Calipers, 1, 30, 0x00cf_4c8e_a6d5_a00a),
    (Method::Calipers, 2, 30, 0x2834_2127_dc3b_4c12),
];

#[test]
fn every_method_reproduces_its_golden_trajectory() {
    let covered: Vec<Method> = GOLDEN.iter().map(|g| g.0).collect();
    for m in Method::ALL {
        assert!(covered.contains(&m), "{m:?} has no golden trajectory");
    }
    let mut mismatches = Vec::new();
    for (method, seed, records, digest) in GOLDEN {
        let got = trajectory(method, seed);
        if got != (records, digest) {
            mismatches.push(format!(
                "(Method::{method:?}, {seed}, {}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories differ from the golden table; got:\n{}",
        mismatches.join("\n")
    );
}
