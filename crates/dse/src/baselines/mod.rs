//! Baseline DSE methods the paper compares against: random search,
//! AdaBoost(.RT), ArchRanker-style pairwise ranking, a
//! BOOM-Explorer-style Gaussian-process Bayesian optimiser, and the
//! Calipers-guided variant of bottleneck-driven search.
//!
//! Six methods run on two loops. Calipers shares ArchExplorer's
//! bottleneck-removal loop ([`crate::archexplorer::run_bottleneck_driven`])
//! with the static-weight analysis swapped in. Random, AdaBoost, ArchRanker
//! and BOOM-Explorer share one acquisition loop (the private `surrogate`
//! module): simulate an initial sample, then each round fit a model to
//! every simulated design, screen a random candidate pool, and simulate
//! the best-scored unseen designs. Each method supplies only its initial
//! sample, pool and batch sizes, and scoring model; random search is the
//! loop with no model.
//!
//! Fidelity notes (also in DESIGN.md): the published baselines target
//! multi-objective spaces with method-specific machinery (ArchRanker's
//! constrained binary search, BOOM-Explorer's DKL-GP with EIPV). Here each
//! keeps its algorithmic core — the surrogate/ranking model and its
//! acquisition loop — while sharing this crate's evaluator; acquisition is
//! driven by the paper's scalar PPA trade-off `Perf²/(Power×Area)` and the
//! Pareto frontier is computed from all simulated designs, exactly as the
//! paper evaluates every method by the hypervolume of its exploration set.

pub mod adaboost;
pub mod boom;
pub mod calipers_dse;
pub mod random;
pub mod ranker;
mod surrogate;

pub use adaboost::run_adaboost;
pub use boom::run_boom_explorer;
pub use calipers_dse::run_calipers_dse;
pub use random::run_random_search;
pub use ranker::run_archranker;
