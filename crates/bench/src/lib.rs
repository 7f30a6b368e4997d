//! Shared helpers for the ArchExplorer benchmark/experiment harnesses.
//! The per-figure binaries live in `src/bin/`; Criterion benches in
//! `benches/`. Every binary's `main` is one call to
//! [`archexplorer::cliopt::run`], so they all take the `archx` CLI's
//! `key=value` arguments, GNU flags and `--telemetry json|pretty|off`.

pub mod emit;

pub use emit::Table;
