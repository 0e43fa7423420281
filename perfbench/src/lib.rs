//! The MMDS benchmark: three workloads (`md_host`, `kmc_2rank`,
//! `coupled_sunway_2rank`), their end-to-end metrics from untraced runs
//! and their per-layer metrics from traced runs whose composed steps
//! must reproduce the production results bit for bit. See `README.md`.

/// Simulated ranks of the two multi-rank workloads.
pub const RANKS: usize = 2;

pub mod coupled;
pub mod kmc;
pub mod md_host;
pub mod report;
pub mod trace;
