//! Arithmetic shared by the First-Aid benchmark binary (`src/main.rs`):
//! percentiles with a tail-sample rule, fractions with explicit bases,
//! a run's figures from its timed blocks, and span self time.
//!
//! Kept in a library so `tests/` can check it without running a
//! workload.

pub mod stats;
pub mod trace;
