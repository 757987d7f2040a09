//! The host's speed, measured beside the work.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! that host runs the same code up to 1.7 times slower for minutes at a
//! time (no steal time shows, and CPU time tracks wall time), so a run's
//! wall-clock figures say as much about the host's state as about the
//! program. A [`Reference`] times a fixed loop of hash-map updates —
//! work of the program's own kind, written here so that no change to
//! the program can change it — between the program's stretches of work.
//! A block's figures are then scaled by [`REFERENCE_NS`] over the loop's
//! time in that block: what the block would have measured had the host
//! run at the speed it had when the benchmark was tuned.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::common::splitmix64;

/// Map updates per reference loop.
const STEPS: u64 = 1_500;
/// Distinct keys of the loop's map.
const KEYS: u64 = 1_024;

/// About the reference loop's wall time in ns on the host the
/// benchmark was tuned on (2 vCPUs of an Intel Xeon). Only a unit: a
/// change of host moves every corrected figure by the same factor.
pub const REFERENCE_NS: f64 = 100_000.0;

/// Times the reference loop and keeps the times of the current block.
pub struct Reference {
    /// The loop's map, allocated once so that the loop allocates
    /// nothing: the allocator's state, which the program changes, does
    /// not reach the loop's time.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    block: Vec<f64>,
    sink: u64,
}

impl Reference {
    /// No times yet.
    pub fn new() -> Reference {
        Reference {
            map: HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default()),
            block: Vec::new(),
            sink: 0,
        }
    }

    /// Runs the loop once and records its wall ns.
    pub fn measure(&mut self) {
        let started = Instant::now();
        self.map.clear();
        let mut s = 0x5eed;
        for i in 0..STEPS {
            let r = splitmix64(&mut s);
            self.map.insert(r % KEYS, i);
            if let Some(v) = self.map.get(&(r % (KEYS / 2))) {
                self.sink = self.sink.wrapping_add(*v);
            }
        }
        std::hint::black_box(&self.map);
        self.block.push(started.elapsed().as_nanos() as f64);
    }

    /// Ends the current block: the factor its figures are scaled by,
    /// [`REFERENCE_NS`] over the median loop time of the block (1 when
    /// the loop never ran in it).
    pub fn end_block(&mut self) -> f64 {
        let factor = fa_perfbench::stats::median(&self.block).map_or(1.0, |ns| REFERENCE_NS / ns);
        self.block.clear();
        std::hint::black_box(self.sink);
        factor
    }
}
