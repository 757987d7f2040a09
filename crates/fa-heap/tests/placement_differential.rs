//! Differential test: the `(size, addr)` free index must place every
//! chunk exactly where the original nested-bin policy (size → set of
//! addresses, best fit, validation-mode skip over distinct sizes) did.
//!
//! The reference model below re-implements that policy on host-side
//! bookkeeping only. It draws from its own copy of the heap's seeded
//! placement RNG in the same order as the heap, so with randomization on
//! both must agree on every slack, skip and gap decision. After every
//! malloc/free/realloc the returned address and the full list of free
//! chunks must match.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use fa_heap::chunk::request_to_chunk_size;
use fa_heap::{Heap, ALIGN, HDR_SIZE, MIN_CHUNK};
use fa_mem::{Addr, SimMemory};

const BASE: u64 = 0x1000_0000;
const LIMIT: u64 = 1 << 26;
/// `HeapConfig::default()`'s initial size and growth granularity.
const GRANULE: u64 = 64 * 1024;

/// The original placement policy: nested bins, chunk sizes and flags
/// only, no simulated memory.
struct Model {
    brk: u64,
    top: u64,
    /// Non-top chunks: address → (total size, in use).
    chunks: BTreeMap<u64, (u64, bool)>,
    /// Free non-top chunks: size → addresses.
    bins: BTreeMap<u64, BTreeSet<u64>>,
    rng: Option<SmallRng>,
    /// Picks where the randomized skip ran past the larger free sizes
    /// and fell back to the best fit.
    skip_fallbacks: u64,
}

impl Model {
    fn new(seed: Option<u64>) -> Model {
        Model {
            brk: BASE + GRANULE,
            top: BASE,
            chunks: BTreeMap::new(),
            bins: BTreeMap::new(),
            rng: seed.map(SmallRng::seed_from_u64),
            skip_fallbacks: 0,
        }
    }

    fn bin(&mut self, chunk: u64, size: u64) {
        self.chunks.insert(chunk, (size, false));
        self.bins.entry(size).or_default().insert(chunk);
    }

    fn unbin(&mut self, chunk: u64, size: u64) {
        let set = self.bins.get_mut(&size).expect("binned size");
        assert!(set.remove(&chunk), "chunk {chunk:#x} not binned");
        if set.is_empty() {
            self.bins.remove(&size);
        }
        self.chunks.remove(&chunk);
    }

    fn malloc(&mut self, req: u64) -> u64 {
        let mut csize = request_to_chunk_size(req);
        if let Some(rng) = &mut self.rng {
            csize += u64::from(rng.random_range(0u32..4)) * ALIGN;
        }
        let skip = match &mut self.rng {
            Some(rng) => rng.random_range(0u32..3) as usize,
            None => 0,
        };
        let candidates: Vec<u64> = self
            .bins
            .range(csize..)
            .take(skip + 1)
            .map(|(&s, _)| s)
            .collect();
        if !candidates.is_empty() && candidates.len() <= skip {
            self.skip_fallbacks += 1;
        }
        if let Some(&size) = candidates.get(skip).or_else(|| candidates.first()) {
            let chunk = *self.bins[&size].iter().next().expect("non-empty bin");
            self.unbin(chunk, size);
            if size - csize >= MIN_CHUNK {
                self.chunks.insert(chunk, (csize, true));
                self.bin(chunk + csize, size - csize);
            } else {
                self.chunks.insert(chunk, (size, true));
            }
            return chunk + HDR_SIZE;
        }
        let mut gap = 0;
        if let Some(rng) = &mut self.rng {
            if rng.random_bool(0.5) {
                gap = MIN_CHUNK * u64::from(rng.random_range(1u32..4));
            }
        }
        let need = csize + gap + MIN_CHUNK;
        let top_size = self.brk - self.top;
        if top_size < need {
            self.brk += (need - top_size).div_ceil(GRANULE) * GRANULE;
        }
        let mut chunk = self.top;
        if gap > 0 {
            self.bin(chunk, gap);
            chunk += gap;
        }
        self.chunks.insert(chunk, (csize, true));
        self.top = chunk + csize;
        chunk + HDR_SIZE
    }

    fn free(&mut self, user: u64) {
        let chunk = user - HDR_SIZE;
        let (size, in_use) = self.chunks.remove(&chunk).expect("live chunk");
        assert!(in_use);
        let mut start = chunk;
        let mut total = size;
        let prev = self
            .chunks
            .range(..chunk)
            .next_back()
            .map(|(&a, &c)| (a, c));
        if let Some((prev, (prev_size, false))) = prev {
            assert_eq!(prev + prev_size, chunk);
            self.unbin(prev, prev_size);
            start = prev;
            total += prev_size;
        }
        let next = chunk + size;
        if next == self.top {
            self.top = start;
            return;
        }
        if let Some(&(next_size, false)) = self.chunks.get(&next) {
            self.unbin(next, next_size);
            total += next_size;
        }
        self.bin(start, total);
    }

    fn realloc(&mut self, user: u64, req: u64) -> u64 {
        let (size, _) = self.chunks[&(user - HDR_SIZE)];
        if request_to_chunk_size(req) <= size {
            return user;
        }
        let new = self.malloc(req);
        self.free(user);
        new
    }

    fn free_chunks(&self) -> Vec<(Addr, u64)> {
        self.bins
            .iter()
            .flat_map(|(&size, set)| set.iter().map(move |&a| (Addr(a), size)))
            .collect()
    }
}

/// splitmix64: the op generator, independent of the placement RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Request sizes: mostly a few small classes (so equal sizes pile up in
/// one bin), sometimes anything up to 4 KiB.
fn request(state: &mut u64) -> u64 {
    match next(state) % 4 {
        0 => 1 + next(state) % 4096,
        _ => [8, 24, 40, 100, 200, 500][(next(state) % 6) as usize],
    }
}

/// Runs `steps` seeded operations on a heap and the model side by side
/// and returns the model's skip-fallback count.
fn run(op_seed: u64, placement_seed: Option<u64>, steps: usize) -> u64 {
    let mut mem = SimMemory::new();
    let mut heap = Heap::new(&mut mem, Addr(BASE), LIMIT).unwrap();
    if let Some(seed) = placement_seed {
        heap.randomize(seed);
    }
    let mut model = Model::new(placement_seed);
    let mut live: Vec<u64> = Vec::new();
    let mut ops = op_seed;
    for step in 0..steps {
        let roll = next(&mut ops) % 10;
        let what = if live.is_empty() || roll < 5 {
            let req = request(&mut ops);
            let got = heap.malloc(&mut mem, req).unwrap().0;
            assert_eq!(got, model.malloc(req), "step {step}: malloc({req})");
            live.push(got);
            "malloc"
        } else if roll < 9 {
            let victim = live.swap_remove((next(&mut ops) % live.len() as u64) as usize);
            heap.free(&mut mem, Addr(victim)).unwrap();
            model.free(victim);
            "free"
        } else {
            let i = (next(&mut ops) % live.len() as u64) as usize;
            let req = request(&mut ops);
            let got = heap.realloc(&mut mem, Addr(live[i]), req).unwrap().0;
            assert_eq!(got, model.realloc(live[i], req), "step {step}: realloc");
            live[i] = got;
            "realloc"
        };
        assert_eq!(
            heap.free_chunks(),
            model.free_chunks(),
            "step {step} ({what}): free chunks diverged"
        );
        assert_eq!(heap.top().0, model.top, "step {step} ({what}): top");
    }
    heap.check_integrity(&mut mem).unwrap();
    model.skip_fallbacks
}

#[test]
fn best_fit_placement_matches_nested_bins() {
    for op_seed in 0..8 {
        run(op_seed, None, 1_500);
    }
}

#[test]
fn randomized_placement_matches_nested_bins() {
    let mut fallbacks = 0;
    for op_seed in 0..8 {
        fallbacks += run(op_seed, Some(op_seed * 31 + 7), 1_500);
    }
    assert!(
        fallbacks > 0,
        "no pick had fewer larger sizes than its skip; the fallback went untested"
    );
}
