//! Copy-on-write memory snapshots.

use std::sync::Arc;

use crate::page::PAGE_SIZE;
use crate::region::Region;
use crate::table::{self, Root};

/// A copy-on-write snapshot of a [`crate::SimMemory`].
///
/// A snapshot is an `Arc`-shared reference to the page-table root at the
/// moment it was taken — O(1) to create, O(1) to restore. Holding it pins
/// the spine nodes and frames it references; the live address space
/// path-copies a spine and replicates a frame the first time a page is
/// written after the snapshot. This mirrors the fork-based in-memory
/// checkpoints of the paper's Flashback substrate: cheap to take, cost
/// accrues with the write working set.
#[derive(Clone)]
pub struct MemSnapshot {
    pub(crate) regions: Vec<Region>,
    pub(crate) root: Arc<Root>,
    pub(crate) resident: usize,
    pub(crate) next_region: u32,
}

impl MemSnapshot {
    /// Returns the number of pages (frames) referenced by this snapshot.
    pub fn page_count(&self) -> usize {
        self.resident
    }

    /// Returns the number of bytes of page data referenced by the snapshot.
    ///
    /// Note that pages may be shared with the live address space and other
    /// snapshots; [`Self::owned_bytes_vs`] reports the exclusively owned
    /// portion.
    pub fn referenced_bytes(&self) -> u64 {
        (self.resident * PAGE_SIZE) as u64
    }

    /// Returns the number of bytes in pages this snapshot holds that
    /// `other` does not share — i.e. the incremental space cost of keeping
    /// this snapshot alongside `other`.
    ///
    /// This is the per-checkpoint space figure of paper Table 7: with COW,
    /// a checkpoint's real cost is the set of pages that were dirtied in
    /// its interval. Identical subtrees are skipped by `Arc` identity, so
    /// the walk is proportional to the *diverged* spine, not the resident
    /// set.
    pub fn owned_bytes_vs(&self, other: &MemSnapshot) -> u64 {
        if Arc::ptr_eq(&self.root, &other.root) {
            return 0;
        }
        let mut owned = 0u64;
        for (i2, mine) in self.root.children.iter().enumerate() {
            let Some(mine) = mine else { continue };
            let theirs = other.root.children[i2].as_ref();
            if theirs.is_some_and(|t| Arc::ptr_eq(mine, t)) {
                continue;
            }
            for (i1, my_leaf) in mine.children.iter().enumerate() {
                let Some(my_leaf) = my_leaf else { continue };
                let their_leaf = theirs.and_then(|t| t.children[i1].as_ref());
                if their_leaf.is_some_and(|t| Arc::ptr_eq(my_leaf, t)) {
                    continue;
                }
                for (i0, entry) in my_leaf.entries.iter().enumerate() {
                    let Some(frame) = &entry.frame else { continue };
                    let shared = their_leaf.is_some_and(|t| {
                        t.entries[i0]
                            .frame
                            .as_ref()
                            .is_some_and(|f| Arc::ptr_eq(frame, f))
                    });
                    if !shared {
                        owned += PAGE_SIZE as u64;
                    }
                }
            }
        }
        owned
    }

    /// Returns a content-aware digest over all referenced pages.
    ///
    /// Folds each page's cached content hash (see
    /// [`crate::Page::content_hash`]) with its page number in ascending
    /// order, so both a flipped byte and a swapped pair of pages change
    /// the digest. The per-page hashes are cached on the shared frames
    /// themselves and only recomputed for pages written since the last
    /// digest of any snapshot sharing them — per checkpoint this is
    /// O(dirty pages), not O(resident pages).
    pub fn content_digest(&self) -> u64 {
        let mut h = 0xfa1d_c0de_5eed_0001u64;
        table::for_each_frame(&self.root, |pageno, frame| {
            h = mix64(h ^ pageno.rotate_left(32) ^ frame.content_hash());
        });
        h
    }

    /// Returns the number of referenced pages whose content hash is
    /// cached: the pages the next [`Self::content_digest`] need not
    /// rehash.
    pub fn hashed_page_count(&self) -> usize {
        let mut n = 0;
        table::for_each_frame(&self.root, |_, frame| n += usize::from(frame.hash_cached()));
        n
    }

    /// Flips one byte of a referenced page *in this snapshot only* (the
    /// live address space and other snapshots are CoW-isolated from the
    /// damage). Returns `false` if the snapshot references no pages.
    ///
    /// This is a corruption hook for exercising checkpoint-rot detection;
    /// it deliberately bypasses dirty-tracking the way real bit rot would.
    pub fn rot_page(&mut self) -> bool {
        let Some(pageno) = table::first_frame(&self.root) else {
            return false;
        };
        let entry = table::walk_mut(&mut self.root, pageno);
        let frame = entry.frame.as_mut().expect("first_frame found a frame");
        Arc::make_mut(frame).bytes_mut()[PAGE_SIZE / 2] ^= 0x40;
        true
    }
}

/// SplitMix64 finalizer for the digest fold (shared with the flat-map
/// oracle so both digests use the identical fold).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use crate::addr::Addr;
    use crate::memory::SimMemory;
    use crate::page::PAGE_SIZE;

    #[test]
    fn owned_bytes_counts_diverged_pages() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        for i in 0..4 {
            mem.write_u8(base.offset(i * PAGE_SIZE as u64), 1).unwrap();
        }
        let s1 = mem.snapshot();
        // Dirty two of the four pages.
        mem.write_u8(base, 2).unwrap();
        mem.write_u8(base.offset(PAGE_SIZE as u64), 2).unwrap();
        let s2 = mem.snapshot();
        assert_eq!(s2.owned_bytes_vs(&s1), 2 * PAGE_SIZE as u64);
        assert_eq!(s1.owned_bytes_vs(&s1), 0);
        assert_eq!(s1.page_count(), 4);
        assert_eq!(s1.referenced_bytes(), 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn new_pages_count_as_owned() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        let s1 = mem.snapshot();
        mem.write_u8(base, 1).unwrap();
        let s2 = mem.snapshot();
        assert_eq!(s2.owned_bytes_vs(&s1), PAGE_SIZE as u64);
    }

    #[test]
    fn owned_bytes_skips_shared_subtrees_across_tables() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        // A second region far away, in a different top-level subtree.
        let far = Addr(0x20_0000_0000);
        mem.map(far, 1 << 20, "far").unwrap();
        mem.write_u8(base, 1).unwrap();
        mem.write_u8(far, 1).unwrap();
        let s1 = mem.snapshot();
        mem.write_u8(base, 2).unwrap(); // diverge only the near subtree
        let s2 = mem.snapshot();
        assert_eq!(s2.owned_bytes_vs(&s1), PAGE_SIZE as u64);
    }

    #[test]
    fn content_digest_sees_in_page_changes() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        mem.write_u64(base, 1).unwrap();
        let s1 = mem.snapshot();
        let d1 = s1.content_digest();
        assert_eq!(s1.content_digest(), d1, "digest is stable");
        // Same shape (page count, referenced bytes), different contents.
        mem.write_u64(base, 2).unwrap();
        let s2 = mem.snapshot();
        assert_eq!(s2.page_count(), s1.page_count());
        assert_ne!(s2.content_digest(), d1);
        // Reverting the byte restores the digest.
        mem.write_u64(base, 1).unwrap();
        assert_eq!(mem.snapshot().content_digest(), d1);
    }

    #[test]
    fn rot_page_is_cow_isolated_and_changes_digest() {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        mem.write_u64(base, 7).unwrap();
        let clean = mem.snapshot();
        let d = clean.content_digest();
        let mut rotted = clean.clone();
        assert!(rotted.rot_page());
        assert_ne!(rotted.content_digest(), d, "rot must change the digest");
        assert_eq!(clean.content_digest(), d, "sibling snapshot unaffected");
        assert_eq!(mem.read_u64(base).unwrap(), 7, "live memory unaffected");
    }
}
