//! Fixed-size memory pages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size of a simulated page in bytes, matching the x86 page size the paper's
/// Flashback-based checkpointing operates on.
pub const PAGE_SIZE: usize = 4096;

/// Sentinel meaning "no content hash cached" — real hashes are forced
/// nonzero so the sentinel is unambiguous.
const HASH_UNCOMPUTED: u64 = 0;

/// One 4 KiB page of simulated memory.
///
/// Pages are heap-allocated and shared between the live address space and
/// outstanding snapshots via [`Arc`]; the first write after a snapshot
/// replicates the page (`Arc::make_mut`), which is exactly the cost model of
/// fork-based copy-on-write checkpointing.
///
/// Each page lazily caches a hash of its contents so that snapshot digests
/// are incremental: a checkpoint only rehashes the pages written since the
/// previous one (every write path goes through [`Page::bytes_mut`], which
/// invalidates the cache), while clean pages reuse the value computed for an
/// earlier digest — shared across `Arc` clones.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
    /// Cached content hash; [`HASH_UNCOMPUTED`] until first demanded and
    /// after any mutable borrow of the data.
    hash: AtomicU64,
}

impl Page {
    /// Returns a fresh zero-filled page, like an anonymous mapping from the
    /// kernel.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
            hash: AtomicU64::new(HASH_UNCOMPUTED),
        }
    }

    /// Returns the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Returns the page contents mutably, invalidating the cached content
    /// hash.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        *self.hash.get_mut() = HASH_UNCOMPUTED;
        &mut self.data
    }

    /// Returns a hash of the page contents, computing and caching it on
    /// first demand. The result is never [`HASH_UNCOMPUTED`].
    pub fn content_hash(&self) -> u64 {
        let cached = self.hash.load(Ordering::Relaxed);
        if cached != HASH_UNCOMPUTED {
            return cached;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for chunk in self.data.chunks_exact(8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if h == HASH_UNCOMPUTED {
            h = 0x9e37_79b9_7f4a_7c15;
        }
        self.hash.store(h, Ordering::Relaxed);
        h
    }

    /// Returns `true` if the content hash is cached, i.e. computed and
    /// not invalidated by a write since.
    pub fn hash_cached(&self) -> bool {
        self.hash.load(Ordering::Relaxed) != HASH_UNCOMPUTED
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: self.data.clone(),
            // The copy has identical contents, so the cached hash (if any)
            // carries over; `bytes_mut` on either copy re-invalidates.
            hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)),
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

/// A shared, copy-on-write reference to a page.
pub type SharedPage = Arc<Page>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_pages_are_zero() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn cow_via_arc_make_mut() {
        let mut a: SharedPage = Arc::new(Page::zeroed());
        let b = Arc::clone(&a);
        Arc::make_mut(&mut a).bytes_mut()[0] = 0xff;
        assert_eq!(a.bytes()[0], 0xff);
        assert_eq!(b.bytes()[0], 0, "snapshot page must be unaffected");
    }

    #[test]
    fn content_hash_tracks_contents() {
        let mut p = Page::zeroed();
        let zero_hash = p.content_hash();
        assert_ne!(zero_hash, 0);
        assert_eq!(p.content_hash(), zero_hash, "cached value is stable");
        p.bytes_mut()[100] = 7;
        let changed = p.content_hash();
        assert_ne!(changed, zero_hash);
        p.bytes_mut()[100] = 0;
        assert_eq!(p.content_hash(), zero_hash, "same bytes, same hash");
    }

    #[test]
    fn clone_preserves_cached_hash_and_cow_invalidates() {
        let mut a: SharedPage = Arc::new(Page::zeroed());
        let h = a.content_hash();
        let b = Arc::clone(&a);
        // CoW write: the clone made by make_mut starts from the cached
        // hash, but bytes_mut immediately invalidates it.
        Arc::make_mut(&mut a).bytes_mut()[0] = 1;
        assert_ne!(a.content_hash(), h);
        assert_eq!(b.content_hash(), h, "shared original keeps its hash");
    }
}
