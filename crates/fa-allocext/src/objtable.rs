//! The per-object metadata table.
//!
//! The extension "adds 16 bytes of meta data for each memory object"
//! (paper §7.6.2). This table is that metadata: for every live or
//! delay-freed object it records size, allocation call-site, applied
//! changes, and (when needed) initialized ranges. It supports range lookup
//! so every application load/store can be classified in O(log n).

use std::collections::BTreeMap;

use fa_mem::Addr;
use fa_proc::CallSite;

use crate::intervals::IntervalSet;

/// Modeled metadata footprint per object, in bytes (paper §7.6.2).
pub const META_BYTES_PER_OBJECT: u64 = 16;

/// Padding applied around an object by the overflow change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PadInfo {
    /// Bytes of padding before the user area.
    pub left: u64,
    /// Bytes of padding after the user area.
    pub right: u64,
    /// The padding is canary-filled (exposing form).
    pub canary: bool,
}

/// Whether an object is live or sitting in the delay-free quarantine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjState {
    /// Allocated and not yet freed by the application.
    Live,
    /// Freed by the application but retained by a delay-free change.
    Quarantined {
        /// Deallocation call-site that freed it.
        freed_site: CallSite,
        /// The contents were canary-filled on free (exposing form).
        canary: bool,
    },
}

/// Metadata for one tracked object.
#[derive(Clone, Debug)]
pub struct ObjectInfo {
    /// User pointer handed to the application.
    pub user: Addr,
    /// Object size as requested by the application.
    pub size: u64,
    /// Outer pointer actually obtained from the heap (differs from `user`
    /// when left padding was applied).
    pub outer: Addr,
    /// Total heap footprint (user size + padding).
    pub outer_size: u64,
    /// Allocation call-site.
    pub alloc_site: CallSite,
    /// Monotonic allocation sequence number.
    pub seq: u64,
    /// Applied padding, if any.
    pub pad: Option<PadInfo>,
    /// The object was zero-filled at allocation.
    pub zero_filled: bool,
    /// The object was canary-filled at allocation (uninit exposing form).
    pub canary_filled: bool,
    /// Liveness state.
    pub state: ObjState,
    /// Initialized (written) byte ranges, tracked when an uninit-read
    /// change or tracing is active.
    pub written: Option<IntervalSet>,
    /// The index of the guarded sentry slot this object was redirected
    /// into, when it was sampled by the sentry tier.
    pub sentried: Option<usize>,
}

impl ObjectInfo {
    /// Returns `true` if `addr` lies within the user area.
    pub fn in_user(&self, addr: Addr) -> bool {
        addr >= self.user && addr.0 < self.user.0 + self.size
    }

    /// Returns `true` if `addr` lies within the padding (either side).
    pub fn in_padding(&self, addr: Addr) -> bool {
        if self.pad.is_none() {
            return false;
        }
        addr >= self.outer && addr.0 < self.outer.0 + self.outer_size && !self.in_user(addr)
    }

    /// Returns the offset of `addr` within the user area, if inside.
    pub fn user_offset(&self, addr: Addr) -> Option<u64> {
        self.in_user(addr).then(|| addr - self.user)
    }
}

/// Range-queryable table of tracked objects, keyed by outer address.
///
/// Object footprints (`outer .. outer + outer_size`) never overlap, so
/// the one index also answers user-pointer lookups: the object whose
/// user area starts at `user` can only be the last entry at or below
/// `user`.
#[derive(Clone, Debug, Default)]
pub struct ObjectTable {
    by_outer: BTreeMap<u64, ObjectInfo>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Inserts a tracked object, replacing any object at the same outer
    /// address (a recycled sentry slot).
    pub fn insert(&mut self, info: ObjectInfo) {
        self.by_outer.insert(info.outer.0, info);
    }

    /// Removes the object with the given outer address.
    pub fn remove(&mut self, outer: Addr) -> Option<ObjectInfo> {
        self.by_outer.remove(&outer.0)
    }

    /// Looks up the object owning the user pointer.
    pub fn get_by_user(&self, user: Addr) -> Option<&ObjectInfo> {
        let (_, info) = self.by_outer.range(..=user.0).next_back()?;
        (info.user == user).then_some(info)
    }

    /// Looks up the object owning the user pointer, mutably.
    pub fn get_by_user_mut(&mut self, user: Addr) -> Option<&mut ObjectInfo> {
        let (_, info) = self.by_outer.range_mut(..=user.0).next_back()?;
        (info.user == user).then_some(info)
    }

    /// Finds the tracked object whose footprint (padding included)
    /// contains `addr`.
    pub fn find_containing(&self, addr: Addr) -> Option<&ObjectInfo> {
        let (_, info) = self.by_outer.range(..=addr.0).next_back()?;
        (addr.0 < info.outer.0 + info.outer_size).then_some(info)
    }

    /// Finds the containing object mutably.
    pub fn find_containing_mut(&mut self, addr: Addr) -> Option<&mut ObjectInfo> {
        let (&outer, _) = self.by_outer.range(..=addr.0).next_back()?;
        let info = self.by_outer.get_mut(&outer)?;
        (addr.0 < info.outer.0 + info.outer_size).then_some(info)
    }

    /// Iterates over all tracked objects in address order.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectInfo> {
        self.by_outer.values()
    }

    /// Returns the number of tracked objects (live + quarantined).
    pub fn len(&self) -> usize {
        self.by_outer.len()
    }

    /// Returns `true` if no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.by_outer.is_empty()
    }

    /// Returns the modeled metadata footprint (paper Table 6 input).
    pub fn meta_bytes(&self) -> u64 {
        self.len() as u64 * META_BYTES_PER_OBJECT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(outer: u64, left: u64, size: u64, right: u64, seq: u64) -> ObjectInfo {
        ObjectInfo {
            user: Addr(outer + left),
            size,
            outer: Addr(outer),
            outer_size: left + size + right,
            alloc_site: CallSite::default(),
            seq,
            pad: (left + right > 0).then_some(PadInfo {
                left,
                right,
                canary: false,
            }),
            zero_filled: false,
            canary_filled: false,
            state: ObjState::Live,
            written: None,
            sentried: None,
        }
    }

    #[test]
    fn user_lookup() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 0, 64, 0, 1));
        assert!(t.get_by_user(Addr(0x1000)).is_some());
        assert!(t.get_by_user(Addr(0x1001)).is_none());
        let removed = t.remove(Addr(0x1000)).unwrap();
        assert_eq!(removed.seq, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn user_lookup_through_padding() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 16, 64, 16, 1));
        t.insert(obj(0x1060, 0, 32, 0, 2));
        assert_eq!(t.get_by_user(Addr(0x1010)).unwrap().seq, 1);
        assert_eq!(t.get_by_user(Addr(0x1060)).unwrap().seq, 2);
        // Outer addresses and interior pointers name no object.
        assert!(t.get_by_user(Addr(0x1000)).is_none());
        assert!(t.get_by_user(Addr(0x1020)).is_none());
        assert!(t.get_by_user(Addr(0x1068)).is_none());
        t.get_by_user_mut(Addr(0x1010)).unwrap().size = 8;
        assert_eq!(t.find_containing(Addr(0x1010)).unwrap().size, 8);
    }

    #[test]
    fn reinsert_at_same_outer_retires_old_user_pointer() {
        // A recycled sentry slot: same outer address, new padding.
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 16, 64, 16, 1));
        t.insert(obj(0x1000, 48, 64, 48, 2));
        assert!(t.get_by_user(Addr(0x1010)).is_none());
        assert_eq!(t.get_by_user(Addr(0x1030)).unwrap().seq, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn containing_lookup_with_padding() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 16, 64, 16, 1));
        // Left padding.
        let o = t.find_containing(Addr(0x1008)).unwrap();
        assert!(o.in_padding(Addr(0x1008)));
        // User area.
        let o = t.find_containing(Addr(0x1010)).unwrap();
        assert!(o.in_user(Addr(0x1010)));
        assert_eq!(o.user_offset(Addr(0x1014)), Some(4));
        // Right padding: user ends at 0x1050.
        let o = t.find_containing(Addr(0x1055)).unwrap();
        assert!(o.in_padding(Addr(0x1055)));
        // Past the object.
        assert!(t.find_containing(Addr(0x1000 + 96)).is_none());
        assert!(t.find_containing(Addr(0x500)).is_none());
    }

    #[test]
    fn adjacent_objects_resolve_correctly() {
        let mut t = ObjectTable::new();
        t.insert(obj(0x1000, 0, 64, 0, 1));
        t.insert(obj(0x1040, 0, 64, 0, 2));
        assert_eq!(t.find_containing(Addr(0x103f)).unwrap().seq, 1);
        assert_eq!(t.find_containing(Addr(0x1040)).unwrap().seq, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta_bytes(), 32);
    }
}
