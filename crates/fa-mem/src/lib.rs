//! Simulated paged memory substrate for the First-Aid reproduction.
//!
//! The original First-Aid system (EuroSys 2009) operates on native process
//! memory: glibc's heap lives in real pages, checkpoints are taken with a
//! fork-like copy-on-write operation, and guard pages / poisoned chunks
//! ride on MMU permission bits. This crate reproduces that substrate
//! deterministically in user space:
//!
//! * [`SimMemory`] is a sparse, paged address space (4 KiB pages, 39-bit
//!   VA) backed by a 3-level radix page table with explicit region mapping
//!   and lazy zero-filled page materialization,
//! * every page-table entry carries permission bits ([`Perms`]);
//!   [`SimMemory::protect`] flips them in O(1) per page — the `mprotect`
//!   analog behind guard pages and poison-on-free,
//! * reads and writes of unmapped addresses return [`MemFault`]s — the
//!   analog of a SIGSEGV caught by First-Aid's error monitor; accesses to
//!   [`Perms::GUARD`]/[`Perms::POISONED`] pages raise
//!   [`MemFault::GuardTrap`],
//! * [`SimMemory::check_fill`] compares a range against one byte where it
//!   lies, with a read's faults and accounting but no copy — the
//!   allocator extension's canary check,
//! * a direct-mapped, 64-entry TLB caches per-page permissions in front
//!   of the walk ([`SimMemory::tlb_stats`] reports hit rates),
//! * [`SimMemory::snapshot`] produces an O(1) copy-on-write snapshot
//!   ([`MemSnapshot`]) by sharing the table root; subsequent writes
//!   path-copy and replicate frames on demand, exactly like fork-based
//!   COW checkpointing,
//! * dirty-page accounting ([`SimMemory::take_dirty_pages`]) drives the
//!   adaptive checkpoint-interval controller and the checkpoint space
//!   overhead experiments (paper Table 7),
//! * [`oracle::FlatMemory`] retains the pre-page-table flat-map
//!   implementation as a differential-testing oracle.
//!
//! # Examples
//!
//! ```
//! use fa_mem::{Addr, Perms, SimMemory};
//!
//! let mut mem = SimMemory::new();
//! let heap = mem.map(Addr(0x1000_0000), 1 << 20, "heap").unwrap();
//! mem.write_u64(Addr(0x1000_0000), 0xdead_beef).unwrap();
//! let snap = mem.snapshot();
//! mem.write_u64(Addr(0x1000_0000), 7).unwrap();
//! mem.restore(&snap);
//! assert_eq!(mem.read_u64(Addr(0x1000_0000)).unwrap(), 0xdead_beef);
//!
//! // Guard a page: pure permission flip, no allocation.
//! mem.protect(Addr(0x1000_1000), 4096, Perms::GUARD).unwrap();
//! assert!(mem.read_u8(Addr(0x1000_1000)).is_err());
//! let _ = heap;
//! ```

pub mod addr;
pub mod fault;
pub mod memory;
pub mod oracle;
pub mod page;
pub mod perm;
pub mod region;
pub mod snapshot;
pub(crate) mod table;
pub mod tlb;

pub use addr::Addr;
pub use fault::{AccessKind, MemFault};
pub use memory::SimMemory;
pub use oracle::{FlatMemory, FlatSnapshot};
pub use page::{Page, PAGE_SIZE};
pub use perm::Perms;
pub use region::{Region, RegionId};
pub use snapshot::MemSnapshot;
pub use table::{VA_BITS, VA_LIMIT};
pub use tlb::TlbStats;
