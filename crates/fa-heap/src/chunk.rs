//! In-band chunk headers (boundary tags).
//!
//! Every chunk starts with a 16-byte header stored in simulated memory:
//!
//! ```text
//!  chunk addr ──►  ┌──────────────────────────┐
//!                  │ prev_size         (u64)  │   size of the previous
//!                  ├──────────────────────────┤   chunk in bytes
//!                  │ size | flags      (u64)  │   total chunk size + flags
//!  user addr  ──►  ├──────────────────────────┤
//!                  │ user data ...            │
//!                  └──────────────────────────┘
//! ```
//!
//! Flag bit 0 (`THIS_INUSE`) marks the chunk allocated; flag bit 1
//! (`PREV_INUSE`) marks the previous chunk allocated (so coalescing knows
//! whether `prev_size` leads to a free chunk). An application write that
//! runs past the end of its object lands on the *next* chunk's header and
//! corrupts these fields — which is exactly how real-world overflow bugs
//! (Squid, Pine, Mutt, BC in the paper) turn into allocator aborts.

use fa_mem::{Addr, MemFault, SimMemory};

/// Allocation alignment and granularity in bytes.
pub const ALIGN: u64 = 16;

/// Size of the in-band chunk header in bytes.
pub const HDR_SIZE: u64 = 16;

/// Minimum total chunk size (header + smallest user area).
pub const MIN_CHUNK: u64 = 32;

/// Flag bit: this chunk is allocated.
pub const THIS_INUSE: u64 = 0x1;

/// Flag bit: the chunk physically before this one is allocated.
pub const PREV_INUSE: u64 = 0x2;

const FLAG_MASK: u64 = THIS_INUSE | PREV_INUSE;

/// A decoded chunk header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkHeader {
    /// Size of the physically preceding chunk in bytes.
    pub prev_size: u64,
    /// Total size of this chunk (header included) in bytes.
    pub size: u64,
    /// This chunk is allocated.
    pub in_use: bool,
    /// The preceding chunk is allocated.
    pub prev_in_use: bool,
}

impl ChunkHeader {
    /// Reads and decodes the header of the chunk starting at `chunk`,
    /// as one 16-byte access when `chunk` is 16-aligned.
    pub fn read(mem: &mut SimMemory, chunk: Addr) -> Result<ChunkHeader, MemFault> {
        let (prev_size, raw) = read_words(mem, chunk)?;
        Ok(ChunkHeader {
            prev_size,
            size: raw & !FLAG_MASK,
            in_use: raw & THIS_INUSE != 0,
            prev_in_use: raw & PREV_INUSE != 0,
        })
    }

    /// Encodes and writes this header at `chunk`, as one 16-byte access
    /// when `chunk` is 16-aligned.
    pub fn write(&self, mem: &mut SimMemory, chunk: Addr) -> Result<(), MemFault> {
        let mut raw = self.size;
        if self.in_use {
            raw |= THIS_INUSE;
        }
        if self.prev_in_use {
            raw |= PREV_INUSE;
        }
        write_words(mem, chunk, self.prev_size, raw)
    }

    /// Returns the user-data address of the chunk at `chunk`.
    #[inline]
    pub fn user_of(chunk: Addr) -> Addr {
        chunk.offset(HDR_SIZE)
    }

    /// Returns the chunk address owning the user pointer `user`.
    #[inline]
    pub fn chunk_of(user: Addr) -> Addr {
        user.back(HDR_SIZE)
    }

    /// Returns the usable user-area size of a chunk of total size `size`.
    #[inline]
    pub fn usable(size: u64) -> u64 {
        size - HDR_SIZE
    }
}

/// Reads two little-endian words at `addr`. A 16-aligned pair never
/// crosses a page, so it is read as one 16-byte access. A misaligned
/// address (reached only through a corrupt size) or a faulting access
/// falls back to two 8-byte reads, so the caller sees exactly the fault
/// that word-at-a-time access reports.
pub(crate) fn read_words(mem: &mut SimMemory, addr: Addr) -> Result<(u64, u64), MemFault> {
    let mut buf = [0u8; 16];
    if addr.is_aligned(ALIGN) && mem.read(addr, &mut buf).is_ok() {
        let v = u128::from_le_bytes(buf);
        return Ok((v as u64, (v >> 64) as u64));
    }
    Ok((mem.read_u64(addr)?, mem.read_u64(addr.offset(8))?))
}

/// Writes two little-endian words at `addr`, as one 16-byte access when
/// `addr` is 16-aligned. A misaligned address or a faulting access takes
/// two 8-byte writes, so the fault and any partial write match
/// word-at-a-time access.
pub(crate) fn write_words(
    mem: &mut SimMemory,
    addr: Addr,
    lo: u64,
    hi: u64,
) -> Result<(), MemFault> {
    let pair = (u128::from(hi) << 64) | u128::from(lo);
    if addr.is_aligned(ALIGN) && mem.write(addr, &pair.to_le_bytes()).is_ok() {
        return Ok(());
    }
    mem.write_u64(addr, lo)?;
    mem.write_u64(addr.offset(8), hi)
}

/// Rounds a user request up to a legal total chunk size.
#[inline]
pub fn request_to_chunk_size(req: u64) -> u64 {
    let user = req.max(ALIGN).div_ceil(ALIGN) * ALIGN;
    user + HDR_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_heap() -> SimMemory {
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 1 << 16, "heap").unwrap();
        mem
    }

    #[test]
    fn header_roundtrip() {
        let mut mem = mem_with_heap();
        let hdr = ChunkHeader {
            prev_size: 128,
            size: 64,
            in_use: true,
            prev_in_use: false,
        };
        hdr.write(&mut mem, Addr(0x1000)).unwrap();
        assert_eq!(ChunkHeader::read(&mut mem, Addr(0x1000)).unwrap(), hdr);
    }

    #[test]
    fn flags_do_not_leak_into_size() {
        let mut mem = mem_with_heap();
        let hdr = ChunkHeader {
            prev_size: 0,
            size: 48,
            in_use: true,
            prev_in_use: true,
        };
        hdr.write(&mut mem, Addr(0x1000)).unwrap();
        let back = ChunkHeader::read(&mut mem, Addr(0x1000)).unwrap();
        assert_eq!(back.size, 48);
        assert!(back.in_use && back.prev_in_use);
    }

    #[test]
    fn misaligned_header_walks_like_word_accesses() {
        // A header straddling a page boundary (reachable only through a
        // corrupt size) costs the TLB what two 8-byte reads cost: two
        // hits on warm pages, never the page-crossing slow path.
        let mut mem = mem_with_heap();
        let hdr = ChunkHeader {
            prev_size: 32,
            size: 96,
            in_use: false,
            prev_in_use: true,
        };
        hdr.write(&mut mem, Addr(0x1ff8)).unwrap();
        let before = mem.tlb_stats();
        assert_eq!(ChunkHeader::read(&mut mem, Addr(0x1ff8)).unwrap(), hdr);
        let after = mem.tlb_stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.hits, before.hits + 2);
    }

    #[test]
    fn header_faults_like_word_accesses() {
        // The region ends mid-header: the first word is mapped, the
        // second is not. The fault names the second word, as two 8-byte
        // accesses would.
        let mut mem = SimMemory::new();
        mem.map(Addr(0x1000), 0x18, "short").unwrap();
        let err = ChunkHeader::read(&mut mem, Addr(0x1010)).unwrap_err();
        assert_eq!(err, mem.read_u64(Addr(0x1018)).unwrap_err());
        let hdr = ChunkHeader {
            prev_size: 7,
            size: 64,
            in_use: true,
            prev_in_use: true,
        };
        let err = hdr.write(&mut mem, Addr(0x1010)).unwrap_err();
        assert_eq!(err, mem.write_u64(Addr(0x1018), 0).unwrap_err());
        // The first word was written before the fault, as before.
        assert_eq!(mem.read_u64(Addr(0x1010)).unwrap(), 7);
    }

    #[test]
    fn user_chunk_conversions() {
        let chunk = Addr(0x2000);
        assert_eq!(ChunkHeader::user_of(chunk), Addr(0x2010));
        assert_eq!(ChunkHeader::chunk_of(Addr(0x2010)), chunk);
        assert_eq!(ChunkHeader::usable(64), 48);
    }

    #[test]
    fn request_rounding() {
        assert_eq!(request_to_chunk_size(0), 16 + 16);
        assert_eq!(request_to_chunk_size(1), 32);
        assert_eq!(request_to_chunk_size(16), 32);
        assert_eq!(request_to_chunk_size(17), 48);
        assert_eq!(request_to_chunk_size(100), 112 + 16);
    }
}
