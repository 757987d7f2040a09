//! Canary values.
//!
//! "The term canary refers to certain memory content patterns that are
//! unlikely to appear during normal program execution" (paper §1.2).
//! Exposing changes fill padding, delay-freed objects, or new objects with
//! the canary; corruption of the pattern is the manifestation signal for
//! buffer overflows and dangling writes, and reading the pattern derails
//! applications for dangling/uninitialized reads.

use fa_mem::{Addr, MemFault, SimMemory};

/// The canary fill byte.
///
/// `0xAB` is nonzero (distinguishable from zero-fill), has high bits set
/// (pointer-looking values fault on dereference in the simulated address
/// space), and is unlikely as application data.
pub const CANARY_BYTE: u8 = 0xab;

/// Fills `[addr, addr + len)` with the canary pattern.
pub fn fill_canary(mem: &mut SimMemory, addr: Addr, len: u64) -> Result<(), MemFault> {
    mem.fill(addr, len, CANARY_BYTE)
}

/// Checks the canary in `[addr, addr + len)`, in place (see
/// [`SimMemory::check_fill`]).
///
/// Returns `None` if intact, or `Some((first_bad_offset, bad_count))`
/// describing the corruption — the location information First-Aid uses to
/// identify bug-triggering objects.
pub fn check_canary(
    mem: &mut SimMemory,
    addr: Addr,
    len: u64,
) -> Result<Option<(u64, u64)>, MemFault> {
    mem.check_fill(addr, len, CANARY_BYTE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> (SimMemory, Addr) {
        let mut m = SimMemory::new();
        let base = Addr(0x1000);
        m.map(base, 1 << 16, "heap").unwrap();
        (m, base)
    }

    #[test]
    fn intact_canary_passes() {
        let (mut m, base) = mem();
        fill_canary(&mut m, base, 512).unwrap();
        assert_eq!(check_canary(&mut m, base, 512).unwrap(), None);
    }

    #[test]
    fn corruption_located() {
        let (mut m, base) = mem();
        fill_canary(&mut m, base, 512).unwrap();
        m.write(base.offset(100), &[1, 2, 3]).unwrap();
        let (first, count) = check_canary(&mut m, base, 512).unwrap().unwrap();
        assert_eq!(first, 100);
        assert_eq!(count, 3);
    }

    #[test]
    fn write_of_canary_value_is_invisible() {
        // A bug that happens to write the canary byte itself escapes
        // detection — the assumption the paper states in §6.
        let (mut m, base) = mem();
        fill_canary(&mut m, base, 64).unwrap();
        m.write_u8(base.offset(5), CANARY_BYTE).unwrap();
        assert_eq!(check_canary(&mut m, base, 64).unwrap(), None);
    }
}
