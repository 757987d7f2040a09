//! Differential tests for the in-place compare: [`SimMemory::check_fill`]
//! against a reference kept here — `read` the range into a buffer, then
//! count the bytes that differ in a byte loop.
//!
//! Two address spaces are built by the same seeded operations (fills,
//! single-byte corruptions, guard/poison flips, snapshots, restores,
//! digests); each check runs `check_fill` on one and the reference on
//! the other. Every check must agree on the `Ok` value or the exact
//! `Err` fault, and leave identical `bytes_read`, TLB counters, resident
//! and dirty page counts and COW-fault counts behind. `check_fill` must
//! also leave every cached page hash in place. The vendored proptest shim
//! seeds each case from the test name, so failures replay.

use proptest::prelude::*;

use fa_mem::{Addr, MemFault, MemSnapshot, Perms, SimMemory, PAGE_SIZE};

const PAGE: u64 = PAGE_SIZE as u64;
/// Offsets are taken from here; the page below the first region stays
/// unmapped.
const ORIGIN: u64 = 0x4000_0000;
/// First region: five pages and a bit, so it ends mid-page.
const R0: (u64, u64) = (ORIGIN + PAGE, 5 * PAGE + 123);
/// Second region starts where the first ends, sharing its last page.
const R1: (u64, u64) = (R0.0 + R0.1, 2 * PAGE + 77);
/// Offsets reach past the second region's end into unmapped space.
const SPAN: u64 = 10 * PAGE;
const SNAP_CAP: usize = 2;
const CANARY: u8 = 0xab;

#[derive(Clone, Debug)]
enum Step {
    Fill { off: u64, len: u64, byte: u8 },
    Poke { off: u64, byte: u8 },
    Protect { page: u64, perms: Perms },
    Snapshot,
    Restore,
    Digest,
    Check { off: u64, len: u64, byte: u8 },
}

fn byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => Just(CANARY),
        2 => Just(0u8),
        1 => any::<u8>(),
    ]
}

fn perm_strategy() -> impl Strategy<Value = Perms> {
    prop_oneof![
        3 => Just(Perms::RW),
        2 => Just(Perms::GUARD),
        2 => Just(Perms::POISONED),
        1 => Just(Perms::READ),
    ]
}

fn len_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        3 => 1..200u64,
        3 => 1..3 * PAGE + 17,
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..SPAN, 1..2 * PAGE, byte_strategy())
            .prop_map(|(off, len, byte)| Step::Fill { off, len, byte }),
        3 => (0..SPAN, any::<u8>()).prop_map(|(off, byte)| Step::Poke { off, byte }),
        2 => (0..SPAN / PAGE, perm_strategy())
            .prop_map(|(page, perms)| Step::Protect { page, perms }),
        1 => Just(Step::Snapshot),
        1 => Just(Step::Restore),
        1 => Just(Step::Digest),
        8 => (0..SPAN, len_strategy(), byte_strategy())
            .prop_map(|(off, len, byte)| Step::Check { off, len, byte }),
    ]
}

fn mapped() -> SimMemory {
    let mut mem = SimMemory::new();
    mem.map(Addr(R0.0), R0.1, "r0").unwrap();
    mem.map(Addr(R1.0), R1.1, "r1").unwrap();
    mem
}

/// The reference: copy the range out, then a byte loop.
fn reference(
    mem: &mut SimMemory,
    addr: Addr,
    len: u64,
    byte: u8,
) -> Result<Option<(u64, u64)>, MemFault> {
    let mut buf = vec![0u8; len as usize];
    mem.read(addr, &mut buf)?;
    let mut first = None;
    let mut count = 0u64;
    for (i, &b) in buf.iter().enumerate() {
        if b != byte {
            first.get_or_insert(i as u64);
            count += 1;
        }
    }
    Ok(first.map(|f| (f, count)))
}

/// Runs one check on both sides and asserts they agree on the result
/// and on every observable; returns the result.
fn check_both(
    live: &mut SimMemory,
    refm: &mut SimMemory,
    addr: Addr,
    len: u64,
    byte: u8,
) -> Result<Option<(u64, u64)>, MemFault> {
    let hashed = live.snapshot().hashed_page_count();
    let got = live.check_fill(addr, len, byte);
    let want = reference(refm, addr, len, byte);
    let at = (addr, len, byte);
    assert_eq!(got, want, "result diverged at {at:?}");
    assert_eq!(live.bytes_read(), refm.bytes_read(), "bytes_read at {at:?}");
    assert_eq!(live.tlb_stats(), refm.tlb_stats(), "tlb_stats at {at:?}");
    assert_eq!(
        live.resident_pages(),
        refm.resident_pages(),
        "resident at {at:?}"
    );
    assert_eq!(
        live.dirty_page_count(),
        refm.dirty_page_count(),
        "dirty at {at:?}"
    );
    assert_eq!(live.cow_faults(), refm.cow_faults(), "cow_faults at {at:?}");
    assert_eq!(
        live.snapshot().hashed_page_count(),
        hashed,
        "a page hash was invalidated at {at:?}"
    );
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn check_fill_matches_read_and_byte_loop(steps in prop::collection::vec(step_strategy(), 1..120)) {
        let mut live = mapped();
        let mut refm = mapped();
        let mut snaps: Vec<(MemSnapshot, MemSnapshot)> = Vec::new();
        for step in steps {
            match step {
                Step::Fill { off, len, byte } => {
                    let a = Addr(ORIGIN + off);
                    prop_assert_eq!(live.fill(a, len, byte), refm.fill(a, len, byte));
                }
                Step::Poke { off, byte } => {
                    let a = Addr(ORIGIN + off);
                    prop_assert_eq!(live.write_u8(a, byte), refm.write_u8(a, byte));
                }
                Step::Protect { page, perms } => {
                    let a = Addr(ORIGIN + page * PAGE);
                    prop_assert_eq!(live.protect(a, PAGE, perms), refm.protect(a, PAGE, perms));
                }
                Step::Snapshot => {
                    if snaps.len() == SNAP_CAP {
                        snaps.remove(0);
                    }
                    snaps.push((live.snapshot(), refm.snapshot()));
                }
                Step::Restore => {
                    if let Some((l, r)) = snaps.pop() {
                        live.restore(&l);
                        refm.restore(&r);
                    }
                }
                Step::Digest => {
                    prop_assert_eq!(
                        live.snapshot().content_digest(),
                        refm.snapshot().content_digest()
                    );
                }
                Step::Check { off, len, byte } => {
                    let _ = check_both(&mut live, &mut refm, Addr(ORIGIN + off), len, byte);
                }
            }
        }
    }
}

/// Each named case, once, with the outcome it must have.
#[test]
fn check_fill_covers_every_named_case() {
    let mut live = mapped();
    let mut refm = mapped();
    let r0 = Addr(R0.0);
    for mem in [&mut live, &mut refm] {
        // Pages 0-2 of r0 hold the canary; page 3 stays vacant.
        mem.fill(r0, 3 * PAGE, CANARY).unwrap();
        mem.write_u8(r0.offset(2 * PAGE + 10), 7).unwrap();
        mem.fill(Addr(R1.0), 32, CANARY).unwrap();
        // Bytes 16-23 of r1 each differ from the canary in one bit.
        for bit in 0..8 {
            mem.write_u8(Addr(R1.0 + 16 + bit), CANARY ^ (1 << bit))
                .unwrap();
        }
    }
    let mut both =
        |addr: Addr, len: u64, byte: u8| check_both(&mut live, &mut refm, addr, len, byte);

    // Clean across a page boundary; the corruption in the third page.
    assert_eq!(both(r0.offset(PAGE - 8), 16, CANARY), Ok(None));
    assert_eq!(
        both(r0.offset(PAGE / 2), 2 * PAGE, CANARY),
        Ok(Some((3 * PAGE / 2 + 10, 1)))
    );
    // A vacant page reads as zeros.
    assert_eq!(both(r0.offset(3 * PAGE), PAGE, 0), Ok(None));
    assert_eq!(
        both(r0.offset(3 * PAGE + 5), 100, CANARY),
        Ok(Some((0, 100)))
    );
    // Canary running into a vacant page: the bad count covers its part.
    assert_eq!(both(r0.offset(3 * PAGE - 4), 12, CANARY), Ok(Some((4, 8))));
    // len == 0, inside a region and at an unmapped address.
    assert_eq!(both(r0, 0, CANARY), Ok(None));
    assert!(matches!(
        both(Addr(ORIGIN), 0, CANARY),
        Err(MemFault::AccessViolation { .. })
    ));
    // Unmapped, and a range running off a region's end into the next.
    assert!(matches!(
        both(Addr(ORIGIN), 8, CANARY),
        Err(MemFault::AccessViolation { .. })
    ));
    assert!(matches!(
        both(Addr(R1.0 - 4), 8, CANARY),
        Err(MemFault::AccessViolation { .. })
    ));
    assert!(matches!(
        both(Addr(R1.0 + R1.1 - 4), 8, CANARY),
        Err(MemFault::AccessViolation { .. })
    ));
    assert_eq!(both(Addr(R1.0), 16, CANARY), Ok(None));
    assert_eq!(both(Addr(R1.0), 32, CANARY), Ok(Some((16, 8))));

    // Snapshot-shared pages, with every page hash cached: the check reads
    // them where they are, replicates nothing and keeps the hashes.
    let (snap_l, snap_r) = (live.snapshot(), refm.snapshot());
    assert_eq!(snap_l.content_digest(), snap_r.content_digest());
    assert_eq!(snap_l.hashed_page_count(), snap_l.page_count());
    assert_eq!(
        check_both(&mut live, &mut refm, r0, 3 * PAGE, CANARY),
        Ok(Some((2 * PAGE + 10, 1)))
    );
    assert_eq!(live.cow_faults(), 0);
    assert_eq!(snap_l.hashed_page_count(), snap_l.page_count());

    // Guard and poisoned pages trap, even when the range only touches them.
    for perms in [Perms::GUARD, Perms::POISONED] {
        live.protect(r0.offset(PAGE), PAGE, perms).unwrap();
        refm.protect(r0.offset(PAGE), PAGE, perms).unwrap();
        assert!(matches!(
            check_both(&mut live, &mut refm, r0.offset(PAGE - 1), 2, CANARY),
            Err(MemFault::GuardTrap { .. })
        ));
        assert!(matches!(
            check_both(&mut live, &mut refm, r0.offset(PAGE + 5), 1, CANARY),
            Err(MemFault::GuardTrap { .. })
        ));
    }
}
