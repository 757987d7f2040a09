//! Characterization of the patch pool's transition semantics.
//!
//! A seeded random walk drives one journaled pool through `add`,
//! `revoke`, `remove_site` and `confirm_canary` calls issued from the
//! unscoped pool and from three worker-scoped clones, with compaction
//! every few records, with the flap quarantine off and on. Every step
//! records what an observer can see: the return value, the global
//! version, the program epoch, the canonical exported state, each
//! worker's published set and the events polled since the last step.
//! The records are hashed per seed and compared with hashes recorded
//! from the earlier pool, which wrote each transition twice (once live,
//! once for replay), so any change in observable behaviour fails here.
//! Each walk ends by reopening the journal in a fresh pool, which must
//! recover the same state and epoch.

use std::path::PathBuf;

use fa_allocext::{BugType, Patch};
use fa_proc::{CallSite, SymbolTable};
use fa_wal::{WalOp, WorkerOp};
use first_aid_core::{EventPoll, PatchPool, PoolEventKind, QuarantinePolicy};

const PROGRAM: &str = "pool-walk";
const STEPS: usize = 400;
const SITES: u64 = 4;
const WORKERS: u64 = 3;

/// Expected record hashes, `(seed, quarantine on) -> hash`.
const EXPECTED: [(u64, bool, u64); 12] = [
    (1, false, 0x580ada6f0ceb1ee),
    (1, true, 0x95213fbc3ad203ed),
    (2, false, 0x92d4941f81b9041a),
    (2, true, 0xef41a9090a5bc474),
    (3, false, 0xcad030ac242d029d),
    (3, true, 0x6b02ae801bd9b31f),
    (4, false, 0x2dd51c588f331b8),
    (4, true, 0x8365a922e747130b),
    (5, false, 0xb33e4e376d4c0629),
    (5, true, 0xb6370bb810775031),
    (6, false, 0x8c4d11207b686d79),
    (6, true, 0x73ec732e8569e109),
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fa-pool-walk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// SplitMix64: a self-contained stream, so the walk never depends on
/// an external generator's output.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over the step records.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn site(i: u64) -> CallSite {
    CallSite([0x100 + i, 0x200, 0])
}

fn patch(rng: &mut Rng) -> Patch {
    let bug = match rng.below(3) {
        0 => BugType::DanglingRead,
        1 => BugType::BufferOverflow,
        _ => BugType::DoubleFree,
    };
    Patch::new(bug, site(rng.below(SITES)), &SymbolTable::new())
}

fn sorted_set(pool: &PatchPool) -> Vec<String> {
    let mut set: Vec<String> = pool
        .get(PROGRAM)
        .patches()
        .iter()
        .map(|p| format!("{:?}@{:x}", p.bug, p.site.0[0]))
        .collect();
    set.sort();
    set
}

/// Runs one walk and returns the hash of its step records and the
/// event kinds it saw.
fn walk(seed: u64, quarantine: bool) -> (u64, Vec<PoolEventKind>) {
    let dir = scratch(&format!("{seed}-{quarantine}"));
    let pool = PatchPool::journaled(&dir).expect("journal opens");
    pool.journal().expect("journaled").set_compact_every(7);
    if quarantine {
        pool.enable_quarantine(QuarantinePolicy {
            quarantine_after: 2,
            max_window: 4,
        });
    }
    let callers: Vec<PatchPool> = std::iter::once(pool.clone())
        .chain((1..=WORKERS).map(|w| pool.for_worker(w)))
        .collect();
    let mut cursor = pool.events().subscribe();
    let mut rng = Rng(seed);
    let mut hash = Fnv::new();
    let mut kinds: Vec<PoolEventKind> = Vec::new();
    for step in 0..STEPS {
        let caller = &callers[rng.below(callers.len() as u64) as usize];
        let roll = rng.below(100);
        let (call, ret) = if roll < 50 {
            let n = 1 + rng.below(3) as usize;
            let patches: Vec<Patch> = (0..n).map(|_| patch(&mut rng)).collect();
            let call = format!(
                "add{:?}",
                patches
                    .iter()
                    .map(|p| format!("{:?}@{:x}", p.bug, p.site.0[0]))
                    .collect::<Vec<_>>()
            );
            (call, caller.add(PROGRAM, patches).to_string())
        } else if roll < 72 {
            let s = site(rng.below(SITES));
            (
                format!("revoke {:x}", s.0[0]),
                caller.revoke(PROGRAM, s).to_string(),
            )
        } else if roll < 82 {
            let s = site(rng.below(SITES));
            caller.remove_site(PROGRAM, s);
            (format!("remove {:x}", s.0[0]), String::new())
        } else {
            (
                "confirm".to_owned(),
                caller.confirm_canary(PROGRAM).to_string(),
            )
        };
        let events = match pool.events().poll(&mut cursor) {
            EventPoll::Quiet => String::new(),
            EventPoll::Lagged => "lagged".to_owned(),
            EventPoll::Events(events) => {
                kinds.extend(events.iter().map(|e| e.kind));
                events
                    .iter()
                    .map(|e| format!("{}:{}:{}:{:?}", e.seq, e.program, e.epoch, e.kind))
                    .collect::<Vec<_>>()
                    .join(",")
            }
        };
        let views: Vec<Vec<String>> = callers.iter().map(sorted_set).collect();
        let record = format!(
            "{step} {:?} {call} -> {ret} v={} e={} state={} views={views:?} events=[{events}]\n",
            caller.scope(),
            pool.version(),
            pool.epoch(PROGRAM),
            pool.export_state(PROGRAM),
        );
        hash.write(record.as_bytes());
    }
    let state = pool.export_state(PROGRAM);
    let epoch = pool.epoch(PROGRAM);
    drop(callers);
    drop(pool);
    let recovered = PatchPool::journaled(&dir).expect("journal reopens");
    assert_eq!(recovered.export_state(PROGRAM), state, "seed {seed}");
    assert_eq!(recovered.epoch(PROGRAM), epoch, "seed {seed}");
    let _ = std::fs::remove_dir_all(&dir);
    (hash.0, kinds)
}

#[test]
fn seeded_walks_match_the_recorded_transitions() {
    let mut actual = Vec::new();
    let mut seen = Vec::new();
    for &(seed, quarantine, _) in &EXPECTED {
        let (hash, kinds) = walk(seed, quarantine);
        seen.extend(kinds);
        actual.push((seed, quarantine, hash));
    }
    assert_eq!(actual, EXPECTED.to_vec(), "record hashes moved");
    // The walks reach every live transition, canaries included.
    for kind in [
        PoolEventKind::Publish,
        PoolEventKind::Revoke,
        PoolEventKind::Remove,
        PoolEventKind::CanaryAdmit,
        PoolEventKind::CanaryPromote,
    ] {
        assert!(seen.contains(&kind), "no {kind:?} event in any walk");
    }
}

#[test]
fn replays_announce_recovered_programs_in_sorted_order() {
    let dir = scratch("recovered-order");
    let programs: Vec<String> = (0..12).map(|i| format!("prog-{i:02}")).collect();
    {
        let pool = PatchPool::journaled(&dir).expect("journal opens");
        for (i, program) in programs.iter().enumerate() {
            let p = Patch::new(BugType::DanglingRead, site(i as u64), &SymbolTable::new());
            pool.add(program, [p]);
        }
    }
    let mut orders = Vec::new();
    for worker in 0..2 {
        let pool = PatchPool::journaled(&dir).expect("journal reopens");
        let mut cursor = pool.events().subscribe();
        // A record appended behind the pool's back: the next recovery
        // applies it and announces every program it replayed.
        pool.journal()
            .expect("journaled")
            .append(WalOp::WorkerJoin(WorkerOp { worker }));
        assert_eq!(pool.recover_from_journal(), 1);
        let EventPoll::Events(events) = pool.events().poll(&mut cursor) else {
            panic!("recovery must emit events");
        };
        assert!(events.iter().all(|e| e.kind == PoolEventKind::Recovered));
        orders.push(events.into_iter().map(|e| e.program).collect::<Vec<_>>());
    }
    assert_eq!(orders[0], programs);
    assert_eq!(orders[1], programs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_workers_canaries_are_promoted_in_site_order() {
    let dir = scratch("promote-order");
    let pool = PatchPool::journaled(&dir)
        .expect("journal opens")
        .with_quarantine(QuarantinePolicy {
            quarantine_after: 1,
            max_window: 1,
        });
    let worker = pool.for_worker(7);
    let sites: Vec<CallSite> = (0..12).map(|i| CallSite([0x900 + i, 0, 0])).collect();
    for &s in &sites {
        let p = Patch::new(BugType::DanglingRead, s, &SymbolTable::new());
        pool.add(PROGRAM, [p.clone()]);
        assert!(pool.revoke(PROGRAM, s));
        // One denial inside the window, then the canary.
        assert_eq!(worker.add(PROGRAM, [p.clone()]), 0);
        assert_eq!(worker.add(PROGRAM, [p]), 1);
    }
    assert_eq!(worker.confirm_canary(PROGRAM), sites.len());
    let promoted: Vec<CallSite> = pool
        .journal()
        .expect("journaled")
        .replay()
        .into_iter()
        .filter_map(|r| match r.op {
            WalOp::CanaryPromote(op) => Some(op.site),
            _ => None,
        })
        .collect();
    assert_eq!(promoted, sites);
    let _ = std::fs::remove_dir_all(&dir);
}
