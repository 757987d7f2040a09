//! Criterion micro-benchmarks for the First-Aid building blocks.
//!
//! These measure *host* performance of the simulator components (the
//! paper's virtual-time overheads are produced by the table/figure
//! binaries instead):
//!
//! * allocator fast paths — plain heap vs. the extension in normal mode
//!   vs. the extension with a matching patch (the interposition cost the
//!   paper's Fig. 6 "allocator" bars correspond to);
//! * checkpoint take/rollback at several dirty working-set sizes;
//! * canary fill/check throughput;
//! * one full end-to-end diagnosis (the Squid overflow).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fa_allocext::{check_canary, fill_canary, BugType, ExtAllocator, Patch, PatchSet};
use fa_apps::{spec_by_key, WorkloadSpec};
use fa_heap::Heap;
use fa_mem::{Addr, SimMemory};
use fa_proc::{AllocBackend, CallSite, Clock, SymbolTable};
use first_aid_core::{FirstAidConfig, FirstAidRuntime, PatchPool};

fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    let site = CallSite([1, 2, 3]);

    group.bench_function("plain_malloc_free", |b| {
        let mut mem = SimMemory::new();
        let mut heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 28).unwrap();
        b.iter(|| {
            let p = heap.malloc(&mut mem, 128).unwrap();
            heap.free(&mut mem, p).unwrap();
        });
    });

    group.bench_function("ext_normal_malloc_free", |b| {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 28).unwrap();
        let mut ext = ExtAllocator::attach(heap);
        let mut clock = Clock::new();
        b.iter(|| {
            let p = ext.malloc(&mut mem, &mut clock, 128, site).unwrap();
            ext.free(&mut mem, &mut clock, p, site).unwrap();
        });
    });

    group.bench_function("ext_patched_malloc_free", |b| {
        let mut mem = SimMemory::new();
        let heap = Heap::new(&mut mem, Addr(0x1000_0000), 1 << 28).unwrap();
        let mut ext = ExtAllocator::attach(heap);
        let symbols = SymbolTable::new();
        ext.set_normal(PatchSet::from_patches([Patch::new(
            BugType::BufferOverflow,
            site,
            &symbols,
        )]));
        let mut clock = Clock::new();
        b.iter(|| {
            let p = ext.malloc(&mut mem, &mut clock, 128, site).unwrap();
            ext.free(&mut mem, &mut clock, p, site).unwrap();
        });
    });

    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    for dirty_kb in [64u64, 1024, 8192] {
        group.throughput(Throughput::Bytes(dirty_kb * 1024));
        group.bench_with_input(
            BenchmarkId::new("snapshot_after_dirty", dirty_kb),
            &dirty_kb,
            |b, &kb| {
                let mut mem = SimMemory::new();
                let base = Addr(0x1000_0000);
                mem.map(base, 1 << 28, "heap").unwrap();
                b.iter(|| {
                    mem.fill(base, kb * 1024, 0x7a).unwrap();
                    let snap = mem.snapshot();
                    std::hint::black_box(snap.page_count());
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rollback", dirty_kb),
            &dirty_kb,
            |b, &kb| {
                let mut mem = SimMemory::new();
                let base = Addr(0x1000_0000);
                mem.map(base, 1 << 28, "heap").unwrap();
                mem.fill(base, kb * 1024, 0x11).unwrap();
                let snap = mem.snapshot();
                b.iter(|| {
                    mem.fill(base, kb * 1024, 0x22).unwrap();
                    mem.restore(&snap);
                });
            },
        );
    }
    group.finish();
}

fn bench_canary(c: &mut Criterion) {
    let mut group = c.benchmark_group("canary");
    let len = 64 * 1024u64;
    group.throughput(Throughput::Bytes(len));
    group.bench_function("fill_64k", |b| {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        b.iter(|| fill_canary(&mut mem, base, len).unwrap());
    });
    group.bench_function("check_64k_intact", |b| {
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        fill_canary(&mut mem, base, len).unwrap();
        b.iter(|| {
            assert!(check_canary(&mut mem, base, len).unwrap().is_none());
        });
    });
    group.bench_function("check_64k_corrupt_tail", |b| {
        // One bad byte in the last page: the clean path up to it, then
        // the first-offset and count work of a mismatch.
        let mut mem = SimMemory::new();
        let base = Addr(0x1000_0000);
        mem.map(base, 1 << 20, "heap").unwrap();
        fill_canary(&mut mem, base, len).unwrap();
        let bad = len - 100;
        mem.write_u8(base.offset(bad), 0).unwrap();
        b.iter(|| {
            assert_eq!(check_canary(&mut mem, base, len).unwrap(), Some((bad, 1)));
        });
    });
    group.finish();
}

fn bench_diagnosis(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("squid_full_recovery", |b| {
        let spec = spec_by_key("squid").unwrap();
        b.iter(|| {
            let pool = PatchPool::in_memory();
            let mut fa =
                FirstAidRuntime::launch((spec.build)(), FirstAidConfig::default(), pool).unwrap();
            let w = (spec.workload)(&WorkloadSpec::new(900, &[400]));
            let summary = fa.run(w, None);
            assert_eq!(summary.failures, 1);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_allocator,
    bench_checkpoint,
    bench_canary,
    bench_diagnosis
);
criterion_main!(benches);
