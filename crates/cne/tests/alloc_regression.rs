//! Allocation-count regression test for the warm batch hot path.
//!
//! The contract (ISSUE 3 tentpole, `cne::engine` module docs): after
//! warmup, the inner candidate loop of `estimate_batch` performs **zero
//! heap allocations per candidate** — lean transcript/ledger accounting is
//! pure counter arithmetic, interned labels are never rendered, and any
//! per-candidate packing reuses the worker's scratch arena. The test pins
//! that down with a counting global allocator: the total allocation count
//! of a warm batch call must not depend on the number of candidates.
//!
//! The allocator counts per thread, and the test reads only the calling
//! thread's count. With `RAYON_NUM_THREADS=1` every candidate runs on the
//! calling thread, so the measured work is counted in full, while another
//! thread (the serving tier's writer starting up, say) cannot shift a
//! measurement window by an allocation of its own.
//!
//! Run in release mode in CI (`cargo test --release -p cne --test
//! alloc_regression`) so the count reflects the optimized hot path.

use bigraph::{BipartiteGraph, Layer};
use cne::batch::BatchSingleSource;
use cne::EstimationEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates and never fails during thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// 120 upper vertices over 4 096 items (64 packed words): every candidate
/// has degree 400 > 2·64 = 128, i.e. all of them take the dense packed
/// dispatch — the branch that used to allocate a fresh bitmap per
/// candidate on the uncached path.
fn dense_screening_graph() -> BipartiteGraph {
    const N_ITEMS: u32 = 4_096;
    const DEGREE: u32 = 400;
    let n_upper = 121u32;
    let mut edges = Vec::with_capacity((n_upper * DEGREE) as usize);
    for u in 0..n_upper {
        for k in 0..DEGREE {
            edges.push((u, (u.wrapping_mul(389).wrapping_add(k * 7)) % N_ITEMS));
        }
    }
    BipartiteGraph::from_edges(n_upper as usize, N_ITEMS as usize, edges).expect("valid edges")
}

/// One test function (not several): the test sets `RAYON_NUM_THREADS`
/// for the whole process, which a concurrent test would race with.
#[test]
fn warm_batch_inner_loop_is_allocation_free_per_candidate() {
    // Pin the fan-out to the calling thread: worker threads spawned per
    // call would (legitimately) allocate their stacks, and the thread-local
    // scratch arenas of short-lived workers cannot stay warm. On one
    // thread the arena persists across calls, which is the steady state a
    // long-lived single-shard service sees.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let g = dense_screening_graph();
    let small: Vec<u32> = (1..=30).collect();
    let large: Vec<u32> = (1..=120).collect();
    let algo = BatchSingleSource::default();

    // --- Warm engine path: candidates come from the adjacency cache. ----
    let engine = EstimationEngine::new(&g);
    engine.warm(Layer::Upper);
    // Warmup: grow the thread-local scratch and any lazy cache slots.
    for _ in 0..2 {
        engine
            .estimate_batch(Layer::Upper, 0, &large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch");
    }

    // Identical seeds: round 1 (the only RNG-dependent allocation site)
    // draws the same noisy target list in both runs, so any difference in
    // allocation count is attributable to the per-candidate loop.
    let (allocs_small, report_small) = allocations_during(|| {
        engine
            .estimate_batch(Layer::Upper, 0, &small, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    let (allocs_large, report_large) = allocations_during(|| {
        engine
            .estimate_batch(Layer::Upper, 0, &large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    assert_eq!(report_small.estimates.len(), 30);
    assert_eq!(report_large.estimates.len(), 120);
    assert_eq!(
        allocs_small, allocs_large,
        "warm estimate_batch allocated per candidate: {allocs_small} allocations for 30 \
         candidates vs {allocs_large} for 120"
    );
    // The per-call constant stays a handful of buffers (noisy list, packed
    // target, report vectors) — catch regressions that stay O(1) but balloon.
    assert!(
        allocs_large < 40,
        "warm estimate_batch should allocate only a few per-call buffers, got {allocs_large}"
    );

    // --- Uncached path: packing reuses the worker's scratch arena. ------
    for _ in 0..2 {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &large,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch");
    }
    let (allocs_small, _) = allocations_during(|| {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &small,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch")
    });
    let (allocs_large, _) = allocations_during(|| {
        algo.estimate_batch(
            &g,
            Layer::Upper,
            0,
            &large,
            2.0,
            &mut StdRng::seed_from_u64(7),
        )
        .expect("valid batch")
    });
    assert_eq!(
        allocs_small, allocs_large,
        "uncached estimate_batch allocated per candidate: {allocs_small} for 30 vs \
         {allocs_large} for 120"
    );

    // --- Serving path: pin a snapshot, query through it (ISSUE 7). ------
    // The epoch-pinned snapshot must add zero allocations on the warm
    // path: pinning is two epoch loads around an uncontended read guard,
    // and the query runs the same engine code as above. A long poll
    // interval parks the writer thread for the whole measurement.
    let serving = cne::serving::ServingEngine::with_config(
        g.clone(),
        cne::serving::ServingConfig {
            warm_layer: Some(Layer::Upper),
            poll_interval: std::time::Duration::from_secs(30),
            ..cne::serving::ServingConfig::default()
        },
    );
    for _ in 0..2 {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, &large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch");
    }
    let (allocs_pin, _) = allocations_during(|| serving.snapshot());
    assert_eq!(
        allocs_pin, 0,
        "pinning a snapshot must not allocate, got {allocs_pin}"
    );
    let (allocs_small, _) = allocations_during(|| {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, &small, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    let (allocs_large, _) = allocations_during(|| {
        serving
            .snapshot()
            .estimate_batch(Layer::Upper, 0, &large, 2.0, &mut StdRng::seed_from_u64(7))
            .expect("valid batch")
    });
    assert_eq!(
        allocs_small, allocs_large,
        "serving snapshot estimate_batch allocated per candidate: {allocs_small} for 30 vs \
         {allocs_large} for 120"
    );
    assert!(
        allocs_large < 40,
        "serving snapshot batch should match the warm engine's per-call constant, got \
         {allocs_large}"
    );
    drop(serving);

    std::env::remove_var("RAYON_NUM_THREADS");
}
