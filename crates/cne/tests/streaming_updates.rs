//! Regression and property tests for the mutable-graph subsystem
//! (ISSUE 4 tentpole): streaming update batches, precise `AdjacencyStore`
//! invalidation, and the byte-capped LRU store.
//!
//! The contracts under test (see the `cne::engine` module docs, "Mutation &
//! invalidation lifecycle"):
//!
//! 1. **Update transparency** — after an arbitrary sequence of update
//!    batches interleaved with queries, a warm engine's estimates are
//!    **byte-identical** to a cold engine built from scratch on the
//!    post-update graph.
//! 2. **Budget safety** — a byte-capped store never exceeds its configured
//!    budget at any observation point, while still answering every query
//!    byte-identically to an unbounded engine.
//! 3. **Generation checks** — readers holding a stale generation snapshot
//!    are rejected with `StaleGeneration`, never silently served.

use bigraph::{BipartiteGraph, GraphDelta, Layer, UpdateBatch, UpdateLog};
use cne::batch::BatchReport;
use cne::{AlgorithmKind, CneError, EstimationEngine, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_UPPER: usize = 12;
const N_LOWER: usize = 96; // ≥ 64 so some vertices cross the dense threshold

/// A graph dense enough that several upper vertices take the packed
/// (cache-hitting) dispatch: universe 96 → 2 words → dense means degree > 4.
fn base_graph() -> BipartiteGraph {
    let mut edges = Vec::new();
    for u in 0..N_UPPER as u32 {
        let degree = 3 + (u * 7) % 40;
        for k in 0..degree {
            edges.push((u, (u * 31 + k * 5) % N_LOWER as u32));
        }
    }
    BipartiteGraph::from_edges(N_UPPER, N_LOWER, edges).unwrap()
}

/// Batch-report fingerprint at full bit precision.
fn bits(report: &BatchReport) -> Vec<u64> {
    report
        .estimates
        .iter()
        .map(|e| e.estimate.to_bits())
        .collect()
}

/// Runs the reference screening query on `engine` with a fixed seed.
fn screen(engine: &EstimationEngine<'_>, target: u32, seed: u64) -> Vec<u64> {
    let candidates: Vec<u32> = (0..N_UPPER as u32).filter(|&w| w != target).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    bits(
        &engine
            .estimate_batch(Layer::Upper, target, &candidates, 2.0, &mut rng)
            .unwrap(),
    )
}

/// Raw delta descriptors: kind 0 = add edge, 1 = remove edge, 2 = add a
/// lower vertex (coarsely invalidates upper bitmaps), 3 = add an upper
/// vertex (coarsely invalidates lower bitmaps — and must not swallow the
/// same-round precise invalidation of touched upper vertices).
fn arb_rounds() -> impl Strategy<Value = Vec<Vec<(u8, u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u32..N_UPPER as u32, 0u32..N_LOWER as u32), 1..12),
        1..5,
    )
}

/// Materializes one round of raw descriptors into a batch, tracking the
/// growing lower-layer size so every edge delta is in range. (Edge deltas
/// stay on the base vertices, so the query workload is always valid.)
fn materialize(raw: &[(u8, u32, u32)], n_lower: &mut usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &(kind, u, v) in raw {
        match kind {
            0 => batch.add_edge(u, v % *n_lower as u32),
            1 => batch.remove_edge(u, v % *n_lower as u32),
            2 => {
                *n_lower += 1;
                batch.add_vertex(Layer::Lower)
            }
            _ => batch.add_vertex(Layer::Upper),
        };
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: any interleaving of update batches and queries leaves the
    /// warm engine byte-identical to a cold rebuild — for the batch
    /// protocol and for a point query of every estimator family's shared
    /// machinery (MultiR-SS exercises the single-source hot path).
    #[test]
    fn updates_are_byte_identical_to_cold_rebuild(rounds in arb_rounds(), seed in 0u64..1000) {
        let mut engine = EstimationEngine::from_graph(base_graph());
        engine.warm(Layer::Upper);
        let mut n_lower = N_LOWER;
        for (i, raw) in rounds.iter().enumerate() {
            let batch = materialize(raw, &mut n_lower);
            engine.apply_updates(&batch).unwrap();
            // Interleave: query the warm engine after every batch, not just
            // at the end, so stale cache entries would be caught mid-stream.
            let round_seed = seed + i as u64;
            let warm = screen(&engine, 0, round_seed);
            let cold_engine = EstimationEngine::new(engine.graph());
            let cold = screen(&cold_engine, 0, round_seed);
            prop_assert_eq!(&warm, &cold, "batch round {}", i);

            let q = Query::new(Layer::Upper, 1, 2);
            let mut rng_a = StdRng::seed_from_u64(round_seed);
            let mut rng_b = StdRng::seed_from_u64(round_seed);
            let a = engine.estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng_a).unwrap();
            let b = cold_engine.estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng_b).unwrap();
            prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            prop_assert_eq!(&a.transcript, &b.transcript);
        }
        prop_assert_eq!(engine.generation() as usize > 0, engine.graph().epoch() > 0);
    }

    /// Property 2: a byte-capped engine never exceeds its budget at any
    /// observation point and stays byte-identical to the unbounded engine
    /// through the same update/query interleaving.
    #[test]
    fn capped_store_is_bounded_and_identical(rounds in arb_rounds(), seed in 0u64..1000) {
        // Room for about three 2-word bitmaps: tight enough that admission
        // declines and evictions actually happen on this workload.
        let cap = 48usize;
        let mut capped = EstimationEngine::from_graph_with_cache_budget(base_graph(), cap);
        let mut unbounded = EstimationEngine::from_graph(base_graph());
        capped.warm(Layer::Upper);
        unbounded.warm(Layer::Upper);
        prop_assert!(capped.store().bytes_used() <= cap);
        let mut n_lower = N_LOWER;
        for (i, raw) in rounds.iter().enumerate() {
            let batch = materialize(raw, &mut n_lower);
            capped.apply_updates(&batch).unwrap();
            unbounded.apply_updates(&batch).unwrap();
            let round_seed = seed.wrapping_add(i as u64);
            for target in [0u32, 3] {
                let a = screen(&capped, target, round_seed);
                let b = screen(&unbounded, target, round_seed);
                prop_assert_eq!(a, b, "round {} target {}", i, target);
                prop_assert!(
                    capped.store().bytes_used() <= cap,
                    "byte budget exceeded: {} > {}",
                    capped.store().bytes_used(),
                    cap
                );
            }
            capped.maintain_cache();
            prop_assert!(capped.store().bytes_used() <= cap);
        }
    }
}

#[test]
fn update_log_drains_into_engine_rounds() {
    // The ingestion front end to end: producers append to the log, the
    // writer drains bounded batches and applies them between query rounds.
    let mut engine = EstimationEngine::from_graph(base_graph());
    let log = UpdateLog::new();
    for k in 0..10u32 {
        log.append(GraphDelta::AddEdge {
            upper: k % 4,
            lower: 90 + (k % 6),
        });
    }
    log.append(GraphDelta::RemoveEdge { upper: 0, lower: 0 });
    let mut applied_batches = 0;
    while let Some(batch) = log.drain_batch(4) {
        engine.apply_updates(&batch).unwrap();
        applied_batches += 1;
    }
    assert_eq!(applied_batches, 3, "11 deltas in chunks of 4");
    assert_eq!(log.pending(), 0);
    assert_eq!(log.drained(), 11);
    assert!(engine.graph().has_edge(0, 90));
    assert!(!engine.graph().has_edge(0, 0));
    // The engine's answers match a cold rebuild after the whole stream.
    let cold = EstimationEngine::new(engine.graph());
    assert_eq!(screen(&engine, 0, 7), screen(&cold, 0, 7));
}

#[test]
fn stale_readers_are_rejected_not_served() {
    let mut engine = EstimationEngine::from_graph(base_graph());
    let snapshot = engine.generation();
    let candidates: Vec<u32> = (1..6).collect();
    // Reader and engine agree: the checked read succeeds.
    let mut rng = StdRng::seed_from_u64(5);
    engine.check_generation(snapshot).unwrap();
    engine
        .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
        .unwrap();
    // An effective update lands.
    let mut batch = UpdateBatch::new();
    batch.add_edge(0, 95).remove_edge(1, 0);
    engine.apply_updates(&batch).unwrap();
    // The stale snapshot is rejected with the structured error...
    let mut rng = StdRng::seed_from_u64(5);
    let err = engine
        .check_generation(snapshot)
        .and_then(|()| engine.estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng))
        .unwrap_err();
    assert!(matches!(
        err,
        CneError::StaleGeneration {
            observed: 0,
            current: 1
        }
    ));
    // ...before any draw: refreshing the snapshot and re-issuing on the same
    // stream serves exactly what a first-try read at the new generation does.
    let fresh = engine.generation();
    engine.check_generation(fresh).unwrap();
    let retried = engine
        .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
        .unwrap();
    let first_try = engine
        .estimate_batch(
            Layer::Upper,
            0,
            &candidates,
            2.0,
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
    assert_eq!(bits(&retried), bits(&first_try));
}

#[test]
fn eviction_preserves_results_under_thrashing() {
    // A cap that fits only a few bitmaps while the workload cycles through
    // many dense targets: admissions decline, maintain evicts, and every
    // answer must still equal the unbounded engine's.
    let g = base_graph();
    let cap = 32usize;
    let mut capped = EstimationEngine::with_cache_budget(&g, cap);
    let unbounded = EstimationEngine::new(&g);
    for round in 0..6u64 {
        for target in 0..N_UPPER as u32 {
            let a = screen(&capped, target, round);
            let b = screen(&unbounded, target, round);
            assert_eq!(a, b, "round {round} target {target}");
            assert!(capped.store().bytes_used() <= cap);
        }
        capped.maintain_cache();
        assert!(capped.store().bytes_used() <= cap);
    }
}
