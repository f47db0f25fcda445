//! Swap-correctness suite for the double-buffered serving tier
//! (ISSUE 7 tentpole): every pinned snapshot must be **byte-identical** to
//! a cold engine built at that snapshot's epoch — transcripts included —
//! across randomized interleavings of update batches and queries, with
//! concurrent readers, and whether or not the writer published while a
//! snapshot was held.
//!
//! Contracts under test (see the `cne::serving` module docs):
//!
//! 1. **Snapshot identity** — a pinned [`EngineSnapshot`]'s estimates,
//!    transcripts, and graph equal a cold [`EstimationEngine`] built from
//!    the snapshot's graph.
//! 2. **Pin stability** — a held snapshot keeps serving its epoch's state,
//!    bit-for-bit, while the writer publishes newer epochs underneath it,
//!    and fresh snapshots see the new state immediately.
//! 3. **Generation checks** — a reader with a stale cursor refreshes it
//!    from a pinned snapshot and is served exactly what a fresh reader is,
//!    and `check_generation` rejects a stale cursor before any RNG draw.
//! 4. **Convergence** — after the log drains, the final engine state
//!    equals a reference replay of the same delta stream, regardless of
//!    how the writer chunked it into batches.
//!
//! The suite runs under the `RAYON_NUM_THREADS=1/4/8` determinism matrix
//! (the `estimate_many_targets` comparisons exercise the sharded path) and
//! under `CNE_FORCE_PORTABLE_KERNELS=1` in the portable-kernels CI leg.

use bigraph::{BipartiteGraph, GraphDelta, Layer, UpdateBatch};
use cne::batch::BatchReport;
use cne::serving::{EngineSnapshot, ServingConfig, ServingEngine};
use cne::{AlgorithmKind, CneError, EstimationEngine, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const N_UPPER: usize = 12;
const N_LOWER: usize = 96; // ≥ 64 so some vertices cross the dense threshold

/// Same base graph as `streaming_updates.rs`: dense enough that several
/// upper vertices take the packed (cache-hitting) dispatch.
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

/// A serving config tuned for tests: the writer idles until `flush`
/// unparks it, so each flush drains one predictable batch.
fn test_config() -> ServingConfig {
    ServingConfig {
        poll_interval: Duration::from_millis(50),
        ..ServingConfig::default()
    }
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

/// Asserts a pinned snapshot is byte-identical to a cold engine built from
/// the snapshot's own graph: batch screening, a point query with its full
/// transcript, and the sharded multi-target path.
fn assert_snapshot_matches_cold(snap: &EngineSnapshot<'_>, seed: u64) {
    let cold = EstimationEngine::new(snap.graph());
    assert_eq!(screen(snap.engine(), 0, seed), screen(&cold, 0, seed));

    let q = Query::new(Layer::Upper, 1, 2);
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    let a = snap
        .estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng_a)
        .unwrap();
    let b = cold
        .estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng_b)
        .unwrap();
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.transcript, b.transcript);

    let targets = [0u32, 3, 5];
    let candidates: Vec<u32> = (0..N_UPPER as u32).collect();
    let many_a = snap
        .estimate_many_targets(Layer::Upper, &targets, &candidates, 2.0, seed)
        .unwrap();
    let many_b = cold
        .estimate_many_targets(Layer::Upper, &targets, &candidates, 2.0, seed)
        .unwrap();
    for (ra, rb) in many_a.iter().zip(&many_b) {
        assert_eq!(bits(ra), bits(rb));
    }
}

/// Raw delta descriptors, as in `streaming_updates.rs`: kind 0 = add edge,
/// 1 = remove edge, 2 = add a lower vertex, 3 = add an upper vertex.
fn arb_rounds() -> impl Strategy<Value = Vec<Vec<(u8, u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..4, 0u32..N_UPPER as u32, 0u32..N_LOWER as u32), 1..12),
        1..5,
    )
}

/// Materializes one round of raw descriptors into deltas, tracking the
/// growing lower-layer size so every edge delta is in range.
fn materialize(raw: &[(u8, u32, u32)], n_lower: &mut usize) -> Vec<GraphDelta> {
    let mut deltas = Vec::with_capacity(raw.len());
    for &(kind, u, v) in raw {
        deltas.push(match kind {
            0 => GraphDelta::AddEdge {
                upper: u,
                lower: v % *n_lower as u32,
            },
            1 => GraphDelta::RemoveEdge {
                upper: u,
                lower: v % *n_lower as u32,
            },
            2 => {
                *n_lower += 1;
                GraphDelta::AddVertex {
                    layer: Layer::Lower,
                }
            }
            _ => GraphDelta::AddVertex {
                layer: Layer::Upper,
            },
        });
    }
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1 + 4 across randomized interleavings: after every flushed
    /// round, a fresh pinned snapshot equals a cold engine on its graph,
    /// and the reference replay of the same delta stream (batch boundaries
    /// chosen independently of the writer's chunking) converges to the
    /// same graph.
    #[test]
    fn pinned_snapshots_match_cold_engine_across_interleavings(
        rounds in arb_rounds(),
        seed in 0u64..1000,
    ) {
        let serving = ServingEngine::with_config(base_graph(), test_config());
        let mut reference = base_graph();
        let mut n_lower = N_LOWER;
        for (i, raw) in rounds.iter().enumerate() {
            let deltas = materialize(raw, &mut n_lower);
            let batch: UpdateBatch = deltas.iter().copied().collect();
            reference.apply_update_batch(&batch).unwrap();
            serving.extend(deltas);
            serving.flush();
            let snap = serving.snapshot();
            prop_assert_eq!(snap.graph(), &reference, "round {}", i);
            assert_snapshot_matches_cold(&snap, seed + i as u64);
        }
        prop_assert_eq!(serving.stats().ingest_lag, 0);
        let final_engine = serving.into_engine();
        prop_assert_eq!(final_engine.graph(), &reference);
    }
}

#[test]
fn held_snapshot_is_stable_while_writer_publishes() {
    let serving = ServingEngine::with_config(base_graph(), test_config());
    let old = serving.snapshot();
    let old_bits = screen(old.engine(), 0, 42);
    let old_epoch = old.epoch();
    assert!(!old.graph().has_edge(0, 95));

    // A publish lands *while `old` stays pinned*: flush returns without
    // the held snapshot ever blocking the swap.
    serving.append(GraphDelta::AddEdge {
        upper: 0,
        lower: 95,
    });
    serving.flush();

    // Fresh snapshots resolve to the new epoch immediately...
    let fresh = serving.snapshot();
    assert!(fresh.epoch() > old_epoch);
    assert!(fresh.graph().has_edge(0, 95));
    assert_eq!(fresh.generation(), 1);
    assert_snapshot_matches_cold(&fresh, 43);
    drop(fresh);

    // ...while the held snapshot keeps serving its epoch bit-for-bit.
    assert_eq!(old.epoch(), old_epoch);
    assert_eq!(old.generation(), 0);
    assert!(!old.graph().has_edge(0, 95));
    assert_eq!(screen(old.engine(), 0, 42), old_bits);
    assert_snapshot_matches_cold(&old, 44);
    drop(old);

    // With the old epoch retired, the next cycle recycles its buffer.
    serving.append(GraphDelta::RemoveEdge {
        upper: 0,
        lower: 95,
    });
    serving.flush();
    let snap = serving.snapshot();
    assert!(!snap.graph().has_edge(0, 95));
    assert_eq!(snap.generation(), 2);
    assert_snapshot_matches_cold(&snap, 45);
}

#[test]
fn concurrent_readers_always_see_consistent_snapshots() {
    let serving = ServingEngine::new(base_graph());
    std::thread::scope(|scope| {
        for reader in 0..2u64 {
            let serving = &serving;
            scope.spawn(move || {
                for i in 0..12u64 {
                    let snap = serving.snapshot();
                    assert_snapshot_matches_cold(&snap, reader * 1000 + i);
                }
            });
        }
        // Meanwhile the writer keeps publishing a live stream.
        for k in 0..40u32 {
            serving.append(if k % 3 == 0 {
                GraphDelta::RemoveEdge {
                    upper: k % N_UPPER as u32,
                    lower: (k * 17) % N_LOWER as u32,
                }
            } else {
                GraphDelta::AddEdge {
                    upper: k % N_UPPER as u32,
                    lower: (k * 13) % N_LOWER as u32,
                }
            });
            if k % 8 == 0 {
                std::thread::yield_now();
            }
        }
    });
    serving.flush();

    // Convergence: the final state equals a reference replay of the same
    // stream (one batch; boundaries don't change the net graph).
    let mut reference = base_graph();
    let mut batch = UpdateBatch::new();
    for k in 0..40u32 {
        if k % 3 == 0 {
            batch.remove_edge(k % N_UPPER as u32, (k * 17) % N_LOWER as u32);
        } else {
            batch.add_edge(k % N_UPPER as u32, (k * 13) % N_LOWER as u32);
        }
    }
    reference.apply_update_batch(&batch).unwrap();
    let final_engine = serving.into_engine();
    assert_eq!(final_engine.graph(), &reference);
}

#[test]
fn stale_cursor_refreshes_from_a_pinned_snapshot() {
    let serving = ServingEngine::with_config(base_graph(), test_config());
    let candidates: Vec<u32> = (1..6).collect();
    let stale_generation = serving.snapshot().generation();

    // Updates publish; the caller's generation cursor is now stale.
    serving.append(GraphDelta::AddEdge {
        upper: 0,
        lower: 95,
    });
    serving.flush();

    // The reader pins the current state, sees its cursor is stale, queries
    // the snapshot anyway and takes the snapshot's generation as its new
    // cursor. The result is byte-identical to a caller that had a fresh
    // cursor all along and passed the check.
    let mut rng = StdRng::seed_from_u64(9);
    let (report, served) = {
        let snap = serving.snapshot();
        assert!(snap.check_generation(stale_generation).is_err());
        let report = snap
            .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
            .unwrap();
        (report, snap.generation())
    };
    assert_eq!(served, 1);
    let mut rng = StdRng::seed_from_u64(9);
    let (fresh_report, fresh_served) = {
        let snap = serving.snapshot();
        snap.check_generation(served).unwrap();
        let report = snap
            .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
            .unwrap();
        (report, snap.generation())
    };
    assert_eq!(fresh_served, served);
    assert_eq!(bits(&report), bits(&fresh_report));

    // Point-query flavour.
    let q = Query::new(Layer::Upper, 1, 2);
    let mut rng = StdRng::seed_from_u64(11);
    let (point, point_served) = {
        let snap = serving.snapshot();
        let report = snap
            .estimate(&q, AlgorithmKind::OneR, 2.0, &mut rng)
            .unwrap();
        (report, snap.generation())
    };
    let mut rng = StdRng::seed_from_u64(11);
    let point_fresh = {
        let snap = serving.snapshot();
        snap.check_generation(point_served).unwrap();
        snap.estimate(&q, AlgorithmKind::OneR, 2.0, &mut rng)
            .unwrap()
    };
    assert_eq!(point.estimate.to_bits(), point_fresh.estimate.to_bits());
    assert_eq!(point.transcript, point_fresh.transcript);
}

#[test]
fn generation_check_consumes_no_randomness_on_rejection() {
    let mut engine = EstimationEngine::from_graph(base_graph());
    let stale = engine.generation();
    let mut batch = UpdateBatch::new();
    batch.add_edge(0, 95);
    engine.apply_updates(&batch).unwrap();

    let candidates: Vec<u32> = (1..6).collect();

    // A stale cursor is rejected with the current generation...
    let mut rng = StdRng::seed_from_u64(3);
    let err = engine
        .check_generation(stale)
        .and_then(|()| engine.estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng))
        .unwrap_err();
    let CneError::StaleGeneration { observed, current } = err else {
        panic!("expected a stale-generation rejection, got {err}");
    };
    assert_eq!((observed, current), (0, 1));

    // ...before any draw: re-issuing at the current generation on the same
    // stream is byte-identical to a first-try success with the same seed.
    engine.check_generation(current).unwrap();
    let retried = engine
        .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let direct = engine
        .estimate_batch(Layer::Upper, 0, &candidates, 2.0, &mut rng)
        .unwrap();
    assert_eq!(bits(&retried), bits(&direct));

    // Point-query flavour.
    let q = Query::new(Layer::Upper, 1, 2);
    let mut rng = StdRng::seed_from_u64(4);
    assert!(engine
        .check_generation(stale)
        .and_then(|()| engine.estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng))
        .is_err());
    let report = engine
        .estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let direct = engine
        .estimate(&q, AlgorithmKind::MultiRSS, 2.0, &mut rng)
        .unwrap();
    assert_eq!(report.estimate.to_bits(), direct.estimate.to_bits());
    assert_eq!(report.transcript, direct.transcript);
}

#[test]
fn rejected_batches_drop_without_diverging_the_buffers() {
    let serving = ServingEngine::with_config(base_graph(), test_config());

    serving.append(GraphDelta::AddEdge {
        upper: 0,
        lower: 95,
    });
    serving.flush();

    // An out-of-range endpoint: the drained batch is transactionally
    // rejected, the publish cursor still advances past it (flush must not
    // hang on poisoned input), and the rejected counter records it.
    serving.append(GraphDelta::AddEdge {
        upper: 10_000,
        lower: 0,
    });
    serving.flush();
    let stats = serving.stats();
    assert_eq!(stats.ingest_lag, 0);
    assert_eq!(stats.rejected, 1);

    // Ingestion keeps going, and both buffers stayed on the valid-stream
    // state: a fresh snapshot equals a cold engine on the expected graph.
    serving.append(GraphDelta::AddEdge {
        upper: 1,
        lower: 95,
    });
    serving.flush();
    let snap = serving.snapshot();
    let mut expected = base_graph();
    let mut batch = UpdateBatch::new();
    batch.add_edge(0, 95).add_edge(1, 95);
    expected.apply_update_batch(&batch).unwrap();
    assert_eq!(snap.graph(), &expected);
    assert_eq!(snap.generation(), 2);
    assert_snapshot_matches_cold(&snap, 77);
    drop(snap);

    // And the final drained engine matches too.
    assert_eq!(serving.into_engine().graph(), &expected);
}

#[test]
fn byte_capped_serving_buffers_stay_identical_to_unbounded() {
    // Contract 1 under cache pressure: a byte-capped serving tier answers
    // byte-identically to an unbounded one through the same stream (caps
    // change eviction, never estimates).
    let capped = ServingEngine::with_config(
        base_graph(),
        ServingConfig {
            cache_budget: Some(48),
            ..test_config()
        },
    );
    let unbounded = ServingEngine::with_config(base_graph(), test_config());
    for k in 0..24u32 {
        let delta = GraphDelta::AddEdge {
            upper: k % N_UPPER as u32,
            lower: (k * 29) % N_LOWER as u32,
        };
        capped.append(delta);
        unbounded.append(delta);
        if k % 6 == 5 {
            capped.flush();
            unbounded.flush();
            let a = capped.snapshot();
            let b = unbounded.snapshot();
            for target in [0u32, 3] {
                assert_eq!(
                    screen(a.engine(), target, u64::from(k)),
                    screen(b.engine(), target, u64::from(k)),
                    "k={k} target={target}"
                );
            }
            assert!(a.store().bytes_used() <= 48);
        }
    }
}
