//! Private recommendations over a *live* graph: edges arrive and retire
//! between query rounds, and the engine keeps serving.
//!
//! The loop a real curator runs:
//!
//! 1. producers append edge events to an [`UpdateLog`] while queries run;
//! 2. between rounds the writer drains a bounded batch and calls
//!    [`EstimationEngine::apply_updates`] — the CSR is spliced in place and
//!    only the touched vertices' cached bitmaps are invalidated;
//! 3. readers snapshot [`EstimationEngine::generation`] when they derive a
//!    candidate set and guard each screen with
//!    [`EstimationEngine::check_generation`] before
//!    [`EstimationEngine::estimate_batch`], so a candidate list computed
//!    against a superseded graph is rejected instead of silently mixed with
//!    fresh state.
//!
//! The adjacency cache is byte-capped: on graphs too large to cache every
//! dense vertex, the store stays within budget (LRU-evicting cold entries
//! under pressure) while every answer remains byte-identical to an
//! unbounded engine.
//!
//! Run with `cargo run --example streaming_recommendation`.

use bigraph::{GraphDelta, Layer, UpdateLog};
use cne::{CneError, EstimationEngine};
use datasets::{Catalog, DatasetCode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EPSILON: f64 = 2.0;
const ROUNDS: usize = 4;
const EVENTS_PER_ROUND: usize = 600;

fn main() {
    // A synthetic Movielens-like user–movie graph as the starting state.
    let catalog = Catalog::scaled(50_000);
    let dataset = catalog
        .generate(DatasetCode::ML, 7)
        .expect("ML profile exists");
    let n_upper = dataset.graph.n_upper();
    let n_lower = dataset.graph.n_lower();
    println!(
        "Dataset {}: |U|={}, |L|={}, |E|={}",
        dataset.code,
        n_upper,
        n_lower,
        dataset.graph.n_edges()
    );

    // The engine owns the graph (no copy-on-write when updates land) and
    // caps its adjacency cache at 256 KiB.
    let mut engine = EstimationEngine::from_graph_with_cache_budget(dataset.graph, 256 * 1024);
    engine.warm(Layer::Upper);
    println!(
        "Warm cache: {} bitmaps, {} / {} bytes",
        engine.store().cached_count(Layer::Upper),
        engine.store().bytes_used(),
        engine.store().byte_cap().expect("capped engine")
    );

    let target = (0..n_upper as u32)
        .max_by_key(|&u| engine.graph().degree(Layer::Upper, u))
        .expect("non-empty layer");

    let log = UpdateLog::new();
    let mut traffic = ChaCha8Rng::seed_from_u64(404);
    let mut query_rng = ChaCha8Rng::seed_from_u64(99);

    for round in 0..ROUNDS {
        // --- Queries: derive candidates at the current generation. -------
        let generation = engine.generation();
        let candidates: Vec<u32> = (0..n_upper as u32)
            .filter(|&u| u != target && engine.graph().degree(Layer::Upper, u) > 0)
            .take(8)
            .collect();
        engine
            .check_generation(generation)
            .expect("snapshot is current");
        let report = engine
            .estimate_batch(Layer::Upper, target, &candidates, EPSILON, &mut query_rng)
            .expect("valid batch");
        let top = report.ranked();
        println!(
            "\nRound {round} (generation {generation}, epoch {}): top matches for u{target}",
            engine.graph().epoch()
        );
        for entry in top.iter().take(3) {
            println!(
                "  u{:<6} estimated C2 = {:.2}",
                entry.candidate, entry.estimate
            );
        }

        // --- Ingestion: traffic arrives while the round was served. ------
        for _ in 0..EVENTS_PER_ROUND {
            let upper = traffic.gen_range(0..n_upper as u32);
            let lower = traffic.gen_range(0..n_lower as u32);
            // 3:1 mix of new edges vs retirements, like a growing catalog.
            if traffic.gen_range(0..4) < 3 {
                log.append(GraphDelta::AddEdge { upper, lower });
            } else {
                log.append(GraphDelta::RemoveEdge { upper, lower });
            }
        }

        // --- Apply: drain the log in bounded batches between rounds. -----
        let cached_before = engine.store().cached_count(Layer::Upper);
        let mut touched = 0usize;
        while let Some(batch) = log.drain_batch(256) {
            let applied = engine.apply_updates(&batch).expect("valid stream");
            touched += applied.touched_upper.len();
        }
        println!(
            "  ingested {EVENTS_PER_ROUND} events -> generation {}, {} upper vertices invalidated \
             ({} of {} bitmaps still warm), cache {} / {} bytes",
            engine.generation(),
            touched,
            engine.store().cached_count(Layer::Upper),
            cached_before,
            engine.store().bytes_used(),
            engine.store().byte_cap().expect("capped engine")
        );

        // A reader that kept the old snapshot is told, not misled.
        // The check runs before any draw, so a rejection costs no randomness.
        let stale = engine.check_generation(generation).and_then(|()| {
            engine.estimate_batch(Layer::Upper, target, &candidates, EPSILON, &mut query_rng)
        });
        match stale {
            Err(CneError::StaleGeneration { observed, current }) => println!(
                "  stale reader rejected: snapshot {observed} vs current {current} (re-derive and retry)"
            ),
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => println!("  (round produced no effective updates; snapshot still valid)"),
        }
    }

    println!(
        "\nDone: {} events ingested across {ROUNDS} rounds.",
        log.drained()
    );
}
