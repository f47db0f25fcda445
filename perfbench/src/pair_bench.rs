//! `pair-bx`: MultiR-DS single-pair queries on degree-imbalanced pairs,
//! served by an in-process `ServingEngine`.

use crate::harness::{
    closed_loop, double_source_layers, kept, record_setups, update_batch, Cluster, MaeSum, Replay,
    Res, RunDir, SETUPS,
};
use crate::report::{latency_ms, Outcome};
use crate::stats::{self, Tally};
use crate::trace::Trace;
use crate::workload::{
    self, BatchRequest, PairRequest, PairRequests, UpdateStream, Workload, EPSILON, LAYER,
    MAX_EDGES,
};
use cne::double_source::MultiRDS;
use cne::engine::EstimationEngine;
use cne::estimate::AlgorithmKind;
use cne::protocol::Query;
use cne::serving::{ServingConfig, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pairs whose served estimates feed `est_mae` (a fixed prefix): single
/// pairs are noisy, so it takes this many for the mean to repeat within a
/// few percent across seeds.
const MAE_PREFIX: u64 = 2048;
/// Pairs at the start of the prefix that are re-run for the correctness
/// check (with a seed-chosen sample of the rest).
const CHECK_PREFIX: u64 = 64;
/// Update batches written after the window to time visibility.
const PROBE_BATCHES: u64 = 60;
/// Pairs compared against an independent engine after the final flush.
const FINAL_CHECKS: u64 = 16;
const FINAL_BASE: u64 = 1 << 40;
/// Least traced pairs in a traced run.
const MIN_TRACED: u64 = 64;

fn query(p: &PairRequest) -> Query {
    Query::new(LAYER, p.u, p.w)
}

fn serve(serving: &ServingEngine, p: &PairRequest) -> Option<u64> {
    serving
        .estimate(
            &query(p),
            AlgorithmKind::MultiRDS,
            EPSILON,
            &mut StdRng::seed_from_u64(p.seed),
        )
        .ok()
        .map(|rep| rep.estimate.to_bits())
}

/// MultiR-DS on `p` directly on an engine (no serving tier).
fn direct(engine: &EstimationEngine<'_>, p: &PairRequest) -> Res<u64> {
    let rep = engine.estimate_with(
        &MultiRDS::default(),
        &query(p),
        EPSILON,
        &mut StdRng::seed_from_u64(p.seed),
    )?;
    Ok(rep.estimate.to_bits())
}

pub fn run(seed: u64, seconds: f64, traced: bool, run: &RunDir) -> Res<Outcome> {
    let w = Workload::PairBx;
    let graph = workload::graph(w, seed, MAX_EDGES);
    let pairs = PairRequests::new(&graph, seed);
    let updates = UpdateStream::new(&graph, seed);
    let mut o = Outcome::default();
    o.note(format!(
        "dataset {}: {} x {}, {} edges",
        w.dataset(),
        graph.n_upper(),
        graph.n_lower(),
        graph.n_edges()
    ));

    let (du, dw) = (0..256).fold((0.0, 0.0), |(a, b), i| {
        let p = pairs.request(i);
        (
            a + graph.degree(LAYER, p.u) as f64,
            b + graph.degree(LAYER, p.w) as f64,
        )
    });
    o.note(format!(
        "traffic: mean high-degree user degree {:.1}, mean median-degree user degree {:.1}",
        du / 256.0,
        dw / 256.0
    ));

    // Set-up: serving-tier construction plus warming the query layer.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut serving = None;
    for _ in 0..SETUPS {
        drop(serving.take());
        let g = graph.clone();
        let t = Instant::now();
        let config = ServingConfig {
            warm_layer: Some(LAYER),
            ..ServingConfig::default()
        };
        serving = Some(ServingEngine::with_config(g, config));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let serving = serving.expect("at least one set-up");

    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let mut tally = Tally::default();
    let mut stored = BTreeMap::new();
    let win = closed_loop(
        window,
        MAE_PREFIX,
        &mut tally,
        |i| pairs.request(i),
        |p| serve(&serving, p),
        |i, _, bits| {
            if kept(seed, MAE_PREFIX, i) {
                stored.insert(i, bits);
            }
        },
    );

    if !traced {
        // Kept pairs against the engine under the pinned snapshot.
        let mut mae = MaeSum::new();
        {
            let snap = serving.snapshot();
            for (&i, &bits) in &stored {
                let p = pairs.request(i);
                if kept(seed, CHECK_PREFIX, i) && direct(snap.engine(), &p)? != bits {
                    tally.fail_after(1);
                }
                if i < MAE_PREFIX {
                    mae.add(snap.graph(), p.u, p.w, f64::from_bits(bits))?;
                }
            }
        }
        // Visibility of update batches through the serving tier.
        let mut fresh = Vec::with_capacity(PROBE_BATCHES as usize);
        let mut expected = graph.clone();
        for k in 0..PROBE_BATCHES {
            let deltas = updates.batch(k);
            let t = Instant::now();
            serving.extend(deltas.iter().copied());
            serving.flush();
            fresh.push(t.elapsed().as_secs_f64());
            tally.record(true);
            expected.apply_update_batch(&update_batch(&deltas))?;
        }
        // After the final flush the tier must hold exactly the expected
        // graph and answer like an engine built from it independently.
        if serving.snapshot().graph() != &expected {
            tally.fail_after(1);
        }
        let reference = EstimationEngine::from_graph(expected);
        for j in 0..FINAL_CHECKS {
            let p = pairs.request(FINAL_BASE + j);
            let served = serve(&serving, &p);
            tally.record(served.is_some());
            if served.is_some_and(|bits| bits != direct(&reference, &p).unwrap_or(!bits)) {
                tally.fail_after(1);
            }
        }
        tally.fail_after(serving.stats().rejected);

        let (q50, q75, q99) = latency_ms(&win.latencies);
        let (f50, _, f99) = latency_ms(&fresh);
        o.note(format!(
            "query_p99 is p{:.1} of {} samples; fresh_p99 is p{:.1} of {} samples",
            q99.pct, q99.samples, f99.pct, f99.samples
        ));
        o.metrics.push("query_p75_ms", q75, "ms");
        o.ungated.push("query_p50_ms", q50, "ms");
        o.ungated.push("query_p99_ms", q99.value, "ms");
        o.ungated.push("qps", win.qps(), "1/s");
        o.ungated.push("fresh_p50_ms", f50, "ms");
        o.ungated.push("fresh_p99_ms", f99.value, "ms");
        o.metrics.push("setup_s", stats::median(&setup_s), "s");
        o.metrics
            .push("peak_rss_mb", crate::procfs::self_vm_hwm_mb()?, "MB");
        o.metrics.push("est_mae", mae.mean(), "count");
    } else {
        let untraced_p50 = stats::median(&win.latencies);
        let mut tr = Trace::new();
        // The front door, then the pin and the double-source layers.
        let start = Instant::now();
        let mut i = 0;
        while i < MIN_TRACED || start.elapsed() < window / 2 {
            let p = pairs.request(i);
            let t0 = Instant::now();
            let served = serve(&serving, &p);
            let t1 = Instant::now();
            let root = Some(tr.record("cne.serving.estimate", None, i, t0, t1, 0));
            let (pin, _) = tr.span("cne.serving.pin", root, i, || serving.snapshot());
            let replayed = double_source_layers(&mut tr, pin.engine(), root, i, p.u, p.w, p.seed)?;
            tally.record(served == Some(replayed.to_bits()));
            i += 1;
        }
        // The batch, wire, coordinator and update layers, probed with the
        // same pairs as one-candidate batch queries through a 2-worker
        // cluster over the same graph.
        let (mut cl, setups) = Cluster::spawn_repeated(&graph, run)?;
        record_setups(&mut tr, &setups);
        let mut replay = Replay::new(&mut tr, &cl)?;
        replay.pair_layers = false;
        let start = Instant::now();
        let mut j = 0;
        while j < MIN_TRACED || start.elapsed() < window / 2 {
            let p = pairs.request(j);
            let r = BatchRequest {
                target: p.u,
                candidates: vec![p.w],
                seed: p.seed,
            };
            let ok = replay.query(&mut tr, &mut cl, j, &r);
            tally.record(ok.is_ok_and(|same| same));
            j += 1;
        }
        for k in 0..crate::cluster_bench::TRACED_PROBE_BATCHES {
            let ok = replay.update(&mut tr, &mut cl, k, &updates.batch(k));
            tally.record(ok.is_ok());
        }
        tally.fail_after(cl.coordinator.stats().rejected);
        let rss = cl.worker_rss_mb()?;
        o.metrics = crate::harness::layer_metrics(
            &tr,
            "cne.serving.estimate",
            untraced_p50,
            &replay,
            &win.lateness,
            &rss,
        );
        o.note(format!("{} spans recorded", tr.spans().len()));
        o.trace = Some(tr);
    }
    o.tally = tally;
    o.correct = o.tally.failed == 0;
    Ok(o)
}
