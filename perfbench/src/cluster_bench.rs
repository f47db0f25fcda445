//! The cluster workloads — `screen-er`, `point-tm` and `ingest-er` —
//! served by a 2-worker `Coordinator` spawned from a snapshot.

use crate::harness::{
    closed_loop, estimate_bits, kept, layer_metrics, record_setups, update_batch, Cluster, MaeSum,
    Replay, Res, RunDir,
};
use crate::report::{latency_ms, Outcome};
use crate::schedule::{build_schedule, EventKind, Pacer};
use crate::stats::{self, Tally};
use crate::trace::Trace;
use crate::workload::{self, BatchRequests, UpdateStream, Workload, EPSILON, LAYER, MAX_EDGES};
use cne::engine::EstimationEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests whose served estimates feed `est_mae` (a fixed prefix).
fn mae_prefix(w: Workload) -> u64 {
    match w {
        Workload::PointTm => 512,
        _ => 32,
    }
}
/// Update batches written after a read-only window to time visibility.
const PROBE_BATCHES: u64 = 60;
/// Update batches traced after a read-only traced pass.
pub const TRACED_PROBE_BATCHES: u64 = 40;
/// Queries compared against the reference after the final flush.
const FINAL_CHECKS: u64 = 4;
/// First request index of the final checks (disjoint from the window's).
const FINAL_BASE: u64 = 1 << 40;
/// `ingest-er` arrival rates. On a 2-core host one query takes 2.6–3.3 ms
/// and one batch's extend + flush 12–14 ms, so this mix keeps the client
/// about a quarter busy; on a shared host that slows by up to 2x that is
/// still about half, so the open loop never builds a backlog and latency
/// reflects service plus queueing behind writes. (At 100 queries and 12
/// batches per second a 1.8x slowdown overloaded it.)
pub const INGEST_QUERY_RATE: f64 = 50.0;
pub const INGEST_UPDATE_RATE: f64 = 6.0;
/// Least traced queries in a traced run.
const MIN_TRACED: u64 = 64;

/// What the untraced window served.
struct Served {
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    fresh: Vec<f64>,
    qps: f64,
    /// Executed operations in order (queries and update batches).
    events: Vec<EventKind>,
    /// Served estimate bits of the kept queries.
    stored: BTreeMap<u64, Vec<u64>>,
    updates_done: u64,
}

fn closed_window(
    cl: &mut Cluster,
    reqs: &BatchRequests,
    window: Duration,
    min: u64,
    seed: u64,
    prefix: u64,
    tally: &mut Tally,
) -> Served {
    let mut stored = BTreeMap::new();
    let w = closed_loop(
        window,
        min,
        tally,
        |i| reqs.request(i),
        |r| cl.serve(r),
        |i, _, bits| {
            if kept(seed, prefix, i) {
                stored.insert(i, bits);
            }
        },
    );
    Served {
        qps: w.qps(),
        events: (0..w.issued as usize).map(EventKind::Query).collect(),
        latencies: w.latencies,
        lateness: w.lateness,
        fresh: Vec::new(),
        stored,
        updates_done: 0,
    }
}

/// `ingest-er`: queries and update batches on fixed schedules, run in
/// due-time order by one client; each batch is flushed before the next
/// event (read-your-writes).
fn open_window(
    cl: &mut Cluster,
    reqs: &BatchRequests,
    updates: &UpdateStream<'_>,
    window: Duration,
    seed: u64,
    prefix: u64,
    tally: &mut Tally,
) -> Served {
    let schedule = build_schedule(window, INGEST_QUERY_RATE, INGEST_UPDATE_RATE);
    let mut s = Served {
        latencies: Vec::new(),
        lateness: Vec::new(),
        fresh: Vec::new(),
        qps: 0.0,
        events: Vec::with_capacity(schedule.len()),
        stored: BTreeMap::new(),
        updates_done: 0,
    };
    let pacer = Pacer::start();
    for ev in &schedule {
        match ev.kind {
            EventKind::Query(n) => {
                let r = reqs.request(n as u64);
                let (out, ex) = pacer.run_at(ev.due, || cl.serve(&r));
                tally.record(out.is_some());
                s.lateness.push(ex.lateness().as_secs_f64());
                if let Some(bits) = out {
                    s.latencies.push(ex.latency().as_secs_f64());
                    if kept(seed, prefix, n as u64) {
                        s.stored.insert(n as u64, bits);
                    }
                }
            }
            EventKind::Update(k) => {
                let deltas = updates.batch(k as u64);
                let (ok, ex) = pacer.run_at(ev.due, || cl.write(&deltas));
                tally.record(ok);
                s.lateness.push(ex.lateness().as_secs_f64());
                if ok {
                    s.fresh.push(ex.latency().as_secs_f64());
                }
                s.updates_done += 1;
            }
        }
        s.events.push(ev.kind);
    }
    s.qps = s.latencies.len() as f64 / pacer.now().as_secs_f64();
    s
}

/// Replays the executed events on an in-process engine built from the
/// cluster's own snapshot, comparing every kept query bit for bit and
/// summing the prefix's absolute error against exact counts; then checks
/// a few fresh queries after the final flush. Mismatches count as failed
/// operations. Returns `est_mae`.
#[allow(clippy::too_many_arguments)]
fn verify(
    cl: &mut Cluster,
    reqs: &BatchRequests,
    updates: &UpdateStream<'_>,
    events: &[EventKind],
    stored: &BTreeMap<u64, Vec<u64>>,
    prefix: u64,
    tally: &mut Tally,
) -> Res<f64> {
    let mut reference = EstimationEngine::from_snapshot(&cl.snapshot);
    let mut mae = MaeSum::new();
    for ev in events {
        match *ev {
            EventKind::Update(k) => {
                reference.apply_updates(&update_batch(&updates.batch(k as u64)))?;
            }
            EventKind::Query(n) => {
                let Some(bits) = stored.get(&(n as u64)) else {
                    continue;
                };
                let r = reqs.request(n as u64);
                let rep = reference.estimate_batch(
                    LAYER,
                    r.target,
                    &r.candidates,
                    EPSILON,
                    &mut StdRng::seed_from_u64(r.seed),
                )?;
                if estimate_bits(&rep.estimates) != *bits {
                    tally.fail_after(1);
                }
                if (n as u64) < prefix {
                    for (&w, &b) in r.candidates.iter().zip(bits) {
                        mae.add(reference.graph(), r.target, w, f64::from_bits(b))?;
                    }
                }
            }
        }
    }
    final_checks(cl, &reference, reqs, tally)?;
    Ok(mae.mean())
}

/// Queries served after the last flush must equal `reference`, which has
/// applied the same update stream.
fn final_checks(
    cl: &mut Cluster,
    reference: &EstimationEngine<'_>,
    reqs: &BatchRequests,
    tally: &mut Tally,
) -> Res<()> {
    for j in 0..FINAL_CHECKS {
        let r = reqs.request(FINAL_BASE + j);
        let served = cl.serve(&r);
        tally.record(served.is_some());
        let rep = reference.estimate_batch(
            LAYER,
            r.target,
            &r.candidates,
            EPSILON,
            &mut StdRng::seed_from_u64(r.seed),
        )?;
        if served.is_some_and(|bits| bits != estimate_bits(&rep.estimates)) {
            tally.fail_after(1);
        }
    }
    let rejected = cl.coordinator.stats().rejected;
    tally.fail_after(rejected);
    Ok(())
}

/// The traffic properties an optimisation would key on, measured on the
/// first requests: degrees on both sides and where the candidates live.
fn traffic_note(g: &bigraph::BipartiteGraph, reqs: &BatchRequests, cl: &Cluster) -> String {
    let (mut targets, mut cands, mut n_cands, mut on_first) = (0.0, 0.0, 0.0, 0.0);
    const N: u64 = 256;
    for i in 0..N {
        let r = reqs.request(i);
        targets += g.degree(LAYER, r.target) as f64;
        for &w in &r.candidates {
            cands += g.degree(LAYER, w) as f64;
            n_cands += 1.0;
            if cl.coordinator.owner_of(w) == 0 {
                on_first += 1.0;
            }
        }
    }
    format!(
        "traffic: mean target degree {:.1}, mean candidate degree {:.1}, {:.3} of candidates on worker 0",
        targets / N as f64,
        cands / n_cands,
        on_first / n_cands
    )
}

pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, run: &RunDir) -> Res<Outcome> {
    let graph = workload::graph(w, seed, MAX_EDGES);
    let reqs = match w {
        Workload::PointTm => BatchRequests::point(&graph, seed),
        _ => BatchRequests::screen(&graph, seed),
    };
    let updates = UpdateStream::new(&graph, seed);
    let prefix = mae_prefix(w);
    let ingest = w == Workload::IngestEr;
    let mut o = Outcome::default();
    o.note(format!(
        "dataset {}: {} x {}, {} edges",
        w.dataset(),
        graph.n_upper(),
        graph.n_lower(),
        graph.n_edges()
    ));

    let (mut cl, setups) = Cluster::spawn_repeated(&graph, run)?;
    o.note(traffic_note(&graph, &reqs, &cl));
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total).collect();
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let mut tally = Tally::default();
    let mut served = if ingest {
        open_window(&mut cl, &reqs, &updates, window, seed, prefix, &mut tally)
    } else {
        closed_window(&mut cl, &reqs, window, prefix, seed, prefix, &mut tally)
    };

    if !traced {
        if !ingest {
            // Read-only window done: time batch visibility on the idle
            // cluster with the same update stream.
            for k in 0..PROBE_BATCHES {
                let deltas = updates.batch(k);
                let t = Instant::now();
                let ok = cl.write(&deltas);
                tally.record(ok);
                if ok {
                    served.fresh.push(t.elapsed().as_secs_f64());
                }
                served.events.push(EventKind::Update(k as usize));
            }
        }
        let rss = cl.worker_rss_mb()?;
        let mae = verify(
            &mut cl,
            &reqs,
            &updates,
            &served.events,
            &served.stored,
            prefix,
            &mut tally,
        )?;
        let (q50, q75, q99) = latency_ms(&served.latencies);
        let (f50, _, f99) = latency_ms(&served.fresh);
        o.note(format!(
            "query_p99 is p{:.1} of {} samples; fresh_p99 is p{:.1} of {} samples",
            q99.pct, q99.samples, f99.pct, f99.samples
        ));
        o.metrics.push("query_p75_ms", q75, "ms");
        o.ungated.push("query_p50_ms", q50, "ms");
        o.ungated.push("query_p99_ms", q99.value, "ms");
        o.ungated.push("qps", served.qps, "1/s");
        o.ungated.push("fresh_p50_ms", f50, "ms");
        o.ungated.push("fresh_p99_ms", f99.value, "ms");
        o.metrics.push("setup_s", stats::median(&setup_s), "s");
        o.metrics.push("peak_rss_mb", rss.iter().sum(), "MB");
        o.metrics.push("est_mae", mae, "count");
    } else {
        let untraced_p50 = stats::median(&served.latencies);
        let mut tr = Trace::new();
        record_setups(&mut tr, &setups);
        let mut replay = Replay::new(&mut tr, &cl)?;
        for k in 0..served.updates_done {
            replay.catch_up(&updates.batch(k))?;
        }
        let start = Instant::now();
        if ingest {
            // The same schedule shape, unpaced: the spans, not the
            // arrival process, are what this pass measures.
            let schedule = build_schedule(window, INGEST_QUERY_RATE, INGEST_UPDATE_RATE);
            for ev in schedule {
                match ev.kind {
                    EventKind::Query(n) => {
                        let ok = replay.query(&mut tr, &mut cl, n as u64, &reqs.request(n as u64));
                        tally.record(ok.is_ok_and(|same| same));
                    }
                    EventKind::Update(k) => {
                        let k = served.updates_done + k as u64;
                        let ok = replay.update(&mut tr, &mut cl, k, &updates.batch(k));
                        tally.record(ok.is_ok());
                    }
                }
            }
        } else {
            let mut i = 0;
            while i < MIN_TRACED || start.elapsed() < window {
                let ok = replay.query(&mut tr, &mut cl, i, &reqs.request(i));
                tally.record(ok.is_ok_and(|same| same));
                i += 1;
            }
            for k in 0..TRACED_PROBE_BATCHES {
                let ok = replay.update(&mut tr, &mut cl, k, &updates.batch(k));
                tally.record(ok.is_ok());
            }
        }
        final_checks(&mut cl, &replay.engine, &reqs, &mut tally)?;
        let rss = cl.worker_rss_mb()?;
        o.metrics = layer_metrics(
            &tr,
            "cluster.coordinator.estimate_batch",
            untraced_p50,
            &replay,
            &served.lateness,
            &rss,
        );
        o.note(format!("{} spans recorded", tr.spans().len()));
        o.trace = Some(tr);
    }
    o.tally = tally;
    o.correct = o.tally.failed == 0;
    Ok(o)
}
