//! Pieces every workload shares: the private run directory, the
//! closed-loop client, setup timing, and the traced replay of one batch
//! query through each layer's public functions.

use crate::report::Metrics;
use crate::stats::{self, Tally};
use crate::trace::{Span, Trace};
use crate::workload::{BatchRequest, EPSILON, LAYER};
use bigraph::{BipartiteGraph, GraphDelta, UpdateBatch, VertexId};
use cluster::wire::{Message, WireRound1};
use cluster::{ClusterConfig, Coordinator};
use cne::batch::{batch_round2, validate_batch_query, BatchEstimate, BatchSingleSource};
use cne::double_source::MultiRDS;
use cne::engine::EstimationEngine;
use cne::optimizer::optimize_double_source;
use cne::protocol::Query;
use cne::serving::{ServingConfig, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Shard workers per cluster: one per core of the reference host.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Beyond a workload's fixed prefix, one request in this many (chosen by
/// the seed) is checked against an in-process engine.
const SAMPLE_EVERY: u64 = 16;

/// Whether request `n` is kept for the correctness check: the first
/// `prefix` requests, plus a seed-chosen sample of the rest.
pub fn kept(seed: u64, prefix: u64, n: u64) -> bool {
    n < prefix
        || cne::batch::user_stream_seed(seed ^ 0x4348_4543_4B00, n).is_multiple_of(SAMPLE_EVERY)
}

/// A private directory for one run's sockets, snapshots and shard files,
/// removed on every exit path (drop runs during unwinding too).
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(path: &Path) -> Res<Self> {
        if path.exists() {
            return Err(format!("run directory {} already exists", path.display()).into());
        }
        std::fs::create_dir_all(path)?;
        Ok(Self {
            path: path.to_path_buf(),
        })
    }

    /// A fresh subdirectory.
    pub fn sub(&self, name: &str) -> Res<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What a closed-loop window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-request latency, seconds.
    pub latencies: Vec<f64>,
    /// Per-request client gap (previous completion to this issue), seconds.
    pub lateness: Vec<f64>,
    pub elapsed: f64,
    pub issued: u64,
}

impl Window {
    /// Completed requests per second.
    pub fn qps(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed
    }
}

/// One client issuing request `0, 1, 2, …` back to back until `window`
/// has passed and at least `min_requests` were issued. `prepare` builds a
/// request outside the timed span; `serve` runs it (`None` = failed);
/// `done` sees each success after its latency was taken.
pub fn closed_loop<R, T>(
    window: Duration,
    min_requests: u64,
    tally: &mut Tally,
    prepare: impl Fn(u64) -> R,
    mut serve: impl FnMut(&R) -> Option<T>,
    mut done: impl FnMut(u64, &R, T),
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut last_end = start;
    while w.issued < min_requests || start.elapsed() < window {
        let i = w.issued;
        let request = prepare(i);
        let t0 = Instant::now();
        let out = serve(&request);
        let t1 = Instant::now();
        w.lateness.push((t0 - last_end).as_secs_f64());
        last_end = t1;
        w.issued += 1;
        tally.record(out.is_some());
        if let Some(out) = out {
            w.latencies.push((t1 - t0).as_secs_f64());
            done(i, &request, out);
        }
    }
    w.elapsed = start.elapsed().as_secs_f64();
    w
}

pub fn update_batch(deltas: &[GraphDelta]) -> UpdateBatch {
    let mut b = UpdateBatch::with_capacity(deltas.len());
    for &d in deltas {
        b.push(d);
    }
    b
}

pub fn estimate_bits(estimates: &[BatchEstimate]) -> Vec<u64> {
    estimates.iter().map(|e| e.estimate.to_bits()).collect()
}

/// Mean absolute error of served estimates against exact counts on `g`.
pub struct MaeSum {
    sum: f64,
    n: u64,
}

impl MaeSum {
    pub fn new() -> Self {
        Self { sum: 0.0, n: 0 }
    }

    pub fn add(&mut self, g: &BipartiteGraph, u: VertexId, w: VertexId, estimate: f64) -> Res<()> {
        let exact = bigraph::common_neighbors::count(g, LAYER, u, w)? as f64;
        self.sum += (estimate - exact).abs();
        self.n += 1;
        Ok(())
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }
}

/// How long each step of one cluster set-up took, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub capture: f64,
    pub write: f64,
    pub spawn: f64,
    pub total: f64,
}

/// A running cluster and what it was spawned from.
pub struct Cluster {
    pub coordinator: Coordinator,
    pub dir: PathBuf,
    pub snapshot: bigraph::GraphSnapshot,
    pub workers: Vec<u32>,
}

impl Cluster {
    /// From the graph in memory to a servable cluster: capture the
    /// snapshot, write it, and spawn `WORKERS` shard workers from it into
    /// `dir` (which must be fresh, so the spawn is always cold). Workers
    /// are this executable, re-run in worker mode.
    pub fn spawn(graph: &BipartiteGraph, dir: PathBuf) -> Res<(Self, SetupTimes)> {
        let exe = std::env::current_exe()?;
        let before = crate::procfs::child_pids();
        let t0 = Instant::now();
        let snapshot = bigraph::GraphSnapshot::capture(graph, 0);
        let t1 = Instant::now();
        snapshot.write_to(&dir.join("source.snap"))?;
        let t2 = Instant::now();
        let coordinator = Coordinator::spawn_program_from_snapshot(
            &snapshot,
            LAYER,
            WORKERS,
            &dir,
            ClusterConfig::default(),
            &exe,
        )?;
        let t3 = Instant::now();
        let workers = crate::procfs::child_pids()
            .into_iter()
            .filter(|p| !before.contains(p))
            .collect();
        let times = SetupTimes {
            capture: (t1 - t0).as_secs_f64(),
            write: (t2 - t1).as_secs_f64(),
            spawn: (t3 - t2).as_secs_f64(),
            total: (t3 - t0).as_secs_f64(),
        };
        Ok((
            Self {
                coordinator,
                dir,
                snapshot,
                workers,
            },
            times,
        ))
    }

    /// `SETUPS` cold set-ups, each into its own fresh directory; all but
    /// the last cluster are torn down again. Returns the survivor and
    /// every set-up's times.
    pub fn spawn_repeated(graph: &BipartiteGraph, run: &RunDir) -> Res<(Self, Vec<SetupTimes>)> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last: Option<Self> = None;
        for i in 0..SETUPS {
            if let Some(prev) = last.take() {
                let dir = prev.dir.clone();
                drop(prev);
                std::fs::remove_dir_all(dir)?;
            }
            let (cluster, t) = Self::spawn(graph, run.sub(&format!("setup{i}"))?)?;
            times.push(t);
            last = Some(cluster);
        }
        Ok((last.expect("at least one set-up"), times))
    }

    /// Peak resident memory of each worker, MiB.
    pub fn worker_rss_mb(&self) -> Res<Vec<f64>> {
        if self.workers.len() != WORKERS {
            return Err(format!("found {} worker processes", self.workers.len()).into());
        }
        Ok(self
            .workers
            .iter()
            .map(|&p| crate::procfs::vm_hwm_mb(p))
            .collect::<std::io::Result<_>>()?)
    }

    pub fn serve(&mut self, r: &BatchRequest) -> Option<Vec<u64>> {
        self.coordinator
            .estimate_batch(LAYER, r.target, &r.candidates, EPSILON, r.seed)
            .ok()
            .map(|rep| estimate_bits(&rep.estimates))
    }

    /// Appends one batch and waits until it is visible cluster-wide.
    pub fn write(&mut self, deltas: &[GraphDelta]) -> bool {
        self.coordinator.extend(deltas.iter().copied());
        self.coordinator.flush().is_ok()
    }
}

/// Records set-up times as spans (request = set-up index).
pub fn record_setups(tr: &mut Trace, times: &[SetupTimes]) {
    for (i, t) in times.iter().enumerate() {
        let at = Instant::now();
        let secs = |s: f64| at + Duration::from_secs_f64(s);
        let i = i as u64;
        tr.record("bigraph.snapshot.capture", None, i, at, secs(t.capture), 0);
        tr.record("bigraph.snapshot.write", None, i, at, secs(t.write), 0);
        tr.record("cluster.coordinator.spawn", None, i, at, secs(t.spawn), 0);
    }
}

/// MultiR-DS estimates every degree on the query layer, so on a large
/// layer it costs far more than the batch query it rides along with; a
/// sample keeps it from crowding the traced pass.
const DOUBLE_SOURCE_EVERY: u64 = 8;

/// The in-process mirror of a cluster: one serving engine per shard,
/// bootstrapped from the cluster's own shard files exactly as a worker
/// does, plus a full-graph replica (a bare graph and an engine) for the
/// update-path layers and the double-source estimator.
pub struct Replay {
    pub shards: Vec<ServingEngine>,
    pub ranges: Vec<Range<u32>>,
    cuts: Vec<u32>,
    pub graph: BipartiteGraph,
    pub engine: EstimationEngine<'static>,
    pub candidates: u64,
    pub cache_hits: u64,
    pub ingest_lag_max: u64,
    /// Also run the (target, first candidate) pair of every
    /// `DOUBLE_SOURCE_EVERY`-th query through the double-source layers.
    pub pair_layers: bool,
}

impl Replay {
    pub fn new(tr: &mut Trace, cluster: &Cluster) -> Res<Self> {
        let ranges = cluster.coordinator.ranges().to_vec();
        let mut shards = Vec::with_capacity(ranges.len());
        for (i, range) in ranges.iter().enumerate() {
            let path = cluster.dir.join(format!("shard-{i}.snap"));
            let (snap, _) = tr.span("bigraph.snapshot.read", None, i as u64, || {
                bigraph::read_snapshot(&path)
            });
            let restricted = snap?.restrict_to_shard(LAYER, range.start, range.end);
            shards.push(ServingEngine::bootstrap_from_snapshot(
                &restricted,
                ServingConfig::default(),
            ));
        }
        Ok(Self {
            cuts: ranges[1..].iter().map(|r| r.start).collect(),
            shards,
            ranges,
            graph: cluster.snapshot.graph().clone(),
            engine: EstimationEngine::from_snapshot(&cluster.snapshot),
            candidates: 0,
            cache_hits: 0,
            ingest_lag_max: 0,
            pair_layers: true,
        })
    }

    /// The shard owning `v`, as `Coordinator::owner_of` decides it.
    fn owner_of(&self, v: VertexId) -> usize {
        self.cuts.partition_point(|&c| c <= v)
    }

    /// Routes `batch` to the shard engines as the coordinator partitions
    /// it, and waits until each has published its part.
    fn feed_shards(&self, batch: &UpdateBatch) {
        let parts = batch.partition_by_ranges(LAYER, &self.ranges);
        for (shard, part) in self.shards.iter().zip(parts) {
            shard.extend(part.deltas().iter().copied());
        }
        for shard in &self.shards {
            shard.flush();
        }
    }

    /// Brings the replay to the cluster's state after `deltas` (untraced).
    pub fn catch_up(&mut self, deltas: &[GraphDelta]) -> Res<()> {
        let batch = update_batch(deltas);
        self.graph.apply_update_batch(&batch)?;
        self.engine.apply_updates(&batch)?;
        self.feed_shards(&batch);
        Ok(())
    }

    /// One traced batch query: served through the coordinator (root
    /// span), then replayed in-process layer by layer. Returns whether
    /// the served report matched the replay bit for bit.
    pub fn query(
        &mut self,
        tr: &mut Trace,
        cluster: &mut Cluster,
        id: u64,
        r: &BatchRequest,
    ) -> Res<bool> {
        let t0 = Instant::now();
        let served =
            cluster
                .coordinator
                .estimate_batch(LAYER, r.target, &r.candidates, EPSILON, r.seed);
        let t1 = Instant::now();
        let root = Some(tr.record("cluster.coordinator.estimate_batch", None, id, t0, t1, 0));
        let served = served?;

        let algo = BatchSingleSource::default();
        let pins: Vec<_> = self
            .shards
            .iter()
            .map(|s| tr.span("cne.serving.pin", root, id, || s.snapshot()).0)
            .collect();
        let owner = self.owner_of(r.target);
        let (valid, _) = tr.span("cne.batch.validate", root, id, || {
            validate_batch_query(pins[owner].graph(), LAYER, r.target, &r.candidates)
        });
        valid?;
        let (round1, _) = tr.span("cne.batch.round1", root, id, || {
            algo.round1_in(
                pins[owner].engine().env(),
                LAYER,
                r.target,
                &r.candidates,
                EPSILON,
                &mut StdRng::seed_from_u64(r.seed),
            )
        });
        let round1 = round1?;

        let mut groups: BTreeMap<usize, (Vec<VertexId>, Vec<usize>)> = BTreeMap::new();
        for (at, &w) in r.candidates.iter().enumerate() {
            let owner = self.owner_of(w);
            let g = groups.entry(owner).or_default();
            g.0.push(w);
            g.1.push(at);
            self.candidates += 1;
            if pins[owner].engine().store().cached(LAYER, w).is_some() {
                self.cache_hits += 1;
            }
        }
        let mut slots = vec![None; r.candidates.len()];
        let mut responses = Vec::with_capacity(groups.len());
        for (&worker, (slice, positions)) in &groups {
            let (est, span) = tr.span("cne.batch.round2", root, id, || {
                batch_round2(pins[worker].engine().env(), LAYER, slice, &round1)
            });
            tr.set_value(span, slice.len() as u64);
            let est = est?;
            for (&at, e) in positions.iter().zip(&est) {
                slots[at] = Some(*e);
            }
            responses.push((worker, est));
        }
        let estimates: Vec<BatchEstimate> = slots
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("unfilled slot")?;
        let (report, _) = tr.span("cne.batch.assemble", root, id, || {
            algo.assemble_report(LAYER, r.target, &round1, estimates)
        });
        let report = report?;
        drop(pins);

        // The frames this query put on the wire, encoded and decoded.
        let wire1 = WireRound1 {
            epsilon: round1.epsilon,
            flip_probability: round1.flip_probability,
            eps2: round1.eps2.value(),
            rr_epsilon: round1.noisy_target.epsilon,
            base_seed: round1.base_seed,
            universe: round1.noisy_target.set().universe() as u64,
            words: round1.noisy_target.set().as_words().to_vec(),
        };
        let mut frames = vec![
            Message::Round1Req {
                layer: LAYER,
                target: r.target,
                epsilon: EPSILON,
                eps1_fraction: algo.epsilon1_fraction,
                seed: r.seed,
                candidates: r.candidates.clone(),
            },
            Message::Round1Resp(wire1.clone()),
        ];
        for (worker, est) in &responses {
            frames.push(Message::Round2Req {
                layer: LAYER,
                owner: r.target,
                round1: wire1.clone(),
                candidates: groups[worker].0.clone(),
            });
            frames.push(Message::Round2Resp {
                estimates: est
                    .iter()
                    .map(|e| (e.candidate, e.estimate.to_bits()))
                    .collect(),
            });
        }
        let (bytes, enc) = tr.span("cluster.wire.encode", root, id, || {
            frames
                .iter()
                .map(Message::to_frame_bytes)
                .collect::<Vec<_>>()
        });
        tr.set_value(enc, bytes.iter().map(|b| b.len() as u64).sum());
        let (decoded, _) = tr.span("cluster.wire.decode", root, id, || {
            bytes
                .iter()
                .map(|b| Message::read_from(&mut b.as_slice()))
                .collect::<std::io::Result<Vec<_>>>()
        });
        if decoded? != frames {
            return Err("wire round trip changed a frame".into());
        }

        if self.pair_layers && id.is_multiple_of(DOUBLE_SOURCE_EVERY) {
            double_source_layers(
                tr,
                &self.engine,
                root,
                id,
                r.target,
                r.candidates[0],
                r.seed,
            )?;
        }

        Ok(
            estimate_bits(&served.estimates) == estimate_bits(&report.estimates)
                && served.communication_bytes() == report.communication_bytes(),
        )
    }

    /// One traced update batch: appended and replicated (pump), made
    /// visible (flush), and spliced into the replica graph and engine.
    pub fn update(
        &mut self,
        tr: &mut Trace,
        cluster: &mut Cluster,
        id: u64,
        deltas: &[GraphDelta],
    ) -> Res<()> {
        let c = &mut cluster.coordinator;
        c.extend(deltas.iter().copied());
        let (pumped, _) = tr.span(
            "cluster.coordinator.pump",
            None,
            id,
            || -> cluster::Result<()> {
                while c.pump()? > 0 {}
                Ok(())
            },
        );
        pumped?;
        self.ingest_lag_max = self.ingest_lag_max.max(c.stats().max_ingest_lag);
        tr.span("cluster.coordinator.flush", None, id, || c.flush())
            .0?;
        let batch = update_batch(deltas);
        tr.span("bigraph.graph.splice", None, id, || {
            self.graph.apply_update_batch(&batch)
        })
        .0?;
        tr.span("cne.engine.apply_updates", None, id, || {
            self.engine.apply_updates(&batch)
        })
        .0?;
        self.feed_shards(&batch);
        Ok(())
    }

    /// Adjacency-cache bytes across the shard engines, MiB.
    pub fn cache_mb(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.snapshot().engine().store().bytes_used())
            .sum::<usize>() as f64
            / (1024.0 * 1024.0)
    }
}

/// MultiR-DS on `(u, w)` through `engine`, then the (ε₁, α) optimiser on
/// the degrees it estimated. The double-source span carries the
/// transcript size in bytes. Returns the estimate.
pub fn double_source_layers(
    tr: &mut Trace,
    engine: &EstimationEngine<'_>,
    parent: Option<usize>,
    id: u64,
    u: VertexId,
    w: VertexId,
    seed: u64,
) -> Res<f64> {
    let algo = MultiRDS::default();
    let (report, span) = tr.span("cne.double_source.query", parent, id, || {
        engine.estimate_with(
            &algo,
            &Query::new(LAYER, u, w),
            EPSILON,
            &mut StdRng::seed_from_u64(seed),
        )
    });
    let report = report?;
    tr.set_value(span, report.transcript.total_bytes() as u64);
    let p = report.parameters;
    let (du, dw) = (p.degree_u.unwrap_or(1.0), p.degree_w.unwrap_or(1.0));
    let rest = EPSILON * (1.0 - algo.epsilon0_fraction);
    tr.span("cne.optimizer.alloc", parent, id, || {
        optimize_double_source(du, dw, rest)
    });
    Ok(report.estimate)
}

fn mean_of(tr: &Trace, name: &str) -> f64 {
    stats::mean(&tr.seconds(name))
}

/// Per-layer metrics of a traced run, from its spans. `served` names the
/// front door's root span; `untraced_p50_s` is the same front door's
/// median latency in the run's untraced window.
pub fn layer_metrics(
    tr: &Trace,
    served: &str,
    untraced_p50_s: f64,
    replay: &Replay,
    late: &[f64],
    worker_rss_mb: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    // The critical path of each traced cluster query: round 1, the slowest
    // owner's round-2 slice, assembly, and the codec work.
    let mut per_request: BTreeMap<u64, [f64; 5]> = BTreeMap::new();
    let mut fanout = 0.0;
    for s in tr.spans() {
        let slot = match s.name {
            "cne.batch.round1" => 0,
            "cne.batch.round2" => 1,
            "cne.batch.assemble" => 2,
            "cluster.wire.encode" => 3,
            "cluster.wire.decode" => 4,
            _ => continue,
        };
        let e = per_request.entry(s.request).or_default();
        let d = s.duration().as_secs_f64();
        if slot == 1 {
            e[1] = e[1].max(d);
            fanout += 1.0;
        } else {
            e[slot] += d;
        }
    }
    let n = per_request.len().max(1) as f64;
    let slowest_round2 = per_request.values().map(|e| e[1]).sum::<f64>() / n;
    let critical = per_request
        .values()
        .map(|e| e.iter().sum::<f64>())
        .sum::<f64>()
        / n;
    let cluster_query = mean_of(tr, "cluster.coordinator.estimate_batch");
    let round2: Vec<&Span> = tr.named("cne.batch.round2").collect();
    let round2_ns = round2
        .iter()
        .map(|s| s.duration().as_nanos() as f64)
        .sum::<f64>()
        / round2.iter().map(|s| s.value as f64).sum::<f64>();
    let traced_p50 = stats::median(&tr.seconds(served));
    let median_of = |name: &str| stats::median(&tr.seconds(name));
    let mean_value =
        |name: &str| stats::mean(&tr.named(name).map(|s| s.value as f64).collect::<Vec<_>>());

    m.push(
        "cne.batch.round1_ms",
        mean_of(tr, "cne.batch.round1") * 1e3,
        "ms",
    );
    m.push("cne.batch.round2_ms", slowest_round2 * 1e3, "ms");
    m.push("cne.batch.round2_ns_per_candidate", round2_ns, "ns");
    m.push(
        "cne.batch.validate_us",
        mean_of(tr, "cne.batch.validate") * 1e6,
        "us",
    );
    m.push(
        "cne.batch.assemble_us",
        mean_of(tr, "cne.batch.assemble") * 1e6,
        "us",
    );
    m.push(
        "cne.engine.cache_hit_ratio",
        replay.cache_hits as f64 / replay.candidates.max(1) as f64,
        "ratio",
    );
    m.push("cne.engine.cache_mb", replay.cache_mb(), "MB");
    m.push(
        "cne.engine.apply_updates_ms",
        mean_of(tr, "cne.engine.apply_updates") * 1e3,
        "ms",
    );
    m.push(
        "bigraph.graph.splice_ms",
        mean_of(tr, "bigraph.graph.splice") * 1e3,
        "ms",
    );
    m.push(
        "cne.serving.pin_us",
        mean_of(tr, "cne.serving.pin") * 1e6,
        "us",
    );
    m.push(
        "cne.double_source.query_ms",
        mean_of(tr, "cne.double_source.query") * 1e3,
        "ms",
    );
    m.push(
        "cne.optimizer.alloc_us",
        mean_of(tr, "cne.optimizer.alloc") * 1e6,
        "us",
    );
    m.push(
        "cne.double_source.transcript_kb",
        mean_value("cne.double_source.query") / 1024.0,
        "KiB",
    );
    m.push(
        "cluster.wire.bytes_per_query",
        mean_value("cluster.wire.encode"),
        "bytes",
    );
    m.push(
        "cluster.wire.encode_us",
        mean_of(tr, "cluster.wire.encode") * 1e6,
        "us",
    );
    m.push(
        "cluster.wire.decode_us",
        mean_of(tr, "cluster.wire.decode") * 1e6,
        "us",
    );
    m.push("cluster.coordinator.query_ms", cluster_query * 1e3, "ms");
    m.push(
        "cluster.coordinator.residual_ms",
        (cluster_query - critical) * 1e3,
        "ms",
    );
    m.push("cluster.coordinator.fanout", fanout / n, "workers");
    m.push(
        "cluster.coordinator.pump_ms",
        mean_of(tr, "cluster.coordinator.pump") * 1e3,
        "ms",
    );
    m.push(
        "cluster.coordinator.flush_ms",
        mean_of(tr, "cluster.coordinator.flush") * 1e3,
        "ms",
    );
    m.push(
        "cluster.worker.ingest_lag_max",
        replay.ingest_lag_max as f64,
        "deltas",
    );
    m.push(
        "cluster.coordinator.spawn_s",
        median_of("cluster.coordinator.spawn"),
        "s",
    );
    m.push(
        "bigraph.snapshot.capture_ms",
        median_of("bigraph.snapshot.capture") * 1e3,
        "ms",
    );
    m.push(
        "bigraph.snapshot.write_ms",
        median_of("bigraph.snapshot.write") * 1e3,
        "ms",
    );
    m.push(
        "bigraph.snapshot.read_ms",
        mean_of(tr, "bigraph.snapshot.read") * 1e3,
        "ms",
    );
    m.push(
        "cluster.worker.rss_mb",
        worker_rss_mb.iter().copied().fold(0.0, f64::max),
        "MB",
    );
    let late_p99 = stats::tail_percentile(&stats::sorted(late), 99.0).map_or(f64::NAN, |p| p.value);
    m.push("bench.late_p99_ms", late_p99 * 1e3, "ms");
    m.push(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50_s) / untraced_p50_s * 100.0,
        "%",
    );
    m
}
