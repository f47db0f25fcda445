//! Epoch-pinned double-buffered serving: queries never wait on a splice.
//!
//! This is the single-process serving tier. The multi-process half —
//! shard-worker processes each owning one `ServingEngine` over a
//! vertex-range shard, behind a coordinator that fans queries out over
//! Unix sockets and concatenates byte-identical reports — lives in the
//! `cluster` crate, which builds directly on this module ([`ServingStats`]
//! rolls up per worker, the shared [`UpdateLog`] feeds the replicated
//! per-shard delta streams).
//!
//! [`EstimationEngine::apply_updates`] stops the world — the splice holds
//! `&mut self`, so every reader either blocks behind it or eats a
//! [`CneError::StaleGeneration`](crate::CneError::StaleGeneration). This module decouples query latency from
//! ingestion: a [`ServingEngine`] keeps **two** engines and swaps which one
//! serves, so readers always query a warm, immutable snapshot while a
//! dedicated writer thread splices into the other buffer.
//!
//! # Serving lifecycle
//!
//! Each buffer sits behind its own `RwLock`, and that lock is the whole
//! reclamation protocol. The lifecycle of every query is
//! *pin → query → retire*:
//!
//! 1. **Pin.** [`ServingEngine::snapshot`] loads the epoch, whose parity
//!    names the live buffer, takes a `try_read` guard on that buffer and
//!    loads the epoch again. It keeps the guard only if the parity is
//!    unchanged — otherwise the guard may cover a buffer the writer has
//!    re-spliced but not yet published — and retries on the new epoch.
//!    `try_read` never blocks, and the writer only ever write-locks the
//!    *offline* buffer, so a pin costs two epoch loads and one read-lock
//!    atomic the writer never contends, with no allocation.
//! 2. **Query.** The guard derefs to a plain [`EstimationEngine`]; run
//!    [`estimate`](EstimationEngine::estimate),
//!    [`estimate_batch`](EstimationEngine::estimate_batch), or
//!    [`estimate_many_targets`](EstimationEngine::estimate_many_targets)
//!    on it. The buffer is immutable while pinned, so results are
//!    byte-identical to a cold engine built at the snapshot's epoch — the
//!    swap-correctness suite (`tests/serving_swap.rs`) pins exactly that.
//! 3. **Retire.** Dropping the snapshot releases its read guard. The
//!    writer's next cycle takes the write lock on the retiring buffer,
//!    which sleeps until the last reader of that buffer is gone.
//!
//! # Writer cadence
//!
//! The writer thread wakes every [`ServingConfig::poll_interval`] (or on
//! [`ServingEngine::flush`]) and drains the shared [`UpdateLog`] in bounded
//! batches of at most [`ServingConfig::max_deltas_per_cycle`] deltas. Each
//! cycle replays the previous cycle's batch into the offline buffer (so
//! both buffers see the identical batch sequence — the *backlog*), applies
//! the freshly drained batch, pre-warms the touched vertices' bitmaps, and
//! publishes by bumping the epoch. Coalescing is the point: one drained
//! batch is one CSR merge pass regardless of how many producers appended,
//! so sustained ingest cost is `O(n + m)` per cycle, not per arrival.
//!
//! # Pre-warm policy
//!
//! A splice invalidates the touched vertices' cached bitmaps. The writer
//! rebuilds exactly those bitmaps ([`EstimationEngine::warm_touched`])
//! *before* publishing, so the first query against a fresh snapshot is as
//! warm as the last one against the old snapshot. Sparse vertices keep
//! falling back to scratch packing, same as
//! [`AdjacencyStore::warm`](crate::AdjacencyStore::warm).
//!
//! # Persistence & fast restart
//!
//! A serving tier can be checkpointed to disk and rebuilt without paying
//! the cold text-parse + warm cost:
//!
//! * [`ServingEngine::write_snapshot`] pins the live buffer (the same
//!   reader protocol as a query — a maintain()-quiet point where the
//!   buffer is immutable) and writes a versioned binary
//!   [`bigraph::snapshot`] file: the CSR arrays plus the packed bitmaps
//!   of every dense vertex, stamped with the graph epoch **and the exact
//!   log sequence number the pinned buffer covers**. That sequence lives
//!   under the buffer's lock next to its engine, so the stamp can never
//!   drift from the state being captured — exactness matters because
//!   `AddVertex` replay is not idempotent.
//! * [`ServingEngine::bootstrap_from_snapshot`] is the inverse: both
//!   buffers adopt the snapshot ([`EstimationEngine::from_snapshot`] —
//!   packed sections go straight into the adjacency caches, no re-pack),
//!   and the writer starts with an empty log. Estimates served from a
//!   bootstrapped tier are byte-identical to one built from text at the
//!   same state.
//! * Catch-up composes through the log: a consumer holding a retained
//!   [`UpdateLog`] (see [`UpdateLog::with_retention`]) replays the tail
//!   past the snapshot's pinned sequence
//!   ([`UpdateLog::replay_from`]) into the bootstrapped tier — the
//!   restart path the `cluster` coordinator uses to revive a dead shard
//!   worker in milliseconds.
//!
//! The `snapshot-tool` binary (`cargo run --bin snapshot-tool`) writes,
//! inspects, and verifies the same files from the command line.
//!
//! # Generation-checked reads
//!
//! A pinned snapshot is immutable, so its
//! [`generation`](EngineSnapshot::generation) names exactly the state every
//! query on it reads. A reader that derived state from an earlier answer (a
//! candidate list, a ranking) pins a snapshot and then either
//!
//! * **refreshes**: queries the snapshot and keeps `snap.generation()` as
//!   its new cursor, or
//! * **refuses**: calls [`EstimationEngine::check_generation`] on the
//!   snapshot first, which fails with
//!   [`CneError::StaleGeneration`](crate::CneError::StaleGeneration) before
//!   any RNG draw, so a refused query leaves the reader's stream untouched.
//!
//! ```
//! use bigraph::{BipartiteGraph, GraphDelta, Layer};
//! use cne::estimate::AlgorithmKind;
//! use cne::protocol::Query;
//! use cne::serving::ServingEngine;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let g = BipartiteGraph::from_edges(2, 8, [(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap();
//! let serving = ServingEngine::new(g);
//! let derived_at = serving.snapshot().generation();
//!
//! // Producers append from any thread; the writer publishes asynchronously.
//! serving.append(GraphDelta::AddEdge { upper: 0, lower: 2 });
//! serving.flush(); // wait until the append is live (tests/demos only)
//!
//! {
//!     let snap = serving.snapshot();
//!     assert!(snap.graph().has_edge(0, 2));
//!     // Refuse: the state the reader derived from is gone.
//!     assert!(snap.check_generation(derived_at).is_err());
//!     // Refresh: answer from the pinned state and move the cursor.
//!     let q = Query::new(Layer::Upper, 0, 1);
//!     let mut rng = StdRng::seed_from_u64(7);
//!     let report = snap.estimate(&q, AlgorithmKind::OneR, 2.0, &mut rng).unwrap();
//!     assert!(report.estimate.is_finite());
//!     assert_eq!(snap.generation(), 1);
//! } // drop the snapshot: it borrows the serving tier
//! let engine = serving.into_engine(); // tear down into the final state
//! assert!(engine.graph().has_edge(0, 2));
//! ```

use crate::batch::BatchReport;
use crate::engine::EstimationEngine;
use crate::error::Result;
use crate::estimate::{AlgorithmKind, EstimateReport};
use crate::protocol::Query;
use bigraph::delta::{GraphDelta, UpdateBatch, UpdateLog};
use bigraph::{BipartiteGraph, Layer, VertexId};
use rand::RngCore;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::thread;
use std::time::Duration;

/// Log2 lag-histogram size: bucket 0 counts lag 0, bucket `k ≥ 1` counts
/// lags in `[2^(k-1), 2^k)`. 40 buckets cover every lag below 2^39 deltas;
/// anything larger saturates into the last bucket.
const LAG_BUCKETS: usize = 40;

/// The histogram bucket for an observed snapshot lag.
fn lag_bucket(lag: u64) -> usize {
    if lag == 0 {
        0
    } else {
        ((64 - lag.leading_zeros()) as usize).min(LAG_BUCKETS - 1)
    }
}

/// The `q`-quantile of a log2 lag histogram, reported as the **lower
/// bound** of the bucket holding the rank-`⌈q·total⌉` observation (so
/// p50 = 0 means at least half of all snapshots were fully caught up).
fn lag_percentile(hist: &[u64; LAG_BUCKETS], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (k, &count) in hist.iter().enumerate() {
        cumulative += count;
        if cumulative >= rank {
            return if k == 0 { 0 } else { 1u64 << (k - 1) };
        }
    }
    0
}

/// Tuning knobs for a [`ServingEngine`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Byte cap for each buffer's adjacency cache (see
    /// [`EstimationEngine::from_graph_with_cache_budget`]); `None` caches
    /// every dense vertex. The cap applies per buffer.
    pub cache_budget: Option<usize>,
    /// Upper bound on deltas drained and spliced per writer cycle. One
    /// cycle's drain is one `UpdateBatch` and therefore one CSR merge
    /// pass; larger values coalesce harder under bursty ingest at the
    /// cost of coarser rejection granularity (an invalid delta rejects
    /// the whole drained batch).
    pub max_deltas_per_cycle: usize,
    /// How long the writer sleeps when the log is empty. Ingest-to-publish
    /// latency is bounded by roughly this plus one splice.
    pub poll_interval: Duration,
    /// Warm this layer's dense bitmaps in **both** buffers at
    /// construction, before the writer starts.
    pub warm_layer: Option<Layer>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            cache_budget: None,
            max_deltas_per_cycle: 4096,
            poll_interval: Duration::from_micros(500),
            warm_layer: None,
        }
    }
}

/// Counters describing a [`ServingEngine`]'s ingest/publish state, from
/// [`ServingEngine::stats`]. All values are monotone except `ingest_lag`
/// and the lag percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingStats {
    /// Current published epoch (number of buffer swaps since start).
    pub epoch: u64,
    /// Deltas appended to the log so far (last allocated sequence number).
    pub appended: u64,
    /// Deltas published: every delta with sequence number `<= published`
    /// is either visible in the live buffer or was rejected.
    pub published: u64,
    /// Exact ingest lag in deltas: `appended - published`.
    pub ingest_lag: u64,
    /// Deltas dropped because their drained batch failed validation.
    pub rejected: u64,
    /// Snapshots pinned since start (the population the lag percentiles
    /// are computed over — each [`ServingEngine::snapshot`] records the
    /// ingest lag it observed at pin time).
    pub snapshots: u64,
    /// Median per-snapshot ingest lag, as the lower bound of its log2
    /// histogram bucket (0 means at least half of all snapshots were
    /// fully caught up; otherwise a power of two).
    pub lag_p50: u64,
    /// 95th-percentile per-snapshot ingest lag, bucketed like `lag_p50`.
    pub lag_p95: u64,
}

/// One engine buffer and the highest log sequence number it covers. The
/// stamp sits under the buffer's lock, so a reader holding the buffer
/// reads the stamp of exactly the state it queries.
struct Buffer {
    engine: EstimationEngine<'static>,
    seq: u64,
}

/// State shared between the serving handle, its snapshots, and the writer
/// thread.
struct Shared {
    /// The two engine buffers; the current epoch's parity selects the live
    /// one (`buffers[epoch & 1]`), the writer splices into the other.
    buffers: [RwLock<Buffer>; 2],
    /// Published epoch. Bumped (with the write guard already released) to
    /// atomically swap which buffer serves.
    epoch: AtomicU64,
    /// The ingestion log producers append to.
    log: UpdateLog,
    /// Tells the writer thread to drain the log and exit.
    shutdown: AtomicBool,
    /// Highest log sequence number covered by the live buffer.
    published_seq: AtomicU64,
    /// Deltas dropped with their rejected batch.
    rejected: AtomicU64,
    /// Per-snapshot ingest-lag histogram in log2 buckets (`lag_bucket`).
    lag_hist: [AtomicU64; LAG_BUCKETS],
    /// Snapshots ever pinned (the histogram's total mass).
    snapshots: AtomicU64,
    /// Writer tuning, copied out of the construction config.
    max_deltas_per_cycle: usize,
    poll_interval: Duration,
}

impl Shared {
    /// Write-locks the offline buffer, sleeping until the last reader of
    /// the epoch it served has dropped its snapshot. Only the writer
    /// thread bumps the epoch, so the buffer stays offline while locked.
    fn lock_offline(&self) -> RwLockWriteGuard<'_, Buffer> {
        let offline = ((self.epoch.load(Ordering::SeqCst) + 1) & 1) as usize;
        self.buffers[offline]
            .write()
            .expect("serving buffer poisoned")
    }
}

/// One writer cycle: replay the backlog and splice the freshly drained
/// batch into the offline buffer, pre-warm what the splices touched, and —
/// if anything was drained — publish by bumping the epoch.
fn apply_cycle(shared: &Shared, backlog: &mut Vec<UpdateBatch>, fresh: Option<UpdateBatch>) {
    {
        let mut buffer = shared.lock_offline();
        let engine = &mut buffer.engine;
        let mut receipts = Vec::new();
        // Coalesce the backlog replay and the fresh splice into ONE CSR
        // merge pass: concatenation preserves delta order, so the net
        // effect is identical to sequential application, and the merge's
        // fixed O(edges) cost is paid once per publish instead of once
        // per batch. Only if the combined batch is rejected do we fall
        // back to batch-at-a-time — the backlog already applied cleanly
        // to the other buffer from an identical state, so the offending
        // deltas must be in `fresh`.
        let combined: UpdateBatch = backlog
            .iter()
            .chain(fresh.iter())
            .flat_map(|b| b.deltas().iter().copied())
            .collect();
        match engine.apply_updates(&combined) {
            Ok(applied) => {
                receipts.push(applied);
                backlog.clear();
                if let Some(batch) = fresh {
                    backlog.push(batch);
                }
            }
            Err(_) => {
                for batch in backlog.drain(..) {
                    let applied = engine
                        .apply_updates(&batch)
                        .expect("backlog batch must re-apply");
                    receipts.push(applied);
                }
                if let Some(batch) = fresh {
                    match engine.apply_updates(&batch) {
                        Ok(applied) => {
                            receipts.push(applied);
                            backlog.push(batch);
                        }
                        Err(_) => {
                            // Transactionally rejected: the buffer is
                            // untouched and the same batch would be
                            // rejected by the other buffer too, so
                            // dropping it keeps the buffers identical.
                            shared
                                .rejected
                                .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        for applied in &receipts {
            engine.warm_touched(applied);
        }
        buffer.seq = shared.log.drained();
    }
    // Publish after the write guard is gone: bump the epoch (readers now
    // resolve to the freshly spliced buffer), then advance the published
    // sequence number so `flush` observes epoch-before-seq.
    shared.epoch.fetch_add(1, Ordering::SeqCst);
    shared
        .published_seq
        .store(shared.log.drained(), Ordering::SeqCst);
}

/// The writer thread body: drain → splice → pre-warm → publish, forever.
fn writer_loop(shared: &Shared) {
    // Batches already published into the live buffer but not yet replayed
    // into the offline one. At most one entry per completed cycle.
    let mut backlog: Vec<UpdateBatch> = Vec::new();
    loop {
        if let Some(fresh) = shared.log.drain_batch(shared.max_deltas_per_cycle) {
            apply_cycle(shared, &mut backlog, Some(fresh));
            continue; // immediately look for more before sleeping
        }
        if !backlog.is_empty() {
            // Idle: catch the offline buffer up without publishing, so the
            // next cycle splices one batch, not two.
            let mut buffer = shared.lock_offline();
            for batch in backlog.drain(..) {
                let applied = buffer
                    .engine
                    .apply_updates(&batch)
                    .expect("backlog batch must re-apply");
                buffer.engine.warm_touched(&applied);
            }
            buffer.seq = shared.log.drained();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        thread::park_timeout(shared.poll_interval);
    }
}

/// An epoch-pinned, immutable view of the live engine buffer.
///
/// Obtained from [`ServingEngine::snapshot`]; derefs to
/// [`EstimationEngine`], so every engine query API works on it unchanged.
/// It holds a read guard on its buffer, so the writer cannot mutate that
/// buffer while any snapshot of it is alive — dropping the snapshot is
/// what retires it. Snapshots are cheap (no allocation, and the writer
/// never locks the live buffer) but **hold back buffer recycling**: a
/// long-lived snapshot stalls the writer one full cycle behind, so pin
/// per query (or per small batch), not per session.
pub struct EngineSnapshot<'a> {
    guard: RwLockReadGuard<'a, Buffer>,
    epoch: u64,
}

impl EngineSnapshot<'_> {
    /// The epoch this snapshot is pinned at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned engine's generation (effective update batches applied).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.engine().generation()
    }

    /// The pinned engine.
    #[must_use]
    pub fn engine(&self) -> &EstimationEngine<'static> {
        &self.guard.engine
    }

    /// The pinned graph.
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        self.engine().graph()
    }
}

impl Deref for EngineSnapshot<'_> {
    type Target = EstimationEngine<'static>;

    fn deref(&self) -> &Self::Target {
        self.engine()
    }
}

impl std::fmt::Debug for EngineSnapshot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("epoch", &self.epoch)
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

/// A double-buffered serving tier over two [`EstimationEngine`]s: readers
/// query epoch-pinned snapshots while a writer thread drains the
/// [`UpdateLog`] and splices into the offline buffer, then swaps.
///
/// See the [module docs](self) for the full lifecycle. In short:
/// [`append`](ServingEngine::append) / [`extend`](ServingEngine::extend)
/// from any thread, [`snapshot`](ServingEngine::snapshot) to query, and
/// the writer keeps publishing in the background. Dropping the
/// `ServingEngine` drains the log and joins the writer;
/// [`into_engine`](ServingEngine::into_engine) additionally hands back the
/// final live buffer.
pub struct ServingEngine {
    shared: Arc<Shared>,
    writer: Option<thread::JoinHandle<()>>,
    /// Handle for unparking the writer without joining it.
    writer_thread: thread::Thread,
}

impl ServingEngine {
    /// Builds a serving tier over `graph` with the default
    /// [`ServingConfig`] and starts the writer thread.
    #[must_use]
    pub fn new(graph: BipartiteGraph) -> Self {
        Self::with_config(graph, ServingConfig::default())
    }

    /// [`ServingEngine::new`] with explicit tuning.
    ///
    /// Both buffers start as identical engines over `graph` (cloned once);
    /// `config.warm_layer` optionally pre-warms them before the writer
    /// starts.
    ///
    /// # Panics
    ///
    /// Panics if the writer thread cannot be spawned.
    #[must_use]
    pub fn with_config(graph: BipartiteGraph, config: ServingConfig) -> Self {
        let build = |g: BipartiteGraph| match config.cache_budget {
            Some(bytes) => EstimationEngine::from_graph_with_cache_budget(g, bytes),
            None => EstimationEngine::from_graph(g),
        };
        let a = build(graph.clone());
        let b = build(graph);
        if let Some(layer) = config.warm_layer {
            a.warm(layer);
            b.warm(layer);
        }
        Self::from_buffers(a, b, config)
    }

    /// Builds a serving tier whose buffers **adopt a loaded snapshot**
    /// instead of warming from scratch: both buffers come from
    /// [`EstimationEngine::from_snapshot`], so the packed dense bitmaps of
    /// *both* layers are installed by memcpy and the tier serves its first
    /// query as warm as a text-built, [`warm`](EstimationEngine::warm)-ed
    /// one — byte-identically (see the module-level
    /// "Persistence & fast restart" section). `config.warm_layer` is
    /// ignored: the snapshot's packed sections already cover every dense
    /// vertex a warm pass would build.
    ///
    /// The tier's ingestion log starts empty; catching up past the
    /// snapshot's pinned sequence is the caller's job (feed the tail from
    /// a retained log — [`bigraph::UpdateLog::replay_from`] — through
    /// [`extend`](ServingEngine::extend)).
    ///
    /// # Panics
    ///
    /// Panics if the writer thread cannot be spawned.
    #[must_use]
    pub fn bootstrap_from_snapshot(
        snapshot: &bigraph::snapshot::GraphSnapshot,
        config: ServingConfig,
    ) -> Self {
        let build = || match config.cache_budget {
            Some(bytes) => EstimationEngine::from_snapshot_with_cache_budget(snapshot, bytes),
            None => EstimationEngine::from_snapshot(snapshot),
        };
        let (a, b) = (build(), build());
        Self::from_buffers(a, b, config)
    }

    /// Shared tail of construction: wrap two identical buffers in the
    /// swap machinery and start the writer.
    fn from_buffers(
        a: EstimationEngine<'static>,
        b: EstimationEngine<'static>,
        config: ServingConfig,
    ) -> Self {
        let buffer = |engine| RwLock::new(Buffer { engine, seq: 0 });
        let shared = Arc::new(Shared {
            buffers: [buffer(a), buffer(b)],
            epoch: AtomicU64::new(0),
            log: UpdateLog::new(),
            shutdown: AtomicBool::new(false),
            published_seq: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            lag_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            snapshots: AtomicU64::new(0),
            max_deltas_per_cycle: config.max_deltas_per_cycle.max(1),
            poll_interval: config.poll_interval,
        });
        let writer_shared = Arc::clone(&shared);
        let writer = thread::Builder::new()
            .name("cne-serving-writer".into())
            .spawn(move || writer_loop(&writer_shared))
            .expect("spawn serving writer");
        let writer_thread = writer.thread().clone();
        Self {
            shared,
            writer: Some(writer),
            writer_thread,
        }
    }

    /// The shared ingestion log. Exposed for lag inspection
    /// ([`UpdateLog::lag`]) and bulk producers; appending through
    /// [`ServingEngine::append`] / [`extend`](ServingEngine::extend) is
    /// equivalent.
    #[must_use]
    pub fn log(&self) -> &UpdateLog {
        &self.shared.log
    }

    /// Appends one delta to the ingestion log, returning its sequence
    /// number. The writer picks it up within one poll interval.
    pub fn append(&self, delta: GraphDelta) -> u64 {
        self.shared.log.append(delta)
    }

    /// Appends many deltas, returning the last sequence number assigned.
    pub fn extend<I: IntoIterator<Item = GraphDelta>>(&self, deltas: I) -> u64 {
        self.shared.log.extend(deltas)
    }

    /// Pins the current epoch and returns a queryable snapshot guard.
    ///
    /// Two epoch loads around one `try_read` on the live buffer, retried
    /// only if a publish lands in between. Never blocks on a splice: the
    /// writer only write-locks the offline buffer, so while it splices,
    /// this keeps resolving to the live one.
    ///
    /// # Panics
    ///
    /// Panics if the pinned buffer is poisoned (the writer thread died
    /// mid-splice).
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<'_> {
        let shared: &Shared = &self.shared;
        loop {
            let seen = shared.epoch.load(Ordering::SeqCst);
            match shared.buffers[(seen & 1) as usize].try_read() {
                Ok(guard) => {
                    // A flipped parity means the writer may have re-spliced
                    // this buffer and not yet published it. An unchanged
                    // one means the guard holds exactly the state published
                    // at `epoch`, which the writer cannot touch again until
                    // the guard drops.
                    let epoch = shared.epoch.load(Ordering::SeqCst);
                    if (epoch ^ seen) & 1 == 0 {
                        // Record the lag this reader observed at pin time;
                        // the histogram feeds the p50/p95 fields of `stats`.
                        let lag = shared
                            .log
                            .appended()
                            .saturating_sub(shared.published_seq.load(Ordering::Relaxed));
                        shared.lag_hist[lag_bucket(lag)].fetch_add(1, Ordering::Relaxed);
                        shared.snapshots.fetch_add(1, Ordering::Relaxed);
                        return EngineSnapshot { guard, epoch };
                    }
                }
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(_)) => panic!("serving buffer poisoned"),
            }
            // A publish landed mid-pin: retry on the new epoch.
            thread::yield_now();
        }
    }

    /// [`EstimationEngine::estimate`] on a freshly pinned snapshot.
    ///
    /// # Errors
    ///
    /// The contract of [`EstimationEngine::estimate`].
    pub fn estimate(
        &self,
        query: &Query,
        kind: AlgorithmKind,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<EstimateReport> {
        self.snapshot().estimate(query, kind, epsilon, rng)
    }

    /// [`EstimationEngine::estimate_batch`] on a freshly pinned snapshot.
    ///
    /// # Errors
    ///
    /// The contract of [`EstimationEngine::estimate_batch`].
    pub fn estimate_batch(
        &self,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<BatchReport> {
        self.snapshot()
            .estimate_batch(layer, target, candidates, epsilon, rng)
    }

    /// [`EstimationEngine::estimate_many_targets`] on a freshly pinned
    /// snapshot.
    ///
    /// # Errors
    ///
    /// The contract of [`EstimationEngine::estimate_many_targets`].
    pub fn estimate_many_targets(
        &self,
        layer: Layer,
        targets: &[VertexId],
        candidates: &[VertexId],
        epsilon: f64,
        seed: u64,
    ) -> Result<Vec<BatchReport>> {
        self.snapshot()
            .estimate_many_targets(layer, targets, candidates, epsilon, seed)
    }

    /// Blocks until every delta appended before this call is published
    /// (visible in the live buffer or rejected). For tests, demos, and
    /// orderly teardown — serving paths should read
    /// [`stats`](ServingEngine::stats) instead of waiting.
    ///
    /// # Panics
    ///
    /// Panics if the writer thread died (a poisoned buffer).
    pub fn flush(&self) {
        let target = self.shared.log.appended();
        self.writer_thread.unpark();
        while self.shared.published_seq.load(Ordering::SeqCst) < target {
            let writer_alive = self
                .writer
                .as_ref()
                .map(|w| !w.is_finished())
                .unwrap_or(false);
            assert!(writer_alive, "serving writer thread is gone");
            self.writer_thread.unpark();
            // Sleep, don't yield: a yield loop on a loaded core degenerates
            // into a context-switch storm that starves the very writer this
            // call is waiting on. A real sleep cedes the whole timeslice.
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Current ingest/publish counters.
    #[must_use]
    pub fn stats(&self) -> ServingStats {
        let published = self.shared.published_seq.load(Ordering::SeqCst);
        let appended = self.shared.log.appended();
        let snapshots = self.shared.snapshots.load(Ordering::Relaxed);
        let hist: [u64; LAG_BUCKETS] =
            std::array::from_fn(|k| self.shared.lag_hist[k].load(Ordering::Relaxed));
        ServingStats {
            epoch: self.shared.epoch.load(Ordering::SeqCst),
            appended,
            published,
            ingest_lag: appended.saturating_sub(published),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            snapshots,
            lag_p50: lag_percentile(&hist, snapshots, 0.50),
            lag_p95: lag_percentile(&hist, snapshots, 0.95),
        }
    }

    /// Writes a versioned binary snapshot of the live buffer to `path`,
    /// returning the log sequence number the file covers (its stamp).
    ///
    /// The buffer is pinned for the duration — the same reader path as a
    /// query, so this is a maintain()-quiet point: the
    /// writer cannot splice or restamp the pinned buffer, and the
    /// captured CSR, packed bitmaps, epoch, and sequence stamp are
    /// mutually consistent by construction. Ingestion continues
    /// concurrently; deltas published after the pin land in later
    /// snapshots.
    ///
    /// The returned sequence is relative to **this tier's own log**
    /// ([`ServingEngine::log`]): a delta is covered iff its sequence is
    /// `<=` the stamp. Reload with
    /// [`bootstrap_from_snapshot`](ServingEngine::bootstrap_from_snapshot)
    /// and replay any retained tail past the stamp.
    ///
    /// # Errors
    ///
    /// [`bigraph::snapshot::SnapshotError::Io`] when the file cannot be
    /// written. The tier itself is unaffected by a failed write.
    pub fn write_snapshot(
        &self,
        path: &std::path::Path,
    ) -> std::result::Result<u64, bigraph::snapshot::SnapshotError> {
        let image = self.capture_snapshot();
        let seq = image.log_seq();
        image.write_to(path)?;
        Ok(seq)
    }

    /// Captures the same quiet-point image as
    /// [`write_snapshot`](ServingEngine::write_snapshot) but keeps it in
    /// memory instead of writing a file — for consumers that cut the
    /// image further before it lands on disk (a sharded coordinator
    /// restricting it per shard during a rebalance). The pinned log
    /// sequence is carried in the returned snapshot
    /// ([`GraphSnapshot::log_seq`](bigraph::snapshot::GraphSnapshot::log_seq)).
    #[must_use]
    pub fn capture_snapshot(&self) -> bigraph::snapshot::GraphSnapshot {
        let snap = self.snapshot();
        bigraph::snapshot::GraphSnapshot::capture(snap.graph(), snap.guard.seq)
    }

    /// Drains the log, stops the writer, and returns the final live
    /// engine — the inverse of construction, for handing the graph back
    /// to a single-owner workflow (checkpointing, re-sharding, tests).
    #[must_use]
    pub fn into_engine(mut self) -> EstimationEngine<'static> {
        self.flush();
        self.stop_writer();
        let shared = Arc::clone(&self.shared);
        drop(self); // releases the handle's Arc; the writer's clone is gone
        let shared = Arc::into_inner(shared)
            .expect("no snapshots can outlive the serving engine they borrow");
        let epoch = shared.epoch.into_inner();
        let [a, b] = shared.buffers;
        let live = if epoch & 1 == 0 { a } else { b };
        live.into_inner().expect("serving buffer poisoned").engine
    }

    /// Signals shutdown and joins the writer (drains the log first).
    fn stop_writer(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.writer_thread.unpark();
        if let Some(writer) = self.writer.take() {
            if writer.join().is_err() {
                // The writer only panics on a poisoned buffer; propagating
                // from Drop would abort, so surface it on the next access.
            }
        }
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        self.stop_writer();
    }
}

impl std::fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_buckets_are_log2_with_zero_special_cased() {
        assert_eq!(lag_bucket(0), 0);
        assert_eq!(lag_bucket(1), 1);
        assert_eq!(lag_bucket(2), 2);
        assert_eq!(lag_bucket(3), 2);
        assert_eq!(lag_bucket(4), 3);
        assert_eq!(lag_bucket(1023), 10);
        assert_eq!(lag_bucket(1024), 11);
        assert_eq!(lag_bucket(u64::MAX), LAG_BUCKETS - 1);
    }

    #[test]
    fn lag_percentiles_report_bucket_lower_bounds() {
        let mut hist = [0u64; LAG_BUCKETS];
        assert_eq!(lag_percentile(&hist, 0, 0.5), 0);
        // 60 caught-up snapshots, 30 at lag ∈ [4,8), 10 at lag ∈ [64,128).
        hist[0] = 60;
        hist[3] = 30;
        hist[7] = 10;
        let total = 100;
        assert_eq!(lag_percentile(&hist, total, 0.50), 0);
        assert_eq!(lag_percentile(&hist, total, 0.75), 4);
        assert_eq!(lag_percentile(&hist, total, 0.95), 64);
        assert_eq!(lag_percentile(&hist, total, 1.0), 64);
    }

    #[test]
    fn stats_surface_snapshot_lag_percentiles() {
        let g =
            bigraph::BipartiteGraph::from_edges(2, 4, [(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap();
        let serving = ServingEngine::new(g);
        for _ in 0..10 {
            let _snap = serving.snapshot();
        }
        serving.flush();
        let stats = serving.stats();
        assert_eq!(stats.snapshots, 10);
        // No ingest happened, so every snapshot observed zero lag.
        assert_eq!(stats.lag_p50, 0);
        assert_eq!(stats.lag_p95, 0);
        drop(serving);
    }
}
