//! Multi-process sharded serving: shard workers + a coordinator that
//! scales query throughput across the process boundary.
//!
//! A single [`cne::serving::ServingEngine`] already decouples queries
//! from splices inside one process. This crate is the horizontal half of
//! the millions-of-users story: the graph is partitioned into contiguous
//! vertex-range **shards**, each owned by a worker process running its
//! own serving engine, and a [`Coordinator`] fans every batch query out
//! over Unix-domain sockets and concatenates the per-worker reports into
//! a full [`BatchReport`](cne::batch::BatchReport) that is
//! **byte-identical** to what an unsharded engine would have produced.
//! No async runtime, no serde on the wire: std threads, blocking
//! sockets, and a hand-rolled little-endian protocol ([`wire`]).
//!
//! # Shard assignment
//!
//! Sharding is along one layer (the *shard layer*, the layer queries
//! target). [`Coordinator::spawn_with`] splits `[0, n)` into `k` even
//! contiguous ranges; the **last** range is open-ended (`hi =
//! u32::MAX`), so vertices appended after spawn have an owner. Every
//! shard graph keeps the **global layer sizes** (validation only reads
//! sizes, so any worker can validate any query) but holds only the edges
//! whose shard-layer endpoint it owns — a worker therefore has the
//! *complete* adjacency of every vertex it owns, which is the only
//! adjacency either protocol round ever reads.
//!
//! The update stream is partitioned by the same ranges
//! ([`bigraph::UpdateBatch::partition_by_ranges`]): an edge delta goes
//! to its shard-layer endpoint's owner, and `AddVertex` is broadcast so
//! layer sizes stay aligned. Order is preserved within each worker's
//! stream; deltas that land on different workers touch different edges
//! and commute under last-delta-wins batch semantics, so after a
//! [`Coordinator::flush`] the union of shard graphs equals the unsharded
//! graph after the same stream.
//!
//! # Why concatenation is exact (proof sketch)
//!
//! The batch protocol's randomness is placement-independent by
//! construction:
//!
//! 1. **Round 1** consumes the query RNG in a fixed order — budget
//!    split, the target row's randomized response, then one draw of the
//!    per-candidate `base_seed`. It runs entirely at the target's owner
//!    from `StdRng::seed_from_u64(seed)`, exactly as the unsharded
//!    engine would, and only needs the target's adjacency (complete at
//!    its owner).
//! 2. **Round 2** perturbs candidate `w` with a *fresh* stream seeded
//!    `mix(base_seed, w)` ([`cne::batch::user_stream_seed`]). A
//!    candidate's estimate depends only on `(noisy target row, flip
//!    probability, ε₂, base_seed, w's own adjacency)` — all shipped in
//!    the round-1 artifact or locally complete — and on **no other
//!    candidate**. So computing a slice of candidates on one worker and
//!    another slice elsewhere yields bit-for-bit the numbers a single
//!    engine computes, and concatenating slices at their original
//!    indices is the identity.
//! 3. **Accounting** (budget ledger + transcript) is a pure replay:
//!    given the round-1 artifact and the candidate count it never draws
//!    randomness, so the coordinator reproduces it locally
//!    ([`cne::batch::BatchSingleSource::assemble_report`]).
//!
//! The swap-correctness suite (`tests/cluster_swap.rs`) pins this: for
//! random 1/2/4-shard partitions, reports concatenated across real
//! worker processes equal an unsharded engine's byte for byte —
//! estimates, budget, and transcript.
//!
//! # Robustness
//!
//! Connects retry with backoff under a deadline; every socket carries
//! read/write timeouts; each request gets one reconnect-and-resend (a
//! *restarting* worker is transparently picked back up, since workers
//! keep state across connections). A worker that stays dead is marked
//! unhealthy and the fan-out returns
//! [`ClusterError::PartialResult`] — the coordinator never hangs on a
//! dead shard. Per-worker [`ServingStats`](cne::serving::ServingStats)
//! (lag percentiles, epochs, health) roll up via
//! [`Coordinator::stats`].
//!
//! # Persistence and supervision
//!
//! A cluster can bootstrap from a [`bigraph::snapshot::GraphSnapshot`]
//! instead of streaming per-edge `Bootstrap` frames:
//! [`Coordinator::spawn_partitioned_from_snapshot`] writes one
//! *restricted* snapshot file per shard (each holding only that shard's
//! edges and packed bitmaps) and sends every worker a path-only
//! `BootstrapSnapshot` frame; the worker validates the file's checksums
//! and adopts its bytes directly — no text parse, no re-pack. The shard
//! files sit behind a byte-exact manifest (graph identity + shard
//! ranges), so a coordinator restarting over the same snapshot and
//! partition reuses them and pays only worker adoption.
//!
//! Supervision closes the loop: [`Coordinator::supervise`] probes every
//! worker, respawns any that died, re-bootstraps the replacement from
//! its shard's snapshot file, replays the update-log tail past the
//! snapshot's pinned sequence, and marks
//! it healthy — the recovered worker serves byte-identical reports
//! (pinned by the kill-one-worker case in `tests/cluster_swap.rs`).
//!
//! # Rebalancing lifecycle
//!
//! [`Coordinator::rebalance`] changes the shard partition **live** —
//! split (2→4), merge (4→2), or shift cuts — without a full respawn and
//! without a window in which queries fail. It is a seven-step state
//! machine ([`RebalanceStep`]), driveable one step at a time via
//! [`Coordinator::begin_rebalance`] + [`Coordinator::rebalance_step`]
//! with live traffic between any two steps:
//!
//! ```text
//!  begin ─► Quiesce ─► Capture ─► Cut ─► Spawn ─► Bootstrap ─► CutOver ─► Retire ─► done
//!             │           │        │       │          │         ▲  │
//!             ╰───────────┴────────┴───────┴──────────┴─────────╯  │ (commit
//!                  any failure up to the commit point               │  point)
//!                  rolls back: staged workers killed, staged        ▼
//!                  files deleted, OLD topology still serving   new topology
//!                  (error has `rolled_back: true`)              serving
//! ```
//!
//! - **Quiesce** drains the replication log and barriers every worker —
//!   worker state now equals the coordinator's base graph plus the
//!   drained tail, with nothing in flight.
//! - **Capture** folds that tail into the coordinator's own graph
//!   replica and pins a quiet-point snapshot at the drained sequence.
//! - **Cut** writes one shard-restricted, generation-named snapshot
//!   file per *new* range; **Spawn**/**Bootstrap** bring the new
//!   generation's workers up from those files on fresh sockets while
//!   the old generation keeps serving.
//! - **CutOver** replays the drained tail past the pinned sequence to
//!   the new workers, barriers them, then **commits**: range table,
//!   cut-point cache, worker table, and snapshot source swap in one
//!   motion (manifest invalidated first, rewritten after — the same
//!   crash-safe ordering the spawn path uses), and retained history
//!   before the new pin is truncated.
//! - **Retire** shuts the old generation down and sweeps unreferenced
//!   shard files. Purely janitorial: the new topology has been serving
//!   since commit.
//!
//! **Rollback guarantees.** Every fallible action precedes the commit
//! point, so a surfaced [`ClusterError::Rebalance`] always carries
//! `rolled_back: true`: the staged generation is torn down and the old
//! topology keeps serving with zero divergence — byte-identity holds
//! across a failed rebalance exactly as across a successful one. A new
//! worker dying *after* commit is ordinary supervision work
//! ([`Coordinator::supervise`] rebuilds it from the new generation's
//! shard files); the coordinator's own death mid-rebalance leaves only
//! ignorable garbage (generation-named files not referenced by the
//! manifest, swept at the next spawn or retire).
//!
//! # Fault injection
//!
//! The chaos legs above are driven by a deterministic, seed-reproducible
//! fault layer ([`FaultPlan`] / [`FaultInjector`]) threaded through the
//! coordinator's transport, the shard-file writes, and the rebalance
//! step machine. A plan is armed via the environment and announced on
//! stderr so every failure is replayable from its printed seed:
//!
//! ```text
//! CNE_FAULT_PLAN='seed=42;kill=bootstrap:new0;drop=3' cargo test -p cluster
//! ```
//!
//! Directives (each fires **once**, at a deterministic index):
//! `kill=STEP:oldI|newI` crashes a worker at a rebalance step's entry;
//! `drop=K` / `corrupt=K` / `delay=K:MS` swallow, byte-flip, or delay
//! the Kth coordinator request frame; `torn=K` truncates the Kth shard
//! file written during a rebalance Cut; `stall=K:MS` holds a worker's
//! Kth response past the coordinator's I/O deadline (the worker side
//! arms itself from the same inherited environment variable). See
//! [`FaultPlan`] for the full grammar. Timeouts, deadlines, and the
//! jitter-free exponential backoff they retry under are unified in
//! [`RetryPolicy`]; its connect and I/O deadlines are env-overridable per
//! process.

#![warn(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod wire;
pub mod worker;

pub use coordinator::{
    worker_command, ClusterConfig, ClusterStats, Coordinator, RebalanceStatus, RebalanceStep,
    RetryPolicy, WorkerSpec, WorkerStatus,
};
pub use error::{ClusterError, Result};
pub use fault::{FaultInjector, FaultPlan, FrameFate, KillTarget, FAULT_PLAN_ENV};
pub use worker::{maybe_run_worker_from_env, WorkerConfig};
