//! The hand-rolled wire protocol between coordinator and shard workers.
//!
//! Everything is **fixed-layout little-endian** — the vendored serde stub
//! has no binary format, and the message set is small enough that an
//! explicit layout doubles as the protocol spec. One frame per message:
//!
//! ```text
//! +------+----------------+------------------+---------------------+
//! | kind | payload length | payload checksum | payload             |
//! | u8   | u32 LE         | u32 LE (FNV-1a)  | `length` bytes      |
//! +------+----------------+------------------+---------------------+
//! ```
//!
//! The checksum (FNV-1a over the payload bytes) is what turns a
//! corrupted frame — a flipped bit on the transport, or an injected
//! `corrupt=K` fault — into a **detected** failure: the receiver rejects
//! the frame before decoding instead of possibly applying a decodable-
//! but-wrong payload, and the sender's reconnect-and-resend retry
//! recovers. Without it, a single flipped vertex-id byte in an `Update`
//! frame would silently diverge a shard.
//!
//! Connections open with a versioned handshake: the coordinator sends
//! [`Message::Hello`] (magic + protocol version) and the worker answers
//! [`Message::HelloAck`] echoing the version and reporting its assigned
//! shard range. Every later exchange is strict request→response on the
//! same connection, so neither side ever needs reordering buffers.
//!
//! # Message kinds
//!
//! | kind | message       | payload layout (all integers LE)                         |
//! |------|---------------|----------------------------------------------------------|
//! | 0x01 | `Hello`       | magic `u32`, version `u16`                               |
//! | 0x02 | `HelloAck`    | magic `u32`, version `u16`, shard_lo `u32`, shard_hi `u32` |
//! | 0x10 | `Bootstrap`   | n_upper `u64`, n_lower `u64`, n_edges `u64`, (upper `u32`, lower `u32`)\* |
//! | 0x11 | `BootstrapAck`| —                                                        |
//! | 0x12 | `BootstrapSnapshot` | epoch `u64`, layer `u8`, shard_lo `u32`, shard_hi `u32`, path_len `u32`, UTF-8 path |
//! | 0x20 | `Update`      | batch_seq `u64`, count `u32`, delta\* (see below)        |
//! | 0x21 | `UpdateAck`   | appended `u64`                                           |
//! | 0x30 | `Flush`       | —                                                        |
//! | 0x31 | `FlushAck`    | published `u64`                                          |
//! | 0x40 | `Round1Req`   | layer `u8`, target `u32`, epsilon `f64`, eps1_fraction `f64`, seed `u64`, count `u32`, candidate `u32`\* |
//! | 0x41 | `Round1Resp`  | epsilon `f64`, flip_probability `f64`, eps2 `f64`, rr_epsilon `f64`, base_seed `u64`, universe `u64`, n_words `u32`, word `u64`\* |
//! | 0x50 | `Round2Req`   | layer `u8`, owner `u32`, the `Round1Resp` fields, count `u32`, candidate `u32`\* |
//! | 0x51 | `Round2Resp`  | count `u32`, (candidate `u32`, estimate-bits `u64`)\*    |
//! | 0x60 | `StatsReq`    | —                                                        |
//! | 0x61 | `StatsResp`   | 8 × `u64` (epoch, appended, published, ingest_lag, rejected, snapshots, lag_p50, lag_p95) |
//! | 0x70 | `Shutdown`    | —                                                        |
//! | 0x71 | `ShutdownAck` | —                                                        |
//! | 0x7F | `Err`         | code `u16`, UTF-8 message (rest of payload)              |
//!
//! A [`GraphDelta`] serializes as tag `u8` (0 = `AddEdge`, 1 =
//! `RemoveEdge`, 2 = `AddVertex`) followed by upper `u32` + lower `u32`
//! for edges, or layer `u8` for vertex additions. Floats travel as their
//! IEEE-754 bit patterns (`f64::to_bits`), so estimates survive the wire
//! **byte-identically** — the whole correctness story of the cluster
//! depends on that.

use bigraph::bitset::PackedSet;
use bigraph::{GraphDelta, Layer, VertexId};
use cne::batch::BatchRound1;
use ldp::budget::PrivacyBudget;
use ldp::noisy_graph::NoisyNeighborsPacked;
use std::io::{self, Read, Write};

/// Frame magic: `"CNE1"` as a little-endian u32.
pub const MAGIC: u32 = 0x314E_4543;
/// Protocol version; bumped on any layout change (2: payload checksum
/// added to the frame header).
pub const VERSION: u16 = 2;
/// Upper bound on a single frame's payload (guards against a corrupt
/// length prefix allocating unbounded memory).
pub const MAX_FRAME_LEN: u32 = 1 << 30;
/// Frame header size: kind `u8` + length `u32` + checksum `u32`.
pub const HEADER_LEN: usize = 9;
/// Most payload bytes [`Message::read_from`] reserves ahead of the bytes
/// received. The length prefix is not covered by the checksum, so a
/// corrupt one may claim up to [`MAX_FRAME_LEN`]; longer payloads are read
/// in chunks of this size.
const PAYLOAD_CHUNK: usize = 1 << 20;

/// FNV-1a over the payload bytes — the frame integrity check. Not
/// cryptographic (the peer is trusted); it exists to catch accidental
/// and injected corruption deterministically.
#[must_use]
pub fn frame_checksum(payload: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in payload {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Error codes carried by [`Message::Err`].
pub mod err_code {
    /// Malformed or out-of-protocol request.
    pub const PROTOCOL: u16 = 1;
    /// The query itself failed (payload carries the `CneError` display).
    pub const QUERY: u16 = 2;
    /// The worker has not been bootstrapped with a shard graph yet.
    pub const NOT_BOOTSTRAPPED: u16 = 3;
}

/// The serving counters a worker reports in [`Message::StatsResp`] —
/// mirrors `cne::serving::ServingStats` field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Published epoch (buffer swaps since start).
    pub epoch: u64,
    /// Deltas appended to the worker's log.
    pub appended: u64,
    /// Deltas published (visible or rejected).
    pub published: u64,
    /// `appended - published`.
    pub ingest_lag: u64,
    /// Deltas dropped with a rejected batch.
    pub rejected: u64,
    /// Snapshots pinned since start.
    pub snapshots: u64,
    /// Median per-snapshot lag (log2 bucket lower bound).
    pub lag_p50: u64,
    /// 95th-percentile per-snapshot lag.
    pub lag_p95: u64,
}

/// The round-1 artifact shipped from the target's owner to the
/// coordinator (and verbatim onward in every round-2 request): everything
/// a remote worker needs to run its slice of round 2, and everything the
/// coordinator needs to replay the accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRound1 {
    /// Total query budget ε.
    pub epsilon: f64,
    /// Randomized-response flip probability.
    pub flip_probability: f64,
    /// Round-2 Laplace budget ε₂ (raw value).
    pub eps2: f64,
    /// The ε₁ recorded on the noisy row (its `NoisyNeighborsPacked::epsilon`).
    pub rr_epsilon: f64,
    /// Base seed for the per-candidate user streams.
    pub base_seed: u64,
    /// Bit universe of the packed row (the opposite layer's size).
    pub universe: u64,
    /// The noisy row's raw 64-bit words.
    pub words: Vec<u64>,
}

impl WireRound1 {
    /// Rebuilds the typed round-1 artifact of `owner`'s row on `layer`.
    /// The row must fit its universe, as every decoded one does.
    ///
    /// # Errors
    ///
    /// A description of the fault when `eps2` is not a valid budget.
    pub(crate) fn into_round1(self, owner: VertexId, layer: Layer) -> Result<BatchRound1, String> {
        let eps2 = PrivacyBudget::new(self.eps2).map_err(|e| format!("bad eps2: {e}"))?;
        Ok(BatchRound1 {
            epsilon: self.epsilon,
            flip_probability: self.flip_probability,
            eps2,
            base_seed: self.base_seed,
            noisy_target: NoisyNeighborsPacked::from_parts(
                owner,
                layer,
                self.rr_epsilon,
                PackedSet::from_words(self.words, self.universe as usize),
            ),
        })
    }
}

impl From<&BatchRound1> for WireRound1 {
    fn from(r1: &BatchRound1) -> Self {
        let row = r1.noisy_target.set();
        Self {
            epsilon: r1.epsilon,
            flip_probability: r1.flip_probability,
            eps2: r1.eps2.value(),
            rr_epsilon: r1.noisy_target.epsilon,
            base_seed: r1.base_seed,
            universe: row.universe() as u64,
            words: row.as_words().to_vec(),
        }
    }
}

/// One protocol message. See the [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake request (coordinator → worker).
    Hello,
    /// Handshake response carrying the worker's shard range.
    HelloAck {
        /// First shard-layer vertex this worker owns.
        shard_lo: u32,
        /// One past the last owned vertex (`u32::MAX` = open-ended).
        shard_hi: u32,
    },
    /// Full shard-graph state: global layer sizes + the shard's edges.
    Bootstrap {
        /// Global upper-layer size.
        n_upper: u64,
        /// Global lower-layer size.
        n_lower: u64,
        /// The shard's edges as `(upper, lower)` pairs.
        edges: Vec<(u32, u32)>,
    },
    /// Bootstrap complete; the worker is serving.
    BootstrapAck,
    /// Bootstrap from a snapshot **file** instead of streamed edges: the
    /// worker loads the versioned binary snapshot at `path`
    /// (`bigraph::snapshot`), verifies its graph epoch against `epoch`,
    /// restricts it to `shard_lo..shard_hi` of `shard_layer`, and serves
    /// from the restricted engine. Answered with [`Message::BootstrapAck`]
    /// on success — the coordinator then replays the retained update-log
    /// tail past the snapshot's pinned sequence over ordinary
    /// [`Message::Update`] frames. The file must be reachable on the
    /// worker's filesystem (same host or shared storage); only the path
    /// crosses the socket, which is the point — one snapshot fans out to
    /// N workers without N copies of the edge list in flight.
    BootstrapSnapshot {
        /// Expected graph epoch; a snapshot stamped differently is
        /// rejected (the coordinator's tail replay would not line up).
        epoch: u64,
        /// The layer the cluster shards on.
        shard_layer: Layer,
        /// First shard-layer vertex this worker owns.
        shard_lo: u32,
        /// One past the last owned vertex (`u32::MAX` = open-ended).
        shard_hi: u32,
        /// Snapshot file path, UTF-8.
        path: String,
    },
    /// A partitioned slice of the update stream, in arrival order.
    Update {
        /// Idempotency key: a per-worker counter the coordinator bumps
        /// once per **logical** update exchange, so a resend of the same
        /// frame after a timed-out ack carries the same value. The worker
        /// skips any batch it has already ingested (`batch_seq` ≤ its
        /// high-water mark) and just re-acks — without this, a stalled
        /// ack would make reconnect-and-resend double-apply the batch,
        /// and `AddVertex` is not idempotent. `0` never dedupes (the
        /// counter starts at 1); bootstrap resets the worker's mark.
        batch_seq: u64,
        /// The deltas for this worker's shard.
        deltas: Vec<GraphDelta>,
    },
    /// Update ingested (appended to the worker's log).
    UpdateAck {
        /// The worker log's last allocated sequence number.
        appended: u64,
    },
    /// Block until every ingested delta is published.
    Flush,
    /// Flush complete.
    FlushAck {
        /// Deltas published by the worker.
        published: u64,
    },
    /// Run batch round 1 (validation + target randomized response).
    Round1Req {
        /// Query layer.
        layer: Layer,
        /// The target vertex (owned by this worker).
        target: u32,
        /// Total query budget ε.
        epsilon: f64,
        /// The algorithm's ε₁ split fraction.
        eps1_fraction: f64,
        /// Deterministic query seed (`StdRng::seed_from_u64`).
        seed: u64,
        /// The **full** candidate list, for validation.
        candidates: Vec<u32>,
    },
    /// Round-1 artifact.
    Round1Resp(WireRound1),
    /// Run round 2 for a slice of candidates owned by this worker.
    Round2Req {
        /// Query layer.
        layer: Layer,
        /// The target vertex (for row reconstruction).
        owner: u32,
        /// The round-1 artifact, verbatim from [`Message::Round1Resp`].
        round1: WireRound1,
        /// This worker's candidate slice, in original relative order.
        candidates: Vec<u32>,
    },
    /// Per-candidate estimates, bit-exact.
    Round2Resp {
        /// `(candidate, estimate.to_bits())` pairs, in request order.
        estimates: Vec<(u32, u64)>,
    },
    /// Request serving counters.
    StatsReq,
    /// Serving counters.
    StatsResp(WireStats),
    /// Orderly worker shutdown.
    Shutdown,
    /// Shutdown acknowledged; the worker exits after this frame.
    ShutdownAck,
    /// Request-level failure.
    Err {
        /// One of [`err_code`]'s constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

/// Message kind bytes.
mod kind {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const BOOTSTRAP: u8 = 0x10;
    pub const BOOTSTRAP_ACK: u8 = 0x11;
    pub const BOOTSTRAP_SNAPSHOT: u8 = 0x12;
    pub const UPDATE: u8 = 0x20;
    pub const UPDATE_ACK: u8 = 0x21;
    pub const FLUSH: u8 = 0x30;
    pub const FLUSH_ACK: u8 = 0x31;
    pub const ROUND1_REQ: u8 = 0x40;
    pub const ROUND1_RESP: u8 = 0x41;
    pub const ROUND2_REQ: u8 = 0x50;
    pub const ROUND2_RESP: u8 = 0x51;
    pub const STATS_REQ: u8 = 0x60;
    pub const STATS_RESP: u8 = 0x61;
    pub const SHUTDOWN: u8 = 0x70;
    pub const SHUTDOWN_ACK: u8 = 0x71;
    pub const ERR: u8 = 0x7F;
}

// ---------------------------------------------------------------- encode

/// Little-endian append helpers over a byte buffer.
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

fn layer_byte(layer: Layer) -> u8 {
    match layer {
        Layer::Upper => 0,
        Layer::Lower => 1,
    }
}

fn put_round1(buf: &mut Vec<u8>, r: &WireRound1) {
    buf.put_f64(r.epsilon);
    buf.put_f64(r.flip_probability);
    buf.put_f64(r.eps2);
    buf.put_f64(r.rr_epsilon);
    buf.put_u64(r.base_seed);
    buf.put_u64(r.universe);
    buf.put_u32(u32::try_from(r.words.len()).expect("row words fit u32"));
    for &w in &r.words {
        buf.put_u64(w);
    }
}

fn put_delta(buf: &mut Vec<u8>, delta: GraphDelta) {
    match delta {
        GraphDelta::AddEdge { upper, lower } => {
            buf.put_u8(0);
            buf.put_u32(upper);
            buf.put_u32(lower);
        }
        GraphDelta::RemoveEdge { upper, lower } => {
            buf.put_u8(1);
            buf.put_u32(upper);
            buf.put_u32(lower);
        }
        GraphDelta::AddVertex { layer } => {
            buf.put_u8(2);
            buf.put_u8(layer_byte(layer));
        }
    }
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello => kind::HELLO,
            Message::HelloAck { .. } => kind::HELLO_ACK,
            Message::Bootstrap { .. } => kind::BOOTSTRAP,
            Message::BootstrapAck => kind::BOOTSTRAP_ACK,
            Message::BootstrapSnapshot { .. } => kind::BOOTSTRAP_SNAPSHOT,
            Message::Update { .. } => kind::UPDATE,
            Message::UpdateAck { .. } => kind::UPDATE_ACK,
            Message::Flush => kind::FLUSH,
            Message::FlushAck { .. } => kind::FLUSH_ACK,
            Message::Round1Req { .. } => kind::ROUND1_REQ,
            Message::Round1Resp(_) => kind::ROUND1_RESP,
            Message::Round2Req { .. } => kind::ROUND2_REQ,
            Message::Round2Resp { .. } => kind::ROUND2_RESP,
            Message::StatsReq => kind::STATS_REQ,
            Message::StatsResp(_) => kind::STATS_RESP,
            Message::Shutdown => kind::SHUTDOWN,
            Message::ShutdownAck => kind::SHUTDOWN_ACK,
            Message::Err { .. } => kind::ERR,
        }
    }

    /// Serializes the payload (everything after the 5-byte frame header).
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello => {
                buf.put_u32(MAGIC);
                buf.put_u16(VERSION);
            }
            Message::HelloAck { shard_lo, shard_hi } => {
                buf.put_u32(MAGIC);
                buf.put_u16(VERSION);
                buf.put_u32(*shard_lo);
                buf.put_u32(*shard_hi);
            }
            Message::Bootstrap {
                n_upper,
                n_lower,
                edges,
            } => {
                buf.put_u64(*n_upper);
                buf.put_u64(*n_lower);
                buf.put_u64(edges.len() as u64);
                for &(u, l) in edges {
                    buf.put_u32(u);
                    buf.put_u32(l);
                }
            }
            Message::BootstrapSnapshot {
                epoch,
                shard_layer,
                shard_lo,
                shard_hi,
                path,
            } => {
                buf.put_u64(*epoch);
                buf.put_u8(layer_byte(*shard_layer));
                buf.put_u32(*shard_lo);
                buf.put_u32(*shard_hi);
                buf.put_u32(u32::try_from(path.len()).expect("path fits u32"));
                buf.extend_from_slice(path.as_bytes());
            }
            Message::BootstrapAck | Message::Flush | Message::StatsReq => {}
            Message::Shutdown | Message::ShutdownAck => {}
            Message::Update { batch_seq, deltas } => {
                buf.put_u64(*batch_seq);
                buf.put_u32(u32::try_from(deltas.len()).expect("delta count fits u32"));
                for &d in deltas {
                    put_delta(buf, d);
                }
            }
            Message::UpdateAck { appended } => buf.put_u64(*appended),
            Message::FlushAck { published } => buf.put_u64(*published),
            Message::Round1Req {
                layer,
                target,
                epsilon,
                eps1_fraction,
                seed,
                candidates,
            } => {
                buf.put_u8(layer_byte(*layer));
                buf.put_u32(*target);
                buf.put_f64(*epsilon);
                buf.put_f64(*eps1_fraction);
                buf.put_u64(*seed);
                buf.put_u32(u32::try_from(candidates.len()).expect("candidates fit u32"));
                for &c in candidates {
                    buf.put_u32(c);
                }
            }
            Message::Round1Resp(r) => put_round1(buf, r),
            Message::Round2Req {
                layer,
                owner,
                round1,
                candidates,
            } => {
                buf.put_u8(layer_byte(*layer));
                buf.put_u32(*owner);
                put_round1(buf, round1);
                buf.put_u32(u32::try_from(candidates.len()).expect("candidates fit u32"));
                for &c in candidates {
                    buf.put_u32(c);
                }
            }
            Message::Round2Resp { estimates } => {
                buf.put_u32(u32::try_from(estimates.len()).expect("estimates fit u32"));
                for &(c, bits) in estimates {
                    buf.put_u32(c);
                    buf.put_u64(bits);
                }
            }
            Message::StatsResp(s) => {
                for v in [
                    s.epoch,
                    s.appended,
                    s.published,
                    s.ingest_lag,
                    s.rejected,
                    s.snapshots,
                    s.lag_p50,
                    s.lag_p95,
                ] {
                    buf.put_u64(v);
                }
            }
            Message::Err { code, message } => {
                buf.put_u16(*code);
                buf.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Encodes the full frame (kind byte, length prefix, payload) into a
    /// buffer — the exact bytes [`write_to`](Message::write_to) puts on
    /// the wire, exposed so a transport layer can inspect, count, or
    /// deliberately perturb a frame before sending it (the fault-injection
    /// harness corrupts and drops frames at this seam).
    #[must_use]
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(64);
        frame.put_u8(self.kind());
        frame.put_u32(0); // length patched below
        frame.put_u32(0); // checksum patched below
        self.encode_payload(&mut frame);
        let len = u32::try_from(frame.len() - HEADER_LEN).expect("frame fits u32");
        frame[1..5].copy_from_slice(&len.to_le_bytes());
        let sum = frame_checksum(&frame[HEADER_LEN..]);
        frame[5..9].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Writes the full frame (header + payload) to `w` in one
    /// `write_all`, so a frame is never interleaved mid-write.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_frame_bytes())?;
        w.flush()
    }

    /// Reads one full frame from `r`, blocking until the payload is
    /// complete (or the reader's timeout fires).
    ///
    /// # Errors
    ///
    /// I/O errors from `r` (`UnexpectedEof` when the input ends before the
    /// payload its header announces), plus `InvalidData` for a checksum
    /// mismatch, bad magic, an unsupported version, an unknown kind byte,
    /// an over-long frame, or a payload that does not match its kind's
    /// layout.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Message> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let kind = header[0];
        let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
        let sum = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(bad_data(format!("frame length {len} exceeds cap")));
        }
        let len = len as usize;
        let mut payload = Vec::new();
        while payload.len() < len {
            let filled = payload.len();
            payload.resize(filled + (len - filled).min(PAYLOAD_CHUNK), 0);
            r.read_exact(&mut payload[filled..])?;
        }
        let found = frame_checksum(&payload);
        if found != sum {
            return Err(bad_data(format!(
                "frame checksum mismatch: header says {sum:#010x}, payload hashes to {found:#010x}"
            )));
        }
        decode(kind, &payload)
    }
}

// ---------------------------------------------------------------- decode

fn bad_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// A little-endian cursor over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(bad_data("truncated frame payload".into())),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn layer(&mut self) -> io::Result<Layer> {
        match self.u8()? {
            0 => Ok(Layer::Upper),
            1 => Ok(Layer::Lower),
            b => Err(bad_data(format!("invalid layer byte {b}"))),
        }
    }

    /// `n` clamped to how many `elem_bytes`-sized items the unread payload
    /// can still hold: the capacity to reserve for a count read off the
    /// wire, so a corrupt count cannot allocate past the frame's size.
    fn capacity_for(&self, n: usize, elem_bytes: usize) -> usize {
        n.min((self.buf.len() - self.at) / elem_bytes)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn finish(self) -> io::Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(bad_data("trailing bytes after frame payload".into()))
        }
    }
}

fn check_handshake(c: &mut Cursor<'_>) -> io::Result<()> {
    let magic = c.u32()?;
    if magic != MAGIC {
        return Err(bad_data(format!("bad magic {magic:#010x}")));
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(bad_data(format!(
            "protocol version {version} (expected {VERSION})"
        )));
    }
    Ok(())
}

fn take_candidates(c: &mut Cursor<'_>) -> io::Result<Vec<u32>> {
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(c.capacity_for(n, 4));
    for _ in 0..n {
        out.push(c.u32()?);
    }
    Ok(out)
}

fn take_round1(c: &mut Cursor<'_>) -> io::Result<WireRound1> {
    let epsilon = c.f64()?;
    let flip_probability = c.f64()?;
    let eps2 = c.f64()?;
    let rr_epsilon = c.f64()?;
    let base_seed = c.u64()?;
    let universe = c.u64()?;
    let n_words = c.u32()? as usize;
    // The row must fit its universe the way `PackedSet::from_words`
    // asserts it: exactly ⌈universe/64⌉ words, no bit at or past
    // `universe`.
    if n_words as u64 != universe.div_ceil(64) {
        return Err(bad_data(format!(
            "round-1 row has {n_words} words for universe {universe}"
        )));
    }
    let mut words = Vec::with_capacity(c.capacity_for(n_words, 8));
    for _ in 0..n_words {
        words.push(c.u64()?);
    }
    let tail = universe % 64;
    if tail != 0 && words.last().is_some_and(|&w| w >> tail != 0) {
        return Err(bad_data(format!(
            "round-1 row sets bits past universe {universe}"
        )));
    }
    Ok(WireRound1 {
        epsilon,
        flip_probability,
        eps2,
        rr_epsilon,
        base_seed,
        universe,
        words,
    })
}

fn take_delta(c: &mut Cursor<'_>) -> io::Result<GraphDelta> {
    match c.u8()? {
        0 => Ok(GraphDelta::AddEdge {
            upper: c.u32()?,
            lower: c.u32()?,
        }),
        1 => Ok(GraphDelta::RemoveEdge {
            upper: c.u32()?,
            lower: c.u32()?,
        }),
        2 => Ok(GraphDelta::AddVertex { layer: c.layer()? }),
        b => Err(bad_data(format!("invalid delta tag {b}"))),
    }
}

fn decode(kind_byte: u8, payload: &[u8]) -> io::Result<Message> {
    let mut c = Cursor::new(payload);
    let msg = match kind_byte {
        kind::HELLO => {
            check_handshake(&mut c)?;
            Message::Hello
        }
        kind::HELLO_ACK => {
            check_handshake(&mut c)?;
            Message::HelloAck {
                shard_lo: c.u32()?,
                shard_hi: c.u32()?,
            }
        }
        kind::BOOTSTRAP => {
            let n_upper = c.u64()?;
            let n_lower = c.u64()?;
            let n_edges = c.u64()? as usize;
            let mut edges = Vec::with_capacity(c.capacity_for(n_edges, 8));
            for _ in 0..n_edges {
                edges.push((c.u32()?, c.u32()?));
            }
            Message::Bootstrap {
                n_upper,
                n_lower,
                edges,
            }
        }
        kind::BOOTSTRAP_ACK => Message::BootstrapAck,
        kind::BOOTSTRAP_SNAPSHOT => {
            let epoch = c.u64()?;
            let shard_layer = c.layer()?;
            let shard_lo = c.u32()?;
            let shard_hi = c.u32()?;
            let path_len = c.u32()? as usize;
            let path = String::from_utf8(c.take(path_len)?.to_vec())
                .map_err(|_| bad_data("snapshot path is not UTF-8".into()))?;
            Message::BootstrapSnapshot {
                epoch,
                shard_layer,
                shard_lo,
                shard_hi,
                path,
            }
        }
        kind::UPDATE => {
            let batch_seq = c.u64()?;
            let n = c.u32()? as usize;
            // The shortest delta (`AddVertex`) is a tag byte + a layer byte.
            let mut deltas = Vec::with_capacity(c.capacity_for(n, 2));
            for _ in 0..n {
                deltas.push(take_delta(&mut c)?);
            }
            Message::Update { batch_seq, deltas }
        }
        kind::UPDATE_ACK => Message::UpdateAck { appended: c.u64()? },
        kind::FLUSH => Message::Flush,
        kind::FLUSH_ACK => Message::FlushAck {
            published: c.u64()?,
        },
        kind::ROUND1_REQ => Message::Round1Req {
            layer: c.layer()?,
            target: c.u32()?,
            epsilon: c.f64()?,
            eps1_fraction: c.f64()?,
            seed: c.u64()?,
            candidates: take_candidates(&mut c)?,
        },
        kind::ROUND1_RESP => Message::Round1Resp(take_round1(&mut c)?),
        kind::ROUND2_REQ => Message::Round2Req {
            layer: c.layer()?,
            owner: c.u32()?,
            round1: take_round1(&mut c)?,
            candidates: take_candidates(&mut c)?,
        },
        kind::ROUND2_RESP => {
            let n = c.u32()? as usize;
            let mut estimates = Vec::with_capacity(c.capacity_for(n, 12));
            for _ in 0..n {
                estimates.push((c.u32()?, c.u64()?));
            }
            Message::Round2Resp { estimates }
        }
        kind::STATS_REQ => Message::StatsReq,
        kind::STATS_RESP => Message::StatsResp(WireStats {
            epoch: c.u64()?,
            appended: c.u64()?,
            published: c.u64()?,
            ingest_lag: c.u64()?,
            rejected: c.u64()?,
            snapshots: c.u64()?,
            lag_p50: c.u64()?,
            lag_p95: c.u64()?,
        }),
        kind::SHUTDOWN => Message::Shutdown,
        kind::SHUTDOWN_ACK => Message::ShutdownAck,
        kind::ERR => {
            let code = c.u16()?;
            let message = String::from_utf8(c.rest().to_vec())
                .map_err(|_| bad_data("error message is not UTF-8".into()))?;
            Message::Err { code, message }
        }
        b => return Err(bad_data(format!("unknown message kind {b:#04x}"))),
    };
    c.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let mut buf = Vec::new();
        msg.write_to(&mut buf).unwrap();
        let decoded = Message::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn every_message_kind_round_trips() {
        round_trip(Message::Hello);
        round_trip(Message::HelloAck {
            shard_lo: 7,
            shard_hi: u32::MAX,
        });
        round_trip(Message::Bootstrap {
            n_upper: 10,
            n_lower: 20,
            edges: vec![(0, 1), (9, 19)],
        });
        round_trip(Message::BootstrapAck);
        round_trip(Message::BootstrapSnapshot {
            epoch: 12,
            shard_layer: Layer::Upper,
            shard_lo: 128,
            shard_hi: u32::MAX,
            path: "/tmp/cluster/epoch-12.snap".into(),
        });
        round_trip(Message::Update {
            batch_seq: 9,
            deltas: vec![
                GraphDelta::AddEdge { upper: 1, lower: 2 },
                GraphDelta::RemoveEdge { upper: 3, lower: 4 },
                GraphDelta::AddVertex {
                    layer: Layer::Lower,
                },
            ],
        });
        round_trip(Message::UpdateAck { appended: 42 });
        round_trip(Message::Flush);
        round_trip(Message::FlushAck { published: 42 });
        let r1 = WireRound1 {
            epsilon: 2.0,
            flip_probability: 0.268_941,
            eps2: 1.0,
            rr_epsilon: 1.0,
            base_seed: 0xDEAD_BEEF,
            universe: 132,
            words: vec![u64::MAX, 0, 0b1011],
        };
        round_trip(Message::Round1Req {
            layer: Layer::Upper,
            target: 0,
            epsilon: 2.0,
            eps1_fraction: 0.5,
            seed: 99,
            candidates: vec![1, 2, 3],
        });
        round_trip(Message::Round1Resp(r1.clone()));
        round_trip(Message::Round2Req {
            layer: Layer::Lower,
            owner: 5,
            round1: r1,
            candidates: vec![8, 9],
        });
        round_trip(Message::Round2Resp {
            estimates: vec![(8, 4.5f64.to_bits()), (9, (-0.25f64).to_bits())],
        });
        round_trip(Message::StatsReq);
        round_trip(Message::StatsResp(WireStats {
            epoch: 1,
            appended: 2,
            published: 3,
            ingest_lag: 4,
            rejected: 5,
            snapshots: 6,
            lag_p50: 0,
            lag_p95: 8,
        }));
        round_trip(Message::Shutdown);
        round_trip(Message::ShutdownAck);
        round_trip(Message::Err {
            code: err_code::QUERY,
            message: "target out of range".into(),
        });
    }

    #[test]
    fn estimates_cross_the_wire_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, -7.25] {
            let msg = Message::Round2Resp {
                estimates: vec![(0, v.to_bits())],
            };
            let mut buf = Vec::new();
            msg.write_to(&mut buf).unwrap();
            match Message::read_from(&mut buf.as_slice()).unwrap() {
                Message::Round2Resp { estimates } => {
                    assert_eq!(f64::from_bits(estimates[0].1).to_bits(), v.to_bits());
                }
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    /// Recomputes a hand-mutated frame's length and checksum so the test
    /// reaches the *decode*-level validation it targets (rather than
    /// tripping the checksum first).
    fn reseal(frame: &mut [u8]) {
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[1..5].copy_from_slice(&len.to_le_bytes());
        let sum = frame_checksum(&frame[HEADER_LEN..]);
        frame[5..9].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        Message::Hello.write_to(&mut buf).unwrap();
        // Truncated payload.
        assert!(Message::read_from(&mut &buf[..buf.len() - 1]).is_err());
        // Unknown kind.
        let mut bad = buf.clone();
        bad[0] = 0x33;
        assert!(Message::read_from(&mut bad.as_slice()).is_err());
        // Bad magic (resealed: the magic check itself must fire).
        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 0xFF;
        reseal(&mut bad);
        assert!(Message::read_from(&mut bad.as_slice()).is_err());
        // Wrong version (resealed: the version check itself must fire).
        let mut bad = buf;
        bad[HEADER_LEN + 4] ^= 0xFF;
        reseal(&mut bad);
        assert!(Message::read_from(&mut bad.as_slice()).is_err());
        // Over-long length prefix.
        let huge = [kind::HELLO, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        assert!(Message::read_from(&mut huge.as_slice()).is_err());
        // Trailing garbage after a fixed-layout payload.
        let mut trailing = Vec::new();
        Message::UpdateAck { appended: 1 }
            .write_to(&mut trailing)
            .unwrap();
        trailing.push(0);
        reseal(&mut trailing);
        assert!(Message::read_from(&mut trailing.as_slice()).is_err());
        // A round-1 row that does not fit its universe: one word short in
        // a `Round1Resp`, a bit past the universe in a `Round2Req`. The
        // frames are well sealed, so the row check itself must fire.
        let short_row = WireRound1 {
            epsilon: 2.0,
            flip_probability: 0.25,
            eps2: 1.0,
            rr_epsilon: 1.0,
            base_seed: 1,
            universe: 130,
            words: vec![u64::MAX, 0],
        };
        let stray_bit = WireRound1 {
            words: vec![0, 0, 1 << 2],
            ..short_row.clone()
        };
        let frames = [
            Message::Round1Resp(short_row),
            Message::Round2Req {
                layer: Layer::Upper,
                owner: 0,
                round1: stray_bit,
                candidates: vec![1],
            },
        ];
        for msg in frames {
            let mut frame = Vec::new();
            msg.write_to(&mut frame).unwrap();
            let err = Message::read_from(&mut frame.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// The integrity check must catch a flipped payload byte even when
    /// the mutated payload would still decode — e.g. an edge id in an
    /// `Update` whose corruption would otherwise silently diverge a
    /// shard. Every post-header byte flip must be rejected.
    #[test]
    fn checksum_rejects_any_single_flipped_byte() {
        let mut buf = Vec::new();
        Message::Update {
            batch_seq: 7,
            deltas: vec![GraphDelta::AddEdge { upper: 1, lower: 2 }],
        }
        .write_to(&mut buf)
        .unwrap();
        for at in 5..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x04; // flips a vertex-id bit at payload offsets
            let err = Message::read_from(&mut bad.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {at}");
        }
    }
}
