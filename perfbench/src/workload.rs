//! The four workloads and their seed-derived inputs.
//!
//! Everything a run feeds the system — the catalog graph, query targets,
//! candidate pools, query pairs, per-request protocol seeds and the
//! update stream — is a pure function of the workload and the run seed.
//! Requests are generated by index (`request(i)` draws from a stream keyed
//! by `(seed, i)`), so a run that serves more requests than another still
//! serves the same first ones.

use bigraph::{BipartiteGraph, GraphDelta, Layer, VertexId};
use cne::batch::user_stream_seed;
use datasets::{Catalog, DatasetCode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Edge cap of the catalog the workloads draw their graphs from.
pub const MAX_EDGES: usize = 4_000_000;
/// Total privacy budget of every query.
pub const EPSILON: f64 = 2.0;
/// Candidates per `screen-er` / `ingest-er` request.
pub const SCREEN_CANDIDATES: usize = 512;
/// Degree-rank band the screening targets are drawn from (just below the
/// candidate pool).
pub const SCREEN_TARGETS: usize = 256;
/// Candidates per `point-tm` request.
pub const POINT_CANDIDATES: usize = 4;
/// Largest degree a `point-tm` candidate may have.
pub const POINT_MAX_DEGREE: usize = 2;
/// Deltas per update batch.
pub const BATCH_EDGES: usize = 64;
/// Zipf exponent of every skewed choice.
pub const ZIPF_S: f64 = 1.0;
/// Every query targets (and shards on) the upper layer.
pub const LAYER: Layer = Layer::Upper;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScreenEr,
    PointTm,
    IngestEr,
    PairBx,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScreenEr,
        Workload::PointTm,
        Workload::IngestEr,
        Workload::PairBx,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScreenEr => "screen-er",
            Workload::PointTm => "point-tm",
            Workload::IngestEr => "ingest-er",
            Workload::PairBx => "pair-bx",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn dataset(self) -> DatasetCode {
        match self {
            Workload::ScreenEr | Workload::IngestEr => DatasetCode::ER,
            Workload::PointTm => DatasetCode::TM,
            Workload::PairBx => DatasetCode::BX,
        }
    }
}

/// The workload's catalog graph for `seed`, at `max_edges` scale.
pub fn graph(workload: Workload, seed: u64, max_edges: usize) -> BipartiteGraph {
    Catalog::scaled(max_edges)
        .generate(workload.dataset(), seed)
        .expect("every workload dataset is in the catalog")
        .graph
}

/// Salts separating the seed streams of the different input kinds.
const SALT_REQUEST: u64 = 0x5245_5155_4553_5400;
const SALT_UPDATE: u64 = 0x5550_4441_5445_5300;
const SALT_POOL: u64 = 0x504F_4F4C_5300_0000;

fn stream(seed: u64, salt: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(user_stream_seed(seed ^ salt, index))
}

/// Inverse-CDF sampler of a zipf law over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Upper-layer vertices by degree, highest first (ties by id).
pub fn degree_ranking(g: &BipartiteGraph) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..g.n_upper() as VertexId).collect();
    ids.sort_by_key(|&v| (std::cmp::Reverse(g.degree(LAYER, v)), v));
    ids
}

/// One batch query: a target against candidates, on a protocol seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    pub target: VertexId,
    pub candidates: Vec<VertexId>,
    pub seed: u64,
}

/// One single-pair query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRequest {
    pub u: VertexId,
    pub w: VertexId,
    pub seed: u64,
}

/// How batch requests pick their targets and candidates.
#[derive(Debug, Clone)]
enum BatchShape {
    /// Zipf target from a high-degree band; the fixed candidate pool.
    Screen { targets: Vec<VertexId>, zipf: Zipf },
    /// Uniform non-isolated target; a few distinct low-degree candidates.
    Point {
        targets: Vec<VertexId>,
        low: Vec<VertexId>,
    },
}

/// The batch-request stream of `screen-er`, `ingest-er` and `point-tm`.
#[derive(Debug, Clone)]
pub struct BatchRequests {
    seed: u64,
    shape: BatchShape,
    pool: Vec<VertexId>,
}

impl BatchRequests {
    /// Top-k screening: the `SCREEN_CANDIDATES` highest-degree users are
    /// the fixed candidate pool; targets are zipf-chosen from the next
    /// `SCREEN_TARGETS` ranks, hottest first.
    pub fn screen(g: &BipartiteGraph, seed: u64) -> Self {
        let ranking = degree_ranking(g);
        assert!(ranking.len() >= SCREEN_CANDIDATES + SCREEN_TARGETS);
        let pool = ranking[..SCREEN_CANDIDATES].to_vec();
        let mut targets = ranking[SCREEN_CANDIDATES..SCREEN_CANDIDATES + SCREEN_TARGETS].to_vec();
        // Which band member is hottest is itself seeded.
        targets.shuffle(&mut stream(seed, SALT_POOL, 0));
        Self {
            seed,
            shape: BatchShape::Screen {
                zipf: Zipf::new(targets.len(), ZIPF_S),
                targets,
            },
            pool,
        }
    }

    /// Point lookups: any non-isolated target against
    /// `POINT_CANDIDATES` users of degree 1..=`POINT_MAX_DEGREE`.
    pub fn point(g: &BipartiteGraph, seed: u64) -> Self {
        let degree = |v: VertexId| g.degree(LAYER, v);
        let ids = 0..g.n_upper() as VertexId;
        let targets: Vec<VertexId> = ids.clone().filter(|&v| degree(v) > 0).collect();
        let low: Vec<VertexId> = ids
            .filter(|&v| (1..=POINT_MAX_DEGREE).contains(&degree(v)))
            .collect();
        assert!(low.len() > POINT_CANDIDATES * 4, "too few low-degree users");
        Self {
            seed,
            shape: BatchShape::Point { targets, low },
            pool: Vec::new(),
        }
    }

    /// Request number `i`.
    pub fn request(&self, i: u64) -> BatchRequest {
        let mut rng = stream(self.seed, SALT_REQUEST, i);
        let (target, candidates) = match &self.shape {
            BatchShape::Screen { targets, zipf } => {
                (targets[zipf.sample(&mut rng)], self.pool.clone())
            }
            BatchShape::Point { targets, low } => {
                let target = targets[rng.gen_range(0..targets.len())];
                let mut picked = Vec::with_capacity(POINT_CANDIDATES);
                while picked.len() < POINT_CANDIDATES {
                    let w = low[rng.gen_range(0..low.len())];
                    if w != target && !picked.contains(&w) {
                        picked.push(w);
                    }
                }
                (target, picked)
            }
        };
        BatchRequest {
            target,
            candidates,
            seed: rng.next_u64(),
        }
    }
}

/// The degree-imbalanced pair stream of `pair-bx` (paper Fig. 9): a
/// top-1 % user against a user of the median non-zero degree.
#[derive(Debug, Clone)]
pub struct PairRequests {
    seed: u64,
    high: Vec<VertexId>,
    median: Vec<VertexId>,
}

impl PairRequests {
    pub fn new(g: &BipartiteGraph, seed: u64) -> Self {
        let ranking = degree_ranking(g);
        let high = ranking[..(ranking.len() / 100).max(1)].to_vec();
        let mut degrees: Vec<usize> = ranking
            .iter()
            .map(|&v| g.degree(LAYER, v))
            .filter(|&d| d > 0)
            .collect();
        degrees.sort_unstable();
        let median_degree = degrees[degrees.len() / 2];
        let median: Vec<VertexId> = ranking
            .iter()
            .copied()
            .filter(|&v| g.degree(LAYER, v) == median_degree && !high.contains(&v))
            .collect();
        assert!(!median.is_empty(), "no median-degree users");
        Self { seed, high, median }
    }

    /// Request number `i`.
    pub fn request(&self, i: u64) -> PairRequest {
        let mut rng = stream(self.seed, SALT_REQUEST, i);
        let u = self.high[rng.gen_range(0..self.high.len())];
        let w = self.median[rng.gen_range(0..self.median.len())];
        PairRequest {
            u,
            w,
            seed: rng.next_u64(),
        }
    }
}

/// The zipf update stream: `BATCH_EDGES`-delta batches whose user
/// endpoints follow a zipf law over the degree ranking (hot users are the
/// high-degree ones queries read) and whose items follow a zipf law over
/// a seeded item order. Even deltas add an edge; odd ones remove one of
/// the user's original edges.
#[derive(Debug, Clone)]
pub struct UpdateStream<'g> {
    seed: u64,
    graph: &'g BipartiteGraph,
    users: Vec<VertexId>,
    user_zipf: Zipf,
    items: Vec<VertexId>,
    item_zipf: Zipf,
}

impl<'g> UpdateStream<'g> {
    pub fn new(graph: &'g BipartiteGraph, seed: u64) -> Self {
        let users = degree_ranking(graph);
        let mut items: Vec<VertexId> = (0..graph.n_lower() as VertexId).collect();
        items.shuffle(&mut stream(seed, SALT_POOL, 1));
        Self {
            seed,
            graph,
            user_zipf: Zipf::new(users.len(), ZIPF_S),
            users,
            item_zipf: Zipf::new(items.len(), ZIPF_S),
            items,
        }
    }

    /// Batch number `k`.
    pub fn batch(&self, k: u64) -> Vec<GraphDelta> {
        let mut rng = stream(self.seed, SALT_UPDATE, k);
        (0..BATCH_EDGES)
            .map(|j| {
                let upper = self.users[self.user_zipf.sample(&mut rng)];
                let own = self.graph.neighbors(LAYER, upper);
                if j % 2 == 1 && !own.is_empty() {
                    let lower = own[rng.gen_range(0..own.len())];
                    GraphDelta::RemoveEdge { upper, lower }
                } else {
                    let lower = self.items[self.item_zipf.sample(&mut rng)];
                    GraphDelta::AddEdge { upper, lower }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a unit test, large enough for every pool.
    const TEST_EDGES: usize = 400_000;

    fn batch_gen(w: Workload, g: &BipartiteGraph, seed: u64) -> BatchRequests {
        match w {
            Workload::PointTm => BatchRequests::point(g, seed),
            _ => BatchRequests::screen(g, seed),
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let (a, b) = (graph(w, 11, TEST_EDGES), graph(w, 11, TEST_EDGES));
            assert_eq!(a, b, "{}", w.name());
            if w == Workload::PairBx {
                let (pa, pb) = (PairRequests::new(&a, 11), PairRequests::new(&b, 11));
                for i in 0..50 {
                    assert_eq!(pa.request(i), pb.request(i));
                }
            } else {
                let (ra, rb) = (batch_gen(w, &a, 11), batch_gen(w, &b, 11));
                for i in 0..50 {
                    assert_eq!(ra.request(i), rb.request(i));
                }
            }
            let (ua, ub) = (UpdateStream::new(&a, 11), UpdateStream::new(&b, 11));
            for k in 0..10 {
                assert_eq!(ua.batch(k), ub.batch(k));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            let (a, b) = (graph(w, 1, TEST_EDGES), graph(w, 2, TEST_EDGES));
            assert_ne!(a, b, "{}", w.name());
            // Same graph, different seed: the request and update streams
            // differ on their own too.
            if w == Workload::PairBx {
                let (pa, pb) = (PairRequests::new(&a, 1), PairRequests::new(&a, 2));
                assert!((0..50).any(|i| pa.request(i) != pb.request(i)));
            } else {
                let (ra, rb) = (batch_gen(w, &a, 1), batch_gen(w, &a, 2));
                assert!((0..50).any(|i| ra.request(i) != rb.request(i)));
            }
            let (ua, ub) = (UpdateStream::new(&a, 1), UpdateStream::new(&a, 2));
            assert_ne!(ua.batch(0), ub.batch(0));
        }
    }

    #[test]
    fn requests_are_valid_queries() {
        let g = graph(Workload::ScreenEr, 3, TEST_EDGES);
        let screen = BatchRequests::screen(&g, 3);
        for i in 0..20 {
            let r = screen.request(i);
            assert_eq!(r.candidates.len(), SCREEN_CANDIDATES);
            assert!(!r.candidates.contains(&r.target));
            cne::batch::validate_batch_query(&g, LAYER, r.target, &r.candidates).unwrap();
        }
        let g = graph(Workload::PointTm, 3, TEST_EDGES);
        let point = BatchRequests::point(&g, 3);
        for i in 0..200 {
            let r = point.request(i);
            assert_eq!(r.candidates.len(), POINT_CANDIDATES);
            for &w in &r.candidates {
                assert!((1..=POINT_MAX_DEGREE).contains(&g.degree(LAYER, w)));
            }
            cne::batch::validate_batch_query(&g, LAYER, r.target, &r.candidates).unwrap();
        }
        let g = graph(Workload::PairBx, 3, TEST_EDGES);
        let pairs = PairRequests::new(&g, 3);
        for i in 0..100 {
            let p = pairs.request(i);
            assert_ne!(p.u, p.w);
            assert!(g.degree(LAYER, p.u) > g.degree(LAYER, p.w));
        }
    }

    #[test]
    fn updates_stay_in_range() {
        let g = graph(Workload::IngestEr, 5, TEST_EDGES);
        let updates = UpdateStream::new(&g, 5);
        for k in 0..20 {
            let batch = updates.batch(k);
            assert_eq!(batch.len(), BATCH_EDGES);
            let mut b = bigraph::UpdateBatch::new();
            for d in batch {
                b.push(d);
            }
            b.validate(&g).unwrap();
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[99]);
    }
}
