//! Shared protocol building blocks: queries and round helpers.
//!
//! Every estimation algorithm is phrased as a sequence of *vertex-side* and
//! *curator-side* steps. The helpers here implement the steps that several
//! algorithms share — validating the query and running a randomized-response
//! round for one or both query vertices — so the per-algorithm modules only
//! contain the logic that distinguishes them. All run state (budget,
//! transcript, RNG) flows through one [`RoundContext`].

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::Result;
use bigraph::{common_neighbors, BipartiteGraph, Layer, VertexId};
use ldp::budget::{Composition, PrivacyBudget};
use ldp::noisy_graph::NoisyNeighborsPacked;
use ldp::transcript::{Direction, Label};
use serde::{Deserialize, Serialize};

/// Size in bytes of one reported edge endpoint in a noisy-edge upload.
pub const EDGE_BYTES: usize = std::mem::size_of::<VertexId>();
/// Size in bytes of one scalar (estimator value or noisy degree) message.
pub const SCALAR_BYTES: usize = std::mem::size_of::<f64>();

/// A same-layer query pair `(u, w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// The layer both query vertices live on.
    pub layer: Layer,
    /// The first query vertex.
    pub u: VertexId,
    /// The second query vertex.
    pub w: VertexId,
}

impl Query {
    /// Creates a query for two vertices on `layer`.
    #[must_use]
    pub fn new(layer: Layer, u: VertexId, w: VertexId) -> Self {
        Self { layer, u, w }
    }

    /// Validates the query against a graph: both vertices exist, are distinct,
    /// and live on the stated layer.
    ///
    /// # Errors
    ///
    /// Propagates [`bigraph::GraphError`] wrapped in [`crate::CneError::Graph`].
    pub fn validate(&self, g: &BipartiteGraph) -> Result<()> {
        common_neighbors::check_query_pair(g, self.layer, self.u, self.w)?;
        Ok(())
    }

    /// The exact (non-private) common-neighbor count — the ground truth the
    /// experiment harness compares estimates against.
    ///
    /// # Errors
    ///
    /// Propagates graph errors for invalid queries.
    pub fn exact_count(&self, g: &BipartiteGraph) -> Result<u64> {
        Ok(common_neighbors::count(g, self.layer, self.u, self.w)?)
    }

    /// The query with `u` and `w` swapped.
    #[must_use]
    pub fn swapped(&self) -> Query {
        Query::new(self.layer, self.w, self.u)
    }

    /// Number of vertices on the opposite layer (the candidate pool size the
    /// one-round algorithms work with; `n₁` in the paper when `u, w ∈ L(G)`).
    #[must_use]
    pub fn opposite_size(&self, g: &BipartiteGraph) -> usize {
        g.layer_size(self.layer.opposite())
    }
}

/// Outcome of a **packed-native** randomized-response round: the noisy
/// rows live directly in bit-packed form (see
/// [`ldp::noisy_graph::NoisyNeighborsPacked`]), ready for word-parallel
/// intersection — no id list is ever materialized.
#[derive(Debug, Clone)]
pub struct RrRoundPacked {
    /// The packed noisy rows, in the same order as the vertices passed in.
    pub noisy: Vec<NoisyNeighborsPacked>,
    /// The flip probability used.
    pub flip_probability: f64,
}

/// Runs one randomized-response round: each vertex in `vertices` perturbs its
/// neighbor list with budget `epsilon1` and uploads the noisy edges to the
/// curator. The round is recorded in the context's transcript (one upload
/// per vertex) and charged to its budget once, sequentially.
///
/// Each noisy row is produced directly in bit-packed words — the engine's
/// cached true-adjacency bitmaps (when the environment carries a warm
/// store) are OR-ed in word-wise instead of re-walking the id list. The
/// rows consume the RNG stream draw-for-draw like
/// [`ldp::noisy_graph::NoisyNeighbors::generate_with`] and hold exactly its
/// bits, so [`NoisyNeighborsPacked::materialize`] recovers the id lists.
///
/// # Errors
///
/// Fails if the charge would exceed the run's total budget.
pub fn randomized_response_round_packed(
    env: ProtocolEnv<'_>,
    layer: Layer,
    vertices: &[VertexId],
    epsilon1: PrivacyBudget,
    round: u32,
    ctx: &mut RoundContext<'_>,
) -> Result<RrRoundPacked> {
    // One sequential charge covers every reporting vertex: their neighbor
    // lists are disjoint datasets, so the paper accounts the RR round once
    // at ε₁ (parallel composition over the reporters — Theorem 7 / 10).
    ctx.charge(
        Label::Indexed("round", round, ":rr"),
        epsilon1,
        Composition::Sequential,
    )?;
    let mut noisy = Vec::with_capacity(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        let true_packed = env.round1_true_bitmap(layer, v);
        let (rng, scratch) = ctx.rng_and_scratch();
        let row = NoisyNeighborsPacked::generate_with(
            env.graph,
            layer,
            v,
            epsilon1,
            rng,
            scratch.perturb_scratch(),
            true_packed,
        );
        ctx.record(
            round,
            Direction::Upload,
            Label::Indexed("noisy-edges(v", i as u32, ")"),
            row.message_bytes(),
        );
        noisy.push(row);
    }
    Ok(RrRoundPacked {
        noisy,
        flip_probability: 1.0 / (1.0 + epsilon1.value().exp()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoundContext;
    use ldp::transcript::Direction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(3, 10, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 9)]).unwrap()
    }

    #[test]
    fn query_validation() {
        let g = toy();
        assert!(Query::new(Layer::Upper, 0, 1).validate(&g).is_ok());
        assert!(Query::new(Layer::Upper, 0, 0).validate(&g).is_err());
        assert!(Query::new(Layer::Upper, 0, 9).validate(&g).is_err());
        assert!(Query::new(Layer::Lower, 0, 9).validate(&g).is_ok());
    }

    #[test]
    fn query_exact_count_and_swap() {
        let g = toy();
        let q = Query::new(Layer::Upper, 0, 1);
        assert_eq!(q.exact_count(&g).unwrap(), 1);
        assert_eq!(q.swapped().exact_count(&g).unwrap(), 1);
        assert_eq!(q.swapped().u, 1);
        assert_eq!(q.opposite_size(&g), 10);
        assert_eq!(Query::new(Layer::Lower, 0, 1).opposite_size(&g), 3);
    }

    #[test]
    fn rr_round_charges_budget_once_and_records_uploads() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctx = RoundContext::begin_detailed(2.0, &mut rng).unwrap();
        let eps1 = PrivacyBudget::new(1.0).unwrap();
        let round = randomized_response_round_packed(
            ProtocolEnv::uncached(&g),
            Layer::Upper,
            &[0, 1],
            eps1,
            1,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(round.noisy.len(), 2);
        assert!((round.flip_probability - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
        let (budget, transcript) = ctx.finish();
        assert!((budget.consumed() - 1.0).abs() < 1e-12);
        assert_eq!(transcript.messages().len(), 2);
        assert_eq!(transcript.messages()[0].label, "noisy-edges(v0)");
        assert_eq!(transcript.messages()[1].label, "noisy-edges(v1)");
        assert_eq!(budget.charges()[0].label, "round1:rr");
        assert_eq!(transcript.rounds(), 1);
    }

    #[test]
    fn packed_round_matches_list_perturbation_exactly() {
        use ldp::noisy_graph::NoisyNeighbors;
        use ldp::randomized_response::PerturbScratch;
        use rand::RngCore;
        let g = toy();
        let eps1 = PrivacyBudget::new(1.0).unwrap();
        for seed in [3u64, 41] {
            // The list reference: the same vertices perturbed in order on
            // one stream by the id-list generator.
            let mut rng_list = StdRng::seed_from_u64(seed);
            let mut scratch = PerturbScratch::default();
            let lists: Vec<NoisyNeighbors> = [0, 1]
                .iter()
                .map(|&v| {
                    NoisyNeighbors::generate_with(
                        &g,
                        Layer::Upper,
                        v,
                        eps1,
                        &mut rng_list,
                        &mut scratch,
                    )
                })
                .collect();
            let mut rng_packed = StdRng::seed_from_u64(seed);
            let mut ctx = RoundContext::begin_detailed(2.0, &mut rng_packed).unwrap();
            let packed_round = randomized_response_round_packed(
                ProtocolEnv::uncached(&g),
                Layer::Upper,
                &[0, 1],
                eps1,
                1,
                &mut ctx,
            )
            .unwrap();
            for (list, packed) in lists.iter().zip(&packed_round.noisy) {
                assert_eq!(packed.set().to_sorted_ids(), list.neighbors());
                assert_eq!(packed.materialize(), list.clone());
            }
            // One upload per row, sized as the id list; same RNG state.
            let (_, transcript) = ctx.finish();
            let sizes: Vec<usize> = transcript.messages().iter().map(|m| m.bytes).collect();
            let expected: Vec<usize> = lists.iter().map(NoisyNeighbors::message_bytes).collect();
            assert_eq!(sizes, expected);
            assert_eq!(rng_list.next_u64(), rng_packed.next_u64());
        }
    }

    #[test]
    fn packed_round_uses_cached_bitmaps_bit_identically() {
        use crate::engine::AdjacencyStore;
        // Dense vertices over a small universe so the store path engages.
        let edges = (0..40u32)
            .map(|v| (0u32, v))
            .chain((20..60u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, 64, edges).unwrap();
        let store = AdjacencyStore::new(&g);
        let eps1 = PrivacyBudget::new(1.0).unwrap();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut ctx_a = RoundContext::begin(2.0, &mut rng_a).unwrap();
        let uncached = randomized_response_round_packed(
            ProtocolEnv::uncached(&g),
            Layer::Upper,
            &[0, 1],
            eps1,
            1,
            &mut ctx_a,
        )
        .unwrap();
        let mut ctx_b = RoundContext::begin(2.0, &mut rng_b).unwrap();
        let cached = randomized_response_round_packed(
            ProtocolEnv::cached(&g, &store),
            Layer::Upper,
            &[0, 1],
            eps1,
            1,
            &mut ctx_b,
        )
        .unwrap();
        for (a, b) in uncached.noisy.iter().zip(&cached.noisy) {
            assert_eq!(a.set(), b.set());
        }
        // The dense sources' bitmaps were built for the word-wise OR.
        assert_eq!(store.cached_count(Layer::Upper), 2);
    }

    #[test]
    fn rr_round_rejects_overcharge() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctx = RoundContext::begin(0.5, &mut rng).unwrap();
        let eps1 = PrivacyBudget::new(1.0).unwrap();
        let err = randomized_response_round_packed(
            ProtocolEnv::uncached(&g),
            Layer::Upper,
            &[0],
            eps1,
            1,
            &mut ctx,
        );
        assert!(err.is_err());
    }

    #[test]
    fn download_and_scalar_records() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctx = RoundContext::begin(1.0, &mut rng).unwrap();
        let set = bigraph::bitset::PackedSet::from_sorted(&[1, 2, 3], 10);
        let row = NoisyNeighborsPacked::from_parts(0, Layer::Upper, 1.0, set);
        ctx.record_download_packed(2, "noisy-edges(w) -> u", &row);
        ctx.record_scalar_upload(2, "estimator(f_u)");
        let (_, t) = ctx.finish();
        assert_eq!(t.total_bytes(), 3 * EDGE_BYTES + SCALAR_BYTES);
        assert_eq!(t.bytes_in_direction(Direction::Download), 3 * EDGE_BYTES);
    }
}
