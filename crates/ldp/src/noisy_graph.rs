//! Noisy neighbor sets produced by randomized response.
//!
//! The paper's algorithms never need the full noisy graph — only the noisy
//! neighbor lists of the one or two query vertices. Two representations
//! exist:
//!
//! * [`NoisyNeighborsPacked`] — the **packed-native** form the hot paths
//!   use: the perturbed row lives directly in `u64` words
//!   ([`bigraph::bitset::PackedSet`]), produced by
//!   [`RandomizedResponse::perturb_neighbor_list_packed`] without ever
//!   materializing an id list. Curator-side intersections go straight to
//!   word-parallel popcounts or per-id bit probes.
//! * [`NoisyNeighbors`] — the sorted-id-list form, kept for callers that
//!   genuinely need ids (serialization, transcript-faithful client
//!   simulations, ranking examples). [`NoisyNeighborsPacked::materialize`]
//!   converts the packed form into it.
//!
//! Both forms are generated from the same draw pipeline, consume the RNG
//! identically, and contain exactly the same bit set.
//! [`NoisyGraphViewPacked`] bundles the rows of both query vertices so
//! curator-side code can intersect them.

use crate::budget::PrivacyBudget;
use crate::randomized_response::{PerturbScratch, RandomizedResponse};
use bigraph::bitset::{popcount_and, PackedSet};
use bigraph::{BipartiteGraph, Layer, VertexId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The noisy (randomized-response-perturbed) neighbor list of one vertex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoisyNeighbors {
    /// The vertex whose list was perturbed.
    pub owner: VertexId,
    /// The layer the owner lives on.
    pub owner_layer: Layer,
    /// Number of vertices on the opposite layer (the length of the perturbed row).
    pub opposite_size: usize,
    /// The privacy budget used for the perturbation.
    pub epsilon: f64,
    /// Sorted ids of the noisy neighbors (the "1" entries after perturbation).
    neighbors: Vec<VertexId>,
}

impl NoisyNeighbors {
    /// Applies randomized response to `owner`'s neighbor list in `g`.
    pub fn generate<R: Rng + ?Sized>(
        g: &BipartiteGraph,
        layer: Layer,
        owner: VertexId,
        epsilon: PrivacyBudget,
        rng: &mut R,
    ) -> Self {
        let mut scratch = PerturbScratch::new();
        Self::generate_with(g, layer, owner, epsilon, rng, &mut scratch)
    }

    /// [`NoisyNeighbors::generate`] with a caller-provided perturbation
    /// scratch (see [`RandomizedResponse::perturb_neighbor_list_with`]).
    /// Identical output and RNG consumption; only the intermediate
    /// allocations are reused.
    pub fn generate_with<R: Rng + ?Sized>(
        g: &BipartiteGraph,
        layer: Layer,
        owner: VertexId,
        epsilon: PrivacyBudget,
        rng: &mut R,
        scratch: &mut PerturbScratch,
    ) -> Self {
        let rr = RandomizedResponse::new(epsilon);
        let opposite_size = g.layer_size(layer.opposite());
        let neighbors =
            rr.perturb_neighbor_list_with(g.neighbors(layer, owner), opposite_size, rng, scratch);
        Self {
            owner,
            owner_layer: layer,
            opposite_size,
            epsilon: epsilon.value(),
            neighbors,
        }
    }

    /// Builds a noisy list directly from pre-perturbed data (used by tests and
    /// by protocol code that perturbs in a custom way).
    #[must_use]
    pub fn from_parts(
        owner: VertexId,
        owner_layer: Layer,
        opposite_size: usize,
        epsilon: f64,
        mut neighbors: Vec<VertexId>,
    ) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        Self {
            owner,
            owner_layer,
            opposite_size,
            epsilon,
            neighbors,
        }
    }

    /// The sorted noisy neighbor ids.
    #[must_use]
    pub fn neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The noisy degree (number of noisy neighbors).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether `v` is a noisy neighbor of the owner. `O(log deg)`.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.neighbors.binary_search(&v).is_ok()
    }

    /// The number of bytes needed to transmit this list to the curator,
    /// counting 4 bytes per reported edge endpoint (the convention used for
    /// the paper's communication-cost experiments).
    #[must_use]
    pub fn message_bytes(&self) -> usize {
        self.neighbors.len() * std::mem::size_of::<VertexId>()
    }

    /// The flip probability the list was generated with.
    #[must_use]
    pub fn flip_probability(&self) -> f64 {
        1.0 / (1.0 + self.epsilon.exp())
    }

    /// Packs the noisy list into a [`PackedSet`] over the opposite layer.
    ///
    /// Noisy lists are dense (expected degree `d + p·n`), so curator-side
    /// code that intersects one list against many others — the batch engine,
    /// the estimator hot loops — packs it once and reuses the bitmap for
    /// `O(1)` membership probes or word-parallel popcount intersections.
    /// Hot paths should generate [`NoisyNeighborsPacked`] directly instead,
    /// which never builds the id list at all.
    #[must_use]
    pub fn packed(&self) -> PackedSet {
        PackedSet::from_sorted(&self.neighbors, self.opposite_size)
    }
}

/// The noisy neighbor row of one vertex in **packed-native** form: the
/// perturbed bits live directly in `u64` words, produced without an id
/// list. The hot-path counterpart of [`NoisyNeighbors`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyNeighborsPacked {
    /// The vertex whose list was perturbed.
    pub owner: VertexId,
    /// The layer the owner lives on.
    pub owner_layer: Layer,
    /// The privacy budget used for the perturbation.
    pub epsilon: f64,
    /// The perturbed row over the opposite layer.
    set: PackedSet,
}

impl NoisyNeighborsPacked {
    /// Applies randomized response to `owner`'s neighbor list in `g`,
    /// producing the noisy row directly in packed form.
    ///
    /// `true_packed`, when provided, must be the packed true adjacency of
    /// `owner` (e.g. from the estimation engine's cache): kept true bits
    /// are then OR-ed in word-wise. The output — and the RNG stream
    /// consumed — is identical either way, and identical to generating a
    /// [`NoisyNeighbors`] and packing it.
    pub fn generate_with<R: Rng + ?Sized>(
        g: &BipartiteGraph,
        layer: Layer,
        owner: VertexId,
        epsilon: PrivacyBudget,
        rng: &mut R,
        scratch: &mut PerturbScratch,
        true_packed: Option<&PackedSet>,
    ) -> Self {
        let rr = RandomizedResponse::new(epsilon);
        let opposite_size = g.layer_size(layer.opposite());
        let set = rr.perturb_neighbor_list_packed(
            g.neighbors(layer, owner),
            true_packed,
            opposite_size,
            rng,
            scratch,
        );
        Self {
            owner,
            owner_layer: layer,
            epsilon: epsilon.value(),
            set,
        }
    }

    /// Reassembles a packed noisy row from its transported parts — the
    /// inverse of reading [`NoisyNeighborsPacked::set`],
    /// [`owner`](NoisyNeighborsPacked::owner) and
    /// [`epsilon`](NoisyNeighborsPacked::epsilon) off a row that crossed a
    /// process boundary (the cluster wire protocol ships the raw words).
    /// The caller asserts that `set` really is the output of a
    /// randomized-response round run with budget `epsilon`; accounting
    /// helpers ([`NoisyNeighborsPacked::message_bytes`],
    /// [`flip_probability`](NoisyNeighborsPacked::flip_probability)) then
    /// report exactly what they would have on the originating side.
    #[must_use]
    pub fn from_parts(owner: VertexId, owner_layer: Layer, epsilon: f64, set: PackedSet) -> Self {
        Self {
            owner,
            owner_layer,
            epsilon,
            set,
        }
    }

    /// The packed noisy row.
    #[must_use]
    pub fn set(&self) -> &PackedSet {
        &self.set
    }

    /// Number of vertices on the opposite layer.
    #[must_use]
    pub fn opposite_size(&self) -> usize {
        self.set.universe()
    }

    /// The noisy degree (number of set bits).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.set.len()
    }

    /// Whether `v` is a noisy neighbor of the owner. `O(1)` bit probe.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.set.contains(v)
    }

    /// Bytes to transmit this row as an edge list (same convention as
    /// [`NoisyNeighbors::message_bytes`] — the wire format is the id list
    /// either way; packing is a curator-side representation).
    #[must_use]
    pub fn message_bytes(&self) -> usize {
        self.degree() * std::mem::size_of::<VertexId>()
    }

    /// The flip probability the row was generated with.
    #[must_use]
    pub fn flip_probability(&self) -> f64 {
        1.0 / (1.0 + self.epsilon.exp())
    }

    /// Materializes the sorted-id-list form — the thin wrapper for callers
    /// that genuinely need ids. `O(universe/64 + degree)`.
    #[must_use]
    pub fn materialize(&self) -> NoisyNeighbors {
        NoisyNeighbors {
            owner: self.owner,
            owner_layer: self.owner_layer,
            opposite_size: self.set.universe(),
            epsilon: self.epsilon,
            neighbors: self.set.to_sorted_ids(),
        }
    }
}

/// The packed-native curator view: both query vertices' noisy rows as
/// bitmaps, intersected word-parallel — no adaptive dispatch needed, the
/// rows are already packed.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyGraphViewPacked {
    /// Packed noisy row of the first query vertex `u`.
    pub u: NoisyNeighborsPacked,
    /// Packed noisy row of the second query vertex `w`.
    pub w: NoisyNeighborsPacked,
}

impl NoisyGraphViewPacked {
    /// Bundles the two packed rows, checking basic consistency.
    ///
    /// # Panics
    ///
    /// Panics if the rows disagree on layer or opposite-layer size.
    #[must_use]
    pub fn new(u: NoisyNeighborsPacked, w: NoisyNeighborsPacked) -> Self {
        assert_eq!(
            u.owner_layer, w.owner_layer,
            "query vertices must share a layer"
        );
        assert_eq!(
            u.opposite_size(),
            w.opposite_size(),
            "noisy lists must cover the same opposite layer"
        );
        Self { u, w }
    }

    /// `N1`: the noisy common-neighbor count — one `AND` + popcount pass
    /// over the packed words.
    #[must_use]
    pub fn noisy_intersection_size(&self) -> u64 {
        popcount_and(self.u.set().as_words(), self.w.set().as_words())
    }

    /// `(N1, N2)`: intersection and union sizes in one popcount pass.
    #[must_use]
    pub fn noisy_counts(&self) -> (u64, u64) {
        let intersection = self.noisy_intersection_size();
        let union = self.u.degree() as u64 + self.w.degree() as u64 - intersection;
        (intersection, union)
    }

    /// Number of vertices on the opposite layer.
    #[must_use]
    pub fn opposite_size(&self) -> usize {
        self.u.opposite_size()
    }

    /// Total bytes both clients sent to the curator for this view.
    #[must_use]
    pub fn message_bytes(&self) -> usize {
        self.u.message_bytes() + self.w.message_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            3,
            50,
            (0..20u32)
                .map(|v| (0, v))
                .chain((10..30u32).map(|v| (1, v))),
        )
        .unwrap()
    }

    #[test]
    fn generate_produces_sorted_in_range_list() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let eps = PrivacyBudget::new(1.0).unwrap();
        let noisy = NoisyNeighbors::generate(&g, Layer::Upper, 0, eps, &mut rng);
        assert_eq!(noisy.owner, 0);
        assert_eq!(noisy.owner_layer, Layer::Upper);
        assert_eq!(noisy.opposite_size, 50);
        assert!(noisy.neighbors().windows(2).all(|w| w[0] < w[1]));
        assert!(noisy.neighbors().iter().all(|&v| (v as usize) < 50));
        assert_eq!(noisy.message_bytes(), noisy.degree() * 4);
        assert!((noisy.flip_probability() - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn packed_generation_matches_list_generation() {
        let g = toy();
        let eps = PrivacyBudget::new(1.0).unwrap();
        let mut scratch = PerturbScratch::new();
        for seed in [1u64, 9, 55] {
            let mut rng_list = StdRng::seed_from_u64(seed);
            let mut rng_packed = StdRng::seed_from_u64(seed);
            let list = NoisyNeighbors::generate(&g, Layer::Upper, 0, eps, &mut rng_list);
            let packed = NoisyNeighborsPacked::generate_with(
                &g,
                Layer::Upper,
                0,
                eps,
                &mut rng_packed,
                &mut scratch,
                None,
            );
            assert_eq!(packed.owner, 0);
            assert_eq!(packed.opposite_size(), 50);
            assert_eq!(packed.degree(), list.degree());
            assert_eq!(packed.message_bytes(), list.message_bytes());
            assert_eq!(packed.set().to_sorted_ids(), list.neighbors());
            // The materialization wrapper reproduces the full list form.
            let materialized = packed.materialize();
            assert_eq!(materialized, list);
            for v in 0..50u32 {
                assert_eq!(packed.contains(v), list.contains(v));
            }
        }
    }

    /// Exact reference for a view's counts: the intersection and union of
    /// the two rows' id lists.
    fn list_counts(view: &NoisyGraphViewPacked) -> (u64, u64) {
        let u: BTreeSet<VertexId> = view.u.materialize().neighbors().iter().copied().collect();
        let w: BTreeSet<VertexId> = view.w.materialize().neighbors().iter().copied().collect();
        (
            u.intersection(&w).count() as u64,
            u.union(&w).count() as u64,
        )
    }

    /// A packed row holding exactly `ids`.
    fn row(owner: VertexId, layer: Layer, n: usize, ids: &[VertexId]) -> NoisyNeighborsPacked {
        NoisyNeighborsPacked::from_parts(owner, layer, 1.0, PackedSet::from_sorted(ids, n))
    }

    #[test]
    fn packed_view_counts_match_list_view() {
        let g = toy();
        let eps = PrivacyBudget::new(0.8).unwrap();
        let mut scratch = PerturbScratch::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut generate = |v| {
            NoisyNeighborsPacked::generate_with(
                &g,
                Layer::Upper,
                v,
                eps,
                &mut rng,
                &mut scratch,
                None,
            )
        };
        let packed = NoisyGraphViewPacked::new(generate(0), generate(1));
        let (n1, n2) = list_counts(&packed);
        assert_eq!(packed.noisy_intersection_size(), n1);
        assert_eq!(packed.noisy_counts(), (n1, n2));
        assert_eq!(packed.opposite_size(), 50);
        assert_eq!(
            packed.message_bytes(),
            packed.u.materialize().message_bytes() + packed.w.materialize().message_bytes()
        );
    }

    #[test]
    fn contains_agrees_with_list() {
        let noisy = NoisyNeighbors::from_parts(0, Layer::Upper, 10, 1.0, vec![3, 1, 7, 3]);
        assert_eq!(noisy.neighbors(), &[1, 3, 7]);
        assert!(noisy.contains(3));
        assert!(!noisy.contains(2));
        assert_eq!(noisy.degree(), 3);
    }

    #[test]
    fn high_epsilon_reproduces_truth() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let eps = PrivacyBudget::new(30.0).unwrap();
        let noisy = NoisyNeighbors::generate(&g, Layer::Upper, 1, eps, &mut rng);
        assert_eq!(noisy.neighbors(), g.neighbors(Layer::Upper, 1));
    }

    #[test]
    fn view_intersection_and_union() {
        let view = NoisyGraphViewPacked::new(
            row(0, Layer::Upper, 10, &[1, 2, 3, 4]),
            row(1, Layer::Upper, 10, &[3, 4, 5]),
        );
        assert_eq!(view.noisy_intersection_size(), 2);
        assert_eq!(view.noisy_counts(), (2, 5));
        assert_eq!(view.opposite_size(), 10);
        assert_eq!(view.message_bytes(), (4 + 3) * 4);
    }

    #[test]
    #[should_panic(expected = "same opposite layer")]
    fn view_rejects_mismatched_sizes() {
        let _ =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, 10, &[]), row(1, Layer::Upper, 20, &[]));
    }

    #[test]
    #[should_panic(expected = "share a layer")]
    fn view_rejects_mismatched_layers() {
        let _ =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, 10, &[]), row(1, Layer::Lower, 10, &[]));
    }

    #[test]
    fn dense_lists_take_packed_path_with_identical_result() {
        // Dense rows over several words: the popcount must match the exact
        // list counts.
        let n = 256usize;
        let a: Vec<u32> = (0..256).filter(|v| v % 3 != 0).collect();
        let b: Vec<u32> = (0..256).filter(|v| v % 2 == 0).collect();
        let view =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, n, &a), row(1, Layer::Upper, n, &b));
        let (n1, n2) = list_counts(&view);
        assert_eq!(n1, bigraph::common_neighbors::intersection_size(&a, &b));
        assert_eq!(view.noisy_intersection_size(), n1);
        assert_eq!(view.noisy_counts(), (n1, n2));
    }

    #[test]
    fn serde_round_trip() {
        let u = NoisyNeighbors::from_parts(0, Layer::Upper, 10, 1.0, vec![1, 2]);
        let json = serde_json::to_string(&u).unwrap();
        let back: NoisyNeighbors = serde_json::from_str(&json).unwrap();
        assert_eq!(u, back);
    }
}
