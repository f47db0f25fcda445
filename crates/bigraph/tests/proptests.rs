//! Property-based tests for the bipartite graph substrate.

use bigraph::{
    bitset, common_neighbors, stats, BipartiteGraph, GraphBuilder, GraphDelta, Layer, UpdateBatch,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy producing a random edge list over bounded layer sizes.
fn arb_graph() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32)>)> {
    (1usize..20, 1usize..20).prop_flat_map(|(nu, nl)| {
        let edges = prop::collection::vec((0..nu as u32, 0..nl as u32), 0..120);
        (Just(nu), Just(nl), edges)
    })
}

proptest! {
    /// Building from an edge list always yields a graph passing CSR validation,
    /// with the edge count equal to the number of distinct edges.
    #[test]
    fn builder_invariants((nu, nl, edges) in arb_graph()) {
        let distinct: HashSet<_> = edges.iter().copied().collect();
        let g = BipartiteGraph::from_edges(nu, nl, edges.clone()).unwrap();
        g.validate().unwrap();
        prop_assert_eq!(g.n_edges(), distinct.len());
        prop_assert_eq!(g.n_upper(), nu);
        prop_assert_eq!(g.n_lower(), nl);
        // Every inserted edge is queryable, and mirrored in both directions.
        for (u, v) in distinct {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.neighbors(Layer::Upper, u).contains(&v));
            prop_assert!(g.neighbors(Layer::Lower, v).contains(&u));
        }
    }

    /// Degree sums on both layers equal the edge count.
    #[test]
    fn degree_sum_equals_edges((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        let upper_sum: usize = (0..nu as u32).map(|v| g.degree(Layer::Upper, v)).sum();
        let lower_sum: usize = (0..nl as u32).map(|v| g.degree(Layer::Lower, v)).sum();
        prop_assert_eq!(upper_sum, g.n_edges());
        prop_assert_eq!(lower_sum, g.n_edges());
    }

    /// C2 is symmetric, bounded by min degree, and equals the brute-force count.
    #[test]
    fn common_neighbors_matches_brute_force((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        if nu < 2 { return Ok(()); }
        for u in 0..nu as u32 {
            for w in (u + 1)..nu as u32 {
                let fast = common_neighbors::count(&g, Layer::Upper, u, w).unwrap();
                let brute = (0..nl as u32)
                    .filter(|&v| g.has_edge(u, v) && g.has_edge(w, v))
                    .count() as u64;
                prop_assert_eq!(fast, brute);
                let sym = common_neighbors::count(&g, Layer::Upper, w, u).unwrap();
                prop_assert_eq!(fast, sym);
                let bound = g.degree(Layer::Upper, u).min(g.degree(Layer::Upper, w)) as u64;
                prop_assert!(fast <= bound);
            }
        }
    }

    /// Inclusion–exclusion: |A| + |B| = |A ∩ B| + |A ∪ B|.
    #[test]
    fn union_intersection_inclusion_exclusion((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        if nl < 2 { return Ok(()); }
        for a in 0..(nl as u32).min(6) {
            for b in (a + 1)..(nl as u32).min(6) {
                let inter = common_neighbors::count(&g, Layer::Lower, a, b).unwrap();
                let uni = common_neighbors::union_size(&g, Layer::Lower, a, b).unwrap();
                let da = g.degree(Layer::Lower, a) as u64;
                let db = g.degree(Layer::Lower, b) as u64;
                prop_assert_eq!(da + db, inter + uni);
                let j = common_neighbors::jaccard(&g, Layer::Lower, a, b).unwrap();
                prop_assert!((0.0..=1.0).contains(&j));
            }
        }
    }

    /// Degree histogram sums to the layer size and is consistent with the
    /// degree sequence.
    #[test]
    fn histogram_consistency((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        for layer in [Layer::Upper, Layer::Lower] {
            let hist = stats::degree_histogram(&g, layer);
            prop_assert_eq!(hist.iter().sum::<usize>(), g.layer_size(layer));
            let seq = stats::degree_sequence(&g, layer);
            prop_assert_eq!(seq.len(), g.layer_size(layer));
            if let Some(&max) = seq.first() {
                prop_assert_eq!(max, g.max_degree(layer));
            }
        }
    }

    /// Graphs serialize/deserialize losslessly.
    #[test]
    fn serde_round_trip((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: BipartiteGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }

    /// GraphBuilder::add_edge_growing never produces out-of-range adjacency.
    #[test]
    fn growing_builder_is_valid(edges in prop::collection::vec((0u32..50, 0u32..50), 0..200)) {
        let mut b = GraphBuilder::default();
        for (u, v) in &edges {
            b.add_edge_growing(*u, *v);
        }
        let g = b.build();
        g.validate().unwrap();
        for (u, v) in edges {
            prop_assert!(g.has_edge(u, v));
        }
    }
}

/// Strategy producing raw delta descriptors over a vertex-id space that may
/// exceed the base layer sizes: `(kind, a, b)` where kind 0/1 are edge
/// add/remove and 2/3 are vertex additions. Out-of-range edge deltas are
/// filtered against the sizes *at their point in the sequence* when the
/// batches are materialized, mirroring a producer that only emits valid ids.
fn arb_deltas() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    prop::collection::vec((0u8..4, 0u32..24, 0u32..24), 0..80)
}

/// Materializes raw delta descriptors into batches of at most `chunk`
/// deltas, tracking the growing layer sizes so every emitted edge delta is
/// in range, and maintaining the expected surviving edge set alongside.
fn materialize(
    nu: usize,
    nl: usize,
    raw: &[(u8, u32, u32)],
    chunk: usize,
    initial: &HashSet<(u32, u32)>,
) -> (Vec<UpdateBatch>, usize, usize, HashSet<(u32, u32)>) {
    let (mut n_upper, mut n_lower) = (nu, nl);
    let mut expected = initial.clone();
    let mut batches = Vec::new();
    let mut current = UpdateBatch::new();
    for &(kind, a, b) in raw {
        let delta = match kind {
            0 | 1 => {
                let (u, v) = (a % n_upper as u32, b % n_lower as u32);
                if kind == 0 {
                    expected.insert((u, v));
                    GraphDelta::AddEdge { upper: u, lower: v }
                } else {
                    expected.remove(&(u, v));
                    GraphDelta::RemoveEdge { upper: u, lower: v }
                }
            }
            2 => {
                n_upper += 1;
                GraphDelta::AddVertex {
                    layer: Layer::Upper,
                }
            }
            _ => {
                n_lower += 1;
                GraphDelta::AddVertex {
                    layer: Layer::Lower,
                }
            }
        };
        current.push(delta);
        if current.len() >= chunk {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    (batches, n_upper, n_lower, expected)
}

proptest! {
    /// Any interleaving of update batches lands on exactly the graph built
    /// from scratch over the surviving edge set — regardless of how the
    /// delta stream is chunked into batches.
    #[test]
    fn update_batches_equal_rebuild(
        (nu, nl, edges) in arb_graph(),
        raw in arb_deltas(),
        chunk in 1usize..12,
    ) {
        let initial: HashSet<(u32, u32)> = edges.iter().copied().collect();
        let mut g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        let (batches, n_upper, n_lower, expected) =
            materialize(nu, nl, &raw, chunk, &initial);
        for batch in &batches {
            let applied = g.apply_update_batch(batch).unwrap();
            g.validate().unwrap();
            prop_assert_eq!(applied.epoch, g.epoch());
        }
        prop_assert_eq!(g.n_upper(), n_upper);
        prop_assert_eq!(g.n_lower(), n_lower);
        let mut survivors: Vec<_> = expected.iter().copied().collect();
        survivors.sort_unstable();
        let rebuilt = BipartiteGraph::from_edges(n_upper, n_lower, survivors).unwrap();
        prop_assert_eq!(&g, &rebuilt);

        // Chunking the same stream differently must not change the result.
        let mut g2 =
            BipartiteGraph::from_edges(nu, nl, initial.iter().copied().collect::<Vec<_>>())
                .unwrap();
        let (batches2, ..) = materialize(nu, nl, &raw, usize::MAX, &initial);
        for batch in &batches2 {
            g2.apply_update_batch(batch).unwrap();
        }
        prop_assert_eq!(&g2, &rebuilt);
    }

    /// The touched sets of an applied batch cover exactly the vertices whose
    /// adjacency changed.
    #[test]
    fn touched_sets_are_precise(
        (nu, nl, edges) in arb_graph(),
        raw in arb_deltas(),
    ) {
        let initial: HashSet<(u32, u32)> = edges.iter().copied().collect();
        let before = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        let mut g = before.clone();
        let (batches, ..) = materialize(nu, nl, &raw, usize::MAX, &initial);
        let Some(batch) = batches.first() else { return Ok(()); };
        let applied = g.apply_update_batch(batch).unwrap();
        for layer in [Layer::Upper, Layer::Lower] {
            let touched = applied.touched(layer);
            prop_assert!(touched.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            for v in 0..before.layer_size(layer) as u32 {
                let changed = before.neighbors(layer, v) != g.neighbors(layer, v);
                prop_assert_eq!(
                    touched.binary_search(&v).is_ok(),
                    changed,
                    "layer {} vertex {}", layer, v
                );
            }
        }
    }
}

proptest! {
    /// Bit-packed intersection (popcount, membership probes, and the
    /// degree-aware dispatcher) equals the sorted-merge intersection on the
    /// adjacency lists of random graphs.
    #[test]
    fn packed_intersection_matches_sorted_merge((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        if nu < 2 { return Ok(()); }
        let universe = nl;
        for u in 0..(nu as u32).min(6) {
            for w in (u + 1)..(nu as u32).min(6) {
                let a = g.neighbors(Layer::Upper, u);
                let b = g.neighbors(Layer::Upper, w);
                let merge = common_neighbors::intersection_size(a, b);
                let pa = bitset::PackedSet::from_sorted(a, universe);
                let pb = bitset::PackedSet::from_sorted(b, universe);
                prop_assert_eq!(pa.intersection_size(&pb), merge);
                prop_assert_eq!(pb.intersection_size(&pa), merge);
                prop_assert_eq!(pa.intersection_size_sorted(b), merge);
                prop_assert_eq!(bitset::intersection_size_degree_aware(a, &pb), merge);
                prop_assert_eq!(bitset::intersection_size_degree_aware(b, &pa), merge);
            }
        }
    }

    /// Packing and unpacking an adjacency list is lossless, and membership
    /// probes agree with the list.
    #[test]
    fn packed_set_round_trips_adjacency((nu, nl, edges) in arb_graph()) {
        let g = BipartiteGraph::from_edges(nu, nl, edges).unwrap();
        for u in 0..(nu as u32).min(8) {
            let a = g.neighbors(Layer::Upper, u);
            let packed = bitset::PackedSet::from_sorted(a, nl);
            prop_assert_eq!(packed.len(), a.len());
            prop_assert_eq!(packed.to_sorted_ids(), a.to_vec());
            for v in 0..nl as u32 {
                prop_assert_eq!(packed.contains(v), g.has_edge(u, v));
            }
        }
    }
}
