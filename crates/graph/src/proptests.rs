//! Randomized property tests for the graph substrate: builder
//! normalization, CSR invariants, I/O round trips and analysis invariants
//! on arbitrary edge lists.
//!
//! Formerly `proptest`-based; now driven by seeded [`SplitMix64`] loops so
//! the workspace builds with no external dependencies. Every case prints
//! its seed on failure, so a red test is replayed by running the same
//! binary — the streams are platform-independent.

use crate::builder::from_edges;
use crate::csr::{CsrGraph, VertexId};
use crate::rng::SplitMix64;
use crate::{analysis, io};

/// Random edge list over `n` vertices with up to `max_edges` entries
/// (self loops and duplicates included on purpose — the builder must
/// normalize them away).
fn edge_list(rng: &mut SplitMix64, n: VertexId, max_edges: usize) -> Vec<(VertexId, VertexId)> {
    let len = rng.gen_index(max_edges + 1);
    (0..len)
        .map(|_| {
            (
                rng.gen_index(n as usize) as VertexId,
                rng.gen_index(n as usize) as VertexId,
            )
        })
        .collect()
}

/// Runs `case` over `cases` seeded random edge lists, reporting the seed
/// of the first failure.
fn for_random_edge_lists(
    cases: u64,
    n: VertexId,
    max_edges: usize,
    case: impl Fn(&[(VertexId, VertexId)]),
) {
    for seed in 0..cases {
        let mut rng = SplitMix64::seed_from_u64(0x9a7e_0000 ^ seed);
        let edges = edge_list(&mut rng, n, max_edges);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&edges)));
        if let Err(e) = result {
            eprintln!("failing case seed={seed} edges={edges:?}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn builder_always_produces_valid_csr() {
    for_random_edge_lists(64, 40, 200, |edges| {
        let g = from_edges(edges);
        assert!(g.validate().is_ok());
    });
}

#[test]
fn builder_is_idempotent_under_duplication() {
    for_random_edge_lists(64, 30, 100, |edges| {
        let g1 = from_edges(edges);
        let doubled: Vec<_> = edges.iter().chain(edges.iter()).copied().collect();
        let g2 = from_edges(&doubled);
        // Duplicated input edges change nothing.
        assert_eq!(g1, g2);
    });
}

#[test]
fn builder_is_direction_insensitive() {
    for_random_edge_lists(64, 30, 100, |edges| {
        let g1 = from_edges(edges);
        let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
        let g2 = from_edges(&flipped);
        assert_eq!(g1, g2);
    });
}

#[test]
fn edge_list_roundtrip() {
    for_random_edge_lists(64, 30, 150, |edges| {
        let g = from_edges(edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(io::read_edge_list(&buf[..]).unwrap(), g);
    });
}

#[test]
fn binary_roundtrip() {
    for_random_edge_lists(64, 30, 150, |edges| {
        let g = from_edges(edges);
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        assert_eq!(io::read_binary(&buf[..]).unwrap(), g);
    });
}

/// The reverse-edge index agrees with the binary-search lookup
/// `edge_offset(v, u)` on every directed edge of the golden example and
/// seeded ROLL/RMAT graphs, and survives a binary I/O round trip (the
/// index is rebuilt on load, not serialized).
#[test]
fn rev_index_agrees_with_binary_search_everywhere() {
    let mut graphs = vec![crate::gen::scan_paper_example()];
    for seed in 0..4u64 {
        graphs.push(crate::gen::roll(300, 8, 0xA0 + seed));
        graphs.push(crate::gen::rmat_social(7, 6, 0xB0 + seed));
    }
    for g in graphs {
        for (u, v, eo) in g.directed_edges() {
            let expect = g
                .edge_offset(v, u)
                .expect("undirected graph must contain the reverse edge");
            assert_eq!(g.rev_offset(eo), expect, "edge ({u}, {v}) slot {eo}");
        }
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let back = io::read_binary(&buf[..]).unwrap();
        assert_eq!(back, g);
        for (_, _, eo) in back.directed_edges() {
            assert_eq!(back.rev_offset(eo), g.rev_offset(eo));
        }
    }
}

/// The ways [`corrupt`] breaks valid CSR parts.
const CORRUPTIONS: [&str; 12] = [
    "swap adjacent neighbors",
    "duplicate a slot",
    "drop one direction",
    "self loop",
    "out-of-range id",
    "non-monotone offset",
    "shifted offsets",
    "wrong final offset",
    "random slot value",
    "duplicate an edge in both lists",
    "sorted self loop",
    "rewire one direction of two edges",
];

/// Inserts `x` into `u`'s list at its sorted position, after any equal id.
fn insert_sorted(offsets: &mut [usize], nbrs: &mut Vec<VertexId>, u: usize, x: VertexId) {
    let at = offsets[u] + nbrs[offsets[u]..offsets[u + 1]].partition_point(|&w| w <= x);
    nbrs.insert(at, x);
    offsets[u + 1..].iter_mut().for_each(|o| *o += 1);
}

/// Applies corruption `kind` (an index into [`CORRUPTIONS`]) at a seeded
/// position. Some draws leave the parts valid; the oracle decides.
fn corrupt(rng: &mut SplitMix64, kind: usize, offsets: &mut [usize], nbrs: &mut Vec<VertexId>) {
    let n = offsets.len() - 1;
    let m = nbrs.len();
    let slot = rng.gen_index(m);
    let src = offsets.partition_point(|&o| o <= slot) - 1;
    // A slot with a successor in the same list, if its list has one.
    let pair = (offsets[src + 1] - offsets[src] >= 2)
        .then(|| offsets[src] + rng.gen_index(offsets[src + 1] - offsets[src] - 1));
    match kind {
        0 => {
            if let Some(e) = pair {
                nbrs.swap(e, e + 1);
            }
        }
        1 => {
            if let Some(e) = pair {
                nbrs[e + 1] = nbrs[e];
            }
        }
        2 => {
            nbrs.remove(slot);
            offsets[src + 1..].iter_mut().for_each(|o| *o -= 1);
        }
        3 => nbrs[slot] = src as VertexId,
        4 => nbrs[slot] = [n, n + 1, VertexId::MAX as usize][rng.gen_index(3)] as VertexId,
        5 => {
            let k = (1 + rng.gen_index(n.max(2) - 1)).min(n);
            offsets[k] = offsets[(k + 1).min(n)] + 1 + rng.gen_index(3);
        }
        6 => {
            if rng.gen_bool(0.5) {
                // A junk leading slot with every offset shifted past it:
                // each list is intact, only offsets[0] != 0 is wrong.
                nbrs.insert(0, rng.gen_index(n) as VertexId);
                offsets.iter_mut().for_each(|o| *o += 1);
            } else {
                let k = rng.gen_index(n + 1);
                offsets[k] = if rng.gen_bool(0.5) {
                    offsets[k] + 1
                } else {
                    offsets[k].saturating_sub(1)
                };
            }
        }
        7 => {
            if rng.gen_bool(0.5) {
                offsets[n] = if offsets[n] > 0 { offsets[n] - 1 } else { 1 };
            } else {
                nbrs.push(rng.gen_index(n) as VertexId);
            }
        }
        8 => nbrs[slot] = rng.gen_index(n + 2) as VertexId,
        // Both kinds below keep every list sorted and every edge's
        // reverse present, so only the strictness and self-loop checks
        // can reject them.
        9 => {
            let v = nbrs[slot];
            insert_sorted(offsets, nbrs, src, v);
            insert_sorted(offsets, nbrs, v as usize, src as VertexId);
        }
        10 => insert_sorted(offsets, nbrs, src, src as VertexId),
        // Swaps the destinations of two slots and re-sorts both lists:
        // every degree and in-degree is kept, so only the cursor's
        // value check can see the broken symmetry.
        _ => {
            let other = rng.gen_index(m);
            let src2 = offsets.partition_point(|&o| o <= other) - 1;
            nbrs.swap(slot, other);
            nbrs[offsets[src]..offsets[src + 1]].sort_unstable();
            nbrs[offsets[src2]..offsets[src2 + 1]].sort_unstable();
        }
    }
}

/// The one-pass gate accepts exactly the parts the O(m log d)
/// `validate()` oracle accepts, never panics, and on acceptance builds
/// the same reverse index the oracle's binary search finds.
#[test]
fn gate_agrees_with_validate_oracle_on_corrupted_parts() {
    let mut graphs = vec![
        crate::gen::scan_paper_example(),
        crate::gen::star(9),
        crate::gen::path(6),
        crate::gen::clique_chain(4, 3),
    ];
    for seed in 0..3u64 {
        graphs.push(crate::gen::roll(120, 6, 0xC0 + seed));
        graphs.push(crate::gen::rmat_social(6, 4, 0xD0 + seed));
    }
    assert!(CsrGraph::from_sorted_parts(Vec::new(), Vec::new()).is_err());
    let mut rejected = [0usize; CORRUPTIONS.len()];
    for (gi, g) in graphs.iter().enumerate() {
        for (kind, name) in CORRUPTIONS.iter().enumerate() {
            for seed in 0..24u64 {
                let mut rng =
                    SplitMix64::seed_from_u64((gi as u64) << 32 ^ (kind as u64) << 16 ^ seed);
                let (mut offsets, mut nbrs) =
                    (g.raw_offsets().to_vec(), g.raw_neighbors().to_vec());
                corrupt(&mut rng, kind, &mut offsets, &mut nbrs);
                let oracle =
                    CsrGraph::unvalidated_for_tests(offsets.clone(), nbrs.clone()).validate();
                let case = format!("graph {gi}, {name}, seed {seed}");
                let gate = std::panic::catch_unwind(|| CsrGraph::from_sorted_parts(offsets, nbrs))
                    .unwrap_or_else(|_| panic!("gate panicked: {case}"));
                assert_eq!(
                    gate.is_ok(),
                    oracle.is_ok(),
                    "{case}: gate {gate:?}, oracle {oracle:?}"
                );
                match gate {
                    Ok(h) => {
                        for (u, v, eo) in h.directed_edges() {
                            assert_eq!(Some(h.rev_offset(eo)), h.edge_offset(v, u), "{case}");
                        }
                    }
                    Err(_) => rejected[kind] += 1,
                }
            }
        }
    }
    // Every corruption kind must actually produce invalid parts.
    for (name, count) in CORRUPTIONS.iter().zip(rejected) {
        assert!(count > 0, "no {name} draw was invalid");
    }
}

#[test]
fn degree_sum_equals_directed_edges() {
    for_random_edge_lists(64, 40, 200, |edges| {
        let g = from_edges(edges);
        let sum: usize = g.vertices().map(|u| g.degree(u)).sum();
        assert_eq!(sum, g.num_directed_edges());
    });
}

#[test]
fn components_partition_vertices() {
    for_random_edge_lists(64, 30, 80, |edges| {
        let g = from_edges(edges);
        let (labels, count) = analysis::connected_components(&g);
        // Every vertex labeled by its component minimum.
        let mut distinct: Vec<_> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), count);
        // Adjacent vertices share a label.
        for (u, v) in g.undirected_edges() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
        // Labels are component minima: label[v] <= v.
        for v in g.vertices() {
            assert!(labels[v as usize] <= v);
        }
    });
}

#[test]
fn triangle_count_matches_naive() {
    for_random_edge_lists(48, 20, 60, |edges| {
        let g = from_edges(edges);
        // Naive O(n³) triangle enumeration.
        let n = g.num_vertices() as VertexId;
        let mut naive = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if !g.has_edge(a, b) {
                    continue;
                }
                for c in (b + 1)..n {
                    if g.has_edge(b, c) && g.has_edge(a, c) {
                        naive += 1;
                    }
                }
            }
        }
        assert_eq!(analysis::triangle_count(&g), naive);
    });
}
