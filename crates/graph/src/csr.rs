//! Compressed sparse row graph representation (paper Definition 2.11).
//!
//! The graph is stored as two flat arrays: `offsets` (length `n + 1`) and
//! `neighbors` (length `2|E|`), where the neighbors of vertex `u` occupy
//! `neighbors[offsets[u] .. offsets[u + 1]]` in strictly increasing order.
//! Every undirected edge `(u, v)` therefore appears twice — once in each
//! endpoint's list — exactly as pSCAN and ppSCAN require for the
//! similarity-value-reuse technique (the per-directed-slot `sim` array in
//! `ppscan-core` is indexed by positions in `neighbors`).

/// Vertex identifier. The paper's datasets top out at ~125M vertices, so a
/// 32-bit id suffices and halves the memory traffic of the SIMD kernels
/// (16 lanes per AVX-512 register).
pub type VertexId = u32;

/// An immutable undirected graph in CSR form with sorted neighbor lists.
///
/// Every construction path — [`crate::GraphBuilder`], the generators in
/// [`crate::gen`], [`crate::io::read_binary`], [`crate::GraphDelta`]
/// splices and [`CsrGraph::from_sorted_parts`] — passes the same one-pass
/// gate, which proves the CSR invariants and builds the reverse-edge
/// index together, so a `CsrGraph` always has both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u] .. offsets[u + 1]` delimits `u`'s neighbor slice.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency (the paper's `dst` array).
    neighbors: Vec<VertexId>,
    /// Reverse-edge index: `rev[e(u, v)] = e(v, u)`, one entry per
    /// directed slot, built by the construction gate.
    rev: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from CSR parts, or describes the first violated
    /// invariant. `offsets` must be non-empty and non-decreasing, start
    /// at 0 and end at `neighbors.len()`; each neighbor list must be
    /// strictly increasing, in range and free of self loops; every edge
    /// must have its reverse edge; and both the vertex count and the
    /// directed-slot count must fit in a `u32`. Accepts exactly the
    /// parts [`Self::validate`] accepts within those limits, in one
    /// O(n + m) pass that also builds the reverse-edge index.
    pub fn from_sorted_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
    ) -> Result<Self, String> {
        let rev = check_and_index(&offsets, &neighbors)?;
        Ok(Self {
            offsets,
            neighbors,
            rev,
        })
    }

    /// [`Self::from_sorted_parts`] for parts that are valid by
    /// construction. The check is not skipped: the reverse-index build
    /// every graph needs proves the invariants at no extra cost, so
    /// invalid parts are rejected in release builds too.
    ///
    /// # Panics
    ///
    /// Panics if the parts are invalid or exceed the `u32` limits.
    pub fn from_sorted_parts_unchecked(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        Self::from_sorted_parts(offsets, neighbors)
            .unwrap_or_else(|e| panic!("invalid CSR parts: {e}"))
    }

    /// Builds a graph from pre-spliced CSR parts plus a reverse-edge
    /// index derived from [`Self::splice_rev`], skipping the O(m) gate
    /// pass. Debug builds run the gate and assert it accepts the parts
    /// and derives the same index, so any splice bug fails the
    /// differential tests.
    pub(crate) fn from_spliced_parts_unchecked(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        rev: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(
            Ok(&rev),
            check_and_index(&offsets, &neighbors).as_ref(),
            "spliced rev index must match a from-scratch build"
        );
        Self {
            offsets,
            neighbors,
            rev,
        }
    }

    /// Derives the reverse-edge index of a spliced CSR (`offsets`,
    /// `neighbors`) from this graph's own, given the set of vertices
    /// whose adjacency lists changed (`in_t`). For a slot `(u, v)` with
    /// both endpoints untouched, `v`'s list is byte-identical to the old
    /// one and only shifted: `rev'[e] = rev[e_old] + (off'[v] - off[v])`.
    /// Slots with a touched endpoint — `O(vol(T))` of them — fall back to
    /// binary search in `v`'s new list. Returns `None` (caller runs the
    /// full gate instead) when the touched volume is so large that the
    /// per-slot searches would lose to one counting pass. The caller
    /// must have checked that `neighbors.len()` fits in a `u32`.
    pub(crate) fn splice_rev(
        &self,
        offsets: &[usize],
        neighbors: &[VertexId],
        in_t: &[bool],
    ) -> Option<Vec<u32>> {
        let m = neighbors.len();
        let n = offsets.len() - 1;
        // Touched volume in the *new* graph bounds the number of
        // binary-search slots ((u ∈ T) ∪ (v ∈ T) slots ≤ 2·vol(T)).
        let vol_t: usize = (0..n)
            .filter(|&v| in_t[v])
            .map(|v| offsets[v + 1] - offsets[v])
            .sum();
        if vol_t.saturating_mul(8) >= m {
            return None;
        }
        // Slot of (v, u) in the new CSR; every probed pair exists by the
        // undirected invariant the splice preserves.
        let pos_in = |v: usize, u: VertexId| -> u32 {
            let s = &neighbors[offsets[v]..offsets[v + 1]];
            let i = s.binary_search(&u).expect("symmetric spliced CSR");
            (offsets[v] + i) as u32
        };
        let mut rev = vec![0u32; m];
        for u in 0..n {
            let (ns, ne) = (offsets[u], offsets[u + 1]);
            if in_t[u] {
                // u's list changed: no old slots to map from.
                for e in ns..ne {
                    rev[e] = pos_in(neighbors[e] as usize, u as VertexId);
                }
                continue;
            }
            // u's list is unchanged, so new slot ns + i held old slot
            // old_ns + i with the same destination.
            let old_ns = self.offsets[u];
            for (i, e) in (ns..ne).enumerate() {
                let v = neighbors[e] as usize;
                rev[e] = if in_t[v] {
                    pos_in(v, u as VertexId)
                } else {
                    let shift = offsets[v] as i64 - self.offsets[v] as i64;
                    (self.rev[old_ns + i] as i64 + shift) as u32
                };
            }
        }
        Some(rev)
    }

    /// Checks every representation invariant with a binary search per
    /// directed slot, O(m log d); returns a description of the first
    /// violation found. Construction never calls this — the one-pass
    /// gate behind [`Self::from_sorted_parts`] proves the same
    /// invariants — it stays as the independent oracle the gate is
    /// tested against.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err(format!(
                "offsets must end at neighbors.len() = {}, got {}",
                self.neighbors.len(),
                self.offsets.last().unwrap()
            ));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        let n = self.num_vertices();
        for u in 0..n {
            let adj = self.neighbors(u as VertexId);
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbors of {u} not strictly increasing"));
            }
            for &v in adj {
                if v as usize >= n {
                    return Err(format!("edge ({u}, {v}) out of range (n = {n})"));
                }
                if v as usize == u {
                    return Err(format!("self loop at {u}"));
                }
                if self.edge_offset(v, u as VertexId).is_none() {
                    return Err(format!("missing reverse edge for ({u}, {v})"));
                }
            }
        }
        Ok(())
    }

    /// An empty graph with `n` isolated vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` vertex-id limit.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted_parts_unchecked(vec![0; n + 1], Vec::new())
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed CSR slots, i.e. `2|E|` for an undirected graph.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree `d[u]` — the number of neighbors of `u` (not counting `u`
    /// itself; the paper's closed neighborhood Γ(u) has size `d[u] + 1`).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The half-open CSR offset range of `u`'s neighbor slice
    /// (`off[u] .. off[u + 1]` in the paper's notation).
    #[inline]
    pub fn neighbor_range(&self, u: VertexId) -> std::ops::Range<usize> {
        self.offsets[u as usize]..self.offsets[u as usize + 1]
    }

    /// The sorted neighbor slice `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.neighbors[self.neighbor_range(u)]
    }

    /// The raw concatenated neighbor array (the paper's `dst`).
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The raw offset array (the paper's `off`), length `n + 1`.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Destination vertex of the directed edge stored at CSR slot `eo`.
    #[inline]
    pub fn edge_dst(&self, eo: usize) -> VertexId {
        self.neighbors[eo]
    }

    /// The CSR slot of directed edge `(u, v)` — the paper's `e(u, v)` —
    /// found by binary search in `u`'s sorted neighbor list, or `None` if
    /// `(u, v)` is not an edge. This is exactly the "reverse edge offset
    /// computation" of pSCAN's similarity-value-reuse technique (§3.2.1).
    #[inline]
    pub fn edge_offset(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let range = self.neighbor_range(u);
        let adj = &self.neighbors[range.clone()];
        adj.binary_search(&v).ok().map(|i| range.start + i)
    }

    /// Whether `(u, v)` is an edge.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_offset(u, v).is_some()
    }

    /// The CSR slot of the reverse directed edge: for the slot `eo`
    /// holding edge `(u, v)`, returns the slot of `(v, u)`. O(1) via the
    /// reverse-edge index every graph carries — this replaces the
    /// per-edge binary search in pSCAN's similarity-value-reuse technique
    /// (§3.2.1); [`Self::edge_offset`] remains the search-based reference.
    #[inline]
    pub fn rev_offset(&self, eo: usize) -> usize {
        self.rev[eo] as usize
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates over every directed edge as `(u, v, slot)`.
    pub fn directed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, usize)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbor_range(u)
                .map(move |eo| (u, self.neighbors[eo], eo))
        })
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.directed_edges()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|u| self.degree(u as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2|E| / |V|` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.rev.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
impl CsrGraph {
    /// Wraps parts without the gate (and without an index), so tests can
    /// hand corrupt parts to the [`CsrGraph::validate`] oracle.
    pub(crate) fn unvalidated_for_tests(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        Self {
            offsets,
            neighbors,
            rev: Vec::new(),
        }
    }
}

/// The single gate every [`CsrGraph`] passes: proves the invariants
/// [`CsrGraph::validate`] checks, plus the `u32` limits on the vertex
/// and directed-slot counts, and builds the reverse-edge index in the
/// same O(n + m) pass. Returns the index, or a description of the first
/// violation found. Never panics, whatever the parts hold.
///
/// Symmetry needs no search. The pass walks sources `u` in ascending
/// order keeping one cursor per destination list, starting at
/// `offsets[v]`. In a symmetric graph with strictly increasing lists,
/// `v`'s slots are consumed exactly in ascending source order, so the
/// next unconsumed slot of `v`'s list holds `u`. Conversely, if every
/// slot `(u, v)` finds `u` at `v`'s cursor, inside `v`'s list, the
/// cursors map the `m` slots injectively into themselves, hence onto,
/// so every edge has its reverse.
fn check_and_index(offsets: &[usize], neighbors: &[VertexId]) -> Result<Vec<u32>, String> {
    let m = neighbors.len();
    let Some((&last, _)) = offsets.split_last() else {
        return Err("offsets must have at least one entry".into());
    };
    let n = offsets.len() - 1;
    if n > u32::MAX as usize {
        return Err(format!("{n} vertices exceed the u32 vertex-id limit"));
    }
    if m > u32::MAX as usize {
        return Err(format!("{m} directed edges exceed the u32 slot limit"));
    }
    if offsets[0] != 0 {
        return Err("offsets[0] must be 0".into());
    }
    if last != m {
        return Err(format!(
            "offsets must end at neighbors.len() = {m}, got {last}"
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets must be non-decreasing".into());
    }
    // Every offset is now at most m <= u32::MAX.
    let mut cursor: Vec<u32> = offsets[..n].iter().map(|&o| o as u32).collect();
    let mut rev = vec![0u32; m];
    for u in 0..n {
        let (start, end) = (offsets[u], offsets[u + 1]);
        for eo in start..end {
            let v = neighbors[eo];
            let vi = v as usize;
            if vi >= n {
                return Err(format!("edge ({u}, {v}) out of range (n = {n})"));
            }
            if vi == u {
                return Err(format!("self loop at {u}"));
            }
            if eo > start && neighbors[eo - 1] >= v {
                return Err(format!("neighbors of {u} not strictly increasing"));
            }
            let c = cursor[vi] as usize;
            if c >= offsets[vi + 1] || neighbors[c] as usize != u {
                return Err(format!(
                    "no reverse slot for ({u}, {v}): lists not symmetric and sorted"
                ));
            }
            rev[eo] = c as u32;
            cursor[vi] += 1;
        }
    }
    Ok(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .build()
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn edge_offset_matches_definition() {
        let g = triangle();
        // e(u, v) ∈ [off[u], off[u+1]) and dst[e(u, v)] = v (Def 2.11).
        for (u, v, _) in g.directed_edges() {
            let eo = g.edge_offset(u, v).unwrap();
            assert!(g.neighbor_range(u).contains(&eo));
            assert_eq!(g.edge_dst(eo), v);
        }
        assert_eq!(g.edge_offset(0, 0), None);
    }

    #[test]
    fn undirected_edges_listed_once() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn validate_rejects_unsorted() {
        let g = CsrGraph {
            offsets: vec![0, 2, 3, 4],
            neighbors: vec![2, 1, 0, 0],
            rev: Vec::new(),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_reverse_edge() {
        let g = CsrGraph {
            offsets: vec![0, 1, 1],
            neighbors: vec![1],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("reverse"));
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph {
            offsets: vec![0, 1],
            neighbors: vec![0],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("self loop"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let g = CsrGraph {
            offsets: vec![0, 1],
            neighbors: vec![7],
            rev: Vec::new(),
        };
        assert!(g.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn from_sorted_parts_rejects_bad_input() {
        let err = CsrGraph::from_sorted_parts(vec![0, 1], vec![0]).unwrap_err();
        assert!(err.contains("self loop"), "{err}");
        assert!(CsrGraph::from_sorted_parts(Vec::new(), Vec::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn unchecked_constructor_panics_on_bad_input() {
        CsrGraph::from_sorted_parts_unchecked(vec![0, 1], vec![0]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(triangle().heap_bytes() > 0);
    }

    #[test]
    fn rev_offset_matches_search_and_is_an_involution() {
        for g in [
            triangle(),
            CsrGraph::empty(0),
            CsrGraph::empty(5),
            crate::gen::star(12),
            crate::gen::clique_chain(5, 3),
        ] {
            for (u, v, eo) in g.directed_edges() {
                let r = g.rev_offset(eo);
                assert_eq!(Some(r), g.edge_offset(v, u), "({u}, {v}) slot {eo}");
                assert_eq!(g.edge_dst(r), u);
                assert_eq!(g.rev_offset(r), eo, "rev must be an involution");
            }
        }
    }

    #[test]
    fn gate_rejects_asymmetric_parts() {
        // (0, 1) present without (1, 0): cursor check must fail.
        assert!(check_and_index(&[0, 1, 1], &[1]).is_err());
        // Unsorted list: slots consumed out of ascending-source order.
        assert!(check_and_index(&[0, 2, 3, 4], &[2, 1, 0, 0]).is_err());
        // Out-of-range destination.
        assert!(check_and_index(&[0, 1], &[7]).is_err());
    }
}
