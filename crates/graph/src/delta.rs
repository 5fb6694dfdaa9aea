//! Batched edge updates over an immutable [`CsrGraph`].
//!
//! CSR is the right layout for the similarity kernels but the wrong one
//! for mutation: inserting one edge shifts every later offset. Instead
//! of mutating in place, an update batch is staged as a [`GraphDelta`]
//! and *spliced* into a fresh CSR ([`GraphDelta::apply_to`]): untouched
//! neighbor lists are block-copied, touched lists are merged with the
//! staged insertions/deletions. The splice is `O(n + m)` with a small
//! constant (mostly `memcpy`), which is what makes incremental index
//! maintenance (`ppscan-gsindex`) pay off — the expensive part of a
//! rebuild is the similarity recomputation, not the copy.
//!
//! Semantics (mirroring [`GraphBuilder`](crate::GraphBuilder)'s
//! normalization):
//!
//! * edges are undirected; `(u, v)` is normalized to `(min, max)`,
//! * self loops are rejected when staged ([`DeltaError::SelfLoop`]),
//! * vertex ids must name existing vertices — the vertex set is fixed
//!   ([`DeltaError::OutOfRange`]),
//! * at most one staged op per undirected pair
//!   ([`DeltaError::Duplicate`]),
//! * the spliced graph must stay within the `u32` directed-slot limit
//!   ([`DeltaError::TooManyEdges`]),
//! * inserting an edge that already exists and deleting one that does
//!   not are **no-ops at apply time** (idempotent ingestion), tracked
//!   separately from the effective edits in [`AppliedDelta`].

use crate::csr::{CsrGraph, VertexId};
use std::collections::HashSet;
use std::sync::Arc;

/// Why a staged update batch was rejected. Every constructor returns
/// `Err` rather than panicking: deltas arrive from untrusted clients
/// (the `ppscan-serve` REPL), so rejection must be a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// `(u, u)` edges are not representable (CSR invariant: no self
    /// loops).
    SelfLoop {
        /// The offending vertex.
        u: VertexId,
    },
    /// An op named a vertex id outside `0..num_vertices` — the vertex
    /// set is fixed across updates.
    OutOfRange {
        /// The offending vertex id.
        u: VertexId,
        /// The graph's vertex count at validation time.
        num_vertices: usize,
    },
    /// Two staged ops name the same undirected pair; the batch order
    /// would silently decide the outcome, so it is rejected instead.
    Duplicate {
        /// Smaller endpoint of the duplicated pair.
        u: VertexId,
        /// Larger endpoint of the duplicated pair.
        v: VertexId,
    },
    /// The batch would grow the graph past `u32::MAX` directed slots,
    /// the limit of the reverse-edge index every [`CsrGraph`] carries.
    TooManyEdges {
        /// Directed-slot count the spliced graph would have.
        directed_edges: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::SelfLoop { u } => write!(f, "self loop ({u}, {u}) rejected"),
            DeltaError::OutOfRange { u, num_vertices } => {
                write!(
                    f,
                    "vertex {u} out of range (graph has {num_vertices} vertices)"
                )
            }
            DeltaError::Duplicate { u, v } => {
                write!(f, "duplicate op on edge ({u}, {v}) in one batch")
            }
            DeltaError::TooManyEdges { directed_edges } => write!(
                f,
                "batch would grow the graph to {directed_edges} directed edges, \
                 beyond the u32 slot limit"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of staged edge insertions and deletions.
///
/// Stage with [`insert`](GraphDelta::insert) / [`delete`](GraphDelta::delete),
/// then splice with [`apply_to`](GraphDelta::apply_to).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Normalized `(u < v)` pairs to insert.
    inserts: Vec<(VertexId, VertexId)>,
    /// Normalized `(u < v)` pairs to delete.
    deletes: Vec<(VertexId, VertexId)>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages an edge insertion. Rejects self loops; out-of-range ids
    /// and duplicate pairs are caught by [`validate`](Self::validate)
    /// (and therefore by [`apply_to`](Self::apply_to)).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.inserts.push(Self::normalize(u, v)?);
        Ok(())
    }

    /// Stages an edge deletion (same rules as [`insert`](Self::insert)).
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.deletes.push(Self::normalize(u, v)?);
        Ok(())
    }

    fn normalize(u: VertexId, v: VertexId) -> Result<(VertexId, VertexId), DeltaError> {
        if u == v {
            return Err(DeltaError::SelfLoop { u });
        }
        Ok((u.min(v), u.max(v)))
    }

    /// Staged insertions, normalized `(u < v)`, in staging order.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// Staged deletions, normalized `(u < v)`, in staging order.
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Total staged ops.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Checks the batch against a graph: every id in range, no pair
    /// named twice.
    pub fn validate(&self, graph: &CsrGraph) -> Result<(), DeltaError> {
        let n = graph.num_vertices();
        let mut seen: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(self.len());
        for &(u, v) in self.inserts.iter().chain(self.deletes.iter()) {
            if u as usize >= n || v as usize >= n {
                let bad = if u as usize >= n { u } else { v };
                return Err(DeltaError::OutOfRange {
                    u: bad,
                    num_vertices: n,
                });
            }
            if !seen.insert((u, v)) {
                return Err(DeltaError::Duplicate { u, v });
            }
        }
        Ok(())
    }

    /// Splices the batch into a fresh CSR. Insertions of present edges
    /// and deletions of absent edges are dropped (no-ops); the edits
    /// that actually changed the graph are reported in the returned
    /// [`AppliedDelta`].
    pub fn apply_to(&self, graph: &CsrGraph) -> Result<AppliedDelta, DeltaError> {
        self.validate(graph)?;
        let n = graph.num_vertices();

        let inserted: Vec<(VertexId, VertexId)> = self
            .inserts
            .iter()
            .copied()
            .filter(|&(u, v)| !graph.has_edge(u, v))
            .collect();
        let deleted: Vec<(VertexId, VertexId)> = self
            .deletes
            .iter()
            .copied()
            .filter(|&(u, v)| graph.has_edge(u, v))
            .collect();

        // Directed views of the effective edits, sorted by source, so
        // the splice walks them with two cursors.
        let mut add_dir: Vec<(VertexId, VertexId)> = Vec::with_capacity(inserted.len() * 2);
        for &(u, v) in &inserted {
            add_dir.push((u, v));
            add_dir.push((v, u));
        }
        add_dir.sort_unstable();
        let mut del_dir: Vec<(VertexId, VertexId)> = Vec::with_capacity(deleted.len() * 2);
        for &(u, v) in &deleted {
            del_dir.push((u, v));
            del_dir.push((v, u));
        }
        del_dir.sort_unstable();

        let new_m2 = graph.num_directed_edges() + add_dir.len() - del_dir.len();
        if new_m2 > u32::MAX as usize {
            return Err(DeltaError::TooManyEdges {
                directed_edges: new_m2,
            });
        }
        let mut offsets = vec![0usize; n + 1];
        let mut neighbors: Vec<VertexId> = Vec::with_capacity(new_m2);
        let (mut ai, mut di) = (0usize, 0usize);
        for u in 0..n as VertexId {
            let old = graph.neighbors(u);
            let add_end = {
                let mut e = ai;
                while e < add_dir.len() && add_dir[e].0 == u {
                    e += 1;
                }
                e
            };
            let del_end = {
                let mut e = di;
                while e < del_dir.len() && del_dir[e].0 == u {
                    e += 1;
                }
                e
            };
            if ai == add_end && di == del_end {
                // Untouched vertex: block copy.
                neighbors.extend_from_slice(old);
            } else {
                // Merge `old \ dels ∪ adds`; all three inputs are
                // strictly increasing, and adds∩old = ∅, dels ⊆ old by
                // the effective-edit filter above.
                let adds = &add_dir[ai..add_end];
                let dels = &del_dir[di..del_end];
                let (mut oi, mut xi, mut yi) = (0usize, 0usize, 0usize);
                while oi < old.len() || xi < adds.len() {
                    let take_add = xi < adds.len() && (oi >= old.len() || adds[xi].1 < old[oi]);
                    if take_add {
                        neighbors.push(adds[xi].1);
                        xi += 1;
                    } else {
                        let w = old[oi];
                        oi += 1;
                        if yi < dels.len() && dels[yi].1 == w {
                            yi += 1;
                            continue;
                        }
                        neighbors.push(w);
                    }
                }
            }
            ai = add_end;
            di = del_end;
            offsets[u as usize + 1] = neighbors.len();
        }
        debug_assert_eq!(neighbors.len(), new_m2);

        // Splice the reverse-edge index from the base graph's instead of
        // recounting all m slots: only slots incident to an edited
        // vertex need a fresh lookup, everything else is the old entry
        // shifted by its destination's offset delta. A large touched
        // volume takes the full gate instead; the vertex count is the
        // base graph's and the slot count was checked above, so the
        // gate can only reject a splice bug.
        let mut in_t = vec![false; n];
        for &(u, v) in inserted.iter().chain(deleted.iter()) {
            in_t[u as usize] = true;
            in_t[v as usize] = true;
        }
        let graph = match graph.splice_rev(&offsets, &neighbors, &in_t) {
            Some(rev) => CsrGraph::from_spliced_parts_unchecked(offsets, neighbors, rev),
            None => CsrGraph::from_sorted_parts_unchecked(offsets, neighbors),
        };
        Ok(AppliedDelta {
            graph,
            inserted,
            deleted,
        })
    }
}

/// The outcome of splicing a [`GraphDelta`]: the new graph plus the
/// edits that actually changed it.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The spliced graph.
    pub graph: CsrGraph,
    /// Insertions that changed the graph (edge was absent), `(u < v)`.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Deletions that changed the graph (edge was present), `(u < v)`.
    pub deleted: Vec<(VertexId, VertexId)>,
}

impl AppliedDelta {
    /// Number of undirected edges actually added or removed.
    pub fn applied_edges(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Endpoints of the effective edits — the vertices whose adjacency
    /// lists changed — sorted and deduplicated. Every σ value that an
    /// edit can change belongs to an edge incident to this set (see
    /// DESIGN.md §14).
    pub fn touched(&self) -> Vec<VertexId> {
        let mut t: Vec<VertexId> = self
            .inserted
            .iter()
            .chain(self.deleted.iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// A mutable overlay over an immutable base [`CsrGraph`]: updates are
/// staged as a pending [`GraphDelta`] and the overlay answers
/// degree/adjacency queries through it; once the pending batch grows
/// past `compact_threshold` staged ops, [`stage`](OverlayGraph::stage)
/// compacts the overlay back to a fresh CSR (one splice instead of one
/// per op). This is the staging structure behind the serve REPL's
/// `insert`/`delete`/`flush` commands.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: Arc<CsrGraph>,
    pending: GraphDelta,
    compact_threshold: usize,
}

impl OverlayGraph {
    /// Wraps `base` with an empty pending batch. `compact_threshold`
    /// bounds how many staged ops accumulate before the overlay is
    /// folded back into a CSR (0 means compact on every stage).
    pub fn new(base: Arc<CsrGraph>, compact_threshold: usize) -> Self {
        Self {
            base,
            pending: GraphDelta::new(),
            compact_threshold,
        }
    }

    /// The base graph the overlay reads through.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Ops staged but not yet compacted.
    pub fn pending(&self) -> &GraphDelta {
        &self.pending
    }

    /// Stages one insertion against the *effective* graph (base plus
    /// pending). Compacts first when the pending batch is full.
    pub fn stage_insert(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.stage(u, v, true)
    }

    /// Stages one deletion (see [`stage_insert`](Self::stage_insert)).
    pub fn stage_delete(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.stage(u, v, false)
    }

    fn stage(&mut self, u: VertexId, v: VertexId, ins: bool) -> Result<(), DeltaError> {
        let (u, v) = GraphDelta::normalize(u, v)?;
        let n = self.base.num_vertices();
        if u as usize >= n || v as usize >= n {
            let bad = if u as usize >= n { u } else { v };
            return Err(DeltaError::OutOfRange {
                u: bad,
                num_vertices: n,
            });
        }
        if self.pending.len() >= self.compact_threshold {
            self.compact();
        }
        let dup = self
            .pending
            .inserts
            .iter()
            .chain(self.pending.deletes.iter())
            .any(|&p| p == (u, v));
        if dup {
            return Err(DeltaError::Duplicate { u, v });
        }
        if ins {
            self.pending.inserts.push((u, v));
        } else {
            self.pending.deletes.push((u, v));
        }
        Ok(())
    }

    /// Whether the effective graph (base plus pending) has edge `(u, v)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let Ok((u, v)) = GraphDelta::normalize(u, v) else {
            return false;
        };
        if self.pending.inserts.contains(&(u, v)) {
            return true;
        }
        if self.pending.deletes.contains(&(u, v)) {
            return false;
        }
        self.base.has_edge(u, v)
    }

    /// Degree of `u` in the effective graph.
    pub fn degree(&self, u: VertexId) -> usize {
        let mut d = self.base.degree(u) as isize;
        for &(a, b) in &self.pending.inserts {
            d += (a == u || b == u) as isize;
        }
        for &(a, b) in &self.pending.deletes {
            d -= (a == u || b == u) as isize;
        }
        d.max(0) as usize
    }

    /// Vertex count (fixed across updates).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Splices pending ops into a fresh base CSR. Infallible: staged
    /// ops were validated at stage time.
    pub fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let applied = self
            .pending
            .apply_to(&self.base)
            .expect("staged ops were validated at stage time");
        self.base = Arc::new(applied.graph);
        self.pending = GraphDelta::new();
    }

    /// Drains the pending batch without compacting, for callers that
    /// want to apply it elsewhere (the serve `flush` path hands it to
    /// the server's update endpoint instead of splicing locally).
    pub fn take_pending(&mut self) -> GraphDelta {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;
    use crate::rng::SplitMix64;

    /// Reference: rebuild from scratch with the builder.
    fn rebuilt(g: &CsrGraph, delta: &GraphDelta) -> CsrGraph {
        let del: HashSet<(VertexId, VertexId)> = delta.deletes.iter().copied().collect();
        let mut b = GraphBuilder::new().ensure_vertices(g.num_vertices());
        for (u, v) in g.undirected_edges() {
            if !del.contains(&(u, v)) {
                b.push_edge(u, v);
            }
        }
        for &(u, v) in &delta.inserts {
            b.push_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn splice_matches_rebuild_on_random_batches() {
        let mut rng = SplitMix64::seed_from_u64(0x0de17a);
        for (gi, g) in [
            gen::roll(200, 8, 1),
            gen::erdos_renyi(120, 500, 2),
            gen::planted_partition(3, 20, 0.5, 0.05, 3),
            gen::path(30),
        ]
        .iter()
        .enumerate()
        {
            for batch in [1usize, 5, 40] {
                let mut delta = GraphDelta::new();
                let mut used = HashSet::new();
                let n = g.num_vertices();
                for _ in 0..batch {
                    let u = rng.gen_index(n) as VertexId;
                    let v = rng.gen_index(n) as VertexId;
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if !used.insert(key) {
                        continue;
                    }
                    if rng.gen_bool(0.5) {
                        delta.insert(u, v).unwrap();
                    } else {
                        delta.delete(u, v).unwrap();
                    }
                }
                let applied = delta.apply_to(g).unwrap();
                applied.graph.validate().unwrap();
                let want = rebuilt(g, &delta);
                assert_eq!(
                    applied.graph.raw_offsets(),
                    want.raw_offsets(),
                    "graph {gi} batch {batch}"
                );
                assert_eq!(applied.graph.raw_neighbors(), want.raw_neighbors());
            }
        }
    }

    #[test]
    fn noop_edits_are_dropped_but_reported() {
        let g = crate::builder::from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let mut d = GraphDelta::new();
        d.insert(0, 1).unwrap(); // already present
        d.delete(0, 2).unwrap(); // absent
        d.insert(3, 0).unwrap(); // effective (normalized)
        let applied = d.apply_to(&g).unwrap();
        assert_eq!(applied.inserted, vec![(0, 3)]);
        assert!(applied.deleted.is_empty());
        assert_eq!(applied.applied_edges(), 1);
        assert_eq!(applied.touched(), vec![0, 3]);
        assert!(applied.graph.has_edge(0, 3));
        assert!(applied.graph.has_edge(0, 1));
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = gen::clique_chain(4, 3);
        let applied = GraphDelta::new().apply_to(&g).unwrap();
        assert_eq!(applied.graph.raw_offsets(), g.raw_offsets());
        assert_eq!(applied.graph.raw_neighbors(), g.raw_neighbors());
        assert_eq!(applied.applied_edges(), 0);
        assert!(applied.touched().is_empty());
    }

    #[test]
    fn self_loop_rejected_at_stage_time() {
        let mut d = GraphDelta::new();
        assert_eq!(d.insert(3, 3), Err(DeltaError::SelfLoop { u: 3 }));
        assert_eq!(d.delete(0, 0), Err(DeltaError::SelfLoop { u: 0 }));
        assert!(d.is_empty());
    }

    #[test]
    fn out_of_range_and_duplicate_rejected_at_validate_time() {
        let g = gen::path(4); // vertices 0..4
        let mut d = GraphDelta::new();
        d.insert(0, 9).unwrap();
        assert_eq!(
            d.validate(&g),
            Err(DeltaError::OutOfRange {
                u: 9,
                num_vertices: 4
            })
        );

        let mut d = GraphDelta::new();
        d.insert(1, 2).unwrap();
        d.delete(2, 1).unwrap(); // same normalized pair
        assert_eq!(
            d.apply_to(&g).unwrap_err(),
            DeltaError::Duplicate { u: 1, v: 2 }
        );
    }

    #[test]
    fn delete_everything_leaves_empty_graph() {
        let g = gen::complete(5);
        let mut d = GraphDelta::new();
        for (u, v) in g.undirected_edges() {
            d.delete(u, v).unwrap();
        }
        let applied = d.apply_to(&g).unwrap();
        assert_eq!(applied.graph.num_edges(), 0);
        assert_eq!(applied.graph.num_vertices(), 5);
        assert_eq!(applied.deleted.len(), 10);
    }

    #[test]
    fn overlay_answers_through_pending_and_compacts() {
        let base = Arc::new(crate::builder::from_edges(&[(0, 1), (1, 2), (2, 3)]));
        let mut ov = OverlayGraph::new(Arc::clone(&base), 2);
        assert!(ov.has_edge(0, 1));
        ov.stage_delete(0, 1).unwrap();
        ov.stage_insert(0, 3).unwrap();
        assert!(!ov.has_edge(0, 1));
        assert!(ov.has_edge(3, 0));
        assert_eq!(ov.degree(0), 1); // lost 1, gained 3
        assert_eq!(ov.degree(3), 2);
        // Base is untouched until compaction.
        assert!(base.has_edge(0, 1));

        // Third stage exceeds the threshold of 2 → compacts first.
        ov.stage_insert(1, 3).unwrap();
        assert_eq!(ov.pending().len(), 1);
        assert!(!ov.base().has_edge(0, 1));
        assert!(ov.base().has_edge(0, 3));

        ov.compact();
        assert!(ov.pending().is_empty());
        assert!(ov.base().has_edge(1, 3));
        ov.base().validate().unwrap();
    }

    #[test]
    fn overlay_rejects_bad_stages_without_panicking() {
        let base = Arc::new(gen::path(5));
        let mut ov = OverlayGraph::new(base, 64);
        assert!(matches!(
            ov.stage_insert(0, 99),
            Err(DeltaError::OutOfRange { u: 99, .. })
        ));
        assert!(matches!(
            ov.stage_delete(2, 2),
            Err(DeltaError::SelfLoop { u: 2 })
        ));
        ov.stage_insert(0, 2).unwrap();
        assert_eq!(
            ov.stage_delete(2, 0),
            Err(DeltaError::Duplicate { u: 0, v: 2 })
        );
        assert_eq!(ov.pending().len(), 1);
    }

    #[test]
    fn take_pending_hands_off_the_batch() {
        let base = Arc::new(gen::cycle(6));
        let mut ov = OverlayGraph::new(Arc::clone(&base), 64);
        ov.stage_insert(0, 3).unwrap();
        let d = ov.take_pending();
        assert_eq!(d.inserts(), &[(0, 3)]);
        assert!(ov.pending().is_empty());
        // Base unchanged — the batch belongs to the caller now.
        assert!(!ov.base().has_edge(0, 3));
    }
}
