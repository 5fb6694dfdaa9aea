//! pSCAN (Chang et al., ICDE'16) — paper Algorithm 2.
//!
//! The state-of-the-art *sequential* pruning-based algorithm ppSCAN
//! parallelizes. Three pruning techniques (§3.2.1):
//!
//! 1. **Min-max pruning** — similar-degree `sd[u]` and effective-degree
//!    `ed[u]` bound `|N_ε(u)| − 1`; core checking stops as soon as
//!    `sd[u] ≥ µ` (core) or `ed[u] < µ` (non-core). Vertices are explored
//!    in non-increasing *dynamic* `ed[u]` order via a lazy bucket
//!    max-priority structure (`ed` only decreases).
//! 2. **Similarity value reuse** — every computed `sim[e(u, v)]` is also
//!    stored at the reverse slot `e(v, u)` (binary search in `v`'s
//!    sorted list).
//! 3. **Union-find pruning** — core clustering skips pairs already in the
//!    same disjoint set.
//!
//! `CompSim` uses the merge kernel with early termination
//! (Definition 3.9 bounds), like the reference implementation.

use crate::params::ScanParams;
use crate::report as report_glue;
use crate::result::{Clustering, Role, NO_CLUSTER};
use crate::simstore::SimStore;
use crate::timing::{Breakdown, Stopwatch};
use ppscan_graph::{CsrGraph, VertexId};
use ppscan_intersect::counters::CounterScope;
use ppscan_intersect::{Kernel, Similarity};
use ppscan_obs::RunReport;
use ppscan_unionfind::UnionFind;
use std::time::Instant;

/// pSCAN result: canonical clustering plus the Figure-1 breakdown and
/// the unified run report.
#[derive(Debug)]
pub struct PScanOutput {
    /// Canonical clustering.
    pub clustering: Clustering,
    /// Similarity / pruning / other time split.
    pub breakdown: Breakdown,
    /// Machine-readable record of the run (breakdown-backed phases plus
    /// kernel counters).
    pub report: RunReport,
}

/// Runs pSCAN (Algorithm 2) with the default dynamic `ed` ordering.
pub fn pscan(g: &CsrGraph, params: ScanParams) -> PScanOutput {
    pscan_with_order(g, params, true)
}

/// Runs pSCAN with or without the dynamic non-increasing-`ed` vertex
/// order (the §4.1 ablation: ppSCAN drops the order because its effect on
/// workload is negligible; `bin/ablation_edorder` measures that claim).
pub fn pscan_with_order(g: &CsrGraph, params: ScanParams, dynamic_order: bool) -> PScanOutput {
    PScan::new(g, params).run(dynamic_order)
}

struct PScan<'g> {
    g: &'g CsrGraph,
    params: ScanParams,
    sim: SimStore,
    /// Lower bound on `|N_ε(u)| − 1` (similar degree).
    sd: Vec<i64>,
    /// Upper bound on `|N_ε(u)| − 1` (effective degree).
    ed: Vec<i64>,
    role: Vec<Option<Role>>,
    uf: UnionFind,
    sim_timer: Stopwatch,
    prune_timer: Stopwatch,
}

impl<'g> PScan<'g> {
    fn new(g: &'g CsrGraph, params: ScanParams) -> Self {
        let n = g.num_vertices();
        Self {
            g,
            params,
            sim: SimStore::new(g.num_directed_edges()),
            sd: vec![0; n],
            ed: (0..n).map(|u| g.degree(u as VertexId) as i64).collect(),
            role: vec![None; n],
            uf: UnionFind::new(n),
            sim_timer: Stopwatch::default(),
            prune_timer: Stopwatch::default(),
        }
    }

    fn run(mut self, dynamic_order: bool) -> PScanOutput {
        let counter_scope = CounterScope::new();
        let _counters = counter_scope.activate();
        let wall = Instant::now();
        let n = self.g.num_vertices();
        let mu = self.params.mu as i64;

        if dynamic_order {
            self.run_bucket_order();
        } else {
            for u in 0..n as VertexId {
                self.check_core(u);
                if self.role[u as usize] == Some(Role::Core) {
                    self.cluster_core(u);
                }
            }
        }
        debug_assert!(self.role.iter().all(Option::is_some));
        let _ = mu;

        // InitClusterId + ClusterNonCores (Algorithm 2 line 8).
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        let mut core_label = vec![NO_CLUSTER; n];
        for u in 0..n as VertexId {
            if self.role[u as usize] != Some(Role::Core) {
                continue;
            }
            core_label[u as usize] = self.uf.find_root(u);
            for eo in self.g.neighbor_range(u) {
                let v = self.g.edge_dst(eo);
                if self.role[v as usize] != Some(Role::NonCore) {
                    continue;
                }
                let mut label = self.sim.get(eo);
                if label == Similarity::Unknown {
                    label = self.comp_sim(u, v, eo);
                }
                if label == Similarity::Sim {
                    pairs.push((v, core_label[u as usize]));
                }
            }
        }

        let roles: Vec<Role> = self.role.iter().map(|r| r.unwrap()).collect();
        let clustering = Clustering::from_raw(roles, core_label, pairs);
        let mut breakdown = Breakdown {
            similarity_evaluation: self.sim_timer.total(),
            workload_reduction: self.prune_timer.total(),
            ..Default::default()
        };
        let wall = wall.elapsed();
        breakdown.set_other_from_total(wall);
        let mut report = report_glue::base_report("pscan", self.g, self.params);
        report.wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        report.phases = report_glue::breakdown_phases(&breakdown);
        report.counters = report_glue::counters_from(counter_scope.snapshot());
        PScanOutput {
            clustering,
            breakdown,
            report,
        }
    }

    /// Vertex loop in non-increasing dynamic `ed[u]` order: a lazy bucket
    /// max-priority structure. `ed` only decreases, so stale entries are
    /// re-binned downward on pop; each vertex re-bins at most `d[u]`
    /// times.
    fn run_bucket_order(&mut self) {
        let n = self.g.num_vertices();
        let max_d = self.g.max_degree();
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_d + 1];
        for u in 0..n as VertexId {
            buckets[self.ed[u as usize] as usize].push(u);
        }
        let mut processed = vec![false; n];
        let mut cur = max_d;
        loop {
            while buckets[cur].is_empty() {
                if cur == 0 {
                    // Drain any remaining (all ed = 0) and finish.
                    break;
                }
                cur -= 1;
            }
            let Some(u) = buckets[cur].pop() else {
                break; // cur == 0 and empty → done
            };
            if processed[u as usize] {
                continue;
            }
            let cur_ed = self.ed[u as usize].max(0) as usize;
            if cur_ed != cur {
                // Stale: re-bin at the (lower) current ed.
                debug_assert!(cur_ed < cur);
                buckets[cur_ed].push(u);
                continue;
            }
            processed[u as usize] = true;
            self.check_core(u);
            if self.role[u as usize] == Some(Role::Core) {
                self.cluster_core(u);
            }
        }
    }

    /// `CompSim(u, v)`: merge kernel with early termination; stores the
    /// label at both `e(u, v)` and the reverse slot, and maintains
    /// `sd`/`ed` of both endpoints.
    fn comp_sim(&mut self, u: VertexId, v: VertexId, eo: usize) -> Similarity {
        let (nu, nv) = (self.g.neighbors(u), self.g.neighbors(v));
        let min_cn = self.params.min_cn(nu.len(), nv.len());
        let label = self
            .sim_timer
            .time(|| Kernel::MergeEarly.check(nu, nv, min_cn));
        let (g, sim) = (self.g, &self.sim);
        self.prune_timer.time(|| {
            sim.set(eo, label);
            // Similarity value reuse: the reverse slot comes from the
            // reverse-edge index every `CsrGraph` carries, in O(1),
            // where the paper binary-searches `v`'s neighbor list.
            sim.set(g.rev_offset(eo), label);
        });
        if label == Similarity::Sim {
            self.sd[u as usize] += 1;
            self.sd[v as usize] += 1;
        } else {
            self.ed[u as usize] -= 1;
            self.ed[v as usize] -= 1;
        }
        label
    }

    /// Algorithm 2 `CheckCore(u)` with min-max pruning.
    fn check_core(&mut self, u: VertexId) {
        let mu = self.params.mu as i64;
        if self.sd[u as usize] < mu && self.ed[u as usize] >= mu {
            for eo in self.g.neighbor_range(u) {
                if self.sim.get(eo) != Similarity::Unknown {
                    continue;
                }
                let v = self.g.edge_dst(eo);
                self.comp_sim(u, v, eo);
                if self.sd[u as usize] >= mu || self.ed[u as usize] < mu {
                    break;
                }
            }
        }
        let role = if self.sd[u as usize] >= mu {
            Role::Core
        } else {
            Role::NonCore
        };
        self.role[u as usize] = Some(role);
    }

    /// Algorithm 2 `ClusterCore(u)` with union-find pruning.
    fn cluster_core(&mut self, u: VertexId) {
        let mu = self.params.mu as i64;
        for eo in self.g.neighbor_range(u) {
            let v = self.g.edge_dst(eo);
            // Only neighbors already known to be cores (sd[v] ≥ µ).
            if self.sd[v as usize] < mu || self.uf.is_same_set(u, v) {
                continue;
            }
            let mut label = self.sim.get(eo);
            if label == Similarity::Unknown {
                label = self.comp_sim(u, v, eo);
            }
            if label == Similarity::Sim {
                self.uf.union(u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use ppscan_graph::gen;

    fn assert_matches_scan(g: &CsrGraph, eps: f64, mu: usize) {
        let p = ScanParams::new(eps, mu);
        let a = scan(g, p).clustering;
        let b = pscan(g, p).clustering;
        assert_eq!(a, b, "pSCAN != SCAN at eps={eps} mu={mu}");
        let c = pscan_with_order(g, p, false).clustering;
        assert_eq!(a, c, "pSCAN(no order) != SCAN at eps={eps} mu={mu}");
    }

    #[test]
    fn matches_scan_on_golden_example() {
        let g = gen::scan_paper_example();
        for eps in [0.2, 0.4, 0.6, 0.7, 0.8] {
            for mu in [1, 2, 3, 5] {
                assert_matches_scan(&g, eps, mu);
            }
        }
    }

    #[test]
    fn matches_scan_on_structured_graphs() {
        for g in [
            gen::complete(8),
            gen::star(10),
            gen::path(12),
            gen::cycle(9),
            gen::grid(4, 5),
            gen::clique_chain(5, 4),
        ] {
            for eps in [0.3, 0.6, 0.9] {
                for mu in [1, 2, 4] {
                    assert_matches_scan(&g, eps, mu);
                }
            }
        }
    }

    #[test]
    fn matches_scan_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::erdos_renyi(120, 600, seed);
            for eps in [0.2, 0.5, 0.8] {
                assert_matches_scan(&g, eps, 3);
            }
        }
        let g = gen::planted_partition(4, 20, 0.7, 0.03, 7);
        assert_matches_scan(&g, 0.6, 4);
    }

    #[test]
    fn prunes_relative_to_scan() {
        // pSCAN must invoke strictly fewer intersections than exhaustive
        // similarity computation (2 per undirected edge).
        use ppscan_intersect::counters::CounterScope;
        let g = gen::roll(400, 16, 3);
        let scope = CounterScope::new();
        let (delta, _) = scope.measure(|| pscan(&g, ScanParams::new(0.6, 5)));
        assert!(
            delta.compsim_invocations < g.num_directed_edges() as u64,
            "pSCAN did {} invocations on {} directed edges — no pruning?",
            delta.compsim_invocations,
            g.num_directed_edges()
        );
    }

    #[test]
    fn empty_graph() {
        let out = pscan(&CsrGraph::empty(3), ScanParams::new(0.5, 1));
        assert_eq!(out.clustering.num_cores(), 0);
    }

    #[test]
    fn breakdown_populated() {
        let g = gen::clique_chain(6, 3);
        let out = pscan(&g, ScanParams::new(0.5, 2));
        assert!(out.breakdown.total() > std::time::Duration::ZERO);
    }
}
