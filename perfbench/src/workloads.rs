//! The three workloads, driven only through the public APIs of
//! `ppscan-graph`, `ppscan-core`, `ppscan-gsindex` and `ppscan-serve`.
//!
//! * `job-file` — one caller, closed loop; each op is a whole batch job:
//!   load the binary graph file, run ppSCAN, write every membership to a
//!   file. The only workload with the loader and the writer on the op path.
//! * `cluster-resident` — one caller, closed loop; the graph is loaded
//!   once and each op is one ppSCAN call. Core checking dominates.
//! * `serve-rw` — a `Server` answering a closed loop of blocking queries
//!   from one reader while one writer applies edge toggles in an open
//!   loop at 4 batches/s. Neither ppSCAN nor the loader is on its path.
//!
//! In a traced run every workload also probes the layers that are not on
//! its own op path, on its own graph, after the measured window, so each
//! traced run reports every layer.

use crate::stats::{median, peak_rss_mib, quantile, reset_peak_rss, HostSample};
use crate::trace::Tracer;
use ppscan_core::params::ScanParams;
use ppscan_core::ppscan::{ppscan, PpScanConfig, PpScanOutput};
use ppscan_core::report::STAGE_CORE_CHECKING;
use ppscan_core::result::Clustering;
use ppscan_graph::datasets::Dataset;
use ppscan_graph::rng::SplitMix64;
use ppscan_graph::{io, CsrGraph, GraphBuilder, GraphDelta, VertexId};
use ppscan_gsindex::OwnedGsIndex;
use ppscan_sched::ExecutionStrategy;
use ppscan_serve::{ServeConfig, Server};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["job-file", "cluster-resident", "serve-rw"];

/// The distinct (ε, µ) settings the serve-rw reader asks for, and the
/// fixed 5-cycle over them: 60% of queries share setting 0 and the
/// slowest setting sits alone in the top 20%, so p50 and p90 each fall
/// inside one mode rather than in a gap between modes.
const SERVE_SETTINGS: [(f64, usize); 3] = [(0.2, 3), (0.1, 5), (0.3, 2)];
const SERVE_CYCLE: [usize; 5] = [0, 1, 0, 2, 0];
/// Edge toggles per write batch, and the writer's open-loop period.
const TOGGLE_EDGES: usize = 16;
const WRITE_PERIOD: Duration = Duration::from_millis(250);
/// Write ops get ids from here, so they never collide with query ops.
const WRITE_OP_BASE: u64 = 1 << 32;
/// Seconds of serving measured by the serve probe of a traced
/// cluster workload.
const SERVE_PROBE_SECONDS: f64 = 2.0;
/// Repetitions of each graph and output probe call in a traced run.
const PROBE_REPS: usize = 3;
/// Direct GS*-Index probe: passes over the query cycle, and toggle
/// batches applied. The serve metrics subtract these medians from the
/// served ones, so they get more samples than the other probes.
const GS_QUERY_PASSES: usize = 10;
const GS_APPLY_BATCHES: u64 = 8;

/// Everything a run is told: the workload's inputs derive from `seed`.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// `generate_scaled` scale of webbase-s (job-file).
    pub job_scale: f64,
    /// `generate_scaled` scale of twitter-s (cluster-resident, serve-rw).
    pub twitter_scale: f64,
    /// Directory for the graph file and the membership output.
    pub dir: PathBuf,
    /// Self-test only: corrupt every reference, so every op must fail.
    pub corrupt_reference: bool,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: bool, dir: PathBuf) -> Plan {
        Plan {
            seed,
            seconds,
            trace,
            setups: 3,
            job_scale: 2.0,
            twitter_scale: 1.0,
            dir,
            corrupt_reference: false,
        }
    }

    fn file(&self, workload: &str, ext: &str) -> PathBuf {
        self.dir.join(format!(
            "{workload}-{}-{}.{ext}",
            self.seed,
            std::process::id()
        ))
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Cores in the smallest reference answer; 0 means the workload's
    /// answer is empty and its checks would pass trivially.
    pub min_ref_cores: usize,
    /// Primary ops completed in the measured window.
    pub ops: usize,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// `(host.steal_ms, host.cpu_some_ms, serve.writer_late_ms)` over the
    /// run: the run-quality record, reported with every run, never gated.
    pub quality: (f64, f64, f64),
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.min_ref_cores > 0
    }
}

pub fn run(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    std::fs::create_dir_all(&plan.dir).map_err(|e| format!("{}: {e}", plan.dir.display()))?;
    let host0 = HostSample::now();
    let tracer = Tracer::new(plan.trace);
    let mut outcome = match workload {
        "job-file" => job_file(plan, &tracer),
        "cluster-resident" => cluster_resident(plan, &tracer),
        "serve-rw" => serve_rw(plan, &tracer),
        other => return Err(format!("unknown workload {other:?}")),
    }?;
    let (steal_ms, cpu_some_ms) = HostSample::now().since(&host0);
    outcome.quality.0 = steal_ms;
    outcome.quality.1 = cpu_some_ms;
    if plan.trace {
        outcome.per_layer.push(("host.cpu_some_ms", cpu_some_ms));
        let spans = plan.file(workload, "spans.jsonl");
        std::fs::write(&spans, tracer.to_json_lines())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        eprintln!("spans written to {}", spans.display());
        eprintln!("self time per span name (spans, median ms, total ms):");
        for (name, selfs) in tracer.self_times() {
            let total: f64 = selfs.iter().sum();
            let count = selfs.len();
            eprintln!(
                "  {name:<22} {count:>6} {:>12.4} {total:>12.3}",
                median(&selfs)
            );
        }
    }
    Ok(outcome)
}

// ---------------------------------------------------------------- inputs

/// A workload's input: the dataset stand-in with its vertices relabeled
/// by a permutation drawn from the seed, and the serve-rw toggle
/// batches. The toggles are drawn on the stand-in before relabeling, so
/// every seed clusters into the same structure and toggles the same
/// structural edges, laid out differently in memory. (Drawn per seed,
/// the toggles' endpoints span a 17× range of incident edges on
/// twitter-s, and the write cost with them.)
struct Input {
    graph: CsrGraph,
    toggles: Toggles,
}

impl Input {
    fn generate(dataset: Dataset, scale: f64, seed: u64) -> Input {
        let g = dataset.generate_scaled(scale);
        let n = g.num_vertices();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        let mut rng = SplitMix64::seed_from_u64(seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_index(i + 1));
        }
        let relabel = |(u, v): (VertexId, VertexId)| (perm[u as usize], perm[v as usize]);
        let mut b = GraphBuilder::with_capacity(g.num_edges()).ensure_vertices(n);
        for e in g.undirected_edges() {
            let (u, v) = relabel(e);
            b.push_edge(u, v);
        }
        let toggles = Toggles::new(non_edges(&g).into_iter().map(relabel));
        Input {
            graph: b.build(),
            toggles,
        }
    }
}

/// `TOGGLE_EDGES` distinct non-edges, uniformly drawn from a fixed stream.
fn non_edges(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    let mut rng = SplitMix64::seed_from_u64(0x7061_6972);
    let mut picked: Vec<(VertexId, VertexId)> = Vec::new();
    while picked.len() < TOGGLE_EDGES {
        let (a, b) = (rng.gen_index(n) as VertexId, rng.gen_index(n) as VertexId);
        let e = (a.min(b), a.max(b));
        if a != b && !g.has_edge(a, b) && !picked.contains(&e) {
            picked.push(e);
        }
    }
    picked
}

/// Generates and writes the workload's graph file, then loads it.
/// Returns the loaded graph and the toggle batches.
fn prepare_file(
    dataset: Dataset,
    scale: f64,
    plan: &Plan,
    path: &Path,
    tracer: &Tracer,
) -> Result<(CsrGraph, Toggles), String> {
    let Input { graph, toggles } = Input::generate(dataset, scale, plan.seed);
    io::write_binary_file(&graph, path).map_err(|e| format!("write {}: {e}", path.display()))?;
    drop(graph);
    Ok((load(path, tracer)?, toggles))
}

fn load(path: &Path, tracer: &Tracer) -> Result<CsrGraph, String> {
    tracer
        .span("graph.load", None, || io::read_binary_file(path))
        .0
        .map_err(|e| format!("load {}: {e}", path.display()))
}

/// The add/remove pair of batches the serve-rw writer alternates: the
/// same `TOGGLE_EDGES` non-edges, inserted then deleted, so the graph
/// has exactly two states.
struct Toggles {
    insert: GraphDelta,
    delete: GraphDelta,
}

impl Toggles {
    fn new(edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Toggles {
        let (mut insert, mut delete) = (GraphDelta::new(), GraphDelta::new());
        for (u, v) in edges {
            insert.insert(u, v).expect("distinct non-loop edge");
            delete.delete(u, v).expect("distinct non-loop edge");
        }
        Toggles { insert, delete }
    }

    /// The batch the `k`-th write applies (0-based).
    fn batch(&self, k: u64) -> &GraphDelta {
        if k.is_multiple_of(2) {
            &self.insert
        } else {
            &self.delete
        }
    }
}

/// Runs `f` `plan.setups` times, timing each; keeps the last result.
fn repeat_setup<S>(
    plan: &Plan,
    mut f: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setups.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn reference(g: &CsrGraph, params: ScanParams, plan: &Plan) -> Clustering {
    let config = PpScanConfig::default().strategy(ExecutionStrategy::SequentialDeterministic);
    let mut c = ppscan(g, params, &config).clustering;
    if plan.corrupt_reference {
        c.noncore_pairs.push((0, 0));
    }
    c
}

/// One membership per line, as `ppscan-cli cluster --output` writes them.
fn write_memberships(c: &Clustering, path: &Path) -> std::io::Result<usize> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# vertex cluster_id (one line per membership)")?;
    let mut lines = 1;
    for (cid, members) in c.clusters() {
        for v in members {
            writeln!(w, "{v} {cid}")?;
            lines += 1;
        }
    }
    w.flush()?;
    Ok(lines)
}

fn expected_lines(c: &Clustering) -> usize {
    1 + c.clusters().iter().map(|(_, m)| m.len()).sum::<usize>()
}

fn count_lines(path: &Path) -> std::io::Result<usize> {
    Ok(std::fs::read(path)?.iter().filter(|&&b| b == b'\n').count())
}

// ----------------------------------------------------- per-layer samples

/// Per-call ppSCAN readings: the call itself, its stage timings and the
/// counters and per-worker phase metrics of its run report.
#[derive(Default)]
struct CoreSamples {
    call_ms: Vec<f64>,
    stages_ms: [Vec<f64>; 4],
    other_ms: Vec<f64>,
    compsim: Vec<f64>,
    elements: Vec<f64>,
    elements_per_busy_ns: Vec<f64>,
    gallop_share: Vec<f64>,
    busy_ms: Vec<f64>,
    idle_frac: Vec<f64>,
    check_imbalance: Vec<f64>,
    tasks: Vec<f64>,
    steals: Vec<f64>,
}

impl CoreSamples {
    fn push(&mut self, out: &PpScanOutput, call_ms: f64, threads: usize) {
        let stages = out.timings.stages();
        for (v, d) in self.stages_ms.iter_mut().zip(stages) {
            v.push(d.as_secs_f64() * 1e3);
        }
        let staged: f64 = stages.iter().map(|d| d.as_secs_f64() * 1e3).sum();
        self.call_ms.push(call_ms);
        self.other_ms.push(call_ms - staged);
        let r = &out.report;
        let c = &r.counters;
        self.compsim.push(c.compsim_invocations as f64);
        self.elements.push(c.elements_scanned as f64);
        let adaptive = c.adaptive_gallop + c.adaptive_block;
        self.gallop_share
            .push(c.adaptive_gallop as f64 / adaptive.max(1) as f64);
        let busy_ns: u64 = r
            .phases
            .iter()
            .flat_map(|p| &p.workers)
            .map(|w| w.busy_nanos)
            .sum();
        let wall_ns: u64 = r.phases.iter().map(|p| p.wall_nanos).sum();
        self.busy_ms.push(busy_ns as f64 / 1e6);
        self.idle_frac
            .push(1.0 - busy_ns as f64 / (wall_ns.max(1) as f64 * threads as f64));
        self.tasks
            .push(r.phases.iter().map(|p| p.tasks).sum::<u64>() as f64);
        self.steals.push(
            r.phases
                .iter()
                .flat_map(|p| &p.workers)
                .map(|w| w.steals)
                .sum::<u64>() as f64,
        );
        if let Some(check) = r.phase(STAGE_CORE_CHECKING) {
            let busy: Vec<u64> = check.workers.iter().map(|w| w.busy_nanos).collect();
            let total: u64 = busy.iter().sum();
            let max = busy.iter().copied().max().unwrap_or(0);
            self.check_imbalance
                .push(max as f64 * busy.len().max(1) as f64 / total.max(1) as f64);
            // Similarity work of the clustering stages is a small remainder
            // next to core checking; all of it is charged to the check
            // phase's busy time.
            self.elements_per_busy_ns
                .push(c.elements_scanned as f64 / total.max(1) as f64);
        }
    }

    fn metrics(&self, m: &mut Vec<(&'static str, f64)>) {
        let names = [
            "core.prune_ms",
            "core.check_ms",
            "core.core_cluster_ms",
            "core.noncore_cluster_ms",
        ];
        m.push(("core.ppscan_ms", median(&self.call_ms)));
        for (name, v) in names.into_iter().zip(&self.stages_ms) {
            m.push((name, median(v)));
        }
        m.extend([
            ("core.other_ms", median(&self.other_ms)),
            ("intersect.compsim_calls", median(&self.compsim)),
            ("intersect.elements_scanned", median(&self.elements)),
            (
                "intersect.elements_per_busy_ns",
                median(&self.elements_per_busy_ns),
            ),
            ("intersect.gallop_share", median(&self.gallop_share)),
            ("sched.busy_ms", median(&self.busy_ms)),
            ("sched.idle_frac", median(&self.idle_frac)),
            ("sched.check_imbalance", median(&self.check_imbalance)),
            ("sched.tasks", median(&self.tasks)),
            ("sched.steals", median(&self.steals)),
        ]);
    }
}

/// Timed ppSCAN call at the default (parallel) configuration.
fn ppscan_call(
    g: &CsrGraph,
    params: ScanParams,
    config: &PpScanConfig,
    tracer: &Tracer,
    core: &mut CoreSamples,
) -> Clustering {
    let (out, ms) = tracer.span("core.ppscan", None, || ppscan(g, params, config));
    core.push(&out, ms, config.threads);
    out.clustering
}

/// Serving readings, from the serve-rw window or the serve probe.
#[derive(Default)]
struct ServeSamples {
    query_ms: Vec<f64>,
    /// Update latency from its due time.
    write_ms: Vec<f64>,
    /// Update latency from its call.
    update_call_ms: Vec<f64>,
    late_ms: Vec<f64>,
    retired: usize,
    window_s: f64,
    attempted: u64,
    failed: u64,
}

impl ServeSamples {
    /// How late the writer started its most-late batch.
    fn writer_late_ms(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// Readings of the GS*-Index layer called directly.
#[derive(Default)]
struct GsSamples {
    build_ms: f64,
    heap_mib: f64,
    /// Direct-query ms, per cycle entry.
    query_ms: Vec<Vec<f64>>,
    apply_ms: Vec<f64>,
    recomputed: Vec<f64>,
    touched: Vec<f64>,
}

/// The serve-rw window: one closed-loop reader, one open-loop writer.
/// With `refs = Some([state][setting])`, every response and update is
/// checked; the probe of a traced cluster workload runs unchecked.
fn serve_window(
    server: &Server,
    toggles: &Toggles,
    refs: Option<&[Vec<Clustering>; 2]>,
    seconds: f64,
    tracer: &Tracer,
) -> ServeSamples {
    // The published index holds the base graph; each write flips it.
    let gen0 = server.generation();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut reads = ServeSamples::default();
    let mut writes = ServeSamples::default();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0u64.. {
                let due = start + WRITE_PERIOD * k as u32;
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                writes.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let (result, call_ms) =
                    tracer.span("serve.update", Some(WRITE_OP_BASE + k), || {
                        server.update(toggles.batch(k))
                    });
                writes.write_ms.push(due.elapsed().as_secs_f64() * 1e3);
                writes.update_call_ms.push(call_ms);
                writes.attempted += 1;
                let want = gen0 + 1 + k;
                if result != Ok(want) {
                    eprintln!("write {k}: expected generation {want}, got {result:?}");
                    writes.failed += 1;
                }
            }
        });
        for k in 0u64.. {
            if Instant::now() >= deadline {
                break;
            }
            let setting = SERVE_CYCLE[k as usize % SERVE_CYCLE.len()];
            let (eps, mu) = SERVE_SETTINGS[setting];
            let (response, ms) = tracer.span("op", Some(k + 1), || {
                tracer.span("serve.query", None, || server.query(eps, mu)).0
            });
            reads.query_ms.push(ms);
            reads.attempted += 1;
            if let Some(refs) = refs {
                let state = ((response.generation - gen0) % 2) as usize;
                if response.result.as_ref() != Ok(&refs[state][setting]) {
                    eprintln!(
                        "query {k} ({eps}, {mu}) at generation {}: wrong answer",
                        response.generation
                    );
                    reads.failed += 1;
                }
            }
        }
    });
    reads.window_s = start.elapsed().as_secs_f64();
    reads.retired = server.retired_snapshots();
    ServeSamples {
        write_ms: writes.write_ms,
        update_call_ms: writes.update_call_ms,
        late_ms: writes.late_ms,
        attempted: reads.attempted + writes.attempted,
        failed: reads.failed + writes.failed,
        ..reads
    }
}

fn serve_threads() -> usize {
    ServeConfig::default().threads
}

/// Direct GS*-Index calls: a build, the query 5-cycle and the toggle
/// batches, on the workload's graph.
fn gsindex_probe(g: &Arc<CsrGraph>, toggles: &Toggles, tracer: &Tracer) -> GsSamples {
    let threads = serve_threads();
    let (index, build_ms) = tracer.span("gsindex.build", None, || {
        OwnedGsIndex::build(Arc::clone(g), threads)
    });
    let mut gs = GsSamples {
        build_ms,
        heap_mib: index.heap_bytes() as f64 / (1u64 << 20) as f64,
        query_ms: vec![Vec::new(); SERVE_CYCLE.len()],
        ..GsSamples::default()
    };
    for _ in 0..GS_QUERY_PASSES {
        for (slot, &setting) in SERVE_CYCLE.iter().enumerate() {
            let (eps, mu) = SERVE_SETTINGS[setting];
            let (c, ms) = tracer.span("gsindex.query", None, || {
                index.query(ScanParams::new(eps, mu))
            });
            std::hint::black_box(c);
            gs.query_ms[slot].push(ms);
        }
    }
    let mut current = index;
    for k in 0..GS_APPLY_BATCHES {
        let (applied, ms) = tracer.span("gsindex.apply_delta", None, || {
            current.apply_delta(toggles.batch(k), threads)
        });
        let (next, stats) = applied.expect("toggle batches apply to their own graph");
        gs.apply_ms.push(ms);
        gs.recomputed.push(stats.recomputed_edges as f64);
        gs.touched.push(stats.touched_vertices as f64);
        current = next;
    }
    gs
}

/// Graph-layer calls taken apart: raw read, decode of those bytes,
/// reverse-index build and validation on copies of the loaded parts,
/// plus whole loads. Returns the file size in bytes.
fn graph_probe(path: &Path, tracer: &Tracer) -> Result<u64, String> {
    let mut bytes = 0;
    for _ in 0..PROBE_REPS {
        let raw = tracer
            .span("graph.read", None, || std::fs::read(path))
            .0
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        bytes = raw.len() as u64;
        let g = tracer
            .span("graph.decode", None, || io::read_binary(&raw[..]))
            .0
            .map_err(|e| format!("decode {}: {e}", path.display()))?;
        let (offsets, neighbors) = (g.raw_offsets().to_vec(), g.raw_neighbors().to_vec());
        let rebuilt = tracer.span("graph.rev_build", None, || {
            CsrGraph::from_sorted_parts_unchecked(offsets, neighbors)
        });
        drop(rebuilt);
        tracer.span("graph.validate", None, || g.validate()).0?;
        drop(g);
        load(path, tracer)?;
    }
    Ok(bytes)
}

/// Every per-layer metric, in the order `main` lists them.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    tracer: &Tracer,
    file_bytes: u64,
    core: &CoreSamples,
    output_lines: usize,
    gs: &GsSamples,
    serve: &ServeSamples,
    op_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    let span_median = |name| median(&tracer.durations_ms(name));
    let load_ms = span_median("graph.load");
    let mut m = vec![
        ("graph.load_ms", load_ms),
        ("graph.read_ms", span_median("graph.read")),
        ("graph.decode_ms", span_median("graph.decode")),
        ("graph.rev_build_ms", span_median("graph.rev_build")),
        ("graph.validate_ms", span_median("graph.validate")),
        (
            "graph.load_mib_per_s",
            file_bytes as f64 / (1u64 << 20) as f64 / (load_ms / 1e3).max(1e-9),
        ),
    ];
    core.metrics(&mut m);
    m.extend([
        ("output.write_ms", span_median("output.write")),
        ("output.lines", output_lines as f64),
    ]);
    // The direct-query p50 of the median cycle entry, the base the
    // client-seen latency is compared with.
    let mut per_entry: Vec<f64> = gs.query_ms.iter().map(|v| median(v)).collect();
    per_entry.sort_by(f64::total_cmp);
    let direct_mid = per_entry.get(per_entry.len() / 2).copied().unwrap_or(0.0);
    let all_direct: Vec<f64> = gs.query_ms.concat();
    let apply_ms = median(&gs.apply_ms);
    m.extend([
        ("gsindex.build_ms", gs.build_ms),
        ("gsindex.query_ms", median(&all_direct)),
        ("gsindex.apply_delta_ms", apply_ms),
        ("gsindex.recomputed_edges", median(&gs.recomputed)),
        ("gsindex.touched_vertices", median(&gs.touched)),
        ("gsindex.heap_mib", gs.heap_mib),
        (
            "serve.query_overhead_ms",
            median(&serve.query_ms) - direct_mid,
        ),
        ("serve.publish_ms", median(&serve.update_call_ms) - apply_ms),
        ("serve.retired_snapshots", serve.retired as f64),
        ("serve.writer_late_ms", serve.writer_late_ms()),
        ("trace.op_p50_ms", median(op_ms)),
        (
            "trace.op_self_ms",
            median(&tracer.self_times().remove("op").unwrap_or_default()),
        ),
        ("trace.spans", tracer.spans().len() as f64),
    ]);
    m
}

/// Probes of a traced cluster workload for the layers off its op path:
/// graph decomposition, the GS*-Index, and a short serve window.
fn cluster_probes(
    g: CsrGraph,
    toggles: &Toggles,
    path: &Path,
    plan: &Plan,
    tracer: &Tracer,
) -> Result<(u64, GsSamples, ServeSamples), String> {
    let bytes = graph_probe(path, tracer)?;
    let g = Arc::new(g);
    let gs = gsindex_probe(&g, toggles, tracer);
    let server = tracer
        .span("serve.start", None, || {
            Server::start(Arc::clone(&g), ServeConfig::default())
        })
        .0;
    let seconds = SERVE_PROBE_SECONDS.min(plan.seconds);
    let serve = serve_window(&server, toggles, None, seconds, tracer);
    Ok((bytes, gs, serve))
}

fn e2e(
    setup_s: &[f64],
    op_ms: &[f64],
    window_s: f64,
    write_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(setup_s)),
        ("op_p50_ms", median(op_ms)),
        ("op_p90_ms", quantile(op_ms, 0.9)),
        ("ops_per_s", op_ms.len() as f64 / window_s.max(1e-9)),
        ("write_p50_ms", median(write_ms)),
        ("peak_rss_mib", peak_rss_mib()),
    ]
}

// ------------------------------------------------------------- workloads

fn job_file(plan: &Plan, tracer: &Tracer) -> Result<Outcome, String> {
    let params = ScanParams::new(0.1, 5);
    let config = PpScanConfig::default();
    let graph_path = plan.file("job-file", "bin");
    let out_path = plan.file("job-file", "clusters");
    let mut core = CoreSamples::default();
    // One job: file → CSR → ppSCAN → memberships file. Returns the
    // clustering, the lines written and the write time.
    let job = |op: Option<u64>, core: &mut CoreSamples| {
        tracer.span("op", op, || -> Result<_, String> {
            let g = load(&graph_path, tracer)?;
            let c = ppscan_call(&g, params, &config, tracer, core);
            let (lines, write_ms) =
                tracer.span("output.write", None, || write_memberships(&c, &out_path));
            let lines = lines.map_err(|e| format!("write {}: {e}", out_path.display()))?;
            Ok((c, lines, write_ms))
        })
    };

    let (reference, toggles, setup_s) = {
        let mut warm = CoreSamples::default();
        let ((g, toggles), setup_s) = repeat_setup(plan, || {
            let input = prepare_file(Dataset::WebbaseS, plan.job_scale, plan, &graph_path, tracer)?;
            job(None, &mut warm).0?;
            Ok(input)
        })?;
        (reference(&g, params, plan), toggles, setup_s)
    };
    let want_lines = expected_lines(&reference);

    let mut outcome = Outcome {
        min_ref_cores: reference.num_cores(),
        ..Outcome::default()
    };
    let (mut op_ms, mut write_ms) = (Vec::new(), Vec::new());
    let mut lines = 0;
    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(plan.seconds);
    for k in 1u64.. {
        if Instant::now() >= deadline {
            break;
        }
        outcome.attempted += 1;
        match job(Some(k), &mut core) {
            (Ok((c, written, w_ms)), ms) => {
                op_ms.push(ms);
                write_ms.push(w_ms);
                lines = written;
                let on_disk = count_lines(&out_path).unwrap_or(0);
                if c != reference || written != want_lines || on_disk != want_lines {
                    eprintln!("job {k}: clustering or membership file differs from the reference");
                    outcome.failed += 1;
                }
            }
            (Err(e), _) => {
                eprintln!("job {k}: {e}");
                outcome.failed += 1;
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    outcome.ops = op_ms.len();
    outcome.end_to_end = e2e(&setup_s, &op_ms, window_s, &write_ms);
    if plan.trace {
        let g = load(&graph_path, tracer)?;
        let (bytes, gs, serve) = cluster_probes(g, &toggles, &graph_path, plan, tracer)?;
        outcome.quality.2 = serve.writer_late_ms();
        outcome.per_layer = layer_metrics(tracer, bytes, &core, lines, &gs, &serve, &op_ms);
    }
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&out_path);
    Ok(outcome)
}

fn cluster_resident(plan: &Plan, tracer: &Tracer) -> Result<Outcome, String> {
    let params = ScanParams::new(0.2, 5);
    let config = PpScanConfig::default();
    let graph_path = plan.file("cluster-resident", "bin");
    let out_path = plan.file("cluster-resident", "clusters");
    let mut core = CoreSamples::default();

    let ((g, toggles), setup_s) = repeat_setup(plan, || {
        let (g, toggles) = prepare_file(
            Dataset::TwitterS,
            plan.twitter_scale,
            plan,
            &graph_path,
            tracer,
        )?;
        ppscan_call(&g, params, &config, tracer, &mut CoreSamples::default());
        Ok((g, toggles))
    })?;
    let reference = reference(&g, params, plan);
    let want_lines = expected_lines(&reference);

    let mut outcome = Outcome {
        min_ref_cores: reference.num_cores(),
        ..Outcome::default()
    };
    let (mut op_ms, mut write_ms) = (Vec::new(), Vec::new());
    let mut lines = 0;
    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(plan.seconds);
    for k in 1u64.. {
        if Instant::now() >= deadline {
            break;
        }
        outcome.attempted += 1;
        let (c, ms) = tracer.span("op", Some(k), || {
            ppscan_call(&g, params, &config, tracer, &mut core)
        });
        op_ms.push(ms);
        // Publishing the result is outside the op: it is what
        // `write_p50_ms` times here.
        let (written, w_ms) =
            tracer.span("output.write", Some(k), || write_memberships(&c, &out_path));
        write_ms.push(w_ms);
        lines = *written.as_ref().unwrap_or(&0);
        if c != reference || written.ok() != Some(want_lines) {
            eprintln!("op {k}: clustering or membership file differs from the reference");
            outcome.failed += 1;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    outcome.ops = op_ms.len();
    outcome.end_to_end = e2e(&setup_s, &op_ms, window_s, &write_ms);
    if plan.trace {
        let (bytes, gs, serve) = cluster_probes(g, &toggles, &graph_path, plan, tracer)?;
        outcome.quality.2 = serve.writer_late_ms();
        outcome.per_layer = layer_metrics(tracer, bytes, &core, lines, &gs, &serve, &op_ms);
    }
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&out_path);
    Ok(outcome)
}

fn serve_rw(plan: &Plan, tracer: &Tracer) -> Result<Outcome, String> {
    let graph_path = plan.file("serve-rw", "bin");
    let ((server, toggles), setup_s) = repeat_setup(plan, || {
        let (g, toggles) = prepare_file(
            Dataset::TwitterS,
            plan.twitter_scale,
            plan,
            &graph_path,
            tracer,
        )?;
        let server = tracer
            .span("serve.start", None, || {
                Server::start(Arc::new(g), ServeConfig::default())
            })
            .0;
        Ok((server, toggles))
    })?;

    // References for both graph states and every setting, from ppSCAN
    // itself at its default configuration: the index is checked against
    // the algorithm it indexes.
    let base = load(&graph_path, tracer)?;
    let toggled = toggles
        .insert
        .apply_to(&base)
        .map_err(|e| format!("toggle batch: {e}"))?
        .graph;
    let config = PpScanConfig::default();
    let mut core = CoreSamples::default();
    let refs: [Vec<Clustering>; 2] = [&base, &toggled].map(|g| {
        SERVE_SETTINGS
            .iter()
            .map(|&(eps, mu)| {
                let mut c = ppscan_call(g, ScanParams::new(eps, mu), &config, tracer, &mut core);
                if plan.corrupt_reference {
                    c.noncore_pairs.push((0, 0));
                }
                c
            })
            .collect()
    });
    drop((base, toggled));

    reset_peak_rss();
    let serve = serve_window(&server, &toggles, Some(&refs), plan.seconds, tracer);
    let mut outcome = Outcome {
        attempted: serve.attempted,
        failed: serve.failed,
        min_ref_cores: refs
            .iter()
            .flatten()
            .map(Clustering::num_cores)
            .min()
            .unwrap_or(0),
        ops: serve.query_ms.len(),
        ..Outcome::default()
    };
    outcome.quality.2 = serve.writer_late_ms();
    outcome.end_to_end = e2e(&setup_s, &serve.query_ms, serve.window_s, &serve.write_ms);
    drop(server);
    if plan.trace {
        let bytes = graph_probe(&graph_path, tracer)?;
        let out_path = plan.file("serve-rw", "clusters");
        let mut lines = 0;
        for _ in 0..PROBE_REPS {
            lines = tracer
                .span("output.write", None, || {
                    write_memberships(&refs[0][0], &out_path)
                })
                .0
                .map_err(|e| format!("write {}: {e}", out_path.display()))?;
        }
        let _ = std::fs::remove_file(&out_path);
        let base = Arc::new(load(&graph_path, tracer)?);
        let gs = gsindex_probe(&base, &toggles, tracer);
        outcome.per_layer =
            layer_metrics(tracer, bytes, &core, lines, &gs, &serve, &serve.query_ms);
    }
    let _ = std::fs::remove_file(&graph_path);
    Ok(outcome)
}
