//! The four closed-loop workloads: input generation from the seed, the
//! golden oracle, one rep per product trace class, and the ~1 M-message
//! fully traced run whose bundle the post-mortem pipeline consumes.
//!
//! Every workload runs 2 PEs from this one process — never more PE
//! threads than cores, or a descheduled PE stalls its spinning partner and
//! the rep times become one-sided outliers.

use actorprof::{TraceBundle, TraceConfig};
use fabsp_apps::histogram::{self, HistogramConfig};
use fabsp_apps::index_gather::{self, IndexGatherConfig};
use fabsp_apps::triangle::{count_triangles, DistKind, TriangleConfig};
use fabsp_graph::edgelist::to_lower_triangular;
use fabsp_graph::rmat::{generate_edges, RmatParams};
use fabsp_graph::{triangle_ref, Csr};
use fabsp_shmem::Grid;

/// PE threads in every workload.
pub const N_PES: usize = 2;

/// Table slots (histogram) / entries (index-gather) owned by each PE:
/// 512 KiB per PE, inside L2, so the handlers stay cheap and the runtime
/// layers dominate.
pub const TABLE_PER_PE: usize = 65_536;

// Sizes are chosen so one rep of every class lasts >= 0.2 s on the 2-vCPU
// reference host (shorter reps are dominated by SPMD launch and scheduler
// noise) while a round of three classes stays near 0.7 s, which lets the
// time budget of one run hold >= 21 interleaved rounds.
const HISTO_UPDATES_PER_PE: usize = 5_000_000;
const HISTO_UPDATES_PER_PE_ALL: usize = 700_000;
const HISTO_UPDATES_PER_PE_PM: usize = 500_000;
const TC_SCALE: u32 = 13;
const TC_SCALE_SMALL: u32 = 12;
// Keep index-gather runs short. Above ~100 k reads/PE the untraced 1x2 run
// enters a contended regime — slower than the `logical` variant, 2x swings
// with the host's cross-CPU latency, heavy-tailed from 1 M (see
// `actor.ig_scaling_x`): measured untraced/logical M msgs/s at 50 k, 150 k,
// 250 k reads/PE = 31.6/29.8, 23.7/33.1, 20.8/29.0. A rep is many
// back-to-back runs instead, which also makes this the SPMD-launch
// workload. The post-mortem run is one run of ~1 M messages.
const IG_READS_PER_PE: usize = 50_000;
const IG_RUNS_PER_REP: usize = 40;
const IG_RUNS_PER_REP_ALL: usize = 8;
pub const IG_READS_PER_PE_PM: usize = 250_000;

/// The product's trace classes; each is a variant of every workload,
/// because the profiler's overhead is the product's headline quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    Off,
    Logical,
    All,
}

impl TraceClass {
    /// Round-robin order of one interleaved round.
    pub const ROUND: [TraceClass; 3] = [TraceClass::Off, TraceClass::Logical, TraceClass::All];

    pub fn span_name(self) -> &'static str {
        match self {
            TraceClass::Off => "rep.off",
            TraceClass::Logical => "rep.logical",
            TraceClass::All => "rep.all",
        }
    }

    pub fn config(self) -> TraceConfig {
        match self {
            TraceClass::Off => TraceConfig::off(),
            TraceClass::Logical => TraceConfig::off().with_logical(),
            TraceClass::All => TraceConfig::all(),
        }
    }
}

/// The trace configuration of the post-mortem run: every trace whose
/// volume is a function of the input — all of `TraceConfig::all()` plus
/// the exact per-send records that dominate the volume — and no phase
/// spans. A PE records one span per `advance` it polls while waiting, so
/// the same input gives 16 k to 770 k span records on `tc_cyclic`
/// (+-5 % of the bundle on the others); with them neither the bundle's
/// size nor the time to post-process it would repeat. Span cost and
/// volume are per-layer metrics instead (`trace.spans_*`).
pub fn postmortem_config() -> TraceConfig {
    TraceConfig {
        spans: false,
        ..TraceConfig::all().with_logical_records()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HistoLocal,
    HistoRemote,
    TcCyclic,
    IgReqresp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HistoLocal,
        Workload::HistoRemote,
        Workload::TcCyclic,
        Workload::IgReqresp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HistoLocal => "histo_local",
            Workload::HistoRemote => "histo_remote",
            Workload::TcCyclic => "tc_cyclic",
            Workload::IgReqresp => "ig_reqresp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One node of two PEs (every message on the intra-node ring path) —
    /// except `histo_remote`, two nodes of one PE (every off-PE message on
    /// the `put_nbi` + `quiet` + transport path).
    pub fn grid(self) -> Grid {
        let (nodes, per_node) = match self {
            Workload::HistoRemote => (N_PES, 1),
            _ => (1, N_PES),
        };
        Grid::new(nodes, per_node).expect("2-PE grid")
    }
}

/// Generated inputs plus golden values for one workload and seed.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    input: Input,
}

/// Histogram and index-gather generate their update/read streams from the
/// seed inside the app, so only triangle counting holds generated input.
enum Input {
    Histogram,
    IndexGather,
    Graphs { full: Graph, small: Graph },
}

struct Graph {
    l: Csr,
    wedges: u64,
    /// Sequential reference count — the golden value.
    triangles: u64,
}

/// Wall times of the two `fabsp_graph` stages of one graph.
pub struct GraphTimes {
    pub rmat_gen_s: f64,
    pub csr_build_s: f64,
}

fn build_graph(scale: u32, seed: u64) -> (Graph, GraphTimes) {
    let params = RmatParams::graph500(scale).with_seed(seed ^ 0x5EED_6500 ^ scale as u64);
    let t0 = std::time::Instant::now();
    let edges = generate_edges(&params);
    let rmat_gen_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let l = Csr::from_edges(params.n_vertices(), &to_lower_triangular(&edges));
    let csr_build_s = t1.elapsed().as_secs_f64();
    let graph = Graph {
        wedges: l.wedge_count(),
        triangles: triangle_ref::count_by_wedges(&l),
        l,
    };
    (
        graph,
        GraphTimes {
            rmat_gen_s,
            csr_build_s,
        },
    )
}

/// Time the graph stages at the full triangle-counting scale (per-layer
/// `graph.*` metrics).
pub fn graph_stage_times(seed: u64) -> GraphTimes {
    build_graph(TC_SCALE, seed).1
}

impl Prepared {
    /// Generate the workload's inputs from `seed` and compute its golden
    /// values. Part of `setup_s`.
    pub fn new(workload: Workload, seed: u64) -> Prepared {
        let input = match workload {
            Workload::TcCyclic => Input::Graphs {
                full: build_graph(TC_SCALE, seed).0,
                small: build_graph(TC_SCALE_SMALL, seed).0,
            },
            Workload::IgReqresp => Input::IndexGather,
            Workload::HistoLocal | Workload::HistoRemote => Input::Histogram,
        };
        Prepared {
            workload,
            seed,
            input,
        }
    }

    /// One timed rep under the given product trace class: run the app,
    /// check its output against the golden values, return how many logical
    /// messages it delivered.
    pub fn rep(&self, class: TraceClass) -> Result<u64, String> {
        let trace = class.config();
        let small = class == TraceClass::All;
        match &self.input {
            Input::Graphs { full, small: s } => {
                let graph = if small { s } else { full };
                Ok(self.triangles(graph, trace)?.1)
            }
            Input::IndexGather => {
                let runs = if small {
                    IG_RUNS_PER_REP_ALL
                } else {
                    IG_RUNS_PER_REP
                };
                let mut messages = 0;
                for _ in 0..runs {
                    messages += self.index_gather(IG_READS_PER_PE, trace.clone())?.1;
                }
                Ok(messages)
            }
            Input::Histogram => {
                let updates = if small {
                    HISTO_UPDATES_PER_PE_ALL
                } else {
                    HISTO_UPDATES_PER_PE
                };
                Ok(self.histogram(updates, trace)?.1)
            }
        }
    }

    /// The fully traced run of about a million messages whose bundle the
    /// post-mortem pipeline consumes. Returns the bundle and its message
    /// count.
    pub fn postmortem_run(&self) -> Result<(TraceBundle, u64), String> {
        let trace = postmortem_config();
        let (bundle, messages) = match &self.input {
            Input::Graphs { small, .. } => self.triangles(small, trace)?,
            Input::IndexGather => self.index_gather(IG_READS_PER_PE_PM, trace)?,
            Input::Histogram => self.histogram(HISTO_UPDATES_PER_PE_PM, trace)?,
        };
        let records: usize = bundle
            .collectors()
            .iter()
            .map(|c| c.logical_records().len())
            .sum();
        if records as u64 != messages {
            return Err(format!(
                "{records} per-send records for {messages} messages"
            ));
        }
        Ok((bundle, messages))
    }

    fn histogram(
        &self,
        updates_per_pe: usize,
        trace: TraceConfig,
    ) -> Result<(TraceBundle, u64), String> {
        let mut cfg = HistogramConfig::new(self.workload.grid());
        cfg.table_size_per_pe = TABLE_PER_PE;
        cfg.updates_per_pe = updates_per_pe;
        cfg.seed = self.seed;
        cfg.trace = trace;
        let out = histogram::run(&cfg).map_err(|e| e.to_string())?;
        let messages = (updates_per_pe * N_PES) as u64;
        if out.total_updates != messages {
            return Err(format!(
                "table mass {} != {messages} updates",
                out.total_updates
            ));
        }
        // Every message a PE received is one increment of its table, so
        // the trace's receive totals must equal the app's table masses.
        if let Ok(m) = out.bundle.logical_matrix() {
            if m.col_totals() != out.per_pe_updates {
                return Err(format!(
                    "logical recv totals {:?} != table masses {:?}",
                    m.col_totals(),
                    out.per_pe_updates
                ));
            }
        }
        checked(out.bundle, messages, cfg.trace.logical)
    }

    /// One index-gather run of `reads_per_pe` reads, checked.
    pub fn index_gather(
        &self,
        reads_per_pe: usize,
        trace: TraceConfig,
    ) -> Result<(TraceBundle, u64), String> {
        let mut cfg = IndexGatherConfig::new(self.workload.grid());
        cfg.table_size_per_pe = TABLE_PER_PE;
        cfg.reads_per_pe = reads_per_pe;
        cfg.seed = self.seed;
        cfg.trace = trace;
        let out = index_gather::run(&cfg).map_err(|e| e.to_string())?;
        let reads = (reads_per_pe * N_PES) as u64;
        if out.correct_reads != reads {
            return Err(format!("{} of {reads} reads correct", out.correct_reads));
        }
        // one request and one response per read
        checked(out.bundle, 2 * reads, cfg.trace.logical)
    }

    fn triangles(&self, graph: &Graph, trace: TraceConfig) -> Result<(TraceBundle, u64), String> {
        // The app validates itself against the sequential reference on
        // every call (part of the app call a user times); the golden value
        // from set-up is checked on top, independently.
        let cfg = TriangleConfig::new(self.workload.grid())
            .with_dist(DistKind::Cyclic)
            .with_trace(trace);
        let out = count_triangles(&graph.l, &cfg).map_err(|e| e.to_string())?;
        if out.triangles != graph.triangles {
            return Err(format!(
                "distributed count {} != reference {}",
                out.triangles, graph.triangles
            ));
        }
        if out.wedges != graph.wedges {
            return Err(format!(
                "{} wedges sent, {} in the graph",
                out.wedges, graph.wedges
            ));
        }
        checked(out.bundle, graph.wedges, cfg.trace.logical)
    }
}

/// A run traced with the logical class must account for every message in
/// its logical matrix.
fn checked(
    bundle: TraceBundle,
    messages: u64,
    logical: bool,
) -> Result<(TraceBundle, u64), String> {
    if logical {
        let total = bundle.logical_matrix().map_err(|e| e.to_string())?.total();
        if total != messages {
            return Err(format!(
                "logical matrix total {total} != {messages} messages"
            ));
        }
    }
    Ok((bundle, messages))
}
