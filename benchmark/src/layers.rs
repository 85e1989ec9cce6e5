//! The traced run: per-layer metrics, layer = crate name.
//!
//! One uniform all-to-all (`histo`) traffic pattern is pushed through a
//! ladder of rungs, each adding one layer on the rung below: raw
//! `put_nbi` + `quiet`, the conveyor driven directly, the selector with an
//! empty handler, then the `Profiler` facade with one feature at a time.
//! A rung's cost per message is the difference of inverse rates between
//! it and the rung below. `.local` = `Grid::new(1, 2)`, `.remote` =
//! `Grid::new(2, 1)`.
//!
//! Rungs run in interleaved rounds like the end-to-end reps and report
//! medians. The benchmark's own spans are on in this mode; the
//! million-call conveyor rung keeps per-function cycle accumulators and
//! call counts instead of one span per call.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use actorprof::overall::OverallSummary;
use actorprof::stats::Imbalance;
use actorprof::{Counter, OverheadBudget, Profiler, TraceConfig};
use actorprof_trace::PeCollector;
use fabsp_actor::{ProcCtx, Selector, SelectorConfig};
use fabsp_conveyors::{Conveyor, ConveyorOptions};
use fabsp_hwpc::cycles_now;
use fabsp_shmem::{spmd, Grid, Harness, Pe};

use crate::e2e::Ops;
use crate::postmortem;
use crate::spans::Spans;
use crate::stats::Row;
use crate::workloads::{
    self, Prepared, TraceClass, Workload, IG_READS_PER_PE_PM, N_PES, TABLE_PER_PE,
};

/// Updates per PE on the batched rungs (~0.1 s per rung).
const UPDATES: usize = 2_000_000;
/// Updates per PE on rungs that take the per-item path or keep a record
/// per message (5–10x slower per message).
const UPDATES_PER_ITEM: usize = 300_000;
/// Items per raw put, the conveyor's default buffer capacity.
const PUT_ITEMS: usize = 64;
/// Ladder rounds never go below this, whatever the time budget.
const MIN_ROUNDS: usize = 5;
/// Post-mortem passes timed for the `core.*` / `viz.*` self-times.
const PM_REPS: usize = 5;
/// Reps per side of the with/without-spans comparison.
const SPAN_OVERHEAD_ROUNDS: usize = 8;
/// Size pairs timed for `actor.ig_scaling_x`.
const IG_SCALING_REPS: usize = 5;

fn local() -> Grid {
    Grid::new(1, N_PES).expect("1x2 grid")
}

fn remote() -> Grid {
    Grid::new(N_PES, 1).expect("2x1 grid")
}

/// splitmix64 — the ladder's own generator, so its traffic depends on
/// nothing but the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The histo pattern for one PE as a stream: `updates` pairs of a
/// uniformly random destination PE and a table slot.
fn stream(
    seed: u64,
    rank: usize,
    n_pes: usize,
    updates: usize,
) -> impl Iterator<Item = (usize, u64)> {
    let mut state = seed ^ ((rank as u64 + 1) << 32);
    (0..updates).map(move |_| {
        let r = splitmix(&mut state);
        ((r >> 32) as usize % n_pes, r % TABLE_PER_PE as u64)
    })
}

/// The same pattern bucketed per destination (what `DestBuckets` callers
/// hand the runtime).
fn buckets(seed: u64, rank: usize, n_pes: usize, updates: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::with_capacity(updates / n_pes + updates / 16); n_pes];
    for (dst, slot) in stream(seed, rank, n_pes, updates) {
        out[dst].push(slot);
    }
    out
}

/// One rung sample: messages moved and the seconds they took.
#[derive(Clone, Copy)]
struct Sample {
    messages: u64,
    secs: f64,
}

impl Sample {
    fn ns_per_msg(self) -> f64 {
        self.secs * 1e9 / self.messages as f64
    }
}

/// Slowest PE's seconds — the exchange is over when the last PE is.
fn slowest(per_pe: impl IntoIterator<Item = f64>) -> f64 {
    per_pe.into_iter().fold(0.0, f64::max)
}

/// Run `body` on every PE of `grid` with telemetry off. `body` times its
/// own exchange (between barriers, construction excluded) and returns
/// `(seconds, messages received, extra)`; the rung must deliver
/// `expected` messages in all.
fn exchange<X: Send>(
    grid: Grid,
    expected: usize,
    body: impl Fn(&Pe) -> (f64, u64, X) + Sync,
) -> (Sample, Vec<X>) {
    let per_pe = spmd::run(Harness::new(grid).telemetry_off(), body).expect("SPMD run");
    let messages: u64 = per_pe.iter().map(|(_, m, _)| m).sum();
    assert_eq!(messages, expected as u64, "every message delivered once");
    let secs = slowest(per_pe.iter().map(|(s, _, _)| *s));
    let extra = per_pe.into_iter().map(|(_, _, x)| x).collect();
    (Sample { messages, secs }, extra)
}

// ---------------------------------------------------------------- shmem

fn spmd_launch_s() -> f64 {
    let t0 = Instant::now();
    spmd::run(Harness::new(local()).telemetry_off(), |pe| {
        black_box(pe.rank())
    })
    .expect("empty SPMD run");
    t0.elapsed().as_secs_f64()
}

fn barrier_ns() -> f64 {
    const BARRIERS: u32 = 10_000;
    let per_pe = spmd::run(Harness::new(local()).telemetry_off(), |pe| {
        pe.barrier_all();
        let t0 = Instant::now();
        for _ in 0..BARRIERS {
            pe.barrier_all();
        }
        t0.elapsed().as_secs_f64()
    })
    .expect("barrier SPMD run");
    slowest(per_pe) * 1e9 / BARRIERS as f64
}

/// Raw all-to-all: every PE `put_nbi`s 64-item buffers to alternating
/// destinations and `quiet`s after each sweep over the PEs.
fn put_quiet(grid: Grid, seed: u64) -> Sample {
    let sweeps = UPDATES / (PUT_ITEMS * N_PES);
    let (sample, _) = exchange(grid, sweeps * PUT_ITEMS * N_PES * N_PES, |pe| {
        let n = pe.n_pes();
        let landing = pe.alloc_sym::<u64>(PUT_ITEMS * n);
        let data = buckets(seed, pe.rank(), 1, PUT_ITEMS).remove(0);
        pe.barrier_all();
        let t0 = Instant::now();
        for _ in 0..sweeps {
            for dst in 0..n {
                landing
                    .put_nbi(pe, dst, pe.rank() * PUT_ITEMS, &data)
                    .expect("put_nbi");
            }
            pe.quiet();
        }
        pe.barrier_all();
        let secs = t0.elapsed().as_secs_f64();
        // after the barrier every PE's last buffer has landed here
        let landed = landing.read_local(pe, |v| v.len());
        (secs, (sweeps * landed) as u64, ())
    });
    sample
}

// ------------------------------------------------------------ conveyors

/// Busy cycles and call counts of the conveyor's three entry points, as
/// seen from the driving loop of one PE.
#[derive(Default, Clone, Copy)]
struct ConveyorBusy {
    push_cycles: u64,
    advance_cycles: u64,
    pull_cycles: u64,
    loop_cycles: u64,
    push_refusals: u64,
    batches: u64,
    pulled: u64,
}

fn conveyor_batched(grid: Grid, seed: u64) -> (Sample, Vec<ConveyorBusy>) {
    exchange(grid, UPDATES * N_PES, |pe| {
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).expect("conveyor");
        let slices = buckets(seed, pe.rank(), pe.n_pes(), UPDATES);
        let mut offsets = vec![0usize; slices.len()];
        let mut sent = 0;
        let mut busy = ConveyorBusy::default();
        pe.barrier_all();
        let t0 = Instant::now();
        let loop_begin = cycles_now();
        loop {
            for (dst, slice) in slices.iter().enumerate() {
                if offsets[dst] < slice.len() {
                    let c0 = cycles_now();
                    let report = c
                        .push_slice(pe, &slice[offsets[dst]..], dst)
                        .expect("push_slice");
                    busy.push_cycles += cycles_now() - c0;
                    busy.push_refusals += report.retried;
                    offsets[dst] += report.accepted;
                    sent += report.accepted;
                }
            }
            let c0 = cycles_now();
            let active = c.advance(pe, sent == UPDATES);
            let c1 = cycles_now();
            busy.advance_cycles += c1 - c0;
            while let Some(batch) = c.pull_batch() {
                busy.batches += 1;
                busy.pulled += batch.items.len() as u64;
                black_box(batch.items);
            }
            busy.pull_cycles += cycles_now() - c1;
            if !active {
                break;
            }
            pe.poll_yield();
        }
        busy.loop_cycles = cycles_now() - loop_begin;
        (t0.elapsed().as_secs_f64(), busy.pulled, busy)
    })
}

fn conveyor_per_item(grid: Grid, seed: u64) -> Sample {
    let (sample, _) = exchange(grid, UPDATES_PER_ITEM * N_PES, |pe| {
        let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).expect("conveyor");
        let stream: Vec<(usize, u64)> =
            stream(seed, pe.rank(), pe.n_pes(), UPDATES_PER_ITEM).collect();
        let mut next = 0;
        let mut received = 0u64;
        pe.barrier_all();
        let t0 = Instant::now();
        loop {
            while next < stream.len() {
                let (dst, item) = stream[next];
                if !c.push(pe, item, dst).expect("push").is_accepted() {
                    break;
                }
                next += 1;
            }
            let active = c.advance(pe, next == stream.len());
            while let Some(d) = c.pull() {
                black_box(d.item);
                received += 1;
            }
            if !active {
                break;
            }
            pe.poll_yield();
        }
        (t0.elapsed().as_secs_f64(), received, ())
    });
    sample
}

// ---------------------------------------------------------------- actor

/// One superstep: `send_slice` every bucket on mailbox 0, then `done`.
/// Returns its seconds.
fn send_buckets(actor: &mut Selector<'_, u64>, pe: &Pe, slices: &[Vec<u64>]) -> f64 {
    pe.barrier_all();
    let t0 = Instant::now();
    actor
        .execute(pe, |ctx| {
            for (dst, slice) in slices.iter().enumerate() {
                ctx.send_slice(0, slice, dst).expect("send_slice");
            }
            ctx.done(0).expect("done");
        })
        .expect("execute");
    t0.elapsed().as_secs_f64()
}

/// Selector `send_slice` with an empty handler, telemetry off.
fn selector_batched(grid: Grid, seed: u64) -> Sample {
    let (sample, _) = exchange(grid, UPDATES * N_PES, |pe| {
        let seen = Cell::new(0u64);
        let handler = |_mb, msg: u64, _from, _ctx: &mut ProcCtx<'_, u64>| {
            black_box(msg);
            seen.set(seen.get() + 1);
        };
        let mut actor = Selector::new(pe, 1, SelectorConfig::default(), handler).expect("selector");
        let slices = buckets(seed, pe.rank(), pe.n_pes(), UPDATES);
        let secs = send_buckets(&mut actor, pe, &slices);
        drop(actor);
        (secs, seen.get(), ())
    });
    sample
}

/// Request/response: every request's handler sends one response item with
/// `ProcCtx::send` — the per-item, handler-originated send path. Counts
/// the responses.
fn handler_send(seed: u64) -> Sample {
    let (sample, _) = exchange(local(), UPDATES_PER_ITEM * N_PES, |pe| {
        let answered = Cell::new(0u64);
        let handler = |mb, msg: u64, from: u32, ctx: &mut ProcCtx<'_, u64>| {
            if mb == 0 {
                ctx.send(1, msg, from as usize);
            } else {
                answered.set(answered.get() + 1);
            }
        };
        let mut actor = Selector::new(pe, 2, SelectorConfig::default(), handler).expect("selector");
        actor.chain_done(1, 0).expect("chain");
        let slices = buckets(seed, pe.rank(), pe.n_pes(), UPDATES_PER_ITEM);
        let secs = send_buckets(&mut actor, pe, &slices);
        drop(actor);
        (secs, answered.get(), ())
    });
    sample
}

/// Untraced index-gather time at 1 M reads/PE over 4x the time at 250 k:
/// 1 when the runtime scales linearly.
fn ig_scaling_x(seed: u64) -> f64 {
    let ig = Prepared::new(Workload::IgReqresp, seed);
    let time = |reads: usize| {
        let t0 = Instant::now();
        ig.index_gather(reads, TraceConfig::off())
            .expect("index-gather");
        t0.elapsed().as_secs_f64()
    };
    time(4 * IG_READS_PER_PE_PM) / (4.0 * time(IG_READS_PER_PE_PM))
}

// --------------------------------------------------- the Profiler facade

/// The histogram kernel through the facade, whole call timed (as the
/// end-to-end reps are). Returns the sample and the run's report.
fn facade(profiler: Profiler, updates: usize, seed: u64) -> (Sample, actorprof::Report<u64>) {
    let t0 = Instant::now();
    let report = profiler
        .run(|pe, prof| {
            let table = Rc::new(RefCell::new(vec![0u64; TABLE_PER_PE]));
            let t = Rc::clone(&table);
            let mut actor = prof
                .selector(1, move |_mb, slot: u64, _from, _ctx| {
                    fabsp_hwpc::Cost::instructions(6).charge();
                    t.borrow_mut()[slot as usize] += 1;
                })
                .expect("selector");
            actor
                .execute(pe, |ctx| {
                    let slices = buckets(seed, ctx.rank(), ctx.n_pes(), updates);
                    for (dst, slice) in slices.iter().enumerate() {
                        ctx.send_slice(0, slice, dst).expect("send_slice");
                    }
                    ctx.done(0).expect("done");
                })
                .expect("execute");
            drop(actor);
            let mass: u64 = table.borrow().iter().sum();
            mass
        })
        .expect("profiled run");
    let secs = t0.elapsed().as_secs_f64();
    let messages: u64 = report.results.iter().sum();
    assert_eq!(
        messages,
        (updates * N_PES) as u64,
        "every update lands once"
    );
    (Sample { messages, secs }, report)
}

// ------------------------------------------------------ single-thread loops

fn record_send_ns() -> f64 {
    const CALLS: u32 = 2_000_000;
    let mut c = PeCollector::new(0, N_PES, N_PES, TraceConfig::off().with_logical());
    let t0 = Instant::now();
    for i in 0..CALLS {
        c.record_send(black_box(i as usize % N_PES), 8, 0, None);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    assert_eq!(c.total_sends(), CALLS as u64);
    ns
}

fn cycles_now_ns() -> f64 {
    const CALLS: u32 = 5_000_000;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..CALLS {
        acc = acc.wrapping_add(cycles_now());
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

// ------------------------------------------------------------ the ladder

/// The interleaved rungs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rung {
    PutQuietLocal,
    PutQuietRemote,
    ConveyorLocal,
    ConveyorRemote,
    ConveyorPerItem,
    SelectorLocal,
    SelectorRemote,
    HandlerSend,
    Facade,
    FacadeRemote,
    TelemetryOff,
    Observer,
    Continuous,
    Checkpoint,
    Logical,
    Physical,
    Overall,
    PhaseSpans,
    PerItemBase,
    Records,
    LogicalPhysicalOverall,
    All,
}

/// Every rung with its span name, in round order.
const RUNGS: [(Rung, &str); 22] = [
    (Rung::PutQuietLocal, "ladder.put_quiet.local"),
    (Rung::PutQuietRemote, "ladder.put_quiet.remote"),
    (Rung::ConveyorLocal, "ladder.conveyor.local"),
    (Rung::ConveyorRemote, "ladder.conveyor.remote"),
    (Rung::ConveyorPerItem, "ladder.conveyor_peritem.local"),
    (Rung::SelectorLocal, "ladder.selector.local"),
    (Rung::SelectorRemote, "ladder.selector.remote"),
    (Rung::HandlerSend, "ladder.handler_send"),
    (Rung::Facade, "ladder.facade"),
    (Rung::FacadeRemote, "ladder.facade.remote"),
    (Rung::TelemetryOff, "ladder.telemetry_off"),
    (Rung::Observer, "ladder.observer"),
    (Rung::Continuous, "ladder.continuous"),
    (Rung::Checkpoint, "ladder.checkpoint"),
    (Rung::Logical, "ladder.logical"),
    (Rung::Physical, "ladder.physical"),
    (Rung::Overall, "ladder.overall"),
    (Rung::PhaseSpans, "ladder.spans"),
    (Rung::PerItemBase, "ladder.facade_small"),
    (Rung::Records, "ladder.records"),
    (
        Rung::LogicalPhysicalOverall,
        "ladder.logical_physical_overall",
    ),
    (Rung::All, "ladder.all"),
];

/// Everything the ladder rounds collect.
#[derive(Default)]
struct Ladder {
    /// ns per message, per rung (indexed like [`RUNGS`]), one value per
    /// round.
    ns: [Vec<f64>; RUNGS.len()],
    busy: Vec<ConveyorBusy>,
    continuous_pct: Vec<f64>,
    /// `(puts, quiets, barrier waits)` per thousand messages on `.remote`.
    shmem_per_kmsg: Vec<[f64; 3]>,
    /// Phase-span records per thousand messages.
    spans_per_kmsg: Vec<f64>,
}

impl Ladder {
    fn run_rung(&mut self, rung: Rung, seed: u64) -> Sample {
        let off = || Profiler::new(local());
        let traced = |t: TraceConfig| off().trace_config(t);
        match rung {
            Rung::PutQuietLocal => put_quiet(local(), seed),
            Rung::PutQuietRemote => put_quiet(remote(), seed),
            Rung::ConveyorLocal => {
                let (s, busy) = conveyor_batched(local(), seed);
                self.busy.extend(busy);
                s
            }
            Rung::ConveyorRemote => conveyor_batched(remote(), seed).0,
            Rung::ConveyorPerItem => conveyor_per_item(local(), seed),
            Rung::SelectorLocal => selector_batched(local(), seed),
            Rung::SelectorRemote => selector_batched(remote(), seed),
            Rung::HandlerSend => handler_send(seed),
            Rung::Facade => facade(off(), UPDATES, seed).0,
            Rung::FacadeRemote => {
                let (s, report) = facade(Profiler::new(remote()), UPDATES, seed);
                let snap = report.telemetry.expect("telemetry is on by default");
                let per_kmsg = |c: Counter| snap.counter_total(c) as f64 * 1e3 / s.messages as f64;
                self.shmem_per_kmsg.push([
                    per_kmsg(Counter::ShmemPuts),
                    per_kmsg(Counter::ShmemQuiets),
                    per_kmsg(Counter::ShmemBarrierWaits),
                ]);
                s
            }
            Rung::TelemetryOff => facade(off().telemetry_off(), UPDATES, seed).0,
            Rung::Observer => {
                let sink = |frame: &actorprof::Frame| {
                    black_box(frame.seq);
                };
                facade(
                    off().observe_every(Duration::from_millis(25), sink),
                    UPDATES,
                    seed,
                )
                .0
            }
            Rung::Continuous => {
                let (s, report) =
                    facade(off().continuous(OverheadBudget::default()), UPDATES, seed);
                let continuous = report.continuous.expect("continuous mode reports");
                self.continuous_pct.push(continuous.final_overhead_pct());
                s
            }
            Rung::Checkpoint => facade(off().checkpoint_every(1), UPDATES, seed).0,
            Rung::Logical => facade(traced(TraceConfig::off().with_logical()), UPDATES, seed).0,
            Rung::Physical => facade(traced(TraceConfig::off().with_physical()), UPDATES, seed).0,
            Rung::Overall => facade(traced(TraceConfig::off().with_overall()), UPDATES, seed).0,
            Rung::PhaseSpans => {
                let (s, report) = facade(traced(TraceConfig::off().with_spans()), UPDATES, seed);
                let records: usize = report
                    .bundle
                    .collectors()
                    .iter()
                    .map(|c| c.span_records().len())
                    .sum();
                self.spans_per_kmsg
                    .push(records as f64 * 1e3 / s.messages as f64);
                s
            }
            Rung::PerItemBase => facade(off(), UPDATES_PER_ITEM, seed).0,
            Rung::Records => {
                facade(
                    traced(TraceConfig::off().with_logical_records()),
                    UPDATES_PER_ITEM,
                    seed,
                )
                .0
            }
            Rung::LogicalPhysicalOverall => {
                let t = TraceConfig::off()
                    .with_logical()
                    .with_physical()
                    .with_overall();
                facade(traced(t), UPDATES_PER_ITEM, seed).0
            }
            Rung::All => facade(traced(TraceConfig::all()), UPDATES_PER_ITEM, seed).0,
        }
    }

    fn round(&mut self, round: usize, seed: u64, spans: &mut Spans) {
        for (i, (rung, span_name)) in RUNGS.into_iter().enumerate() {
            debug_assert_eq!(
                rung as usize, i,
                "RUNGS lists the rungs in declaration order"
            );
            let (sample, _) = spans.time(span_name, round, |_| self.run_rung(rung, seed));
            self.ns[i].push(sample.ns_per_msg());
        }
    }

    /// Per-round message rates of `rung`.
    fn rates(&self, rung: Rung) -> Vec<f64> {
        self.ns[rung as usize].iter().map(|ns| 1e9 / ns).collect()
    }

    /// Per-round cost per message of `rung` above `base`. Paired within
    /// the round, so host drift cancels.
    fn delta_ns(&self, rung: Rung, base: Rung) -> Vec<f64> {
        self.ns[rung as usize]
            .iter()
            .zip(&self.ns[base as usize])
            .map(|(r, b)| r - b)
            .collect()
    }
}

/// Time `f` `n` times under a span each; returns what `f` returned.
fn repeat(spans: &mut Spans, name: &'static str, n: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..n).map(|rep| spans.time(name, rep, |_| f()).0).collect()
}

/// The measurements that are not rungs: single calls and single-thread
/// loops, each repeated a few times.
struct Loops {
    spmd_launch_s: Vec<f64>,
    barrier_ns: Vec<f64>,
    record_send_ns: Vec<f64>,
    cycles_now_ns: Vec<f64>,
    ig_scaling_x: Vec<f64>,
}

impl Loops {
    fn measure(seed: u64, spans: &mut Spans) -> Loops {
        Loops {
            spmd_launch_s: repeat(spans, "shmem.spmd_launch", 20, spmd_launch_s),
            barrier_ns: repeat(spans, "shmem.barrier", 3, barrier_ns),
            record_send_ns: repeat(spans, "trace.record_send", 5, record_send_ns),
            cycles_now_ns: repeat(spans, "hwpc.cycles_now", 5, cycles_now_ns),
            ig_scaling_x: repeat(spans, "actor.ig_scaling", IG_SCALING_REPS, || {
                ig_scaling_x(seed)
            }),
        }
    }
}

impl Ladder {
    /// The `shmem.*` … `telemetry.*` rows, in BENCHMARK.json order.
    fn rows(&self, loops: &Loops) -> Vec<Row> {
        use Rung::*;
        let per_kmsg = |i: usize| self.shmem_per_kmsg.iter().map(|v| v[i]).collect::<Vec<_>>();
        let busy = &self.busy;
        let total = |f: fn(&ConveyorBusy) -> u64| busy.iter().map(f).sum::<u64>() as f64;
        let frac = |f: fn(&ConveyorBusy) -> u64| total(f) / total(|b| b.loop_cycles);
        let rate = |name, rung| Row::sampled(name, "1/s", &self.rates(rung));
        let delta = |name, rung, base| Row::sampled(name, "ns", &self.delta_ns(rung, base));
        vec![
            Row::sampled("shmem.spmd_launch_s", "s", &loops.spmd_launch_s),
            Row::sampled("shmem.barrier_ns", "ns", &loops.barrier_ns),
            rate("shmem.put_quiet_items_per_s.local", PutQuietLocal),
            rate("shmem.put_quiet_items_per_s.remote", PutQuietRemote),
            Row::sampled("shmem.puts_per_kmsg", "count", &per_kmsg(0)),
            Row::sampled("shmem.quiets_per_kmsg", "count", &per_kmsg(1)),
            Row::sampled("shmem.barrier_waits_per_kmsg", "count", &per_kmsg(2)),
            delta("shmem.checkpoint_ns_per_msg", Checkpoint, Facade),
            rate("conveyors.items_per_s.local", ConveyorLocal),
            rate("conveyors.items_per_s.remote", ConveyorRemote),
            rate("conveyors.items_per_s_peritem.local", ConveyorPerItem),
            Row::exact("conveyors.push_busy_frac", "ratio", frac(|b| b.push_cycles)),
            Row::exact(
                "conveyors.advance_busy_frac",
                "ratio",
                frac(|b| b.advance_cycles),
            ),
            Row::exact("conveyors.pull_busy_frac", "ratio", frac(|b| b.pull_cycles)),
            Row::exact(
                "conveyors.push_retry_ratio",
                "ratio",
                total(|b| b.push_refusals) / total(|b| b.pulled),
            ),
            Row::exact(
                "conveyors.mean_batch_len",
                "count",
                total(|b| b.pulled) / total(|b| b.batches),
            ),
            rate("actor.items_per_s.local", SelectorLocal),
            rate("actor.items_per_s.remote", SelectorRemote),
            delta("actor.dispatch_ns_per_msg", SelectorLocal, ConveyorLocal),
            rate("actor.handler_send_items_per_s", HandlerSend),
            Row::sampled("actor.ig_scaling_x", "x", &loops.ig_scaling_x),
            delta("trace.logical_ns_per_msg", Logical, Facade),
            delta("trace.physical_ns_per_msg", Physical, Facade),
            delta("trace.overall_ns_per_msg", Overall, Facade),
            delta("trace.records_ns_per_msg", Records, PerItemBase),
            delta("trace.spans_ns_per_msg", PhaseSpans, Facade),
            Row::sampled("trace.spans_per_kmsg", "count", &self.spans_per_kmsg),
            Row::sampled("trace.record_send_ns", "ns", &loops.record_send_ns),
            delta("hwpc.papi_ns_per_msg", All, LogicalPhysicalOverall),
            Row::sampled("hwpc.cycles_now_ns", "ns", &loops.cycles_now_ns),
            delta("telemetry.on_ns_per_msg", Facade, TelemetryOff),
            delta("telemetry.observer_ns_per_msg", Observer, Facade),
            Row::sampled(
                "telemetry.continuous_overhead_pct",
                "%",
                &self.continuous_pct,
            ),
        ]
    }
}

/// `graph.*`: the two stages of `tc_cyclic`'s input generation.
fn graph_rows(seed: u64, spans: &mut Spans) -> Vec<Row> {
    let times: Vec<workloads::GraphTimes> = (0..3)
        .map(|rep| {
            spans
                .time("graph", rep, |_| workloads::graph_stage_times(seed))
                .0
        })
        .collect();
    let col = |f: fn(&workloads::GraphTimes) -> f64| times.iter().map(f).collect::<Vec<_>>();
    vec![
        Row::sampled("graph.rmat_gen_s", "s", &col(|g| g.rmat_gen_s)),
        Row::sampled("graph.csr_build_s", "s", &col(|g| g.csr_build_s)),
    ]
}

/// `core.*`, `viz.*`, `apps.*`: this workload through the product's own
/// traces, and the post-mortem self-times on its bundle.
fn workload_rows(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    ops: &mut Ops,
    spans: &mut Spans,
) -> Vec<Row> {
    let prepared = spans.time("setup", 0, |_| Prepared::new(workload, seed)).0;
    let traced = spans
        .time("pm.traced_run", 0, |_| prepared.postmortem_run())
        .0;
    let Some((bundle, messages)) = ops.record("post-mortem traced run", traced) else {
        return Vec::new();
    };
    let mut passes = Vec::new();
    for rep in 0..PM_REPS {
        let pass = postmortem::run_once(&bundle, &scratch.join("pm"), spans, rep);
        passes.extend(ops.record("post-mortem pass", pass));
    }
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let stage = |name, f: fn(&postmortem::Pass) -> f64| {
        Row::sampled(name, "s", &passes.iter().map(f).collect::<Vec<_>>())
    };
    let per_msg = |name, bytes: u64| Row::exact(name, "B", bytes as f64 / messages as f64);
    let overall = OverallSummary::of(&bundle.overall_records().expect("overall is traced"));
    let matrix = bundle.logical_matrix().expect("logical is traced");
    let rows = vec![
        stage("core.write_s", |p| p.write_s),
        per_msg("core.write_bytes_per_msg", first.write_bytes),
        stage("core.read_s", |p| p.read_s),
        stage("core.report_s", |p| p.report_s),
        stage("core.export_s", |p| p.export_s),
        per_msg("core.export_bytes_per_msg", first.export_bytes),
        stage("viz.svg_s", |p| p.viz_s),
        Row::exact("apps.main_frac", "ratio", overall.main.fraction),
        Row::exact("apps.comm_frac", "ratio", overall.comm.fraction),
        Row::exact("apps.proc_frac", "ratio", overall.proc.fraction),
        Row::exact(
            "apps.recv_imbalance",
            "ratio",
            Imbalance::of(&matrix.col_totals()).max_over_mean,
        ),
    ];
    let parts: f64 = rows
        .iter()
        .filter(|r| r.unit == "s")
        .map(|r| r.summary.median)
        .sum();
    let whole = stage("pm", |p| p.total_s).summary.median;
    println!(
        "{}: pm.* self-times sum to {parts:.4} s, a post-mortem pass takes {whole:.4} s ({:+.2} %)",
        workload.name(),
        (parts / whole - 1.0) * 100.0
    );
    rows
}

/// `bench.span_overhead_pct`: the end-to-end untraced rep on `histo_local`
/// with and without the benchmark's spans. Paired within a round, so host
/// drift cancels; which side runs first alternates, so an order effect
/// does too.
fn span_overhead_row(seed: u64, ops: &mut Ops, spans: &mut Spans) -> Option<Row> {
    let histo = Prepared::new(Workload::HistoLocal, seed);
    let mut unspanned = Spans::new("", false);
    let mut pct = Vec::new();
    for round in 0..SPAN_OVERHEAD_ROUNDS {
        // secs[0] with spans, secs[1] without
        let mut secs = [None; 2];
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let recorder = if side == 0 {
                &mut *spans
            } else {
                &mut unspanned
            };
            let (done, dt) = recorder.time("rep.off", round, |_| histo.rep(TraceClass::Off));
            secs[side] = ops.record("span-overhead rep", done).map(|_| dt);
        }
        if let [Some(with), Some(without)] = secs {
            pct.push((with / without - 1.0) * 100.0);
        }
    }
    (!pct.is_empty()).then(|| Row::sampled("bench.span_overhead_pct", "%", &pct))
}

/// Run the traced mode for `workload`: every per-layer metric, in the
/// order BENCHMARK.json lists them.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    spans: &mut Spans,
) -> (Vec<Row>, Ops) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Ops::default();

    let mut rows = graph_rows(seed, spans);
    let workload_rows = workload_rows(workload, seed, scratch, &mut ops, spans);
    let span_overhead = span_overhead_row(seed, &mut ops, spans);
    let loops = Loops::measure(seed, spans);

    // the ladder fills the rest of the time budget
    let mut ladder = Ladder::default();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        ladder.round(round, seed, spans);
        round += 1;
    }
    println!(
        "{}: {round} ladder rounds of {} rungs",
        workload.name(),
        RUNGS.len()
    );

    rows.extend(ladder.rows(&loops));
    rows.extend(workload_rows);
    rows.extend(span_overhead);
    (rows, ops)
}
