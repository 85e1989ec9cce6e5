//! Shared application plumbing.

use std::ops::{Deref, DerefMut};

use actorprof::ProfError;
use actorprof_trace::TraceConfig;
use fabsp_actor::{ActorError, MainCtx};
use fabsp_conveyors::ConveyorOptions;
use fabsp_shmem::{FaultSpec, Grid, SchedSpec, ShmemError};

/// Run configuration shared by every bundled application — layout,
/// tracing, aggregation, randomness and testkit controls — plus the app's
/// own parameters `W`.
///
/// Each app names its instance with an alias
/// ([`HistogramConfig`](crate::histogram::HistogramConfig) is
/// `RunConfig<HistogramParams>`, and so on). `RunConfig` derefs to `W`, so
/// `cfg.trace = …` sets a shared field and `cfg.updates_per_pe = …` an
/// app parameter on the same value, while the run wiring lives here once.
#[derive(Debug, Clone)]
pub struct RunConfig<W = ()> {
    /// PE/node layout.
    pub grid: Grid,
    /// What to trace.
    pub trace: TraceConfig,
    /// Conveyor aggregation options.
    pub conveyor: ConveyorOptions,
    /// RNG seed for workload generation (apps derive per-PE streams from
    /// it; runs are deterministic given the seed).
    pub seed: u64,
    /// Thread schedule: OS-free-running (default) or a seeded
    /// deterministic random walk (testkit).
    pub sched: SchedSpec,
    /// Substrate fault injection (testkit; [`FaultSpec::NONE`] in
    /// production).
    pub faults: FaultSpec,
    /// The app's own parameters, reached as `cfg.<param>` through `Deref`.
    pub app: W,
}

/// An app's own parameters: their defaults and the workload seed a fresh
/// [`RunConfig`] starts from.
pub trait AppParams: Default {
    /// The seed [`RunConfig::new`] sets.
    const SEED: u64 = 0;
}

/// Apps whose only parameter is the input they are handed.
impl AppParams for () {}

impl<W: AppParams> RunConfig<W> {
    /// Defaults on the given grid: the app's default parameters and seed,
    /// no tracing, default conveyor options, OS scheduling, no faults.
    pub fn new(grid: Grid) -> RunConfig<W> {
        RunConfig {
            grid,
            trace: TraceConfig::off(),
            conveyor: ConveyorOptions::default(),
            seed: W::SEED,
            sched: SchedSpec::Os,
            faults: FaultSpec::NONE,
            app: W::default(),
        }
    }
}

impl<W> RunConfig<W> {
    /// Select what to trace.
    pub fn with_trace(mut self, trace: TraceConfig) -> RunConfig<W> {
        self.trace = trace;
        self
    }

    /// An [`actorprof::Profiler`] carrying this configuration — the apps
    /// delegate their run wiring to the facade through this.
    pub fn profiler(&self) -> actorprof::Profiler {
        actorprof::Profiler::new(self.grid)
            .trace_config(self.trace.clone())
            .conveyor(self.conveyor)
            .sched(self.sched)
            .faults(self.faults)
    }
}

impl<W> Deref for RunConfig<W> {
    type Target = W;
    fn deref(&self) -> &W {
        &self.app
    }
}

impl<W> DerefMut for RunConfig<W> {
    fn deref_mut(&mut self) -> &mut W {
        &mut self.app
    }
}

/// Errors surfaced by the bundled applications.
#[derive(Debug)]
pub enum AppError {
    /// SPMD / symmetric-memory failure.
    Shmem(ShmemError),
    /// Actor-runtime failure.
    Actor(ActorError),
    /// Trace assembly failure.
    Prof(ProfError),
    /// The application's self-validation failed (the §IV-C assertion).
    Validation(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Shmem(e) => write!(f, "shmem: {e}"),
            AppError::Actor(e) => write!(f, "actor: {e}"),
            AppError::Prof(e) => write!(f, "profiler: {e}"),
            AppError::Validation(m) => write!(f, "validation failed: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<ShmemError> for AppError {
    fn from(e: ShmemError) -> Self {
        AppError::Shmem(e)
    }
}

impl From<ActorError> for AppError {
    fn from(e: ActorError) -> Self {
        AppError::Actor(e)
    }
}

impl From<ProfError> for AppError {
    fn from(e: ProfError) -> Self {
        AppError::Prof(e)
    }
}

impl From<actorprof::RunError> for AppError {
    fn from(e: actorprof::RunError) -> Self {
        match e {
            actorprof::RunError::Shmem(e) => AppError::Shmem(e),
            actorprof::RunError::Actor(e) => AppError::Actor(e),
            actorprof::RunError::Prof(e) => AppError::Prof(e),
        }
    }
}

/// Messages [`DestBuckets`] holds before it submits them. The buckets of one
/// chunk stay in cache and are reused, so MAIN never touches fresh pages for
/// staging; 1 024 to 32 768 measured flat within noise on `histo_local`.
const CHUNK: usize = 4096;

/// Per-destination staging for batched, streaming submission from an app's
/// MAIN body: [`stage`](DestBuckets::stage) buckets each message by
/// destination, and every `CHUNK` (4 096) messages submits the buckets with
/// one [`send_slice`](MainCtx::send_slice) per destination;
/// [`send_all`](DestBuckets::send_all) submits the tail. The conveyor
/// orders items per (source, destination) link either way, so results are
/// those of one `ctx.send` per message while the protocol cost is amortized
/// over slices.
///
/// Streaming is the paper's FA-BSP shape (Listing 1 sends each message as
/// MAIN generates it): staging holds at most one chunk, whatever the
/// workload's size, and when a submission meets full buffers the handlers
/// run between two stages.
///
/// Buckets go out in *pairwise* order — rank `r` visits `r+1, r+2, …, r`
/// (mod the PE count) — so at every step the PEs target a permutation of
/// each other. In ascending order every PE would drain bucket 0 first and
/// all of them would hammer PE 0 while the others idle. The order is a
/// pure function of `(rank, n_pes)`, so traces stay deterministic.
#[derive(Debug)]
pub struct DestBuckets<T> {
    buckets: Vec<Vec<T>>,
    /// Messages in the buckets.
    staged: usize,
}

impl<T: Copy + Default + Send + 'static> DestBuckets<T> {
    /// Empty buckets for `n_pes` destinations.
    pub fn new(n_pes: usize) -> DestBuckets<T> {
        DestBuckets {
            buckets: (0..n_pes).map(|_| Vec::new()).collect(),
            staged: 0,
        }
    }

    /// Stage `msg` for destination `dst` on `mailbox`; the stage that
    /// completes a chunk submits it.
    #[inline]
    pub fn stage(
        &mut self,
        ctx: &mut MainCtx<'_, '_, '_, T>,
        mailbox: usize,
        dst: usize,
        msg: T,
    ) -> Result<(), ActorError> {
        self.buckets[dst].push(msg);
        self.staged += 1;
        if self.staged == CHUNK {
            self.send_all(ctx, mailbox)?;
        }
        Ok(())
    }

    /// Submit what is staged through `ctx.send_slice` on `mailbox` in
    /// pairwise order, clearing the buckets (their capacity is kept) for
    /// the next chunk or the next superstep.
    pub fn send_all(
        &mut self,
        ctx: &mut MainCtx<'_, '_, '_, T>,
        mailbox: usize,
    ) -> Result<(), ActorError> {
        for dst in scatter_order(ctx.rank(), self.buckets.len()) {
            ctx.send_slice(mailbox, &self.buckets[dst], dst)?;
            self.buckets[dst].clear();
        }
        self.staged = 0;
        Ok(())
    }
}

/// The destinations rank `rank` of `n_pes` visits, in order: its right
/// neighbour first, itself last. Step `i` over all ranks is the rotation
/// by `i + 1`, a permutation.
fn scatter_order(rank: usize, n_pes: usize) -> impl Iterator<Item = usize> {
    (1..=n_pes).map(move |step| (rank + step) % n_pes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof::TraceBundle;
    use actorprof_trace::TraceConfig;
    use fabsp_shmem::SchedSpec;

    #[test]
    fn scatter_steps_are_permutations_and_cover_every_bucket_once() {
        for n_pes in [1, 2, 3, 4, 8] {
            let orders: Vec<Vec<usize>> = (0..n_pes)
                .map(|rank| scatter_order(rank, n_pes).collect())
                .collect();
            for (rank, order) in orders.iter().enumerate() {
                let mut visited = order.clone();
                visited.sort_unstable();
                assert_eq!(visited, (0..n_pes).collect::<Vec<_>>(), "rank {rank}/{n_pes}");
                assert_eq!(order[n_pes - 1], rank, "own bucket goes last");
            }
            for step in 0..n_pes {
                let mut targets: Vec<usize> = orders.iter().map(|o| o[step]).collect();
                targets.sort_unstable();
                assert_eq!(
                    targets,
                    (0..n_pes).collect::<Vec<_>>(),
                    "step {step}/{n_pes}: one sender per receiver"
                );
            }
        }
    }

    #[test]
    fn dest_buckets_stream_bounded_chunks_in_per_pair_fifo_order() {
        use fabsp_actor::{Selector, SelectorConfig};
        use std::cell::RefCell;
        use std::rc::Rc;

        const N_PES: usize = 3;
        const N: usize = 10 * CHUNK + 7;
        // every chunk carries messages to every PE, in an irregular mix
        let dst_of = |src: usize, i: usize| (i * i / 7 + src) % N_PES;
        let grid = Grid::single_node(N_PES).unwrap();
        let results = fabsp_shmem::spmd::run(grid, move |pe| {
            // received[src]: messages from `src`, in delivery order
            let received = Rc::new(RefCell::new(vec![Vec::new(); N_PES]));
            let r = Rc::clone(&received);
            let config = SelectorConfig::traced(TraceConfig::off().with_logical());
            let mut actor = Selector::new(pe, 1, config, move |_mb, i: u64, from, _ctx| {
                r.borrow_mut()[from as usize].push(i);
            })
            .unwrap();
            let handled_while_staging = actor
                .execute(pe, |ctx| {
                    let mut buckets = DestBuckets::new(N_PES);
                    for i in 0..N {
                        buckets
                            .stage(ctx, 0, dst_of(ctx.rank(), i), i as u64)
                            .unwrap();
                        assert!(
                            buckets.buckets.iter().all(|b| b.capacity() <= CHUNK),
                            "a bucket outgrew one chunk at message {i}"
                        );
                    }
                    let handled = received.borrow().iter().map(Vec::len).sum::<usize>();
                    buckets.send_all(ctx, 0).unwrap();
                    handled
                })
                .unwrap();
            let received = received.take();
            (handled_while_staging, received, actor.into_collector())
        })
        .unwrap();

        for (me, (handled_while_staging, received, collector)) in results.iter().enumerate() {
            assert!(
                *handled_while_staging > 0,
                "PE {me}: no handler ran before the last stage returned"
            );
            for (src, got) in received.iter().enumerate() {
                let staged: Vec<u64> = (0..N)
                    .filter(|&i| dst_of(src, i) == me)
                    .map(|i| i as u64)
                    .collect();
                assert_eq!(*got, staged, "{src} -> {me}: not FIFO in staging order");
            }
            // the logical matrix of staging everything and sending it at once
            for (dst, cell) in collector.logical_matrix().iter().enumerate() {
                let sends = (0..N).filter(|&i| dst_of(me, i) == dst).count() as u64;
                assert_eq!(
                    (cell.sends, cell.bytes),
                    (sends, 8 * sends),
                    "{me} -> {dst}"
                );
            }
        }
    }

    /// The `PE<i>_send.csv` files `actorprof::writer` writes for an app
    /// on a 2x2 grid `run` with the given tracing.
    fn send_csvs(
        tag: &str,
        sched: SchedSpec,
        run: impl FnOnce(Grid, TraceConfig) -> Result<TraceBundle, AppError>,
    ) -> Vec<Vec<u8>> {
        let grid = Grid::new(2, 2).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "actorprof-scatter-{tag}-{sched:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bundle = run(grid, TraceConfig::off().with_logical_records())
            .unwrap_or_else(|e| panic!("{tag} under {sched:?}: {e}"));
        actorprof::writer::write_logical_exact(&dir, &bundle).unwrap();
        let files = (0..grid.n_pes())
            .map(|pe| std::fs::read(dir.join(format!("PE{pe}_send.csv"))).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        files
    }

    /// The OS scheduler and two seeded walks.
    fn schedules() -> [SchedSpec; 3] {
        [
            SchedSpec::Os,
            SchedSpec::random_walk(1),
            SchedSpec::random_walk(2),
        ]
    }

    #[test]
    fn histogram_send_csv_is_byte_identical_under_every_schedule() {
        // MAIN is the only sender, so the record order is the scatter
        // order — a function of (rank, n_pes) and the seed alone, even with
        // buffers small enough that handlers interleave every slice.
        let run = |sched| {
            send_csvs("histogram", sched, |grid, trace| {
                let mut cfg = crate::histogram::HistogramConfig::new(grid);
                cfg.trace = trace;
                cfg.sched = sched;
                cfg.conveyor.capacity = 8;
                crate::histogram::run(&cfg).map(|o| o.bundle)
            })
        };
        let [os, a, b] = schedules().map(run);
        assert!(os.iter().all(|f| !f.is_empty()));
        assert!(os == a && os == b, "PE<i>_send.csv depends on the schedule");
    }

    #[test]
    fn index_gather_send_csv_holds_the_same_lines_under_every_schedule() {
        // Responses are sent by handlers, and when a response goes out
        // relative to MAIN's requests (and to responses owed to other PEs)
        // is the schedule's choice — as it was before the scatter order —
        // so only the multiset of lines is a function of the input.
        let run = |sched| {
            let files = send_csvs("index-gather", sched, |grid, trace| {
                let mut cfg = crate::index_gather::IndexGatherConfig::new(grid);
                cfg.trace = trace;
                cfg.sched = sched;
                crate::index_gather::run(&cfg).map(|o| o.bundle)
            });
            files
                .into_iter()
                .map(|f| {
                    let mut lines: Vec<Vec<u8>> = f.split(|&c| c == b'\n').map(Vec::from).collect();
                    lines.sort_unstable();
                    lines
                })
                .collect::<Vec<_>>()
        };
        let [os, a, b] = schedules().map(run);
        assert!(os == a && os == b, "PE<i>_send.csv lines depend on the schedule");
    }

    #[test]
    fn error_display() {
        let e: AppError = ShmemError::EmptyGrid.into();
        assert!(e.to_string().contains("shmem"));
        let e = AppError::Validation("count mismatch".into());
        assert!(e.to_string().contains("count mismatch"));
    }
}
