//! The Selector: a multi-mailbox actor driving interleaved FA-BSP
//! execution on one PE.
//!
//! ## Execution & region accounting
//!
//! [`Selector::execute`] is the equivalent of `hclib::finish` around an
//! actor: it runs the caller's MAIN body, then drives communication until
//! every mailbox's conveyor terminates. Throughout, a
//! [`fabsp_hwpc::RegionTimer`] attributes cycles and hardware counters to
//! the paper's three regions (Table I):
//!
//! - **MAIN** — inside the user body (message construction + local
//!   computation, including every submission of `send`/`send_slice` to the
//!   conveyor);
//! - **PROC** — inside user message handlers (the runtime's own pull and
//!   dispatch of a delivered batch is COMM);
//! - **COMM** — everything else (aggregation, delivery, progress,
//!   termination), *derived* as `T_TOTAL − T_MAIN − T_PROC` exactly as
//!   §III-B derives it.
//!
//! The interleaving that defines FA-BSP happens in `send`: when
//! aggregation buffers are full, the runtime leaves MAIN, advances the
//! conveyors — running message handlers (PROC) in the middle of the user's
//! send loop — and resumes MAIN to submit what is left. The user never
//! sees the retry (the "automatic message aggregation without any
//! user-written error handling" of §I).
//!
//! ## Dispatch
//!
//! The conveyor delivers one origin run at a time as a borrowed slice.
//! [`Selector::new`] wraps the user's per-message handler once in a
//! per-batch loop compiled for that handler, so a delivered slice costs one
//! indirect call and what stays per message is the handler body itself.
//! Done requests made by a handler ([`ProcCtx::done`]) take effect when its
//! batch ends.
//!
//! ## Handler sends and done-chains
//!
//! Handlers may send (request/response patterns): such sends are staged in
//! a per-mailbox outbox — a queue of same-destination *runs* — and pushed
//! by the runtime, each run's unsent part going to `push_slice` as it
//! lies, so a round costs what the conveyor accepts, not what is queued.
//! After `done(mb)` no one may send to `mb` anymore; for a response mailbox
//! fed only by handlers of another mailbox, declare
//! [`Selector::chain_done`] — its done is signalled automatically once the
//! upstream mailbox terminates, which is HClib-Actor's mailbox-chaining
//! termination pattern.

use std::collections::VecDeque;

use actorprof_trace::{PeCollector, SharedCollector, TraceBuffer, TraceConfig};
use fabsp_conveyors::{Conveyor, ConveyorError, ConveyorOptions, ConveyorStats};
use fabsp_hwpc::cost::model;
use fabsp_hwpc::{counters, Event, Region, RegionTimer, MAX_EVENTS};
use fabsp_shmem::Pe;
use fabsp_telemetry::{Counter, Phase};

use crate::error::ActorError;

/// Configuration for a [`Selector`].
#[derive(Debug, Clone, Default)]
pub struct SelectorConfig {
    /// Aggregation options for each mailbox's conveyor.
    pub conveyor: ConveyorOptions,
    /// What ActorProf should record during execution.
    pub trace: TraceConfig,
}

impl SelectorConfig {
    /// Default conveyors with the given tracing.
    pub fn traced(trace: TraceConfig) -> SelectorConfig {
        SelectorConfig {
            conveyor: ConveyorOptions::default(),
            trace,
        }
    }
}

/// The message handler as the runtime calls it: once per delivered batch,
/// `(mailbox, messages, sender PE, ctx)`. [`Selector::new`] builds it from
/// the user's per-message handler.
type BatchHandler<'h, T> = Box<dyn FnMut(usize, &[T], u32, &mut ProcCtx<'_, T>) + 'h>;

struct Mailbox<T: Copy + Default + Send + 'static> {
    conveyor: Conveyor<T>,
    complete: bool,
    /// Signal done automatically once this other mailbox completes.
    chained_after: Option<usize>,
}

/// The done state of one mailbox.
#[derive(Debug, Clone, Copy, Default)]
struct DoneState {
    /// The user (MAIN, a handler, or a completed chain) declared done.
    user_done: bool,
    /// Done went out to the conveyor: nothing may be sent anymore.
    done_signaled: bool,
    /// A handler of the batch being dispatched asked for done; becomes
    /// `user_done` when the batch ends.
    requested: bool,
}

/// Sends staged by handlers toward one mailbox, awaiting the runtime's
/// next progress round: the items in staging order, and beside them the
/// maximal same-destination runs they form. The front run's unsent part is
/// handed to `push_slice` where it lies — nothing is copied but the item
/// itself, once, when it is staged.
#[derive(Debug)]
struct Outbox<T> {
    items: VecDeque<T>,
    /// `(destination, unsent items)` per run; the lengths sum to
    /// `items.len()`, and no queued run is empty.
    runs: VecDeque<(usize, usize)>,
    /// Items ever staged.
    staged: u64,
}

impl<T> Outbox<T> {
    fn new() -> Outbox<T> {
        Outbox {
            items: VecDeque::new(),
            runs: VecDeque::new(),
            staged: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Append `msg`, extending the tail run when it goes the same way.
    fn stage(&mut self, msg: T, dst: usize) {
        self.items.push_back(msg);
        self.staged += 1;
        match self.runs.back_mut() {
            Some((d, len)) if *d == dst => *len += 1,
            _ => self.runs.push_back((dst, 1)),
        }
    }

    /// The oldest unsent items that share a destination, and it. Where the
    /// front run wraps around the ring this is the part before the wrap —
    /// any non-empty prefix serves, the rest follows on the next call.
    fn front_run(&self) -> Option<(&[T], usize)> {
        let &(dst, len) = self.runs.front()?;
        let head = self.items.as_slices().0;
        Some((&head[..len.min(head.len())], dst))
    }

    /// The conveyor accepted the first `n` items of the front run.
    fn advance(&mut self, n: usize) {
        self.items.drain(..n);
        let front = self.runs.front_mut().expect("advance follows front_run");
        front.1 -= n;
        if front.1 == 0 {
            self.runs.pop_front();
        }
    }
}

/// What handlers reach through [`ProcCtx`]. Owned by the selector apart
/// from the conveyors, so a handler can stage sends while the slice that
/// `pull_batch` lends out is alive — no per-batch moving or snapshotting.
#[derive(Debug)]
struct Staging<T> {
    outboxes: Vec<Outbox<T>>,
    done: Vec<DoneState>,
}

impl<T> Staging<T> {
    /// End of a handler batch: done requests take effect.
    fn apply_done_requests(&mut self) {
        for d in &mut self.done {
            d.user_done |= std::mem::take(&mut d.requested);
        }
    }
}

/// An actor with multiple guarded mailboxes (one conveyor each).
///
/// The `'h` lifetime lets handlers borrow surrounding state (e.g. a shared
/// read-only graph) instead of requiring `'static` captures.
pub struct Selector<'h, T: Copy + Default + Send + 'static> {
    mailboxes: Vec<Mailbox<T>>,
    staging: Staging<T>,
    handler: Option<BatchHandler<'h, T>>,
    timer: RegionTimer,
    collector: SharedCollector,
    /// Batched logical/PAPI send runs; the send fast path appends here (a
    /// plain `Vec` push — no shared borrow, no mutex) and the batch drains
    /// into the collector at progress boundaries.
    send_buf: TraceBuffer,
    papi_events: Vec<Event>,
    executed: bool,
}

/// Context passed to the MAIN body by [`Selector::execute`].
pub struct MainCtx<'a, 'h, 'p, T: Copy + Default + Send + 'static> {
    selector: &'a mut Selector<'h, T>,
    pe: &'p Pe,
}

/// Context passed to message handlers. Sends are staged in the mailbox
/// outbox and pushed by the runtime in its next progress round.
pub struct ProcCtx<'a, T> {
    staging: &'a mut Staging<T>,
    rank: usize,
    n_pes: usize,
}

impl<T: Copy> ProcCtx<'_, T> {
    /// Stage a send of `msg` to `dst` via `mailbox`.
    ///
    /// # Panics
    /// Panics if `done` was already signalled for `mailbox` — sending into
    /// a terminated mailbox is a protocol violation in HClib-Actor too.
    pub fn send(&mut self, mailbox: usize, msg: T, dst: usize) {
        assert!(mailbox < self.staging.done.len(), "mailbox {mailbox} invalid");
        assert!(dst < self.n_pes, "destination PE {dst} invalid");
        let done = self.staging.done[mailbox];
        assert!(
            !(done.user_done || done.done_signaled) || !done.requested,
            "handler send to mailbox {mailbox} after done"
        );
        assert!(
            !done.done_signaled,
            "handler send to mailbox {mailbox} after its done was signalled"
        );
        self.staging.outboxes[mailbox].stage(msg, dst);
    }

    /// Request `done(mailbox)` from handler code (e.g. on receipt of a
    /// poison-pill message).
    pub fn done(&mut self, mailbox: usize) {
        assert!(mailbox < self.staging.done.len(), "mailbox {mailbox} invalid");
        self.staging.done[mailbox].requested = true;
    }

    /// The rank of this PE.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }
}

/// Read `events` into a fixed bank — no allocation on the send path.
/// `None` when PAPI tracing is off.
fn read_bank(events: &[Event]) -> Option<[u64; MAX_EVENTS]> {
    if events.is_empty() {
        return None;
    }
    let mut bank = [0u64; MAX_EVENTS];
    for (slot, e) in bank.iter_mut().zip(events) {
        *slot = counters::read(*e);
    }
    Some(bank)
}

/// The one way a message enters a conveyor: submit `msgs` toward `dst` with
/// a single `push_slice` and account for the prefix it accepted — the
/// modelled send cost per accepted message, one run-length trace event
/// carrying the counter deltas of this submission (the unit of PAPI
/// attribution is the accepted run), one telemetry add. Returns the
/// accepted count.
fn push_run<T: Copy + Default + Send + 'static>(
    conveyor: &mut Conveyor<T>,
    buf: &mut TraceBuffer,
    events: &[Event],
    pe: &Pe,
    mailbox: usize,
    msgs: &[T],
    dst: usize,
) -> Result<usize, ConveyorError> {
    let before = read_bank(events);
    let accepted = conveyor.push_slice(pe, msgs, dst)?.accepted;
    model::SEND_PUSH.times(accepted as u64).charge();
    let deltas = read_bank(events).zip(before).map(|(mut bank, before)| {
        for (now, b) in bank.iter_mut().zip(before) {
            *now = now.wrapping_sub(b);
        }
        bank
    });
    buf.record_send_run(
        dst,
        std::mem::size_of::<T>() as u32,
        mailbox as u32,
        accepted as u64,
        deltas,
    );
    if let Some(m) = pe.metrics() {
        m.add(Counter::ActorSends, accepted as u64);
    }
    Ok(accepted)
}

impl<'h, T: Copy + Default + Send + 'static> Selector<'h, T> {
    /// Collectively create a selector with `n_mailboxes` mailboxes.
    ///
    /// `handler` is invoked as `(mailbox, message, sender, ctx)` for every
    /// delivered message — the union of the per-mailbox `process` lambdas
    /// of Listing 2. It is wrapped once, here, in a per-batch loop compiled
    /// for this handler's type, so the runtime makes one indirect call per
    /// delivered batch, not one per message.
    pub fn new(
        pe: &Pe,
        n_mailboxes: usize,
        config: SelectorConfig,
        mut handler: impl FnMut(usize, T, u32, &mut ProcCtx<'_, T>) + 'h,
    ) -> Result<Selector<'h, T>, ActorError> {
        if n_mailboxes == 0 {
            return Err(ActorError::NoMailboxes);
        }
        let papi_events = config
            .trace
            .papi
            .as_ref()
            .map(|p| p.events().to_vec())
            .unwrap_or_default();
        let collector = PeCollector::new(
            pe.rank(),
            pe.n_pes(),
            pe.grid().pes_per_node(),
            config.trace.clone(),
        )
        .into_shared();
        let mut mailboxes = Vec::with_capacity(n_mailboxes);
        for _ in 0..n_mailboxes {
            let mut conveyor = Conveyor::new(pe, config.conveyor)?;
            conveyor.attach_collector(collector.clone());
            mailboxes.push(Mailbox {
                conveyor,
                complete: false,
                chained_after: None,
            });
        }
        Ok(Selector {
            mailboxes,
            staging: Staging {
                outboxes: (0..n_mailboxes).map(|_| Outbox::new()).collect(),
                done: vec![DoneState::default(); n_mailboxes],
            },
            handler: Some(Box::new(
                move |mb, msgs: &[T], src, ctx: &mut ProcCtx<'_, T>| {
                    for &msg in msgs {
                        handler(mb, msg, src, ctx);
                    }
                },
            )),
            timer: RegionTimer::new(),
            collector,
            send_buf: TraceBuffer::for_config(&config.trace),
            papi_events,
            executed: false,
        })
    }

    /// Number of mailboxes.
    pub fn n_mailboxes(&self) -> usize {
        self.mailboxes.len()
    }

    /// Declare that `mailbox`'s done should be signalled automatically once
    /// `after` terminates (for response mailboxes fed only by `after`'s
    /// handlers).
    pub fn chain_done(&mut self, mailbox: usize, after: usize) -> Result<(), ActorError> {
        self.check_mailbox(mailbox)?;
        self.check_mailbox(after)?;
        if mailbox == after {
            return Err(ActorError::SelfChain { mailbox });
        }
        self.mailboxes[mailbox].chained_after = Some(after);
        Ok(())
    }

    fn check_mailbox(&self, mailbox: usize) -> Result<(), ActorError> {
        if mailbox < self.mailboxes.len() {
            Ok(())
        } else {
            Err(ActorError::InvalidMailbox {
                mailbox,
                n_mailboxes: self.mailboxes.len(),
            })
        }
    }

    /// `mailbox` exists and MAIN may still send through it.
    fn check_open(&self, mailbox: usize) -> Result<(), ActorError> {
        self.check_mailbox(mailbox)?;
        let done = self.staging.done[mailbox];
        if done.user_done || done.done_signaled {
            return Err(ActorError::SendAfterDone { mailbox });
        }
        Ok(())
    }

    /// Run one FA-BSP superstep: execute `main` (the `finish` body), then
    /// drive communication to termination. Mailboxes not explicitly
    /// `done`-d (and not chained) are done-d when `main` returns.
    ///
    /// This call is collective: every PE must execute it. A selector may
    /// `execute` repeatedly (one call per superstep, as iterative
    /// applications like BFS levels or PageRank rounds do); its conveyors
    /// are collectively re-armed between supersteps and **traces and the
    /// overall breakdown accumulate across all of them**.
    pub fn execute<R>(
        &mut self,
        pe: &Pe,
        main: impl FnOnce(&mut MainCtx<'_, '_, '_, T>) -> R,
    ) -> Result<R, ActorError> {
        if self.executed {
            // re-arm for another superstep
            for m in &mut self.mailboxes {
                m.conveyor.reset(pe);
                m.complete = false;
            }
            debug_assert!(
                self.staging.outboxes.iter().all(Outbox::is_empty),
                "termination implies drained outboxes"
            );
            self.staging.done.fill(DoneState::default());
        }
        self.executed = true;

        // Superstep boundary: conveyors are freshly armed (or reset), so
        // this is a quiescent cut — the only place an automatic checkpoint
        // is sound.
        let ss = pe.begin_superstep();
        if pe.checkpoint_due(ss) {
            debug_assert!(
                self.mailboxes.iter().all(|m| m.conveyor.checkpoint_ready()),
                "checkpoint at a non-quiescent conveyor cut"
            );
            pe.checkpoint()
                .expect("superstep-boundary checkpoint must be quiescent");
        }

        let ss_begin = fabsp_hwpc::cycles_now();
        self.timer.start_total();
        self.timer.enter(Region::Main);
        let result = {
            let mut ctx = MainCtx { selector: self, pe };
            main(&mut ctx)
        };
        self.timer.exit(Region::Main);

        // Implicit done for unchained mailboxes the body didn't close.
        for (m, d) in self.mailboxes.iter().zip(&mut self.staging.done) {
            d.user_done |= m.chained_after.is_none();
        }

        // COMM-side drive to termination.
        while self.progress_once(pe) {
            if let Some(m) = pe.metrics() {
                m.count(Counter::ActorYields);
            }
            pe.poll_yield();
        }

        // Overall breakdown + region profile into the collector, together
        // with any send events still batched from the endgame.
        self.timer.stop_total();
        let ss_end = fabsp_hwpc::cycles_now();
        self.send_buf.record_span(Phase::Superstep, ss_begin, ss_end);
        if let Some(m) = pe.metrics() {
            m.flight_span(Phase::Superstep, ss_begin, ss_end);
        }
        let total = self.timer.total_cycles();
        let profile = self.timer.profile().clone();
        {
            let mut c = self.collector.borrow_mut();
            c.drain(&mut self.send_buf);
            c.set_overall(profile.main.cycles, profile.proc.cycles, total);
            c.set_region_profile(profile);
        }
        Ok(result)
    }

    /// Send from MAIN: submit the slice toward one destination with
    /// `push_slice`, and whenever only a prefix is accepted leave MAIN for a
    /// round of progress (handlers run — the RED interleaved into the BLUE
    /// of Fig. 1) before resubmitting the rest. Every submission and its
    /// modelled cost is MAIN work (T_MAIN = "time taken by the application
    /// to generate a message and append it to the mailbox"). Only callable
    /// through [`MainCtx`]; see [`Selector::execute`].
    fn send_slice_from_main(
        &mut self,
        pe: &Pe,
        mailbox: usize,
        msgs: &[T],
        dst: usize,
    ) -> Result<(), ActorError> {
        self.check_open(mailbox)?;
        let mut rest = msgs;
        let mut refused_before = false;
        while !rest.is_empty() {
            let accepted = push_run(
                &mut self.mailboxes[mailbox].conveyor,
                &mut self.send_buf,
                &self.papi_events,
                pe,
                mailbox,
                rest,
                dst,
            )?;
            rest = &rest[accepted..];
            if rest.is_empty() {
                break;
            }
            self.timer.exit(Region::Main);
            if refused_before {
                if let Some(m) = pe.metrics() {
                    m.count(Counter::ActorYields);
                }
                pe.poll_yield();
            }
            refused_before = true;
            self.progress_once(pe);
            self.timer.enter(Region::Main);
        }
        Ok(())
    }

    fn done_from_main(&mut self, mailbox: usize) -> Result<(), ActorError> {
        self.check_mailbox(mailbox)?;
        self.staging.done[mailbox].user_done = true;
        Ok(())
    }

    /// Hand the batched send events to the collector in one borrow.
    fn drain_trace(&mut self) {
        if !self.send_buf.is_empty() {
            self.collector.borrow_mut().drain(&mut self.send_buf);
        }
    }

    /// One COMM round: push staged handler sends, advance every conveyor,
    /// deliver incoming messages through the handler. Returns whether any
    /// mailbox is still active.
    fn progress_once(&mut self, pe: &Pe) -> bool {
        // Progress is a drain boundary: batched send events flow to the
        // collector here, once per round instead of once per message.
        self.drain_trace();
        self.drain_outboxes(pe);

        let mut any_active = false;
        for mb in 0..self.mailboxes.len() {
            // Resolve chained dones: fire when the upstream completed.
            if let Some(after) = self.mailboxes[mb].chained_after {
                self.staging.done[mb].user_done |= self.mailboxes[after].complete;
            }
            let done = &mut self.staging.done[mb];
            let done_eff = done.user_done && self.staging.outboxes[mb].is_empty();
            if done_eff {
                done.done_signaled = true;
            }
            let m = &mut self.mailboxes[mb];
            let active = m.conveyor.advance(pe, done_eff);
            if !active {
                m.complete = true;
            }
            any_active |= active;
        }

        // Deliver: run handlers (PROC) on everything pulled. The handler
        // context borrows the selector's own staging — nothing is built
        // per batch, let alone per item.
        let mut handler = self.handler.take().expect("handler in use reentrantly");
        let n_pes = pe.n_pes();
        let rank = pe.rank();
        for mb in 0..self.mailboxes.len() {
            // Each `pull_batch` hands out one origin run as a zero-copy
            // slice, and the whole slice goes to the handler in one call.
            // Pulling and dispatching it is the runtime's work (COMM); only
            // the handler bodies are PROC.
            while let Some(batch) = self.mailboxes[mb].conveyor.pull_batch() {
                let n = batch.items.len() as u64;
                model::PULL.times(n).charge();
                model::HANDLER_DISPATCH.times(n).charge();
                let mut ctx = ProcCtx {
                    staging: &mut self.staging,
                    rank,
                    n_pes,
                };
                self.timer.enter(Region::Proc);
                handler(mb, batch.items, batch.src, &mut ctx);
                self.timer.exit(Region::Proc);
                self.staging.apply_done_requests();
            }
        }
        self.handler = Some(handler);
        any_active
    }

    /// Push handler-staged sends into the conveyors (best effort). Each
    /// outbox's front run goes to `push_slice` as it lies and advances by
    /// the accepted prefix; a refused suffix stays queued, in order, for
    /// the next round — so a round costs O(accepted), whatever the backlog.
    fn drain_outboxes(&mut self, pe: &Pe) {
        for mb in 0..self.mailboxes.len() {
            while let Some((items, dst)) = self.staging.outboxes[mb].front_run() {
                assert!(
                    !self.staging.done[mb].done_signaled,
                    "outbox item for mailbox {mb} after done was signalled"
                );
                let submitted = items.len();
                let accepted = push_run(
                    &mut self.mailboxes[mb].conveyor,
                    &mut self.send_buf,
                    &self.papi_events,
                    pe,
                    mb,
                    items,
                    dst,
                )
                .expect("outbox destinations were validated at staging");
                self.staging.outboxes[mb].advance(accepted);
                if accepted < submitted {
                    break; // buffers full; retry next round
                }
            }
        }
    }

    /// Merged conveyor statistics over all mailboxes.
    pub fn stats(&self) -> ConveyorStats {
        let mut total = ConveyorStats::default();
        for mb in 0..self.mailboxes.len() {
            total.merge(&self.stats_of(mb));
        }
        total
    }

    /// Per-mailbox conveyor statistics.
    pub fn mailbox_stats(&self, mailbox: usize) -> Result<ConveyorStats, ActorError> {
        self.check_mailbox(mailbox)?;
        Ok(self.stats_of(mailbox))
    }

    fn stats_of(&self, mailbox: usize) -> ConveyorStats {
        ConveyorStats {
            outbox_staged: self.staging.outboxes[mailbox].staged,
            ..self.mailboxes[mailbox].conveyor.stats()
        }
    }

    /// A shared handle to the trace collector (e.g. to inspect mid-run).
    pub fn collector(&self) -> SharedCollector {
        self.collector.clone()
    }

    /// Consume the selector and extract the recorded traces.
    ///
    /// # Panics
    /// Panics if collector handles are still held elsewhere.
    pub fn into_collector(mut self) -> PeCollector {
        self.drain_trace();
        let Selector {
            mailboxes,
            handler,
            collector,
            ..
        } = self;
        drop(mailboxes); // conveyors hold collector clones
        drop(handler);
        std::rc::Rc::try_unwrap(collector)
            .expect("collector still shared; drop other handles first")
            .into_inner()
    }
}

impl<T: Copy + Default + Send + 'static> MainCtx<'_, '_, '_, T> {
    /// Asynchronous send: enqueue `msg` for `dst` via `mailbox`
    /// (Listing 1's `actor_ptr->send(i, dst)`). Aggregation-buffer
    /// overflow is handled internally by interleaving message processing —
    /// the call always succeeds or reports a protocol error. A one-item
    /// [`send_slice`](MainCtx::send_slice).
    pub fn send(&mut self, mailbox: usize, msg: T, dst: usize) -> Result<(), ActorError> {
        self.send_slice(mailbox, &[msg], dst)
    }

    /// Batched send: enqueue every message in `msgs` for `dst` via
    /// `mailbox` with one slice submission — same per-link ordering and
    /// overflow interleaving as one [`send`](MainCtx::send) per item, with
    /// the conveyor protocol amortized over the whole slice.
    pub fn send_slice(&mut self, mailbox: usize, msgs: &[T], dst: usize) -> Result<(), ActorError> {
        self.selector.send_slice_from_main(self.pe, mailbox, msgs, dst)
    }

    /// Declare that this PE will send no more messages via `mailbox`
    /// (Listing 1's `actor_ptr->done(0)`).
    pub fn done(&mut self, mailbox: usize) -> Result<(), ActorError> {
        self.selector.done_from_main(mailbox)
    }

    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.pe.rank()
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.pe.n_pes()
    }

    /// The underlying PE handle (for symmetric-memory access in MAIN).
    pub fn pe(&self) -> &Pe {
        self.pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorprof_trace::TraceConfig;
    use fabsp_conveyors::RING;
    use fabsp_shmem::{spmd, Grid};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The paper's Listing 1/2 program: every PE sends N messages; each
    /// increments a cell of the destination's local array.
    fn histogram_world(grid: Grid, n_msgs: usize, trace: TraceConfig) -> Vec<(u64, PeCollector)> {
        spmd::run(grid, move |pe| {
            let larray = Rc::new(RefCell::new(vec![0u64; 64]));
            let h = Rc::clone(&larray);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::traced(trace.clone()),
                move |_mb, idx: u64, _from, _ctx| {
                    h.borrow_mut()[idx as usize % 64] += 1;
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    for i in 0..n_msgs {
                        let dst = (ctx.rank() + i) % ctx.n_pes();
                        ctx.send(0, i as u64, dst).unwrap();
                    }
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let total: u64 = larray.borrow().iter().sum();
            (total, actor.into_collector())
        })
        .unwrap()
    }

    #[test]
    fn outbox_hands_out_runs_in_order_and_keeps_refused_suffixes() {
        let mut outbox = Outbox::new();
        assert!(outbox.front_run().is_none());
        for (msg, dst) in [(10, 1), (11, 1), (12, 1), (20, 0), (30, 1)] {
            outbox.stage(msg, dst);
        }
        assert_eq!(outbox.front_run(), Some((&[10, 11, 12][..], 1)));
        outbox.advance(2); // the conveyor took a prefix
        assert_eq!(outbox.front_run(), Some((&[12][..], 1)));
        outbox.stage(31, 1); // extends the tail run, not the front one
        outbox.advance(1);
        assert_eq!(outbox.front_run(), Some((&[20][..], 0)));
        outbox.advance(1);
        assert_eq!(outbox.front_run(), Some((&[30, 31][..], 1)));
        outbox.advance(2);
        assert!(outbox.is_empty() && outbox.items.is_empty());
        assert_eq!(outbox.staged, 6);

        // A run that wraps around the ring comes out in two pieces, in order.
        let mut outbox = Outbox::new();
        let cap = {
            outbox.stage(0u64, 0);
            outbox.items.capacity()
        };
        for i in 1..cap as u64 {
            outbox.stage(i, 0);
        }
        outbox.advance(cap - 1);
        for i in 0..3 {
            outbox.stage(100 + i, 0); // no growth: these wrap
        }
        assert_eq!(outbox.items.capacity(), cap);
        let mut seen = Vec::new();
        while let Some((items, dst)) = outbox.front_run() {
            assert_eq!(dst, 0);
            seen.extend_from_slice(items);
            let n = items.len();
            outbox.advance(n);
        }
        assert_eq!(seen, [cap as u64 - 1, 100, 101, 102]);
    }

    /// Capacity-4 conveyors: four messages per slab, two slabs in flight per
    /// link, so a source's traffic arrives over many progress rounds.
    fn capacity_4() -> SelectorConfig {
        SelectorConfig {
            conveyor: ConveyorOptions {
                capacity: 4,
                ..Default::default()
            },
            trace: TraceConfig::off(),
        }
    }

    #[test]
    fn per_batch_dispatch_delivers_each_message_once_in_order() {
        // Requests on mailbox 0 are answered on mailbox 1 from inside the
        // handler, several batches per source in both directions: N spans
        // eight producer windows (RING landing cells plus the staging
        // buffer, 4 items each), and one batch holds at most about one.
        const N: u64 = 8 * 4 * (RING as u64 + 1);
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            // log[mb][src]: messages in the order the handler saw them
            let log = Rc::new(RefCell::new(vec![vec![Vec::new(); 2]; 2]));
            let l = Rc::clone(&log);
            let mut actor = Selector::new(pe, 2, capacity_4(), move |mb, msg: u64, from, ctx| {
                l.borrow_mut()[mb][from as usize].push(msg);
                if mb == 0 {
                    ctx.send(1, msg, from as usize);
                }
            })
            .unwrap();
            actor.chain_done(1, 0).unwrap();
            actor
                .execute(pe, |ctx| {
                    let msgs: Vec<u64> = (0..N).collect();
                    for dst in 0..ctx.n_pes() {
                        ctx.send_slice(0, &msgs, dst).unwrap();
                    }
                })
                .unwrap();
            let pulls = actor.mailbox_stats(0).unwrap().batched_pulls;
            let log = log.take();
            (log, pulls)
        })
        .unwrap();
        let in_order: Vec<u64> = (0..N).collect();
        for (me, (log, pulls)) in results.iter().enumerate() {
            for (mb, per_src) in log.iter().enumerate() {
                for (src, seen) in per_src.iter().enumerate() {
                    assert_eq!(*seen, in_order, "PE {me}, mailbox {mb}, from {src}");
                }
            }
            assert!(
                *pulls > 2 * 2,
                "PE {me}: {pulls} request batches from 2 sources"
            );
        }
    }

    #[test]
    fn done_requested_mid_batch_takes_effect_at_batch_end() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            // per message of mailbox 0: (msg, mailbox 1 done requested, done)
            let seen = Rc::new(RefCell::new(Vec::new()));
            let s = Rc::clone(&seen);
            let mut actor = Selector::new(pe, 2, capacity_4(), move |mb, msg: u64, _from, ctx| {
                if mb != 0 {
                    return;
                }
                if msg == 1 {
                    ctx.done(1);
                }
                let done = ctx.staging.done[1];
                s.borrow_mut().push((msg, done.requested, done.user_done));
                if done.requested {
                    ctx.send(1, msg, 0); // still allowed: the batch is not over
                }
            })
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    // one aligned slab of four, then enough to fill the ring,
                    // so that the first batch runs while MAIN is sending
                    ctx.send_slice(0, &[0, 1, 2, 3], 0).unwrap();
                    let more: Vec<u64> = (4..400).collect();
                    ctx.send_slice(0, &more, 0).unwrap();
                    assert!(matches!(
                        ctx.send(1, 9, 0),
                        Err(ActorError::SendAfterDone { mailbox: 1 })
                    ));
                })
                .unwrap();
            // The first batch holds at least the first slab, and a batch
            // ends at a slab boundary: the request stays pending for the
            // rest of the batch, then is the mailbox's done.
            let seen = seen.take();
            assert_eq!(seen.len(), 400);
            assert_eq!(seen[0], (0, false, false));
            let batch_end = 1 + seen[1..].iter().take_while(|&&(_, req, _)| req).count();
            assert!(
                batch_end >= 4 && batch_end % 4 == 0,
                "first batch ends at {batch_end}"
            );
            for (i, &(msg, req, done)) in seen.iter().enumerate().skip(1) {
                assert_eq!(msg, i as u64);
                assert_eq!((req, done), (i < batch_end, i >= batch_end), "message {i}");
            }
        })
        .unwrap();
    }

    #[test]
    fn histogram_delivers_every_message_once() {
        let grid = Grid::new(2, 2).unwrap();
        let results = histogram_world(grid, 100, TraceConfig::off());
        let delivered: u64 = results.iter().map(|(t, _)| t).sum();
        assert_eq!(delivered, 400);
    }

    #[test]
    fn implicit_done_terminates() {
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            let seen = Rc::new(RefCell::new(0u64));
            let s = Rc::clone(&seen);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::default(),
                move |_mb, _msg: u64, _from, _ctx| {
                    *s.borrow_mut() += 1;
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    ctx.send(0, 1, 0).unwrap();
                    // no explicit done: execute closes the mailbox
                })
                .unwrap();
            let v = *seen.borrow();
            v
        })
        .unwrap();
        assert_eq!(results.iter().sum::<u64>(), 2);
        assert_eq!(results[0], 2, "both messages targeted PE 0");
    }

    #[test]
    fn send_after_done_is_rejected() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::default(),
                |_mb, _m: u64, _f, _ctx| {},
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    ctx.done(0).unwrap();
                    assert!(matches!(
                        ctx.send(0, 1, 0),
                        Err(ActorError::SendAfterDone { mailbox: 0 })
                    ));
                })
                .unwrap();
        })
        .unwrap();
    }

    #[test]
    fn request_response_with_chained_done() {
        // mb0 carries requests; its handler replies on mb1.
        let grid = Grid::new(2, 2).unwrap();
        let n = 50usize;
        let results = spmd::run(grid, move |pe| {
            let replies = Rc::new(RefCell::new(0u64));
            let r = Rc::clone(&replies);
            let mut actor = Selector::new(
                pe,
                2,
                SelectorConfig::default(),
                move |mb, msg: u64, from, ctx| match mb {
                    0 => ctx.send(1, msg * 2, from as usize), // reply
                    1 => *r.borrow_mut() += msg,
                    _ => unreachable!(),
                },
            )
            .unwrap();
            actor.chain_done(1, 0).unwrap();
            actor
                .execute(pe, |ctx| {
                    for i in 0..n {
                        let dst = (ctx.rank() + i) % ctx.n_pes();
                        ctx.send(0, i as u64, dst).unwrap();
                    }
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let v = *replies.borrow();
            v
        })
        .unwrap();
        // every request is answered with msg*2 back to the requester
        let expected_per_pe: u64 = (0..n as u64).map(|i| i * 2).sum();
        for (pe, total) in results.iter().enumerate() {
            assert_eq!(*total, expected_per_pe, "PE {pe}");
        }
    }

    #[test]
    fn logical_trace_counts_sends_per_destination() {
        let grid = Grid::new(2, 2).unwrap();
        let results = histogram_world(grid, 40, TraceConfig::off().with_logical());
        for (pe, (_, collector)) in results.iter().enumerate() {
            let matrix = collector.logical_matrix();
            assert_eq!(collector.total_sends(), 40);
            // sends went to (rank + i) % 4 for i in 0..40: 10 per dst
            for (dst, cell) in matrix.iter().enumerate() {
                assert_eq!(cell.sends, 10, "PE {pe} -> {dst}");
                assert_eq!(cell.bytes, 10 * 8);
            }
        }
    }

    #[test]
    fn overall_breakdown_is_recorded_and_consistent() {
        let grid = Grid::single_node(2).unwrap();
        let results = histogram_world(grid, 200, TraceConfig::off().with_overall());
        for (_, collector) in &results {
            let overall = collector.overall().expect("overall enabled");
            assert!(overall.t_total > 0);
            assert!(overall.t_main > 0, "MAIN body ran");
            assert!(overall.t_proc > 0, "handlers ran");
            assert!(
                overall.t_main + overall.t_proc <= overall.t_total,
                "regions fit in total"
            );
            let (m, c, p) = overall.relative();
            assert!((m + c + p - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn papi_trace_attributes_counters_to_sends() {
        let papi = || TraceConfig::off().with_papi(actorprof_trace::PapiConfig::case_study());
        let check_lines = |collector: &PeCollector, lines: usize, sends: u64, thread_ins: u64| {
            let recs = collector.papi_records();
            assert_eq!(recs.len(), lines, "one line per (destination, mailbox)");
            assert_eq!(recs.iter().map(|r| r.num_sends).sum::<u64>(), sends);
            for r in &recs {
                // every accepted message charges SEND_PUSH inside its run's bracket
                assert!(r.counters[0] >= r.num_sends * model::SEND_PUSH.ins);
                assert!(r.counters[1] > 0, "load/store counter");
            }
            // runs partition a part of what the thread retired: no double count
            assert!(recs.iter().map(|r| r.counters[0]).sum::<u64>() <= thread_ins);
        };

        let grid = Grid::single_node(2).unwrap();
        for (_, collector) in &histogram_world(grid, 30, papi()) {
            check_lines(collector, 2, 30, u64::MAX);
        }

        // `send_slice` with slices larger than capacity (several accepted
        // runs per slice), and a request/response whose replies leave
        // through the handler outbox on mailbox 1.
        let results = spmd::run(grid, move |pe| {
            let config = SelectorConfig {
                conveyor: ConveyorOptions {
                    capacity: 4,
                    ..Default::default()
                },
                trace: papi(),
            };
            let mut actor = Selector::new(pe, 2, config, |mb, msg: u64, from, ctx| {
                if mb == 0 {
                    ctx.send(1, msg, from as usize);
                }
            })
            .unwrap();
            actor.chain_done(1, 0).unwrap();
            let before = counters::read(Event::TotIns);
            actor
                .execute(pe, |ctx| {
                    let msgs: Vec<u64> = (0..100).collect();
                    for dst in 0..ctx.n_pes() {
                        ctx.send_slice(0, &msgs, dst).unwrap();
                    }
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let thread_ins = counters::read(Event::TotIns) - before;
            (thread_ins, actor.into_collector())
        })
        .unwrap();
        for (thread_ins, collector) in &results {
            // 100 requests and 100 replies to each of the two PEs
            check_lines(collector, 4, 400, *thread_ins);
        }
    }

    #[test]
    fn physical_trace_flows_through_selector() {
        let grid = Grid::new(2, 2).unwrap();
        let results = histogram_world(grid, 100, TraceConfig::off().with_physical());
        let any_physical = results
            .iter()
            .any(|(_, c)| !c.physical_records().is_empty());
        assert!(any_physical);
    }

    #[test]
    fn invalid_mailbox_and_empty_selector_errors() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            assert!(matches!(
                Selector::<u64>::new(pe, 0, SelectorConfig::default(), |_, _, _, _| {}),
                Err(ActorError::NoMailboxes)
            ));
            let mut actor =
                Selector::<u64>::new(pe, 1, SelectorConfig::default(), |_, _, _, _| {}).unwrap();
            assert!(matches!(
                actor.chain_done(0, 0),
                Err(ActorError::SelfChain { mailbox: 0 })
            ));
            assert!(matches!(
                actor.chain_done(3, 0),
                Err(ActorError::InvalidMailbox { mailbox: 3, .. })
            ));
            actor.execute(pe, |_| {}).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn tiny_buffers_interleave_handlers_into_main() {
        // With capacity 2 and many sends, handlers MUST run during the
        // MAIN send loop (the definition of FA-BSP interleaving).
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            let handled_during_main = Rc::new(RefCell::new(0u64));
            let h = Rc::clone(&handled_during_main);
            let in_main = Rc::new(RefCell::new(false));
            let in_main_h = Rc::clone(&in_main);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig {
                    conveyor: ConveyorOptions {
                        capacity: 2,
                        ..Default::default()
                    },
                    trace: TraceConfig::off(),
                },
                move |_mb, _msg: u64, _from, _ctx| {
                    if *in_main_h.borrow() {
                        *h.borrow_mut() += 1;
                    }
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    *in_main.borrow_mut() = true;
                    for i in 0..500 {
                        ctx.send(0, i, (i % 2) as usize).unwrap();
                    }
                    *in_main.borrow_mut() = false;
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let v = *handled_during_main.borrow();
            v
        })
        .unwrap();
        assert!(
            results.iter().sum::<u64>() > 0,
            "no handler ran inside the MAIN send loop — FA-BSP interleaving broken"
        );
    }

    #[test]
    fn repeated_supersteps_accumulate_traces() {
        let grid = Grid::new(2, 2).unwrap();
        let results = spmd::run(grid, |pe| {
            let handled = Rc::new(RefCell::new(0u64));
            let h = Rc::clone(&handled);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::traced(TraceConfig::off().with_logical().with_overall()),
                move |_mb, _msg: u64, _from, _ctx| {
                    *h.borrow_mut() += 1;
                },
            )
            .unwrap();
            for round in 0..3u64 {
                actor
                    .execute(pe, |ctx| {
                        for dst in 0..ctx.n_pes() {
                            ctx.send(0, round, dst).unwrap();
                        }
                        ctx.done(0).unwrap();
                    })
                    .unwrap();
                pe.barrier_all();
            }
            let total = *handled.borrow();
            (total, actor.into_collector())
        })
        .unwrap();
        let total: u64 = results.iter().map(|(t, _)| t).sum();
        assert_eq!(total, 3 * 16, "every superstep's messages handled");
        for (_, collector) in &results {
            // logical trace spans all three supersteps
            assert_eq!(collector.total_sends(), 12);
            // the overall breakdown covers the full multi-superstep run
            let o = collector.overall().unwrap();
            assert!(o.t_main > 0 && o.t_proc > 0);
            assert!(o.t_total >= o.t_main + o.t_proc);
        }
    }

    #[test]
    fn send_slice_delivers_everything() {
        // Destination-bucketed histogram over `send_slice`.
        let n_msgs = 300;
        let grid = Grid::new(2, 2).unwrap();
        let delivered = spmd::run(grid, move |pe| {
            let sum = Rc::new(RefCell::new(0u64));
            let s = Rc::clone(&sum);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig::default(),
                move |_mb, v: u64, _from, _ctx| {
                    *s.borrow_mut() += v;
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    let n_pes = ctx.n_pes();
                    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n_pes];
                    for i in 0..n_msgs {
                        buckets[(ctx.rank() + i) % n_pes].push(i as u64);
                    }
                    for (dst, b) in buckets.iter().enumerate() {
                        ctx.send_slice(0, b, dst).unwrap();
                    }
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let v = *sum.borrow();
            v
        })
        .unwrap();
        let expected: u64 = 4 * (0..n_msgs as u64).sum::<u64>();
        assert_eq!(delivered.iter().sum::<u64>(), expected);
    }

    #[test]
    fn send_slice_overflow_interleaves_handlers_into_main() {
        // Slices far larger than capacity force partial acceptance; the
        // runtime must drain handlers mid-slice and still deliver all.
        let grid = Grid::single_node(2).unwrap();
        let results = spmd::run(grid, |pe| {
            let seen = Rc::new(RefCell::new(0u64));
            let s = Rc::clone(&seen);
            let mut actor = Selector::new(
                pe,
                1,
                SelectorConfig {
                    conveyor: ConveyorOptions {
                        capacity: 4,
                        ..Default::default()
                    },
                    trace: TraceConfig::off(),
                },
                move |_mb, _v: u64, _from, _ctx| {
                    *s.borrow_mut() += 1;
                },
            )
            .unwrap();
            actor
                .execute(pe, |ctx| {
                    let msgs: Vec<u64> = (0..800).collect();
                    ctx.send_slice(0, &msgs, 1 - ctx.rank()).unwrap();
                    ctx.done(0).unwrap();
                })
                .unwrap();
            let v = *seen.borrow();
            v
        })
        .unwrap();
        assert_eq!(results, vec![800, 800]);
    }

    #[test]
    fn batched_mode_reports_batched_conveyor_traffic() {
        let grid = Grid::single_node(2).unwrap();
        let stats = spmd::run(grid, |pe| {
            let mut actor =
                Selector::<u64>::new(pe, 1, SelectorConfig::default(), |_, _, _, _| {}).unwrap();
            actor
                .execute(pe, |ctx| {
                    let msgs: Vec<u64> = (0..100).collect();
                    ctx.send_slice(0, &msgs, 1 - ctx.rank()).unwrap();
                })
                .unwrap();
            actor.stats()
        })
        .unwrap();
        for s in &stats {
            assert!(s.batched_pushes > 0, "send_slice must use push_slice");
            assert!(s.batched_pulls > 0, "drain must use pull_batch");
            assert_eq!(s.pushed, 100);
            assert_eq!(s.pulled, 100);
        }
    }

    #[test]
    fn selector_stats_aggregate_mailboxes() {
        let grid = Grid::single_node(1).unwrap();
        spmd::run(grid, |pe| {
            let mut actor =
                Selector::<u64>::new(pe, 2, SelectorConfig::default(), |_, _, _, _| {}).unwrap();
            actor
                .execute(pe, |ctx| {
                    ctx.send(0, 1, 0).unwrap();
                    ctx.send(1, 2, 0).unwrap();
                    ctx.send(1, 3, 0).unwrap();
                })
                .unwrap();
            assert_eq!(actor.mailbox_stats(0).unwrap().pushed, 1);
            assert_eq!(actor.mailbox_stats(1).unwrap().pushed, 2);
            assert_eq!(actor.stats().pushed, 3);
            assert_eq!(actor.stats().pulled, 3);
        })
        .unwrap();
    }
}
