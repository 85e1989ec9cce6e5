//! # fabsp-conveyors — message aggregation with routed topologies
//!
//! A Rust reproduction of the Conveyors library (Maley & DeVinney, IA³'19)
//! as the ActorProf paper uses it: the aggregation substrate under
//! HClib-Actor that turns billions of 8–32-byte messages into full network
//! buffers.
//!
//! ## Programming model
//!
//! A [`Conveyor`] moves fixed-size items between PEs with the classic
//! three-call protocol:
//!
//! - [`push`](Conveyor::push) — enqueue an item for a destination PE. May
//!   *refuse* (return the item back) when aggregation buffers are full; the
//!   caller must [`advance`](Conveyor::advance) and retry. (HClib-Actor
//!   hides exactly this error handling from users — §I of the paper.)
//! - [`pull`](Conveyor::pull) — take a delivered item, if any.
//! - [`advance`](Conveyor::advance) — make progress: consume incoming
//!   buffers, relay multi-hop traffic, flush full buffers, complete
//!   non-blocking sends. Returns `false` once the conveyor has terminated
//!   (all PEs signalled done and every pushed item was pulled).
//!
//! The batched surface amortizes the per-item protocol:
//! [`push_slice`](Conveyor::push_slice) stages a whole slice toward one
//! destination and reports how far it got ([`PushReport`]), and
//! [`pull_batch`](Conveyor::pull_batch) hands out every queued item from
//! one origin run as a zero-copy [`BatchDelivery`] slice. `push`/`pull`
//! remain as thin one-item wrappers over the same machinery, so both
//! surfaces interoperate freely and deliver identical orderings.
//!
//! ## Topologies and send classes
//!
//! Following §IV-D: a single node uses a **1D linear** topology (direct
//! links, all `local_send`); multiple nodes use a **2D mesh** where a PE is
//! the grid point (node, local-index), `local_send` runs along the *row*
//! (same node, via `shmem_ptr` + memcpy) and `nonblock_send` along the
//! *column* (same local index across nodes, via `shmem_putmem_nbi`);
//! off-row/off-column traffic takes two hops (row first, then column).
//! Completion of non-blocking sends is `nonblock_progress`: one
//! `shmem_quiet` followed by a signalling put per destination.
//!
//! These three call classes are precisely what ActorProf's physical trace
//! records (§III-C), via an optional [`actorprof_trace::SharedCollector`].
//!
//! ## Example
//!
//! ```
//! use fabsp_conveyors::{Conveyor, ConveyorOptions};
//! use fabsp_shmem::{spmd, Grid};
//!
//! // 2 PEs bounce one message each to the other.
//! let totals = spmd::run(Grid::single_node(2).unwrap(), |pe| {
//!     let mut c = Conveyor::<u64>::new(pe, ConveyorOptions::default()).unwrap();
//!     let other = 1 - pe.rank();
//!     let mut sent = false;
//!     let mut got = 0u64;
//!     loop {
//!         if !sent && c.push(pe, 40 + pe.rank() as u64, other).unwrap().is_accepted() {
//!             sent = true;
//!         }
//!         let active = c.advance(pe, sent);
//!         while let Some(delivery) = c.pull() {
//!             got = delivery.item;
//!         }
//!         if !active {
//!             break;
//!         }
//!         pe.poll_yield();
//!     }
//!     got
//! })
//! .unwrap();
//! assert_eq!(totals, vec![41, 40]);
//! ```
//!
//! ## Self-sends
//!
//! Self-sends take the full buffer path — no bypass — matching the paper's
//! "Note for self-sends": algorithms may rely on ordered arrival, so
//! Conveyors never short-circuits, at the cost of several extra memcpys per
//! message (observable in [`ConveyorStats::item_copies`]).

// Zero unsafe today; keep it that way by construction.
#![forbid(unsafe_code)]

pub mod convey;
pub mod error;
pub mod exchange;
pub mod stats;
pub mod topology;

pub use convey::{Conveyor, ConveyorOptions, RING};
pub use error::ConveyorError;
pub use exchange::{BatchDelivery, Delivery, PushOutcome, PushReport};
pub use stats::ConveyorStats;
pub use topology::{LinkKind, Topology, TopologySpec};
