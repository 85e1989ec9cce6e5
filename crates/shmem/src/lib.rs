//! # fabsp-shmem — an in-process OpenSHMEM-semantics substrate
//!
//! The FA-BSP stack (HClib-Actor → Conveyors → OpenSHMEM) bottoms out in a
//! PGAS layer. This crate reproduces the OpenSHMEM semantics ActorProf
//! instruments, inside a single process:
//!
//! - **PEs are OS threads** launched SPMD-style by [`spmd::run`]; **nodes**
//!   are groups of PEs described by a [`Grid`] (e.g. the paper's
//!   2 nodes × 16 PEs/node).
//! - **Two symmetric allocations.** [`SpscRing`] gives every PE a set of
//!   lock-free landing cells, one per directed link; it is the conveyor's
//!   hot path. [`SymmetricVec`] gives every PE a same-shaped region,
//!   addressable remotely by `(pe, offset)` just like `shmem_malloc`
//!   memory, written only by `put_nbi`; the benchmark's raw all-to-all
//!   rung allocates it, `put_nbi`s into it and reads it back.
//!
//! The OpenSHMEM calls the substrate models, and the type that models each:
//!
//! | OpenSHMEM | here |
//! |---|---|
//! | `shmem_malloc` | [`SpscRing::new`], [`Pe::alloc_sym`] |
//! | `shmem_ptr` + `memcpy` / blocking put | [`SpscRing::write`] |
//! | `shmem_putmem_nbi` | [`SpscRing::write_nbi`], [`SymmetricVec::put_nbi`] |
//! | `shmem_quiet` | [`Pe::quiet`] |
//! | signalling store | [`SpscRing::publish`], [`SpscRing::release`] |
//! | `shmem_barrier_all` | [`Pe::barrier_all`] |
//! | reduction | [`Pe::allreduce`] |
//!
//! Non-blocking puts are *deferred*: the bytes become visible at the
//! target only after the initiating PE calls [`Pe::quiet`] — exactly the
//! `shmem_putmem_nbi` → `shmem_quiet` → signal sequence the paper traces
//! as `nonblock_send` + `nonblock_progress` (§III-C), and exactly the
//! behaviour that makes those routines invisible to conventional
//! profilers (§V-B). A **network model** ([`net::NetStats`]) counts
//! messages/bytes per class (intra-node copy, put, non-blocking put,
//! quiet, signal) so the substrate's traffic is observable independent of
//! the profiler.
//!
//! ## Example
//!
//! ```
//! use fabsp_shmem::{Grid, spmd};
//!
//! // 2 "nodes" with 2 PEs each; every PE deposits its rank in its
//! // neighbour's symmetric array.
//! let grid = Grid::new(2, 2).unwrap();
//! let results = spmd::run(grid, |pe| {
//!     let sym = pe.alloc_sym::<u64>(1);
//!     let dst = (pe.rank() + 1) % pe.n_pes();
//!     sym.put_nbi(pe, dst, 0, &[pe.rank() as u64]).unwrap();
//!     pe.barrier_all(); // implies quiet: the put has landed
//!     sym.read_local(pe, |v| v[0])
//! })
//! .unwrap();
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

// Every unsafe operation must sit in an explicit, commented block.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checkpoint;
pub mod collectives;
pub mod error;
pub mod grid;
pub mod heap;
pub mod net;
pub mod pe;
#[cfg(feature = "race-detect")]
pub mod race;
pub mod ring;
pub mod sched;
pub mod spmd;
mod sync;

pub use checkpoint::Checkpoint;
pub use error::ShmemError;
pub use grid::Grid;
pub use heap::SymmetricVec;
pub use net::{NetStats, TransferClass};
pub use pe::Pe;
pub use ring::SpscRing;
pub use sched::{SchedPoint, SchedSpec, Scheduler};
pub use spmd::Harness;

/// Mutex acquisitions by the calling thread so far, counted in debug and
/// release builds alike. Re-exported so lock-freedom claims about the
/// message hot path are testable from any layer: sample before/after and
/// assert a zero delta.
pub use parking_lot::lock_acquisitions as debug_lock_acquisitions;

/// The vendored lock shim itself, re-exported so tests can sanity-check
/// the acquisition counter against a deliberate `Mutex::lock`.
pub use parking_lot;
