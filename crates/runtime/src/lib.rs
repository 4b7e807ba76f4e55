//! # bgpq-runtime — the platform abstraction BGPQ is written against
//!
//! The BGPQ algorithm (crate `bgpq`) is a single implementation of the
//! paper's pseudocode, parameterized over a [`Platform`] that provides
//! the three things a CUDA kernel gets from the device:
//!
//! 1. a table of fine-grained locks (one per heap node, §4),
//! 2. a way to account the cost of data-parallel primitives,
//! 3. a backoff primitive for the spin in the TARGET/MARKED
//!    collaboration (§4.3, footnote 2).
//!
//! Two platforms are provided:
//!
//! * [`CpuPlatform`] — real `parking_lot` locks, zero-cost accounting.
//!   Used for correctness work (linearizability histories under genuine
//!   OS-thread interleavings) and as a practical host-side queue.
//! * [`SimPlatform`] — locks and costs delegated to the `gpu-sim`
//!   virtual-time scheduler. Used to reproduce the paper's performance
//!   figures on hardware without a GPU (see DESIGN.md §2).
//!
//! Both accept failure hardening that is off by default:
//!
//! * [`FaultPlan`] — a seeded, deterministic schedule of one-shot faults
//!   (panic / stall / delay) executed at named [`InjectionPoint`]s the
//!   heap threads through its critical sections (crash drills);
//! * the CPU platform's lock watchdog ([`CpuPlatform::with_watchdog`]),
//!   which turns an acquisition blocked on a dead holder into a
//!   [`LockFailure`] with a holder/state diagnostic dump.

pub mod cpu;
pub mod fault;
pub mod platform;
pub mod sim;

pub use cpu::{with_thread_worker, worker_id, CpuPlatform, CpuWorker};
pub use fault::{FaultAction, FaultPlan, FaultRule, InjectionPoint};
pub use platform::{LockFailure, Place, Platform};
pub use sim::SimPlatform;
