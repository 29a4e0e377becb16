//! # cgselect-runtime — a coarse-grained parallel machine in a library
//!
//! This crate implements the abstract machine of *Al-Furaih, Aluru, Goil,
//! Ranka — "Practical Algorithms for Selection on Coarse-Grained Parallel
//! Computers"* (IPPS 1996), §2: `p` relatively powerful processors connected
//! by an interconnection network that is modeled as a **virtual crossbar**
//! with a **two-level cost model** — every message costs a start-up overhead
//! `τ` plus `μ` seconds per byte, independent of which pair of processors
//! communicates.
//!
//! The paper ran on a Thinking Machines CM-5. This crate *is* the substitute
//! for that machine: each of the `p` virtual processors is an OS thread, and
//! all of the paper's communication primitives (§2.2) are provided on top of
//! typed point-to-point message passing:
//!
//! | Paper primitive       | Method on [`Proc`]                  | Modeled cost          |
//! |-----------------------|-------------------------------------|-----------------------|
//! | Broadcast             | [`Proc::broadcast`]                 | `O((τ+μ) log p)`      |
//! | Combine               | [`Proc::combine`]                   | `O((τ+μ) log p)`      |
//! | Parallel Prefix       | [`Proc::scan`]                      | `O((τ+μ) log p)`      |
//! | Gather                | [`Proc::gather`] / [`Proc::gatherv`]| `O(τ log p + μp·m)`   |
//! | Global Concatenate    | [`Proc::all_gather`] / `…v` / `…v_runs` | `O(τ log p + μp·m)` |
//! | Transportation        | [`Proc::all_to_allv`]               | `O(τp + 2μt)`         |
//!
//! ## Virtual time
//!
//! Every processor carries a deterministic **virtual clock** (seconds, `f64`):
//!
//! * local computation advances it by `ops × t_op` via [`Proc::charge_ops`]
//!   — the selection kernels report their *measured* comparison/move counts,
//!   so constant factors are real, not estimated;
//! * a send advances the sender by `τ + μ·bytes`;
//! * a receive completes at `max(receiver_now, send_start + τ + μ·bytes)`
//!   and then pays a `μ·bytes` receiver-side copy (this is what makes the
//!   paper's transportation-primitive bound come out as `2μt`).
//!
//! Message matching is by `(source, tag)` with out-of-order stashing, and
//! collectives use epoch-scoped internal tags, so the virtual clock is
//! **bit-reproducible** regardless of host thread scheduling.
//!
//! ## Example
//!
//! ```
//! use cgselect_runtime::{Machine, MachineModel};
//!
//! let machine = Machine::with_model(4, MachineModel::cm5());
//! let sums = machine
//!     .run(|proc| {
//!         let mine = (proc.rank() + 1) as u64;
//!         proc.combine(mine, |a, b| a + b)
//!     })
//!     .unwrap();
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod collectives;
mod envelope;
pub mod fabric;
mod key;
mod machine;
mod model;
mod process;
mod session;
mod stats;
pub mod wiremsg;

pub use fabric::{FabricLink, FabricPoll, FabricRecvError, WireEnvelope};
pub use key::{Key, OrdF64};
pub use machine::{Machine, RunError};
pub use model::{MachineModel, Topology};
pub use process::Proc;
pub use session::{Session, ShardStore};
pub use stats::{CommStats, PhaseTimer};
pub use wiremsg::{WireMsg, WireMsgError, WireReader};

/// Phase label used by the selection algorithms for the time they spend
/// redistributing data (needed to regenerate the paper's Figures 5 and 6).
pub const PHASE_LOAD_BALANCE: &str = "load_balance";
/// Phase label for time spent inside the parallel sample sort (Algorithm 4).
pub const PHASE_SORT: &str = "sort";
/// Phase label for the final gather-and-solve-sequentially step shared by all
/// selection algorithms.
pub const PHASE_FINISH: &str = "finish";
