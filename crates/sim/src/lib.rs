//! # rix-sim: the out-of-order core
//!
//! A cycle-level, execute-driven simulator of the paper's machine (§3.1):
//! 4-way superscalar, 13-stage pipeline, 128-instruction window, 40
//! reservation stations with typed issue ports, speculative wrong-path
//! execution after branch mispredictions, speculative load issue with a
//! collision history table, a DIVA checker that functionally re-executes
//! every instruction in order just before retirement, and — the point of
//! it all — **register integration** in the rename stage, wired to the
//! machinery in [`rix_integration`].
//!
//! The public surface is small:
//!
//! * [`SimConfig`] / [`CoreConfig`] / [`IssueConfig`] — machine
//!   configuration with presets for every design point in the paper's
//!   evaluation,
//! * [`Simulator`] — a resumable session over a [`rix_isa::Program`]:
//!   [`Simulator::step`] advances one cycle, [`Simulator::run_until`]
//!   advances to a [`StopWhen`] condition and reports the
//!   [`StopReason`], [`Simulator::reset_stats`] zeroes the counters for
//!   warm-up-then-measure experiments, and [`Simulator::run`] is the
//!   one-shot convenience wrapper,
//! * [`RunResult`] / [`SimStats`] — everything Figures 4–7 need, plus a
//!   dependency-free [`RunResult::to_json`] for machine-readable output.
//!
//! The **`sanitize`** feature compiles the full per-cycle invariant
//! checker into any profile: every named `sanity!` check (ROB/seq
//! mirror coherence, scheduler-calendar liveness, store-queue age
//! order, reference-count conservation) runs every cycle instead of
//! debug builds' sampled subset. The checks are read-only, so results
//! are byte-identical with and without the feature — the
//! golden-determinism suite runs under it to prove exactly that.
//!
//! ```
//! use rix_sim::{SimConfig, Simulator, StopReason, StopWhen};
//! use rix_isa::{Asm, reg};
//!
//! // r3 = 5 * 4 computed by a loop; check both timing and architecture.
//! let mut a = Asm::new();
//! a.addq_i(reg::R1, reg::ZERO, 5);
//! a.addq_i(reg::R3, reg::ZERO, 0);
//! a.label("loop");
//! a.addq_i(reg::R3, reg::R3, 4);
//! a.subq_i(reg::R1, reg::R1, 1);
//! a.bne(reg::R1, "loop");
//! a.halt();
//! let p = a.assemble()?;
//!
//! // A resumable session: step a few cycles by hand, then run to halt.
//! let mut sim = Simulator::new(&p, SimConfig::baseline());
//! sim.step();
//! let reason = sim.run_until(&StopWhen::RetiredAtLeast(1_000));
//! assert_eq!(reason, StopReason::Halted); // halts before 1000 retire
//! let r = sim.result();
//! assert!(r.halted);
//! # Ok::<(), rix_isa::AsmError>(())
//! ```

#[macro_use]
mod invariant;

mod archmem;

pub mod checkpoint;
pub mod config;
pub mod lsq;
pub mod pipeline;
pub mod session;
pub mod stats;

pub use checkpoint::Checkpoint;
pub use config::{CoreConfig, IssueConfig, SimConfig};
pub use lsq::{Cht, StoreQueue};
pub use pipeline::Simulator;
pub use session::{StopReason, StopWhen};
pub use stats::{RunResult, SimStats};
