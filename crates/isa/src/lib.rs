//! # rix-isa: the RIX instruction set
//!
//! RIX is a small Alpha-like 64-bit RISC instruction set used by the `rix`
//! register-integration simulator. It is modelled on the Alpha AXP subset
//! that SimpleScalar 3.0 exposes, which is what the paper *"Three Extensions
//! to Register Integration"* (Roth, Bracy, Petric, 2002) evaluates on:
//!
//! * 32 integer registers (`r31` hardwired to zero, `r30` the stack pointer,
//!   `r26` the return address) plus 32 floating-point registers.
//! * three-operand register/immediate ALU forms (`addq r1, r2, r3` /
//!   `addq r1, r2, #8`, the latter doubling as Alpha's `lda`),
//! * displacement-mode loads and stores (`ldq r1, 8(sp)`),
//! * compare-and-branch conditional branches, direct jumps and calls, an
//!   indirect return, and a retirement-time `syscall`.
//!
//! Instruction addresses are *word indexed*: the PC advances by one per
//! instruction and branch targets are instruction indices. Data addresses
//! are byte addresses.
//!
//! The crate provides:
//!
//! * [`Instr`] / [`Opcode`] / [`LogReg`] — the decoded instruction form used
//!   throughout the simulator,
//! * [`semantics`] — pure functional evaluation (ALU results, branch
//!   conditions, effective addresses) shared by the out-of-order core and
//!   the DIVA checker,
//! * [`ArchState`] — the portable architectural snapshot (PC, logical
//!   registers, memory image, retired position) shared by the
//!   interpreter, the out-of-order core, checkpoints and the sweep
//!   layer, with an exact hand-rolled JSON round trip (see [`json`]),
//! * [`Asm`] — a tiny assembler with labels for building [`Program`]s,
//! * [`encode`] — a dense 64-bit binary encoding with lossless round-trip,
//!   used by the encoder/decoder tests and the instruction-cache model
//!   (which only needs instruction *addresses*, but the encoding keeps the
//!   ISA honest).
//!
//! ```
//! use rix_isa::{Asm, reg};
//!
//! let mut a = Asm::new();
//! a.addq_i(reg::R1, reg::ZERO, 10); // r1 = 10
//! a.label("loop");
//! a.subq_i(reg::R1, reg::R1, 1); // r1 -= 1
//! a.bne(reg::R1, "loop");
//! a.halt();
//! let program = a.assemble().expect("labels resolve");
//! assert_eq!(program.len(), 4);
//! ```

pub mod arch;
pub mod asm;
pub mod encode;
pub mod instr;
pub mod interp;
pub mod json;
pub mod opcode;
pub mod program;
pub mod reg;
pub mod semantics;

pub use arch::{ArchState, MemImage, PageCursor};
pub use asm::{Asm, AsmError};
pub use instr::{Instr, Operand};
pub use opcode::{ExecClass, Opcode};
pub use program::Program;
pub use reg::LogReg;

/// An instruction address (word index into a [`Program`]).
pub type InstAddr = u64;

/// A data byte address.
pub type DataAddr = u64;
