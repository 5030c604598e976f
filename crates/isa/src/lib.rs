//! # TRISC — the instruction set of the CTCP simulator
//!
//! This crate defines a small Alpha-like RISC instruction set ("TRISC"),
//! program representation, and a functional executor that produces the
//! dynamic (correct-path) instruction stream consumed by the timing model.
//!
//! The instruction classes map one-to-one onto the special-purpose
//! functional units of the clustered trace cache processor described in
//! Bhargava & John (ISCA 2003): simple integer (ALU), integer memory (MEM),
//! branch (BR), complex integer (CPX), basic FP, complex FP, and FP memory.
//!
//! ## Example
//!
//! ```
//! use ctcp_isa::{ProgramBuilder, Reg, Executor};
//!
//! let mut b = ProgramBuilder::new();
//! let loop_top = b.label();
//! b.movi(Reg::R1, 0);          // i = 0
//! b.movi(Reg::R2, 10);         // n = 10
//! b.bind(loop_top);
//! b.addi(Reg::R1, Reg::R1, 1); // i += 1
//! b.blt(Reg::R1, Reg::R2, loop_top);
//! b.halt();
//! let program = b.build();
//!
//! let executed: Vec<_> = Executor::new(&program).take(100).collect();
//! assert!(executed.len() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod dyninst;
mod exec;
mod inst;
mod mem;
mod op;
mod program;
mod reg;

pub use dyninst::{BranchOutcome, DynInst};
pub use exec::{ExecError, ExecState, Executor};
pub use inst::Instruction;
pub use mem::WordMemory;
pub use op::{FuType, OpClass, Opcode};
pub use program::{Label, Program, ProgramBuilder, ProgramError, TEXT_BASE};
pub use reg::Reg;
