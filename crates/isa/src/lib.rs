//! The PUMA instruction set architecture.
//!
//! This crate defines the ISA of Table 2 in the paper: the instruction
//! types ([`instr`]), the three per-core register spaces ([`reg`]), a
//! fixed-width binary encoding ([`encode`]), a textual assembler and
//! disassembler ([`asm`]), and the program/image containers the compiler
//! emits and the simulator consumes ([`program`]).
//!
//! # Examples
//!
//! ```
//! use puma_isa::asm;
//!
//! # fn main() -> puma_core::Result<()> {
//! let program = asm::assemble(
//!     "mvm 1 0 0\n\
//!      tanh r0 xo0 128\n\
//!      halt\n",
//! )?;
//! let bytes = puma_isa::encode::encode_stream(&program)?;
//! assert_eq!(puma_isa::encode::decode_stream(&bytes)?, program);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod encode;
pub mod instr;
pub mod program;
pub mod reg;

pub use instr::{
    AluImmOp, AluOp, BranchCond, Instruction, InstructionCategory, MemAddr, MvmuMask, ScalarOp,
};
pub use program::{CoreImage, IoBinding, MachineImage, Program, TileImage};
pub use reg::{RegRef, RegSpace};
