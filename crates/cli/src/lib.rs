//! # Command-line driver for the CTCP simulator
//!
//! Provides the `ctcp` binary:
//!
//! ```text
//! ctcp list
//! ctcp run     --bench gzip --strategy fdrt --insts 100000
//! ctcp run     --asm kernel.s --strategy issue0 --clusters 2
//! ctcp compare --bench twolf --insts 50000
//! ctcp trace   gzip --strategy fdrt --check
//! ctcp disasm  --bench gzip | head
//! ```
//!
//! Everything the binary does is exposed as a library so it can be unit
//! tested: argument parsing ([`Cli::parse`]), command execution
//! ([`execute_outcome`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod wire;

pub use args::{
    Cli, CliError, ClientAction, ClientArgs, Command, RunArgs, ServeArgs, StoreAction, StoreArgs,
    SweepArgs, TraceArgs,
};
pub use commands::{execute_outcome, CliOutcome};
