//! A small imperative systems language used as the "production program"
//! substrate for the Execution Reconstruction (ER) reproduction.
//!
//! The original paper traces x86-64 binaries of real systems (PHP, SQLite,
//! memcached, ...) with Intel PT and symbolically executes them with KLEE.
//! This crate provides the equivalent substrate entirely in Rust:
//!
//! * a C-like source language ([`ast`], [`lexer`], [`parser`], [`types`]),
//! * a register-based IR ([`ir`], [`lower`]), lowered once per program into
//!   the flat [`code`] on which both the concrete interpreter and the
//!   symbolic executor operate,
//! * a concrete interpreter ([`interp`]) with a flat byte-addressed memory
//!   ([`mem`]), a nondeterministic environment ([`mod@env`]), cooperative
//!   threads ([`interp::Machine`]), and pluggable control-flow/data tracing
//!   ([`trace`]) that models what Intel PT observes.
//!
//! # Example
//!
//! ```
//! use er_minilang::compile;
//! use er_minilang::env::Env;
//! use er_minilang::interp::{Machine, RunOutcome};
//!
//! let program = compile(
//!     r#"
//!     fn main() {
//!         let a: u32 = input_u32(0);
//!         assert(a != 7, "seven is right out");
//!     }
//!     "#,
//! )?;
//! let mut env = Env::new();
//! env.push_input(0, &7u32.to_le_bytes());
//! let outcome = Machine::new(&program, env).run();
//! assert!(matches!(outcome.outcome, RunOutcome::Failure(_)));
//! # Ok::<(), er_minilang::CompileError>(())
//! ```

pub mod ast;
pub mod code;
pub mod env;
pub mod error;
pub mod interp;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod mem;
pub mod parser;
pub mod span;
pub mod trace;
pub mod types;
pub mod value;
pub mod word;

pub use error::{CompileError, Failure, FailureKind, RuntimeFault};
pub use ir::{BlockId, FuncId, InstrId, Program};
pub use span::Span;
pub use value::Width;

/// Compiles source text to an IR [`Program`].
///
/// This is the front door of the crate: lex, parse, type-check, and lower.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first lexical, syntactic, or
/// type error encountered.
///
/// ```
/// let program = er_minilang::compile("fn main() { print(42); }")?;
/// assert_eq!(program.funcs().len(), 1);
/// # Ok::<(), er_minilang::CompileError>(())
/// ```
pub fn compile(source: &str) -> Result<Program, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens, source)?;
    let typed = types::check(&unit)?;
    Ok(lower::lower(&typed))
}
