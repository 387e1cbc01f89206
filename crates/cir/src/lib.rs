//! # hsm-cir — C intermediate representation
//!
//! The frontend of the HSM translation framework: a from-scratch C-subset
//! lexer, parser, typed AST ("CIR"), symbol tables, AST walkers, and a C
//! source printer. It plays the role that the CETUS compiler infrastructure
//! plays in the paper *Enabling Multi-threaded Applications on Hybrid Shared
//! Memory Manycore Architectures* (Rawat, DATE 2015): every analysis stage
//! (crate `hsm-analysis`), the data partitioner (`hsm-partition`) and the
//! pthread→RCCE translator (`hsm-translate`) operate on the types defined
//! here.
//!
//! ## Example
//!
//! Parse a pthread program, inspect its symbols, and print it back:
//!
//! ```
//! # fn main() -> Result<(), hsm_cir::ParseError> {
//! use hsm_cir::{parse, print_unit, SymbolTable};
//!
//! let tu = parse(r#"
//!     int sum[3] = {0};
//!     void *tf(void *tid) { sum[(int)tid] += 1; return tid; }
//!     int main() { return 0; }
//! "#)?;
//! let symbols = SymbolTable::build(&tu);
//! assert_eq!(symbols.global_variables().len(), 1);
//! let printed = print_unit(&tu);
//! assert!(printed.contains("int sum[3] = {0};"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ast;
mod error;
mod lexer;
mod parser;
mod printer;
mod span;
mod symbols;
mod token;
mod types;
mod visit;

pub use ast::{
    AssignOp, BinaryOp, Declaration, Expr, ExprKind, ForInit, FunctionDef, Item, NodeId, Param,
    Stmt, StmtKind, Storage, TranslationUnit, UnaryOp, VarDecl,
};
pub use error::ParseError;
pub use parser::{const_fold, parse};
pub use printer::{print_expr, print_unit};
pub use span::{Loc, Span};
pub use symbols::{Scope, Symbol, SymbolKind, SymbolTable};
pub use types::CType;
pub use visit::{find_calls, walk_exprs_in_stmt, CallSite};
