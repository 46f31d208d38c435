//! And-Inverter Graphs (AIGs) for the Manthan3 reproduction.
//!
//! This crate plays the role of ABC in the original Manthan3 toolchain: it is
//! the representation used to store, manipulate, compose and finally emit the
//! synthesized Henkin functions, and to encode them into CNF for the
//! SAT-based verification and repair queries.
//!
//! An [`Aig`] is a multi-output combinational network whose internal nodes
//! are two-input AND gates and whose edges may be complemented. Construction
//! is *structurally hashed*: building the same gate twice returns the same
//! node, and simple algebraic rules (`a ∧ a = a`, `a ∧ ¬a = 0`, constant
//! propagation) are applied on the fly.
//!
//! Two invariants hold throughout:
//!
//! * Nodes are created children-first: an AND gate's operands always have
//!   smaller node ids than the gate.
//! * Every walker ([`Aig::eval`], [`Aig::support`], [`Aig::cone_size`],
//!   [`Aig::compose`], [`Aig::import`], [`Aig::encode_cnf`]) is one iterative
//!   post-order over the cone with an explicit stack, so the depth of a cone
//!   is bounded by memory, not by the call stack.
//!
//! # Examples
//!
//! ```
//! use manthan3_aig::Aig;
//!
//! let mut aig = Aig::new();
//! let x = aig.input(0);
//! let y = aig.input(1);
//! let f = aig.xor(x, y);
//! assert_eq!(aig.eval(f, &[true, false]), true);
//! assert_eq!(aig.eval(f, &[true, true]), false);
//! assert_eq!(aig.support(f), vec![0, 1]);
//! ```

#![warn(missing_docs)]

mod cnf;
mod manager;

pub use manager::{Aig, AigRef};
