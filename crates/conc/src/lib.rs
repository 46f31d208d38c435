//! manthan3-conc: exhaustive interleaving checker.

pub mod model;
pub mod protocols;
