//! Structural analysis: radial distribution functions (Fig 4) and common
//! neighbor analysis (Fig 7).

pub mod cna;
pub mod rdf;

pub use cna::{classify, CnaClass, CnaCounts};
pub use rdf::Rdf;
