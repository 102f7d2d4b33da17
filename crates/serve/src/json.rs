//! The daemon's wire format is the workspace codec, [`dp_obs::json`]: no
//! crate here may depend on an external JSON library, so the one std-only
//! parser and canonical writer live below every crate that needs them.
//! This path stays because `crates/perfbench` imports it.

pub use dp_obs::json::*;
