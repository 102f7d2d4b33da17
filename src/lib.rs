//! Meta-crate re-exporting the DeePMD-rs workspace, plus the `dpmd`
//! application layer (JSON input decks -> MD runs) and the `dpmd serve`
//! inference daemon (models loaded once, jobs and batched evaluations
//! multiplexed over HTTP).
pub mod app;
pub mod deck;
pub mod ensemble_app;
pub mod serve_app;
pub use deepmd_core as core;
pub use dp_linalg as linalg;
pub use dp_md as md;
pub use dp_obs as obs;
pub use dp_parallel as parallel;
pub use dp_perfmodel as perfmodel;
pub use dp_replica as replica;
pub use dp_serve as serve;
pub use dp_train as train;
