//! Shared infrastructure for the experiment harnesses.
//!
//! One binary per paper table/figure (and `ablations`) lives in
//! `src/bin/`. This library supplies the common pieces: the 2018 baseline
//! and the §5.3 operator variants the shipped path is measured against
//! ([`baseline`]), scaled-down trained models (cached on disk so every
//! harness doesn't retrain), standard workloads, table formatting, and
//! the emulated fp16 evaluation.

pub mod baseline;
pub mod fp16;
pub mod models;
pub mod report;
pub mod workloads;
