//! Dense linear-algebra kernels underlying the Deep Potential model.
//!
//! This crate is the CPU analogue of the cuBLAS + custom-CUDA-kernel layer in
//! the SC '20 GPU DeePMD-kit: a row-major [`Matrix`] type, [`gemm`] and
//! strided-[`batch`] GEMMs on the vectorised panels of [`simd`], the fused
//! operators the paper introduces in §5.3 (GEMM with fused bias,
//! CONCAT-free skip connections, fused `tanh`/`tanh`-gradient), and global
//! FLOP accounting used by the benchmark harnesses to report
//! peak/sustained FLOPS the same way the paper does with NVPROF.
//!
//! Only the shipped kernels live here. The unfused operators they replace
//! (MATMUL then SUM, CONCAT then SUM, TANH + recomputing TANHGrad), which
//! the `ablations` bench times against them, are `dp_bench::baseline::linalg`.

pub mod batch;
pub mod flops;
pub mod fused;
pub mod gemm;
pub mod matrix;
pub mod real;
pub mod simd;

pub use flops::FlopCounter;
pub use matrix::Matrix;
pub use real::Real;
