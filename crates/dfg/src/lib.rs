//! Decoupled-dataflow IR and modular compilation for DSAGEN (§IV).
//!
//! The compilation pipeline mirrors the paper's flow:
//!
//! 1. Kernels are written in a source-level IR ([`KernelBuilder`]) that
//!    corresponds to C annotated with `#pragma dsa config / decouple /
//!    offload` — loop nests over arrays with affine or indirect indices,
//!    merge-join loops, reductions, and predicated selects.
//! 2. [`enumerate_configs`] proposes [`TransformConfig`]s — combinations of
//!    the modular, hardware-gated transformations of §IV-E (vectorization
//!    degree, stream-join, indirect streams, atomic update) plus the
//!    generic §IV-D forwarding optimizations. A scalar fallback is always
//!    included so compilation cannot fail.
//! 3. [`compile_kernel`] lowers a kernel under one configuration into a
//!    [`CompiledKernel`]: per-region [`Stream`]s (the decoupled access
//!    half) and a [`Dfg`] (the compute half), plus control-core fallback
//!    costs and [`Requirements`] that gate which ADGs the version can map
//!    onto.
//!
//! The spatial scheduler (`dsagen-scheduler`) places the `Dfg` onto an ADG;
//! the performance model (`dsagen-model`) and simulator (`dsagen-sim`)
//! consume the streams and rate facts.
//!
//! # Example
//!
//! ```
//! use dsagen_adg::{presets, BitWidth, Opcode};
//! use dsagen_dfg::*;
//!
//! // acc += a[i] * b[i]
//! let mut k = KernelBuilder::new("dot");
//! let a = k.array("a", BitWidth::B64, 1024, MemClass::MainMemory);
//! let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
//! let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
//! let mut r = k.region("body", 1.0);
//! let i = r.for_loop(TripCount::fixed(1024), true);
//! let va = r.load(a, AffineExpr::var(i));
//! let vb = r.load(b, AffineExpr::var(i));
//! let prod = r.bin(Opcode::Mul, va, vb);
//! let acc = r.reduce(Opcode::Add, prod, i);
//! r.store(c, AffineExpr::constant(0), acc);
//! k.finish_region(r);
//! let kernel = k.build()?;
//!
//! let adg = presets::softbrain();
//! let features = adg.features();
//! let mut viable = Vec::new();
//! for cfg in enumerate_configs(&kernel, &features, 8) {
//!     let version = compile_kernel(&kernel, &cfg, &features)?;
//!     if version.requires.satisfied_by(&features) {
//!         viable.push(version);
//!     }
//! }
//! // The scalar fallback always survives the requirements filter.
//! assert!(!viable.is_empty());
//! # Ok::<(), dsagen_dfg::DfgError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod compile;
#[allow(clippy::module_inception)]
mod dfg;
mod error;
mod expr;
pub mod interp;
mod source;
mod stream;
#[cfg(test)]
mod testgen;
mod transform;

pub use compile::{compile_kernel, CompiledKernel, CompiledRegion};
pub use dfg::{Dfg, DfgOp, OpId, Recurrence};
pub use error::DfgError;
pub use expr::{AffineExpr, LoopVar, TripCount};
pub use source::{
    ArrayDecl, ArrayId, ExprId, Index, JoinSide, Kernel, KernelBuilder, Loop, LoopKind, MemClass,
    Region, RegionBuilder, SrcExpr, SrcStmt,
};
pub use stream::{Stream, StreamDir, StreamPattern, StreamSource};
pub use transform::{enumerate_configs, KernelIdioms, Requirements, TransformConfig};
