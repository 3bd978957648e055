//! Architecture description graph (ADG) for decoupled spatial accelerators.
//!
//! This crate implements the hardware design space of the DSAGEN framework
//! (Weng et al., ISCA 2020, §III). An accelerator is described as a graph —
//! the [`Adg`] — whose nodes are modular hardware primitives:
//!
//! * [`PeSpec`] — processing elements, parameterized by execution model
//!   (static vs. dynamic scheduling, dedicated vs. shared), functional-unit
//!   capability ([`OpSet`]), datapath width, FU decomposability, and
//!   stream-join support;
//! * [`SwitchSpec`] — network switches with a routing-connectivity matrix,
//!   optional sub-word decomposability, and an optional output flop;
//! * [`SyncSpec`] — synchronization elements (vector ports): FIFOs that
//!   bridge dynamically-timed producers (memories, dynamic PEs) and
//!   statically-scheduled consumers;
//! * [`DelaySpec`] — delay-FIFO elements used for pipeline balancing;
//! * [`MemSpec`] — decoupled memories with linear (inductive 2-D) and
//!   indirect stream controllers, banking, and optional atomic update;
//! * [`CtrlSpec`] — the control core that distributes stream-dataflow
//!   commands to every other component.
//!
//! Edges ([`Edge`]) are direct point-to-point connections with a bit width.
//!
//! The crate also ships the preset topologies used in the paper's
//! evaluation (§VII: Softbrain, MAERI, Triggered Instructions, SPU, REVEL)
//! in [`presets`], a composition-rule validator ([`Adg::validate`], §III-B),
//! and a [`FeatureSet`] summary that the modular compiler uses to gate its
//! hardware-dependent transformations (§IV).
//!
//! # Example
//!
//! ```
//! use dsagen_adg::{presets, Adg};
//!
//! let adg: Adg = presets::softbrain();
//! adg.validate()?;
//! assert!(adg.features().dedicated_static_pes > 0);
//! # Ok::<(), dsagen_adg::AdgError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod bits;
mod components;
mod dot;
mod error;
mod features;
mod fingerprint;
mod graph;
mod ids;
mod op;
pub mod presets;
pub mod text;

pub use bits::BitWidth;
pub use components::{
    CtrlKind, CtrlSpec, DelaySpec, MemControllers, MemKind, MemSpec, NodeKind, PeSpec, Routing,
    Scheduling, Sharing, SwitchSpec, SyncSpec,
};
pub use error::AdgError;
pub use features::FeatureSet;
pub use fingerprint::StableHasher;
pub use graph::{Adg, Edge, Node};
pub use ids::{EdgeId, NodeId};
pub use op::{OpSet, Opcode};
