//! Automated design-space exploration for DSAGEN (§V).
//!
//! The explorer performs hardware/software codesign by iterative graph
//! search: starting from an initial ADG, each step randomly adds/removes/
//! re-parameterizes components (within an area/power budget), re-schedules
//! every kernel version with the §V-A *repairing scheduler* (instead of
//! re-mapping from scratch), estimates performance with the §V-B model and
//! area/power with the §V-C regression model, and keeps the change only if
//! the `perf²/mm²` objective improves.
//!
//! Exploration is *sharded and memoized*: [`DseConfig::shards`] independent
//! deterministic searches run on up to [`DseConfig::threads`] worker
//! threads and merge through a deterministic reduction, so results depend
//! only on `(seed, shards)` — never on thread scheduling.
//!
//! Each evaluation answers every kernel version from the first of four
//! tiers that can: an exact replay from the explorer's schedule cache (keyed by
//! `(Adg::fingerprint, CompiledKernel::content_hash)`), a schedule an
//! earlier process left in an attached artifact store
//! ([`Explorer::with_store`]), a rebase of the previous schedule when the
//! mutation left its mapped footprint intact, or a fresh pass of the
//! repairing scheduler. Every tier but the exact replay re-checks its
//! schedule on the current design — feasibility, bitstream round trip,
//! then the performance model — and one adopt step records whichever
//! answer wins: into the explorer's mapping state, the cache, and the
//! tier's [`CacheStats`] counter.
//!
//! # Example
//!
//! ```no_run
//! use dsagen_adg::presets;
//! use dsagen_dse::{explore, DseConfig};
//!
//! let kernels = vec![/* built with dsagen_dfg::KernelBuilder */];
//! let result = explore(presets::dse_initial(), &kernels, DseConfig::default());
//! println!(
//!     "saved {:.0}% area, {:.1}x objective",
//!     100.0 * result.area_saving(),
//!     result.objective_gain()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod cache;
mod explorer;
mod mutate;

pub use cache::CacheStats;
pub use explorer::{
    explore, DseConfig, DsePoint, DseResult, Explorer, IterRecord, RejectReason, ReliabilityMode,
    RunControl, StopCause, TelemetrySnapshot,
};
pub use mutate::{mutate, Mutation};
