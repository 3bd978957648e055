//! Stochastic spatial scheduler with schedule repair for DSAGEN.
//!
//! The scheduler has the three responsibilities of §IV-C: it (1) maps
//! instructions and memory streams onto hardware units, (2) routes
//! dependences onto the on-chip network with congestion-aware shortest-path
//! search, and (3) matches operand-arrival timing for statically-scheduled
//! components via delay-element budgets.
//!
//! The paper routes with Dijkstra; [`route`] runs A\* with a hop-count
//! bound and a heap ordered by (f, g, edge), which returns Dijkstra's path
//! exactly, not merely one of equal cost — the `route` module docs give the
//! argument and the condition (an integer congestion weight, as the
//! default's) under which the bound is used at all.
//!
//! The search is Algorithm 1: each iteration unmaps a few entities (biased
//! toward those involved in violations), re-places each by trying sampled
//! candidates and committing the one with the best overall objective, and
//! stops once the schedule is violation-free and the objective has been
//! stable. Resources may be transiently overutilized; the weighted
//! objective ([`Weights`]) prices overuse, maximum initiation interval, and
//! recurrence-path latency in the paper's priority order. Within one search
//! the router and the objective share one dense view of the fabric, the
//! objective reuses its buffers instead of allocating per evaluation, and
//! each entity's candidate nodes are listed once.
//!
//! [`schedule`] is the one way in. From [`Start::Empty`] it maps a kernel
//! from scratch; from [`Start::Repair`] it is the §V-A *repairing
//! scheduler* for design-space exploration and fault recovery: placements
//! referencing deleted hardware are dropped, the remainder is kept, and the
//! same iteration loop finishes the job — far cheaper than re-mapping from
//! scratch when the ADG changed incrementally. A [`Scope`] pins every
//! region outside it, which is how a recovery rung repairs one
//! fault-isolation domain; a [`CapabilityMask`] builds the degraded fabric
//! such a repair runs on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod mask;
mod objective;
mod problem;
mod route;
mod schedule;
#[allow(clippy::module_inception)]
mod scheduler;

pub use mask::{CapabilityMask, MaskError};
pub use objective::{evaluate, Evaluation, RegionEval, Weights, MEM_ROUNDTRIP};
pub use problem::{Entity, EntityKind, Problem, VirtEdge};
pub use route::route;
pub use schedule::Schedule;
pub use scheduler::{
    schedule, schedule_instrumented, RepairOutcome, ScheduleError, ScheduleResult, SchedulerConfig,
    Scope, Start,
};
