//! The five workloads. Each does a fixed amount of work that is a pure
//! function of `(workload, seed, seconds)`, so every deterministic output
//! (objectives, simulated cycles, store counts) can be compared exactly
//! between two commits; a faster commit finishes the same work sooner.

pub mod compile_cold;
pub mod dse;
pub mod fabric_runtime;
pub mod service_mix;

use crate::harness::{Ctx, Measured};

/// Work units (passes, rounds or requests) that take about `seconds` on
/// the reference machine: 2 cores, release build, the seed commit. The
/// divisors are the measured seconds one unit takes there.
pub fn units(workload: &str, seconds: f64) -> u64 {
    let units = match workload {
        "compile-cold" => seconds / 3.5,
        "dse-explore" => seconds / 0.49,
        "dse-sharded" => seconds / 0.50,
        "service-mix" => seconds * 70.0,
        "fabric-runtime" => seconds / 3.4,
        _ => 0.0,
    };
    (units.round() as u64).max(1)
}

pub fn run(workload: &str, ctx: &Ctx) -> Measured {
    let n = units(workload, ctx.seconds);
    match workload {
        "compile-cold" => compile_cold::run(ctx, n),
        "dse-explore" => dse::run(ctx, dse::Shape::explore(), n),
        "dse-sharded" => dse::run(ctx, dse::Shape::sharded(), n),
        "service-mix" => service_mix::run(ctx, n),
        "fabric-runtime" => fabric_runtime::run(ctx, n),
        other => unreachable!("{other} is not in spec::WORKLOADS"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Ctx;
    use dsagen::telemetry::Telemetry;

    /// The smallest size of each workload: every output check must hold and
    /// every end-to-end metric must come out positive.
    fn smoke(name: &str, run: impl FnOnce(&Ctx) -> Measured) {
        let scratch = crate::out_dir().join(format!("test-{name}"));
        std::fs::create_dir_all(&scratch).expect("scratch inside the checkout");
        let ctx = Ctx {
            seed: 5,
            seconds: 1.0,
            tel: Telemetry::disabled(),
            setup_reps: 1,
            scratch,
        };
        let m = run(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        assert!(m.misses.is_empty(), "{name}: {:?}", m.misses);
        assert_eq!(m.failed, 0);
        assert_eq!(m.op_ms.len() as u64, m.attempted);
        assert!(m.attempted > 0 && m.timed_s > 0.0 && m.setup_s.len() == 1);
        assert!(
            m.best_objective > 0.0 && m.sim_cycles > 0 && m.digest != 0,
            "{name}"
        );
        assert!(!m.fixtures.is_empty(), "{name}: the probes need a mapping");
    }

    #[test]
    fn compile_cold_one_pass() {
        smoke("compile-cold", |ctx| compile_cold::run(ctx, 1));
    }

    #[test]
    fn dse_explore_four_iterations() {
        smoke("dse-explore", |ctx| {
            dse::run(
                ctx,
                dse::Shape {
                    max_iters: 4,
                    ..dse::Shape::explore()
                },
                1,
            )
        });
    }

    #[test]
    fn dse_sharded_four_iterations() {
        smoke("dse-sharded", |ctx| {
            dse::run(
                ctx,
                dse::Shape {
                    max_iters: 4,
                    ..dse::Shape::sharded()
                },
                1,
            )
        });
    }

    #[test]
    fn service_mix_twenty_requests() {
        smoke("service-mix", |ctx| service_mix::run(ctx, 20));
    }

    #[test]
    fn fabric_runtime_one_round() {
        smoke("fabric-runtime", |ctx| fabric_runtime::run(ctx, 1));
    }

    #[test]
    fn units_follow_seconds() {
        for (workload, _) in crate::spec::WORKLOADS {
            assert!(units(workload, 0.01) == 1);
            assert!(units(workload, 28.0) >= 2 * units(workload, 14.0) - 1);
        }
    }
}
