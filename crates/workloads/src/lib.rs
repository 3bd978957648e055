//! Evaluation workloads for DSAGEN (§VII, Table I).
//!
//! Every kernel the paper evaluates, expressed in the `dsagen-dfg` source
//! IR with the paper's data sizes: six MachSuite kernels, the two SPU
//! sparse microbenchmarks, four REVEL DSP kernels, five PolyBench kernels,
//! plus the DenseNN and SparseCNN suites used for design-space exploration
//! (§VIII-B). [`data`] provides seeded input generators.
//!
//! # Example
//!
//! ```
//! use dsagen_workloads::{all, Suite};
//!
//! let workloads = all();
//! assert!(workloads.len() >= 16);
//! assert!(workloads.iter().any(|w| w.suite == Suite::MachSuite));
//! for w in &workloads {
//!     w.kernel.validate()?;
//! }
//! # Ok::<(), dsagen_dfg::DfgError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod data;
pub mod dsp;
pub mod machsuite;
pub mod nn;
pub mod polybench;
pub mod sparse;

use dsagen_dfg::{ExprId, Kernel, RegionBuilder};

/// Combines `vals` with a balanced tree of `op` nodes (compiler
/// reassociation): log-depth instead of a linear chain, which both
/// shortens the critical path and localizes routing pressure.
///
/// # Panics
///
/// Panics if `vals` is empty.
pub(crate) fn reduce_tree(
    r: &mut RegionBuilder,
    op: dsagen_adg::Opcode,
    vals: Vec<ExprId>,
) -> ExprId {
    assert!(!vals.is_empty(), "reduce_tree needs at least one value");
    let mut frontier = vals;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 2 {
                next.push(r.bin(op, pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        frontier = next;
    }
    frontier[0]
}

/// The benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// MachSuite accelerator benchmarks.
    MachSuite,
    /// SPU sparse microbenchmarks.
    Sparse,
    /// REVEL DSP kernels.
    Dsp,
    /// PolyBench dense linear algebra.
    PolyBench,
    /// Dense neural-network suite (DianNao comparison).
    DenseNN,
    /// Sparse CNN workload (SCNN/SPU comparison).
    SparseCNN,
}

impl Suite {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::MachSuite => "MachSuite",
            Suite::Sparse => "Sparse",
            Suite::Dsp => "Dsp",
            Suite::PolyBench => "PolyBench",
            Suite::DenseNN => "DenseNN",
            Suite::SparseCNN => "SparseCNN",
        }
    }
}

/// One evaluation workload: a named kernel with its Table I data-size
/// string.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name as used in the paper's figures.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Table I data-size label.
    pub data_size: &'static str,
    /// The kernel.
    pub kernel: Kernel,
}

/// All Table I workloads plus the NN DSE suites.
#[must_use]
pub fn all() -> Vec<Workload> {
    let mut v = suite(Suite::MachSuite);
    v.extend(suite(Suite::Sparse));
    v.extend(suite(Suite::Dsp));
    v.extend(suite(Suite::PolyBench));
    v.extend(suite(Suite::DenseNN));
    v.extend(suite(Suite::SparseCNN));
    v
}

/// The workloads of one suite.
#[must_use]
pub fn suite(s: Suite) -> Vec<Workload> {
    match s {
        Suite::MachSuite => vec![
            Workload {
                name: "md",
                suite: s,
                data_size: "128 x 16",
                kernel: machsuite::md(),
            },
            Workload {
                name: "spmv-crs",
                suite: s,
                data_size: "464 x 4",
                kernel: machsuite::spmv_crs(),
            },
            Workload {
                name: "spmv-ellpack",
                suite: s,
                data_size: "464 x 4",
                kernel: machsuite::spmv_ellpack(),
            },
            Workload {
                name: "mm",
                suite: s,
                data_size: "64^3",
                kernel: machsuite::mm(),
            },
            Workload {
                name: "stencil-2d",
                suite: s,
                data_size: "130^2 x 3^2",
                kernel: machsuite::stencil2d(),
            },
            Workload {
                name: "stencil-3d",
                suite: s,
                data_size: "32^2 x 16 x 2",
                kernel: machsuite::stencil3d(),
            },
        ],
        Suite::Sparse => vec![
            Workload {
                name: "histogram",
                suite: s,
                data_size: "2^10 x 2^16",
                kernel: sparse::histogram(),
            },
            Workload {
                name: "join",
                suite: s,
                data_size: "768 x 2",
                kernel: sparse::join(),
            },
        ],
        Suite::Dsp => vec![
            Workload {
                name: "qr",
                suite: s,
                data_size: "32^2",
                kernel: dsp::qr(),
            },
            Workload {
                name: "chol",
                suite: s,
                data_size: "32^2",
                kernel: dsp::cholesky(),
            },
            Workload {
                name: "fft",
                suite: s,
                data_size: "2^10",
                kernel: dsp::fft(),
            },
            Workload {
                name: "centro-fir",
                suite: s,
                data_size: "2^11 x 32",
                kernel: dsp::centro_fir(),
            },
        ],
        Suite::PolyBench => vec![
            Workload {
                name: "mm",
                suite: s,
                data_size: "32^3",
                kernel: polybench::mm(),
            },
            Workload {
                name: "2mm",
                suite: s,
                data_size: "32^3",
                kernel: polybench::mm2(),
            },
            Workload {
                name: "3mm",
                suite: s,
                data_size: "32^2",
                kernel: polybench::mm3(),
            },
            Workload {
                name: "atax",
                suite: s,
                data_size: "32^2",
                kernel: polybench::atax(),
            },
            Workload {
                name: "mvt",
                suite: s,
                data_size: "32^2",
                kernel: polybench::mvt(),
            },
        ],
        Suite::DenseNN => vec![
            Workload {
                name: "conv",
                suite: s,
                data_size: "28^2 x 8",
                kernel: nn::conv(),
            },
            Workload {
                name: "pool",
                suite: s,
                data_size: "26^2 x 8",
                kernel: nn::pool(),
            },
            Workload {
                name: "classifier",
                suite: s,
                data_size: "256 x 128",
                kernel: nn::classifier(),
            },
        ],
        Suite::SparseCNN => vec![Workload {
            name: "sparse-cnn",
            suite: s,
            data_size: "256 x 256",
            kernel: nn::sparse_cnn(),
        }],
    }
}

/// Just the kernels of a suite (convenience for the DSE harness).
#[must_use]
pub fn suite_kernels(s: Suite) -> Vec<Kernel> {
    suite(s).into_iter().map(|w| w.kernel).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_the_paper() {
        assert_eq!(suite(Suite::MachSuite).len(), 6);
        assert_eq!(suite(Suite::Sparse).len(), 2);
        assert_eq!(suite(Suite::Dsp).len(), 4);
        assert_eq!(suite(Suite::PolyBench).len(), 5);
        assert_eq!(suite(Suite::DenseNN).len(), 3);
        assert_eq!(suite(Suite::SparseCNN).len(), 1);
        assert_eq!(all().len(), 21);
    }

    #[test]
    fn every_workload_validates() {
        for w in all() {
            w.kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn names_are_unique_within_suite() {
        for s in [
            Suite::MachSuite,
            Suite::Sparse,
            Suite::Dsp,
            Suite::PolyBench,
            Suite::DenseNN,
        ] {
            let names: Vec<_> = suite(s).iter().map(|w| w.name).collect();
            let mut dedup = names.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(names.len(), dedup.len(), "{s:?}");
        }
    }

    #[test]
    fn every_kernel_compiles_in_fallback_mode() {
        use dsagen_adg::presets;
        use dsagen_dfg::{compile_kernel, TransformConfig};
        let feats = presets::dse_initial().features();
        for w in all() {
            let ck = compile_kernel(&w.kernel, &TransformConfig::fallback(), &feats)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(!ck.regions.is_empty());
            assert!(ck.regions.iter().all(|r| r.instances >= 1.0));
        }
    }
}
