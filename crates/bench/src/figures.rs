//! Figure reports that a test pins byte for byte against `results/`.
//!
//! Each function returns exactly what its binary prints; the binary is a
//! one-line printer.

use std::fmt::Write as _;

use dsagen_adg::presets::{mesh, MeshConfig};
use dsagen_adg::{OpSet, PeSpec, Scheduling, Sharing};
use dsagen_hwgen::{generate_config_paths, ConfigPaths};

/// Figure 13 — the length of configuration paths, generated versus the
/// ideal `⌈n/p⌉`, on 2×2…5×5 meshes under 3, 6 and 9 paths.
#[must_use]
pub fn fig13() -> String {
    let rule = "-".repeat(74);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIGURE 13: Configuration-Path Length (generated vs ideal ceil(n/p))"
    );
    let _ = writeln!(out, "{rule}");
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>6}  {:>9} {:>9} {:>9}",
        "mesh", "nodes", "paths", "ideal", "generated", "overhead"
    );
    let _ = writeln!(out, "{rule}");

    let mut overheads = Vec::new();
    for dim in 2..=5usize {
        let pe = PeSpec::new(Scheduling::Static, Sharing::Dedicated, OpSet::integer_alu());
        let adg = mesh(&MeshConfig::new(format!("{dim}x{dim}"), dim, dim, pe));
        let nodes = adg.nodes().filter(|n| n.kind.is_configurable()).count();
        for paths in [3usize, 6, 9] {
            let cp = generate_config_paths(&adg, paths, 0xF16);
            let ideal = ConfigPaths::ideal(nodes, cp.paths.len());
            let over = cp.longest() as f64 / ideal as f64;
            overheads.push(over);
            let _ = writeln!(
                out,
                "{:<8} {:>7} {:>6}  {:>9} {:>9} {:>9.2}",
                format!("{dim}x{dim}"),
                nodes,
                paths,
                ideal,
                cp.longest(),
                over
            );
        }
    }
    let _ = writeln!(out, "{rule}");
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let _ = writeln!(out, "mean overhead vs ideal: {mean:.2}x");
    let _ = writeln!(
        out,
        "paper: the path generator introduces mean 1.4x overhead versus the ideal"
    );
    out
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    /// `results/fig13.txt` is what `fig13` prints today. Re-bless with
    /// `cargo run --release -p dsagen-bench --bin fig13 > results/fig13.txt`.
    #[test]
    fn fig13_matches_results_file() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/fig13.txt");
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(super::fig13(), expected, "results/fig13.txt is stale");
    }
}
