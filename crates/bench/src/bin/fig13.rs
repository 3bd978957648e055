//! Figure 13 — The Length of Configuration Paths (generated vs ideal).
//!
//! The path generator receives mesh spatial architectures from 2×2 to 5×5
//! PEs under constraints of 3, 6, and 9 configuration paths; the ideal
//! longest path is ⌈n/p⌉ for n configurable nodes. The paper reports a
//! mean 1.4× overhead versus ideal. The report is
//! [`dsagen_bench::figures::fig13`], pinned against `results/fig13.txt`.
//!
//! Run with: `cargo run --release -p dsagen-bench --bin fig13`

fn main() {
    print!("{}", dsagen_bench::figures::fig13());
}
