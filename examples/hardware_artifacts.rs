//! Hardware generation: compile a kernel, then produce the §VI artifacts —
//! configuration bitstream, configuration paths, and structural Verilog.
//!
//! Run with: `cargo run --release -p dsagen --example hardware_artifacts`

use dsagen::hwgen::Bitstream;
use dsagen::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let adg = dsagen::adg::presets::revel();
    let kernel = dsagen::workloads::dsp::cholesky();
    let compiled = dsagen::compile(&adg, &kernel, &CompileOptions::default())?;
    let hw = dsagen::generate(&adg, &compiled, 4, 42);

    println!("== bitstream ==");
    println!("configured components : {}", hw.bitstream.configs.len());
    println!("configuration words   : {}", hw.bitstream.word_count());
    println!("bytes on the wire     : {}", hw.bitstream.to_bytes().len());
    // Roundtrip through the on-wire format.
    let decoded = Bitstream::from_words(&hw.bitstream.to_words())?;
    assert_eq!(decoded, hw.bitstream);
    println!("roundtrip decode      : ok");

    println!("\n== configuration paths ==");
    let covered = hw.config_paths.covered().len();
    println!("paths                 : {}", hw.config_paths.paths.len());
    println!("components covered    : {covered}");
    println!(
        "longest path          : {} (ideal >= {})",
        hw.config_paths.longest(),
        dsagen::hwgen::ConfigPaths::ideal(covered, hw.config_paths.paths.len())
    );

    println!("\n== structural verilog ==");
    let lines = hw.verilog.lines().count();
    let instances = hw.verilog.matches("dsagen_pe #").count();
    println!("lines                 : {lines}");
    println!("PE instances          : {instances}");
    let path = std::env::temp_dir().join("dsagen_revel.v");
    std::fs::write(&path, &hw.verilog)?;
    println!("written to            : {}", path.display());

    println!("\n== graphviz ==");
    let dot_path = std::env::temp_dir().join("dsagen_revel.dot");
    std::fs::write(&dot_path, adg.to_dot())?;
    println!("ADG rendered to       : {}", dot_path.display());
    Ok(())
}
