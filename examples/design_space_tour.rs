//! A tour of the design space: instantiate every preset accelerator,
//! summarize its ISA-level features and modeled cost, and write each one
//! out in the diffable `.adg` textual format.
//!
//! Run with: `cargo run --release -p dsagen --example design_space_tour`

use dsagen::adg::{presets, text, Adg};
use dsagen::model::{synthesize_adg, AreaPowerModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let designs: Vec<Adg> = vec![
        presets::cca(),
        presets::softbrain(),
        presets::maeri(),
        presets::triggered(),
        presets::spu(),
        presets::revel(),
        presets::diannao_tree(),
        presets::plasticine(),
        presets::tabla(),
        presets::dse_initial(),
    ];
    let model = AreaPowerModel::default();

    println!(
        "{:<12} {:>4} {:>4} {:>5} {:>4} {:>4} {:>4} {:>4} {:>9} {:>8}",
        "design", "PEs", "sw", "syncs", "dyn", "shr", "join", "ind", "area(mm2)", "mW"
    );
    println!("{}", "-".repeat(72));
    for adg in &designs {
        adg.validate()?;
        let f = adg.features();
        let est = model.estimate_adg(adg);
        println!(
            "{:<12} {:>4} {:>4} {:>5} {:>4} {:>4} {:>4} {:>4} {:>9.3} {:>8.0}",
            adg.name(),
            f.total_pes(),
            adg.switches().count(),
            adg.syncs().count(),
            if f.has_dynamic_pes() { "y" } else { "-" },
            if f.has_shared_pes() { "y" } else { "-" },
            if f.stream_join_pes > 0 { "y" } else { "-" },
            if f.indirect_memory { "y" } else { "-" },
            est.area_mm2,
            est.power_mw
        );
    }
    println!("{}", "-".repeat(72));

    // Write each design out in the textual format and verify roundtrip.
    let dir = std::env::temp_dir().join("dsagen_designs");
    std::fs::create_dir_all(&dir)?;
    for adg in &designs {
        let rendered = text::to_text(adg);
        let parsed = text::from_text(&rendered)?;
        assert_eq!(adg, &parsed, "{} must roundtrip", adg.name());
        let path = dir.join(format!("{}.adg", adg.name()));
        std::fs::write(&path, &rendered)?;
        println!(
            "wrote {} ({} lines)",
            path.display(),
            rendered.lines().count()
        );
    }

    // Where does Softbrain's area go?
    println!("\nsoftbrain area breakdown:");
    for (class, cost) in model.estimate_breakdown(&presets::softbrain()) {
        println!(
            "  {:<8} {:>8.3} mm^2 {:>8.0} mW",
            class, cost.area_mm2, cost.power_mw
        );
    }

    // Sanity: "synthesis" agrees with the estimate to within a few percent.
    let soft = presets::softbrain();
    let est = model.estimate_adg(&soft);
    let syn = synthesize_adg(&soft);
    println!(
        "\nsoftbrain: estimated {:.3} mm^2 vs synthesized {:.3} mm^2 ({:.1}% gap)",
        est.area_mm2,
        syn.area_mm2,
        100.0 * (syn.area_mm2 - est.area_mm2) / syn.area_mm2
    );
    Ok(())
}
