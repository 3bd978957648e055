//! Structural RTL emission.
//!
//! The paper's hardware generator produces Chisel RTL (§VII); this module
//! emits the equivalent *structural* Verilog: one parameterized module per
//! component class, one instance per ADG node, and wires per connection —
//! enough to hand to a synthesis flow, and the artifact our synthetic
//! "synthesis" model prices (see `dsagen-model`).

use std::fmt::Write as _;

use dsagen_adg::{Adg, NodeKind};

/// Emits structural Verilog for an ADG.
///
/// # Example
///
/// ```
/// use dsagen_adg::presets;
/// use dsagen_hwgen::emit_verilog;
///
/// let v = emit_verilog(&presets::cca());
/// assert!(v.contains("module dsagen_top"));
/// assert!(v.contains("dsagen_pe"));
/// ```
#[must_use]
pub fn emit_verilog(adg: &Adg) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by dsagen-hwgen from ADG '{}'",
        adg.name()
    );
    let _ = writeln!(
        out,
        "// {} nodes, {} edges\n",
        adg.node_count(),
        adg.edge_count()
    );

    emit_leaf_modules(&mut out);

    let _ = writeln!(out, "module dsagen_top (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    let _ = writeln!(out, "  input  wire [63:0] cfg_word,");
    let _ = writeln!(out, "  input  wire cfg_valid");
    let _ = writeln!(out, ");\n");

    // One wire bundle per edge.
    for edge in adg.edges() {
        let _ = writeln!(
            out,
            "  wire [{}:0] w_{} /* {} -> {} */;",
            edge.width.bits() - 1,
            edge.id(),
            edge.src,
            edge.dst
        );
    }
    let _ = writeln!(out);

    // One instance per node.
    for node in adg.nodes() {
        let name = node
            .label
            .clone()
            .unwrap_or_else(|| format!("u_{}", node.id()));
        let ins: Vec<String> = adg
            .in_edges(node.id())
            .map(|e| format!("w_{}", e.id()))
            .collect();
        let outs: Vec<String> = adg
            .out_edges(node.id())
            .map(|e| format!("w_{}", e.id()))
            .collect();
        match &node.kind {
            NodeKind::Pe(pe) => {
                let _ = writeln!(
                    out,
                    "  dsagen_pe #(.WIDTH({}), .SLOTS({}), .DYNAMIC({}), .STREAM_JOIN({}), .N_IN({}), .N_OUT({})) {} (",
                    pe.bitwidth.bits(),
                    pe.sharing.instruction_slots(),
                    u8::from(pe.scheduling.is_dynamic()),
                    u8::from(pe.supports_stream_join()),
                    ins.len().max(1),
                    outs.len().max(1),
                    sanitize(&name)
                );
                emit_ports(&mut out, &ins, &outs);
            }
            NodeKind::Switch(sw) => {
                let _ = writeln!(
                    out,
                    "  dsagen_switch #(.WIDTH({}), .N_IN({}), .N_OUT({}), .LANES({}), .FLOP({})) {} (",
                    sw.bitwidth.bits(),
                    ins.len().max(1),
                    outs.len().max(1),
                    sw.lanes(),
                    u8::from(sw.flop_output),
                    sanitize(&name)
                );
                emit_ports(&mut out, &ins, &outs);
            }
            NodeKind::Delay(d) => {
                let _ = writeln!(
                    out,
                    "  dsagen_delay #(.WIDTH({}), .DEPTH({})) {} (",
                    d.bitwidth.bits(),
                    d.depth,
                    sanitize(&name)
                );
                emit_ports(&mut out, &ins, &outs);
            }
            NodeKind::Sync(sy) => {
                let _ = writeln!(
                    out,
                    "  dsagen_sync #(.WIDTH({}), .DEPTH({}), .LANES({})) {} (",
                    sy.bitwidth.bits(),
                    sy.depth,
                    sy.lanes,
                    sanitize(&name)
                );
                emit_ports(&mut out, &ins, &outs);
            }
            NodeKind::Memory(m) => {
                let _ = writeln!(
                    out,
                    "  dsagen_memory #(.BYTES({}), .WIDTH_B({}), .BANKS({}), .STREAMS({}), .INDIRECT({}), .ATOMIC({})) {} (",
                    if m.capacity_bytes == u64::MAX { 0 } else { m.capacity_bytes },
                    m.width_bytes,
                    m.banks,
                    m.num_streams,
                    u8::from(m.controllers.indirect),
                    u8::from(m.controllers.atomic_update),
                    sanitize(&name)
                );
                emit_ports(&mut out, &ins, &outs);
            }
            NodeKind::Control(_) => {
                let _ = writeln!(out, "  dsagen_ctrl {} (", sanitize(&name));
                emit_ports(&mut out, &ins, &outs);
            }
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn emit_ports(out: &mut String, ins: &[String], outs: &[String]) {
    let _ = writeln!(out, "    .clk(clk), .rst(rst),");
    let _ = writeln!(out, "    .cfg_word(cfg_word), .cfg_valid(cfg_valid),");
    let _ = writeln!(out, "    .in_bus({{{}}}),", join_or_zero(ins));
    let _ = writeln!(out, "    .out_bus({{{}}})", join_or_zero(outs));
    let _ = writeln!(out, "  );\n");
}

fn join_or_zero(wires: &[String]) -> String {
    if wires.is_empty() {
        "64'b0".to_string()
    } else {
        wires.join(", ")
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn emit_leaf_modules(out: &mut String) {
    // Behavioural leaf stubs so the netlist elaborates standalone.
    let leaves = [
        (
            "dsagen_pe",
            "WIDTH=64, SLOTS=1, DYNAMIC=0, STREAM_JOIN=0, N_IN=1, N_OUT=1",
        ),
        (
            "dsagen_switch",
            "WIDTH=64, N_IN=1, N_OUT=1, LANES=1, FLOP=1",
        ),
        ("dsagen_delay", "WIDTH=64, DEPTH=4"),
        ("dsagen_sync", "WIDTH=64, DEPTH=8, LANES=1"),
        (
            "dsagen_memory",
            "BYTES=16384, WIDTH_B=64, BANKS=1, STREAMS=8, INDIRECT=0, ATOMIC=0",
        ),
    ];
    for (name, params) in leaves {
        let plist: String = params
            .split(", ")
            .map(|kv| format!("  parameter {kv}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let _ = writeln!(out, "module {name} #(\n{plist}\n) (");
        let _ = writeln!(out, "  input  wire clk,");
        let _ = writeln!(out, "  input  wire rst,");
        let _ = writeln!(out, "  input  wire [63:0] cfg_word,");
        let _ = writeln!(out, "  input  wire cfg_valid,");
        let _ = writeln!(out, "  input  wire [1023:0] in_bus,");
        let _ = writeln!(out, "  output wire [1023:0] out_bus");
        let _ = writeln!(out, ");");
        let _ = writeln!(out, "  // behavioural body elided; see dsagen-sim");
        let _ = writeln!(out, "  assign out_bus = in_bus;");
        let _ = writeln!(out, "endmodule\n");
    }
    let _ = writeln!(out, "module dsagen_ctrl (");
    let _ = writeln!(out, "  input  wire clk,");
    let _ = writeln!(out, "  input  wire rst,");
    let _ = writeln!(out, "  input  wire [63:0] cfg_word,");
    let _ = writeln!(out, "  input  wire cfg_valid,");
    let _ = writeln!(out, "  input  wire [1023:0] in_bus,");
    let _ = writeln!(out, "  output wire [1023:0] out_bus");
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "  assign out_bus = 1024'b0;");
    let _ = writeln!(out, "endmodule\n");
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;

    use super::*;

    #[test]
    fn top_instantiates_every_node() {
        let adg = presets::softbrain();
        let v = emit_verilog(&adg);
        assert!(v.contains("module dsagen_top"));
        for node in adg.nodes() {
            if let Some(label) = &node.label {
                assert!(v.contains(&sanitize(label)), "missing instance {label}");
            }
        }
    }

    #[test]
    fn wires_match_edges() {
        let adg = presets::cca();
        let v = emit_verilog(&adg);
        for edge in adg.edges() {
            assert!(
                v.contains(&format!("w_{}", edge.id())),
                "missing wire {}",
                edge.id()
            );
        }
    }

    #[test]
    fn parameters_reflect_specs() {
        let adg = presets::spu();
        let v = emit_verilog(&adg);
        // SPU PEs are dynamic with stream-join.
        assert!(v.contains(".DYNAMIC(1)"));
        assert!(v.contains(".STREAM_JOIN(1)"));
        // Banked scratchpad with indirect + atomic controllers.
        assert!(v.contains(".BANKS(8)"));
        assert!(v.contains(".INDIRECT(1)"));
        assert!(v.contains(".ATOMIC(1)"));
    }

    #[test]
    fn balanced_module_endmodule() {
        let v = emit_verilog(&presets::revel());
        assert_eq!(
            v.matches("module ").count() - v.matches("endmodule").count(),
            0
        );
    }
}
