//! A line-oriented textual format for ADGs.
//!
//! Hardware descriptions want to live in version control and be diffable;
//! this module provides a compact, stable, human-editable format with a
//! strict parser. Node ids are preserved exactly (including tombstoned
//! slots), so schedules and bitstreams referencing a written graph remain
//! valid against its re-parsed twin.
//!
//! ```text
//! adg "softbrain"
//! node n0 ctrl kind=core issue=1 scalar=1
//! node n1 mem kind=main cap=max width=64 streams=16 banks=1 linear
//! node n2 sync depth=16 lanes=4 width=64
//! node n3 pe sched=static share=dedicated width=64 ops=Add,Mul buf=4
//! node n4 switch sched=static share=dedicated width=64 flop
//! node n5 delay depth=4 sched=static width=64
//! label n3 "pe0_0"
//! edge e0 n0 -> n1 width=64
//! ```
//!
//! # Example
//!
//! ```
//! use dsagen_adg::presets;
//! use dsagen_adg::text::{from_text, to_text};
//!
//! let adg = presets::cca();
//! let rendered = to_text(&adg);
//! let parsed = from_text(&rendered)?;
//! assert_eq!(adg, parsed);
//! # Ok::<(), dsagen_adg::text::ParseError>(())
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::{
    Adg, BitWidth, CtrlKind, CtrlSpec, DelaySpec, MemControllers, MemKind, MemSpec, NodeId,
    NodeKind, OpSet, Opcode, PeSpec, Routing, Scheduling, Sharing, SwitchSpec, SyncSpec,
};

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Renders an ADG in the textual format.
#[must_use]
pub fn to_text(adg: &Adg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "adg \"{}\"", adg.name());
    for node in adg.nodes() {
        let _ = write!(out, "node {} ", node.id());
        match &node.kind {
            NodeKind::Control(c) => {
                let kind = match c.kind {
                    CtrlKind::ProgrammableCore => "core",
                    CtrlKind::Fsm => "fsm",
                };
                let _ = write!(
                    out,
                    "ctrl kind={kind} issue={} scalar={}",
                    c.command_issue_cycles, c.scalar_op_cycles
                );
            }
            NodeKind::Memory(m) => {
                let kind = match m.kind {
                    MemKind::MainMemory => "main",
                    MemKind::Scratchpad => "spad",
                };
                let cap = if m.capacity_bytes == u64::MAX {
                    "max".to_string()
                } else {
                    m.capacity_bytes.to_string()
                };
                let _ = write!(
                    out,
                    "mem kind={kind} cap={cap} width={} streams={} banks={}",
                    m.width_bytes, m.num_streams, m.banks
                );
                if m.controllers.linear {
                    let _ = write!(out, " linear");
                }
                if m.controllers.indirect {
                    let _ = write!(out, " indirect");
                }
                if m.controllers.atomic_update {
                    let _ = write!(out, " atomic");
                }
                if m.controllers.coalescing {
                    let _ = write!(out, " coalesce");
                }
            }
            NodeKind::Sync(s) => {
                let _ = write!(
                    out,
                    "sync depth={} lanes={} width={}",
                    s.depth,
                    s.lanes,
                    s.bitwidth.bits()
                );
            }
            NodeKind::Delay(d) => {
                let _ = write!(
                    out,
                    "delay depth={} sched={} width={}",
                    d.depth,
                    sched_str(d.scheduling),
                    d.bitwidth.bits()
                );
            }
            NodeKind::Pe(pe) => {
                let ops: Vec<String> = pe.ops.iter().map(|o| o.to_string()).collect();
                let _ = write!(
                    out,
                    "pe sched={} share={} width={} buf={} ops={}",
                    sched_str(pe.scheduling),
                    share_str(pe.sharing),
                    pe.bitwidth.bits(),
                    pe.input_buffer_depth,
                    ops.join(",")
                );
                if pe.decomposable {
                    let _ = write!(out, " decomp");
                }
                if pe.stream_join {
                    let _ = write!(out, " stream_join");
                }
            }
            NodeKind::Switch(sw) => {
                let _ = write!(
                    out,
                    "switch sched={} share={} width={}",
                    sched_str(sw.scheduling),
                    share_str(sw.sharing),
                    sw.bitwidth.bits()
                );
                if let Some(d) = sw.decompose_to {
                    let _ = write!(out, " decomp_to={}", d.bits());
                }
                let _ = write!(out, " {}", if sw.flop_output { "flop" } else { "noflop" });
                if let Routing::Matrix(_) = sw.routing {
                    // Matrices are not round-trippable in the compact
                    // format; emit as full crossbar with a marker comment.
                    let _ = write!(out, " # routing-matrix elided");
                }
            }
        }
        let _ = writeln!(out);
        if let Some(label) = &node.label {
            let _ = writeln!(out, "label {} \"{}\"", node.id(), label);
        }
    }
    for edge in adg.edges() {
        let _ = writeln!(
            out,
            "edge {} {} -> {} width={}",
            edge.id(),
            edge.src,
            edge.dst,
            edge.width.bits()
        );
    }
    out
}

fn sched_str(s: Scheduling) -> &'static str {
    match s {
        Scheduling::Static => "static",
        Scheduling::Dynamic => "dynamic",
    }
}

fn share_str(s: Sharing) -> String {
    match s {
        Sharing::Dedicated => "dedicated".to_string(),
        Sharing::Shared { max_instructions } => format!("shared{max_instructions}"),
    }
}

/// Parses the textual format back into an [`Adg`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for any syntax or
/// semantic problem (unknown node kind, bad width, dangling edge endpoint,
/// duplicate node id, …).
pub fn from_text(text: &str) -> Result<Adg, ParseError> {
    let mut adg: Option<Adg> = None;
    // Declared nodes by id index, to keep ids stable even with gaps.
    let mut declared: BTreeMap<usize, (NodeKind, Option<String>)> = BTreeMap::new();
    let mut edges: BTreeMap<usize, (usize, usize, u16, usize)> = BTreeMap::new();
    let mut labels: BTreeMap<usize, String> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("adg") => {
                let name = parse_quoted(line, lineno)?;
                adg = Some(Adg::new(name));
            }
            Some("node") => {
                let id = parse_node_id(tokens.next(), lineno)?;
                let kind_tok = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "missing node kind"))?;
                let rest: Vec<&str> = tokens.collect();
                let kind = parse_kind(kind_tok, &rest, lineno)?;
                if declared.insert(id, (kind, None)).is_some() {
                    return Err(err(lineno, format!("duplicate node n{id}")));
                }
            }
            Some("label") => {
                let id = parse_node_id(tokens.next(), lineno)?;
                labels.insert(id, parse_quoted(line, lineno)?);
            }
            Some("edge") => {
                let eid = tokens
                    .next()
                    .and_then(|t| t.strip_prefix('e'))
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| err(lineno, "expected edge id of the form eN"))?;
                let src = parse_node_id(tokens.next(), lineno)?;
                if tokens.next() != Some("->") {
                    return Err(err(lineno, "expected '->' between edge endpoints"));
                }
                let dst = parse_node_id(tokens.next(), lineno)?;
                let width = tokens
                    .next()
                    .and_then(|t| t.strip_prefix("width="))
                    .ok_or_else(|| err(lineno, "missing edge width"))?
                    .parse::<u16>()
                    .map_err(|_| err(lineno, "bad edge width"))?;
                if edges.insert(eid, (src, dst, width, lineno)).is_some() {
                    return Err(err(lineno, format!("duplicate edge e{eid}")));
                }
            }
            Some(other) => return Err(err(lineno, format!("unknown directive '{other}'"))),
            None => {}
        }
    }

    let mut adg = adg.ok_or_else(|| err(1, "missing 'adg \"name\"' header"))?;
    // Materialize nodes with stable ids: fill gaps with tombstones.
    let max_id = declared.keys().copied().max().map_or(0, |m| m + 1);
    let mut added: Vec<Option<NodeId>> = vec![None; max_id];
    for (slot, added_slot) in added.iter_mut().enumerate() {
        match declared.remove(&slot) {
            Some((kind, _)) => {
                let id = adg.add_node(kind);
                debug_assert_eq!(id.index(), slot);
                *added_slot = Some(id);
            }
            None => {
                // Tombstone: add-and-remove to burn the slot.
                let id = adg.add_node(NodeKind::Delay(DelaySpec::new(1)));
                adg.remove_node(id).expect("just added");
            }
        }
    }
    for (slot, label) in labels {
        let id = added
            .get(slot)
            .copied()
            .flatten()
            .ok_or_else(|| err(1, format!("label references unknown node n{slot}")))?;
        if let Some(node) = adg.node_mut(id) {
            node.label = Some(label);
        }
    }
    // Edge slots are stable too: burn the gaps with add-and-remove.
    let max_eid = edges.keys().copied().max().map_or(0, |m| m + 1);
    let burn_src = adg.nodes().next().map(crate::Node::id);
    for slot in 0..max_eid {
        match edges.remove(&slot) {
            Some((src, dst, width, lineno)) => {
                let s =
                    added.get(src).copied().flatten().ok_or_else(|| {
                        err(lineno, format!("edge references unknown node n{src}"))
                    })?;
                let d =
                    added.get(dst).copied().flatten().ok_or_else(|| {
                        err(lineno, format!("edge references unknown node n{dst}"))
                    })?;
                let w = BitWidth::new(width).map_err(|e| err(lineno, e.to_string()))?;
                let eid = adg
                    .add_link_with_width(s, d, w)
                    .map_err(|e| err(lineno, e.to_string()))?;
                debug_assert_eq!(eid.index(), slot);
            }
            None => {
                let Some(n) = burn_src else {
                    return Err(err(1, "edge ids present but graph has no nodes"));
                };
                let eid = adg
                    .add_link_with_width(n, n, BitWidth::B8)
                    .map_err(|e| err(1, e.to_string()))?;
                adg.remove_edge(eid).expect("just added");
            }
        }
    }
    Ok(adg)
}

fn parse_quoted(line: &str, lineno: usize) -> Result<String, ParseError> {
    let start = line
        .find('"')
        .ok_or_else(|| err(lineno, "missing opening quote"))?;
    let end = line
        .rfind('"')
        .filter(|e| *e > start)
        .ok_or_else(|| err(lineno, "missing closing quote"))?;
    Ok(line[start + 1..end].to_string())
}

fn parse_node_id(tok: Option<&str>, lineno: usize) -> Result<usize, ParseError> {
    tok.and_then(|t| t.strip_prefix('n'))
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| err(lineno, "expected node id of the form nN"))
}

/// Key=value and bare-flag attribute bag.
struct Attrs<'a> {
    kv: BTreeMap<&'a str, &'a str>,
    flags: Vec<&'a str>,
}

impl<'a> Attrs<'a> {
    fn parse(tokens: &[&'a str]) -> Attrs<'a> {
        let mut kv = BTreeMap::new();
        let mut flags = Vec::new();
        for t in tokens {
            match t.split_once('=') {
                Some((k, v)) => {
                    kv.insert(k, v);
                }
                None => flags.push(*t),
            }
        }
        Attrs { kv, flags }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, lineno: usize) -> Result<T, ParseError> {
        self.kv
            .get(key)
            .ok_or_else(|| err(lineno, format!("missing attribute '{key}'")))?
            .parse::<T>()
            .map_err(|_| err(lineno, format!("bad value for '{key}'")))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.kv
            .get(key)
            .and_then(|v| v.parse::<T>().ok())
            .unwrap_or(default)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    fn width(&self, lineno: usize) -> Result<BitWidth, ParseError> {
        let bits: u16 = self.get("width", lineno)?;
        BitWidth::new(bits).map_err(|e| err(lineno, e.to_string()))
    }
}

fn parse_sched(s: &str, lineno: usize) -> Result<Scheduling, ParseError> {
    match s {
        "static" => Ok(Scheduling::Static),
        "dynamic" => Ok(Scheduling::Dynamic),
        other => Err(err(lineno, format!("unknown scheduling '{other}'"))),
    }
}

fn parse_share(s: &str, lineno: usize) -> Result<Sharing, ParseError> {
    if s == "dedicated" {
        return Ok(Sharing::Dedicated);
    }
    s.strip_prefix("shared")
        .and_then(|n| n.parse::<u8>().ok())
        .map(|max_instructions| Sharing::Shared { max_instructions })
        .ok_or_else(|| err(lineno, format!("unknown sharing '{s}'")))
}

fn parse_ops(s: &str, lineno: usize) -> Result<OpSet, ParseError> {
    let mut ops = OpSet::new();
    for name in s.split(',').filter(|n| !n.is_empty()) {
        let op = Opcode::ALL
            .into_iter()
            .find(|o| o.to_string() == name)
            .ok_or_else(|| err(lineno, format!("unknown opcode '{name}'")))?;
        ops.insert(op);
    }
    Ok(ops)
}

fn parse_kind(kind: &str, rest: &[&str], lineno: usize) -> Result<NodeKind, ParseError> {
    let a = Attrs::parse(rest);
    match kind {
        "ctrl" => {
            let ck = match *a.kv.get("kind").unwrap_or(&"core") {
                "core" => CtrlKind::ProgrammableCore,
                "fsm" => CtrlKind::Fsm,
                other => return Err(err(lineno, format!("unknown ctrl kind '{other}'"))),
            };
            Ok(NodeKind::Control(CtrlSpec {
                kind: ck,
                command_issue_cycles: a.get_or("issue", 1),
                scalar_op_cycles: a.get_or("scalar", 1),
            }))
        }
        "mem" => {
            let mk = match *a
                .kv
                .get("kind")
                .ok_or_else(|| err(lineno, "missing mem kind"))?
            {
                "main" => MemKind::MainMemory,
                "spad" => MemKind::Scratchpad,
                other => return Err(err(lineno, format!("unknown mem kind '{other}'"))),
            };
            let cap = match *a.kv.get("cap").unwrap_or(&"max") {
                "max" => u64::MAX,
                v => v
                    .parse::<u64>()
                    .map_err(|_| err(lineno, "bad mem capacity"))?,
            };
            Ok(NodeKind::Memory(MemSpec {
                kind: mk,
                capacity_bytes: cap,
                width_bytes: a.get("width", lineno)?,
                num_streams: a.get("streams", lineno)?,
                banks: a.get("banks", lineno)?,
                controllers: MemControllers {
                    linear: a.flag("linear"),
                    indirect: a.flag("indirect"),
                    atomic_update: a.flag("atomic"),
                    coalescing: a.flag("coalesce"),
                },
            }))
        }
        "sync" => Ok(NodeKind::Sync(SyncSpec {
            depth: a.get("depth", lineno)?,
            lanes: a.get("lanes", lineno)?,
            bitwidth: a.width(lineno)?,
        })),
        "delay" => Ok(NodeKind::Delay(DelaySpec {
            depth: a.get("depth", lineno)?,
            scheduling: parse_sched(a.kv.get("sched").unwrap_or(&"static"), lineno)?,
            bitwidth: a.width(lineno)?,
        })),
        "pe" => Ok(NodeKind::Pe(PeSpec {
            scheduling: parse_sched(
                a.kv.get("sched")
                    .ok_or_else(|| err(lineno, "missing pe scheduling"))?,
                lineno,
            )?,
            sharing: parse_share(
                a.kv.get("share")
                    .ok_or_else(|| err(lineno, "missing pe sharing"))?,
                lineno,
            )?,
            ops: parse_ops(a.kv.get("ops").unwrap_or(&""), lineno)?,
            bitwidth: a.width(lineno)?,
            decomposable: a.flag("decomp"),
            stream_join: a.flag("stream_join"),
            input_buffer_depth: a.get_or("buf", 4),
        })),
        "switch" => {
            let decompose_to = match a.kv.get("decomp_to") {
                Some(v) => Some(
                    v.parse::<u16>()
                        .ok()
                        .and_then(|b| BitWidth::new(b).ok())
                        .ok_or_else(|| err(lineno, "bad decomp_to width"))?,
                ),
                None => None,
            };
            Ok(NodeKind::Switch(SwitchSpec {
                scheduling: parse_sched(
                    a.kv.get("sched")
                        .ok_or_else(|| err(lineno, "missing switch scheduling"))?,
                    lineno,
                )?,
                sharing: parse_share(a.kv.get("share").unwrap_or(&"dedicated"), lineno)?,
                bitwidth: a.width(lineno)?,
                decompose_to,
                flop_output: !a.flag("noflop"),
                routing: Routing::FullCrossbar,
            }))
        }
        other => Err(err(lineno, format!("unknown node kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn roundtrip_all_presets() {
        for adg in [
            presets::softbrain(),
            presets::maeri(),
            presets::triggered(),
            presets::spu(),
            presets::revel(),
            presets::cca(),
            presets::diannao_tree(),
            presets::dse_initial(),
        ] {
            let text = to_text(&adg);
            let parsed = from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", adg.name()));
            assert_eq!(adg, parsed, "{} did not roundtrip", adg.name());
        }
    }

    #[test]
    fn roundtrip_preserves_ids_after_removal() {
        let mut adg = presets::cca();
        let victim = adg.pes().nth(1).expect("cca has PEs");
        adg.remove_node(victim).expect("exists");
        let parsed = from_text(&to_text(&adg)).expect("parses");
        assert_eq!(adg, parsed);
        assert!(parsed.node(victim).is_none());
        // Surviving ids resolve to the same components.
        for node in adg.nodes() {
            assert_eq!(parsed.node(node.id()).map(|n| &n.kind), Some(&node.kind));
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("node n0 pe sched=static share=dedicated width=64", 1), // no header
            ("adg \"x\"\nnode n0 frobnicator", 2),
            (
                "adg \"x\"\nnode n0 pe sched=waat share=dedicated width=64",
                2,
            ),
            ("adg \"x\"\nnode n0 sync depth=8 lanes=1 width=63", 2),
            ("adg \"x\"\nedge e0 n0 -> n1 width=64", 2),
            (
                "adg \"x\"\nnode n0 pe sched=static share=dedicated width=64 ops=Zorp",
                2,
            ),
        ];
        for (text, line) in cases {
            let e = from_text(text).expect_err(text);
            assert_eq!(e.line, line, "{text}: {e}");
        }
    }

    #[test]
    fn duplicate_node_rejected() {
        let text = "adg \"x\"\nnode n0 sync depth=8 lanes=1 width=64\nnode n0 sync depth=8 lanes=1 width=64";
        let e = from_text(text).expect_err("duplicate");
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "adg \"x\"  # the name\n\n# a comment\nnode n0 sync depth=8 lanes=2 width=64\n";
        let adg = from_text(text).expect("parses");
        assert_eq!(adg.node_count(), 1);
        assert_eq!(adg.syncs().count(), 1);
    }

    #[test]
    fn labels_roundtrip() {
        let mut adg = Adg::new("l");
        adg.add_labeled(NodeKind::Sync(SyncSpec::new(4)), "my port");
        let parsed = from_text(&to_text(&adg)).expect("parses");
        assert_eq!(
            parsed.nodes().next().and_then(|n| n.label.as_deref()),
            Some("my port")
        );
    }
}
