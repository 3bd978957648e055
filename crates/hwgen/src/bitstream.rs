//! Bitstream encoding (§VI "Bitstream Encoding").
//!
//! Each component has local configuration registers: a switch's bitstream
//! encodes routing, a PE's encodes instruction opcodes, execution timing
//! (static PEs), and instruction tags (shared PEs); a sync element's
//! encodes delay/grouping. This module encodes a [`Schedule`] into 64-bit
//! configuration words addressed to components, and decodes them back
//! (roundtrip-tested).

use std::collections::BTreeMap;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use dsagen_adg::{NodeId, NodeKind, Opcode};
use dsagen_scheduler::{EntityKind, Problem, Schedule};

/// Why a word stream failed to parse back into a [`Bitstream`].
///
/// Every variant carries the index of the offending word plus enough
/// expected/got context to localize the corruption without a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BitstreamError {
    /// A component header announced more payload words than remain in the
    /// stream.
    TruncatedPayload {
        /// Index of the header word.
        word_index: usize,
        /// The component the header addresses.
        node: NodeId,
        /// Payload words the header announced.
        expected: usize,
        /// Payload words actually remaining.
        remaining: usize,
    },
    /// A header carried a component-kind field outside the encodable
    /// range (1 = PE, 2 = switch, 3 = sync).
    UnknownComponentKind {
        /// Index of the header word.
        word_index: usize,
        /// The out-of-range kind field.
        kind: u8,
    },
    /// A payload word carried an unknown type tag in its low nibble.
    UnknownPayloadTag {
        /// Index of the payload word.
        word_index: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// An instruction word carried an opcode discriminant that decodes to
    /// no [`Opcode`] (only raised by [`Bitstream::decode`], which resolves
    /// opcodes; [`Bitstream::from_words`] keeps raw discriminants).
    UnknownOpcode {
        /// Index of the instruction word.
        word_index: usize,
        /// The component the instruction configures.
        node: NodeId,
        /// The unresolvable discriminant.
        discriminant: u8,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::TruncatedPayload {
                word_index,
                node,
                expected,
                remaining,
            } => write!(
                f,
                "word {word_index}: truncated payload for {node} (expected {expected} words, {remaining} remain)"
            ),
            BitstreamError::UnknownComponentKind { word_index, kind } => {
                write!(f, "word {word_index}: unknown component kind {kind}")
            }
            BitstreamError::UnknownPayloadTag { word_index, tag } => {
                write!(f, "word {word_index}: unknown payload tag {tag:#x}")
            }
            BitstreamError::UnknownOpcode {
                word_index,
                node,
                discriminant,
            } => write!(
                f,
                "word {word_index}: opcode discriminant {discriminant} of {node} resolves to no Opcode"
            ),
        }
    }
}

impl std::error::Error for BitstreamError {}

/// One PE instruction-slot configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrConfig {
    /// Opcode discriminant.
    pub opcode: u8,
    /// Input-port index at the PE for each operand (0xFF = unrouted /
    /// constant operand).
    pub operands: [u8; 3],
    /// Static-PE execution timing filler (delay before fire).
    pub delay: u8,
    /// Instruction tag (shared PEs).
    pub tag: u8,
}

/// One switch route configuration: input port → output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteConfig {
    /// Input port index at the switch.
    pub in_port: u8,
    /// Output port index at the switch.
    pub out_port: u8,
}

/// One sync-element configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// Vector lanes grouped by the ready logic.
    pub lanes: u8,
    /// FIFO fire-delay cycles.
    pub delay: u16,
    /// Port-group id (region × port), for coordinated firing.
    pub group: u8,
}

/// Decoded configuration of one component.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeConfig {
    /// PE instruction slots.
    pub instrs: Vec<InstrConfig>,
    /// Switch routes.
    pub routes: Vec<RouteConfig>,
    /// Sync configuration.
    pub sync: Option<SyncConfig>,
}

/// A complete bitstream: per-component configuration words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitstream {
    /// Configuration per node, in node-id order.
    pub configs: BTreeMap<NodeId, NodeConfig>,
}

const KIND_PE: u64 = 1;
const KIND_SWITCH: u64 = 2;
const KIND_SYNC: u64 = 3;

impl Bitstream {
    /// Encodes a schedule into per-component configuration, programming
    /// each static-PE instruction's balancing delay from the schedule's
    /// operand-arrival spread (§VI: a PE's bitstream encodes "execution
    /// timing (for static PEs only)").
    #[must_use]
    pub fn encode_with_timing(
        problem: &Problem<'_>,
        schedule: &Schedule,
        eval: &dsagen_scheduler::Evaluation,
    ) -> Bitstream {
        let mut bs = Bitstream::encode(problem, schedule);
        // Walk op entities again in the same order encode() did, so the
        // i-th instruction of each node lines up with its config slot.
        let mut slot_cursor: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (i, entity) in problem.entities.iter().enumerate() {
            let Some(node) = schedule.placement[i] else {
                continue;
            };
            if !matches!(entity.kind, EntityKind::Op { .. }) {
                continue;
            }
            let slot = *slot_cursor
                .entry(node)
                .and_modify(|s| *s += 1)
                .or_insert(0);
            let is_static = matches!(
                problem.adg.kind(node),
                Ok(NodeKind::Pe(pe)) if pe.scheduling == dsagen_adg::Scheduling::Static
            );
            if !is_static {
                continue;
            }
            let delay = eval
                .operand_spread
                .get(i)
                .copied()
                .unwrap_or(0.0)
                .clamp(0.0, 255.0) as u8;
            if let Some(cfg) = bs.configs.get_mut(&node) {
                if let Some(instr) = cfg.instrs.get_mut(slot) {
                    instr.delay = delay;
                }
            }
        }
        bs
    }

    /// Encodes a schedule into per-component configuration.
    #[must_use]
    pub fn encode(problem: &Problem<'_>, schedule: &Schedule) -> Bitstream {
        let adg = problem.adg;
        let mut configs: BTreeMap<NodeId, NodeConfig> = BTreeMap::new();

        // PE instructions.
        for (i, entity) in problem.entities.iter().enumerate() {
            let Some(node) = schedule.placement[i] else {
                continue;
            };
            match entity.kind {
                EntityKind::Op { .. } => {
                    let mut operands = [0xFFu8; 3];
                    for (ei, vedge) in problem.edges.iter().enumerate() {
                        if vedge.dst != i || vedge.operand >= 3 {
                            continue;
                        }
                        if let Some(path) = schedule.routes.get(&ei) {
                            if let Some(last) = path.last() {
                                if let Some(port) = adg.input_port_of(*last) {
                                    operands[vedge.operand] = port.min(254) as u8;
                                }
                            }
                        }
                    }
                    let opcode = entity.opcode.map_or(0u8, |oc| oc as u8);
                    let tag = configs
                        .get(&node)
                        .map_or(0, |c| c.instrs.len().min(255)) as u8;
                    configs.entry(node).or_default().instrs.push(InstrConfig {
                        opcode,
                        operands,
                        delay: 0,
                        tag,
                    });
                }
                EntityKind::InPort { region, port } | EntityKind::OutPort { region, port } => {
                    let lanes = entity.lanes.min(255) as u8;
                    let group = ((region * 16 + port) % 256) as u8;
                    let delay = match adg.kind(node) {
                        Ok(NodeKind::Sync(sy)) => sy.depth.min(4096),
                        _ => 0,
                    };
                    configs.entry(node).or_default().sync = Some(SyncConfig {
                        lanes,
                        delay,
                        group,
                    });
                }
            }
        }

        // Switch routes: walk every routed path and record in→out port
        // mappings at each intermediate node.
        for path in schedule.routes.values() {
            for pair in path.windows(2) {
                let (e_in, e_out) = (pair[0], pair[1]);
                let Some(edge_in) = adg.edge(e_in) else { continue };
                let node = edge_in.dst;
                if !matches!(adg.kind(node), Ok(NodeKind::Switch(_))) {
                    continue;
                }
                let (Some(ip), Some(op)) =
                    (adg.input_port_of(e_in), adg.output_port_of(e_out))
                else {
                    continue;
                };
                let rc = RouteConfig {
                    in_port: ip.min(254) as u8,
                    out_port: op.min(254) as u8,
                };
                let cfg = configs.entry(node).or_default();
                if !cfg.routes.contains(&rc) {
                    cfg.routes.push(rc);
                }
            }
        }
        Bitstream { configs }
    }

    /// Serializes into 64-bit words: a header word per component followed
    /// by its payload words. The header carries the destination id so
    /// "the component can identify relevant configuration data to keep and
    /// non-relevant data to forward" (§VI).
    #[must_use]
    pub fn to_words(&self) -> Vec<u64> {
        let mut words = Vec::new();
        for (node, cfg) in &self.configs {
            let payload = cfg.instrs.len() + cfg.routes.len() + usize::from(cfg.sync.is_some());
            let kind = if !cfg.instrs.is_empty() {
                KIND_PE
            } else if !cfg.routes.is_empty() {
                KIND_SWITCH
            } else {
                KIND_SYNC
            };
            words.push(
                ((node.index() as u64) << 48) | (kind << 45) | ((payload as u64 & 0xFF) << 37),
            );
            for i in &cfg.instrs {
                words.push(
                    (u64::from(i.opcode) << 56)
                        | (u64::from(i.operands[0]) << 48)
                        | (u64::from(i.operands[1]) << 40)
                        | (u64::from(i.operands[2]) << 32)
                        | (u64::from(i.delay) << 24)
                        | (u64::from(i.tag) << 16)
                        | 0x1,
                );
            }
            for r in &cfg.routes {
                words.push((u64::from(r.in_port) << 56) | (u64::from(r.out_port) << 48) | 0x2);
            }
            if let Some(s) = cfg.sync {
                words.push(
                    (u64::from(s.lanes) << 56)
                        | (u64::from(s.delay) << 40)
                        | (u64::from(s.group) << 32)
                        | 0x3,
                );
            }
        }
        words
    }

    /// Parses words back into per-component configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`BitstreamError`] locating the first malformed
    /// word (index, component, expected/got context).
    pub fn from_words(words: &[u64]) -> Result<Bitstream, BitstreamError> {
        let mut configs: BTreeMap<NodeId, NodeConfig> = BTreeMap::new();
        let mut i = 0usize;
        while i < words.len() {
            let header_index = i;
            let header = words[i];
            i += 1;
            let node = NodeId::from_index((header >> 48) as usize);
            let kind = ((header >> 45) & 0x7) as u8;
            if !(1..=3).contains(&kind) {
                return Err(BitstreamError::UnknownComponentKind {
                    word_index: header_index,
                    kind,
                });
            }
            let payload = ((header >> 37) & 0xFF) as usize;
            if i + payload > words.len() {
                return Err(BitstreamError::TruncatedPayload {
                    word_index: header_index,
                    node,
                    expected: payload,
                    remaining: words.len() - i,
                });
            }
            let cfg = configs.entry(node).or_default();
            for (off, w) in words[i..i + payload].iter().enumerate() {
                match w & 0xF {
                    0x1 => cfg.instrs.push(InstrConfig {
                        opcode: (w >> 56) as u8,
                        operands: [(w >> 48) as u8, (w >> 40) as u8, (w >> 32) as u8],
                        delay: (w >> 24) as u8,
                        tag: (w >> 16) as u8,
                    }),
                    0x2 => cfg.routes.push(RouteConfig {
                        in_port: (w >> 56) as u8,
                        out_port: (w >> 48) as u8,
                    }),
                    0x3 => {
                        cfg.sync = Some(SyncConfig {
                            lanes: (w >> 56) as u8,
                            delay: ((w >> 40) & 0xFFFF) as u16,
                            group: (w >> 32) as u8,
                        });
                    }
                    tag => {
                        return Err(BitstreamError::UnknownPayloadTag {
                            word_index: i + off,
                            tag: tag as u8,
                        })
                    }
                }
            }
            i += payload;
        }
        Ok(Bitstream { configs })
    }

    /// Fully decodes a word stream into a [`DecodedConfig`]: per-node
    /// resolved opcodes, routes, and stream/sync parameters.
    ///
    /// Stricter than [`Bitstream::from_words`]: every instruction word's
    /// opcode discriminant must resolve to a real [`Opcode`].
    ///
    /// # Errors
    ///
    /// Any [`BitstreamError`], including [`BitstreamError::UnknownOpcode`]
    /// with word-index and node context.
    pub fn decode(words: &[u64]) -> Result<DecodedConfig, BitstreamError> {
        let mut nodes: BTreeMap<NodeId, DecodedNode> = BTreeMap::new();
        let mut i = 0usize;
        while i < words.len() {
            let header_index = i;
            let header = words[i];
            i += 1;
            let node = NodeId::from_index((header >> 48) as usize);
            let kind = ((header >> 45) & 0x7) as u8;
            let class = match kind {
                1 => ComponentClass::Pe,
                2 => ComponentClass::Switch,
                3 => ComponentClass::Sync,
                _ => {
                    return Err(BitstreamError::UnknownComponentKind {
                        word_index: header_index,
                        kind,
                    })
                }
            };
            let payload = ((header >> 37) & 0xFF) as usize;
            if i + payload > words.len() {
                return Err(BitstreamError::TruncatedPayload {
                    word_index: header_index,
                    node,
                    expected: payload,
                    remaining: words.len() - i,
                });
            }
            let entry = nodes.entry(node).or_insert_with(|| DecodedNode {
                class,
                instrs: Vec::new(),
                routes: Vec::new(),
                sync: None,
            });
            for (off, w) in words[i..i + payload].iter().enumerate() {
                let word_index = i + off;
                match w & 0xF {
                    0x1 => {
                        let discriminant = (w >> 56) as u8;
                        let opcode = Bitstream::opcode_of(discriminant).ok_or(
                            BitstreamError::UnknownOpcode {
                                word_index,
                                node,
                                discriminant,
                            },
                        )?;
                        entry.instrs.push(DecodedInstr {
                            opcode,
                            operands: [(w >> 48) as u8, (w >> 40) as u8, (w >> 32) as u8],
                            delay: (w >> 24) as u8,
                            tag: (w >> 16) as u8,
                        });
                    }
                    0x2 => entry.routes.push(RouteConfig {
                        in_port: (w >> 56) as u8,
                        out_port: (w >> 48) as u8,
                    }),
                    0x3 => {
                        entry.sync = Some(SyncConfig {
                            lanes: (w >> 56) as u8,
                            delay: ((w >> 40) & 0xFFFF) as u16,
                            group: (w >> 32) as u8,
                        });
                    }
                    tag => {
                        return Err(BitstreamError::UnknownPayloadTag {
                            word_index,
                            tag: tag as u8,
                        })
                    }
                }
            }
            i += payload;
        }
        Ok(DecodedConfig { nodes })
    }

    /// The owning component of every word [`Bitstream::to_words`] emits,
    /// by word index (headers included). Lets config-path delivery map a
    /// lost or corrupted word back to the node it was configuring.
    #[must_use]
    pub fn word_owners(&self) -> Vec<NodeId> {
        let mut owners = Vec::new();
        for (node, cfg) in &self.configs {
            let payload = cfg.instrs.len() + cfg.routes.len() + usize::from(cfg.sync.is_some());
            for _ in 0..=payload {
                owners.push(*node);
            }
        }
        owners
    }

    /// Serializes to a byte buffer (big-endian words) for transport.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        let words = self.to_words();
        let mut buf = BytesMut::with_capacity(words.len() * 8);
        for w in words {
            buf.put_u64(w);
        }
        buf.freeze()
    }

    /// Total configuration words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.to_words().len()
    }

    /// Opcode the discriminant decodes to, if valid.
    #[must_use]
    pub fn opcode_of(discriminant: u8) -> Option<Opcode> {
        Opcode::ALL
            .into_iter()
            .find(|op| *op as u8 == discriminant)
    }
}

/// Which class of component a decoded header addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentClass {
    /// A processing element (instruction slots).
    Pe,
    /// A switch (routing table).
    Switch,
    /// A synchronization element (stream parameters).
    Sync,
}

/// One fully decoded instruction slot: the raw discriminant resolved to a
/// real [`Opcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The resolved opcode.
    pub opcode: Opcode,
    /// Input-port index per operand (0xFF = unrouted / constant).
    pub operands: [u8; 3],
    /// Static-PE balancing delay.
    pub delay: u8,
    /// Instruction tag (shared PEs).
    pub tag: u8,
}

/// One component's fully decoded configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedNode {
    /// What the header said this component is.
    pub class: ComponentClass,
    /// Decoded PE instruction slots (opcodes resolved).
    pub instrs: Vec<DecodedInstr>,
    /// Switch routes.
    pub routes: Vec<RouteConfig>,
    /// Sync/stream parameters.
    pub sync: Option<SyncConfig>,
}

/// A machine-checked decode of a configuration word stream: per-node
/// opcodes, routes, and stream parameters (see [`Bitstream::decode`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedConfig {
    /// Decoded configuration per component, in node-id order.
    pub nodes: BTreeMap<NodeId, DecodedNode>,
}

impl DecodedConfig {
    /// Every [`Opcode`] programmed anywhere in the fabric.
    #[must_use]
    pub fn opcodes(&self) -> Vec<Opcode> {
        let mut ops: Vec<Opcode> = self
            .nodes
            .values()
            .flat_map(|n| n.instrs.iter().map(|i| i.opcode))
            .collect();
        ops.sort_by_key(|op| *op as u8);
        ops.dedup();
        ops
    }

    /// Total decoded instruction slots.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.nodes.values().map(|n| n.instrs.len()).sum()
    }

    /// Total decoded switch routes.
    #[must_use]
    pub fn route_count(&self) -> usize {
        self.nodes.values().map(|n| n.routes.len()).sum()
    }
}

/// Why a bitstream round-trip verification failed: either the word stream
/// would not decode at all, or encode∘decode was not the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The emitted words failed to decode.
    Decode(BitstreamError),
    /// The decoded configuration disagrees with the encoded one at `node`.
    ConfigMismatch {
        /// First component whose decoded config differs.
        node: NodeId,
    },
    /// Re-encoding the decoded configuration was not bit-identical.
    ReencodeMismatch {
        /// First differing word index.
        word_index: usize,
        /// The originally emitted word.
        expected: u64,
        /// The re-encoded word.
        got: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Decode(e) => write!(f, "emitted words failed to decode: {e}"),
            VerifyError::ConfigMismatch { node } => {
                write!(f, "decoded configuration of {node} disagrees with the encoder")
            }
            VerifyError::ReencodeMismatch {
                word_index,
                expected,
                got,
            } => write!(
                f,
                "re-encode diverges at word {word_index}: expected {expected:#018x}, got {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BitstreamError> for VerifyError {
    fn from(e: BitstreamError) -> Self {
        VerifyError::Decode(e)
    }
}

/// A stable FNV-1a digest of a schedule's placements and routes — the
/// identity a [`VerifiedConfig`] is bound to.
#[must_use]
pub fn schedule_digest(schedule: &Schedule) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for slot in &schedule.placement {
        match slot {
            Some(n) => mix(1 + n.index() as u64),
            None => mix(0),
        }
    }
    mix(u64::MAX); // placement/routes separator
    for (vedge, path) in &schedule.routes {
        mix(*vedge as u64);
        mix(path.len() as u64);
        for e in path {
            mix(e.index() as u64);
        }
    }
    h
}

/// Proof that a configuration survived the encode∘decode identity check:
/// the only token [`verify_round_trip`] mints, and the only form of
/// configuration the simulator accepts for a verified run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedConfig {
    bitstream: Bitstream,
    decoded: DecodedConfig,
    words: Vec<u64>,
    schedule_digest: u64,
}

impl VerifiedConfig {
    /// The verified per-component configuration.
    #[must_use]
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
    }

    /// The fully decoded view (opcodes resolved).
    #[must_use]
    pub fn decoded(&self) -> &DecodedConfig {
        &self.decoded
    }

    /// The verified word stream.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of configuration words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Digest of the schedule this configuration was verified against.
    #[must_use]
    pub fn schedule_digest(&self) -> u64 {
        self.schedule_digest
    }

    /// Whether this verified configuration was minted for `schedule`.
    #[must_use]
    pub fn matches(&self, schedule: &Schedule) -> bool {
        self.schedule_digest == schedule_digest(schedule)
    }
}

/// Proves encode∘decode is the identity for `schedule` on `problem`:
/// encodes the schedule, serializes to words, decodes the words, demands
/// the decoded configuration equal the encoded one, re-encodes it and
/// demands bit-identical words, and fully resolves every opcode.
///
/// # Errors
///
/// A typed [`VerifyError`] if any step disagrees — an encoder/decoder
/// bug surfaces here as a first-class rejection instead of an undefined
/// simulation downstream.
pub fn verify_round_trip(
    problem: &Problem<'_>,
    schedule: &Schedule,
) -> Result<VerifiedConfig, VerifyError> {
    let bitstream = Bitstream::encode(problem, schedule);
    verify_bitstream(&bitstream, schedule)
}

/// [`verify_round_trip`] for a timing-annotated encode (static-PE
/// balancing delays from `eval`; see [`Bitstream::encode_with_timing`]).
///
/// # Errors
///
/// Same contract as [`verify_round_trip`].
pub fn verify_round_trip_timed(
    problem: &Problem<'_>,
    schedule: &Schedule,
    eval: &dsagen_scheduler::Evaluation,
) -> Result<VerifiedConfig, VerifyError> {
    let bitstream = Bitstream::encode_with_timing(problem, schedule, eval);
    verify_bitstream(&bitstream, schedule)
}

/// Shared verification core: words → decode → compare → re-encode →
/// compare → full opcode-resolving decode.
fn verify_bitstream(
    bitstream: &Bitstream,
    schedule: &Schedule,
) -> Result<VerifiedConfig, VerifyError> {
    let words = bitstream.to_words();
    let round = Bitstream::from_words(&words)?;
    if round != *bitstream {
        let node = bitstream
            .configs
            .iter()
            .find(|(n, cfg)| round.configs.get(n) != Some(cfg))
            .map(|(n, _)| *n)
            .or_else(|| {
                round
                    .configs
                    .keys()
                    .find(|n| !bitstream.configs.contains_key(n))
                    .copied()
            })
            .unwrap_or_else(|| NodeId::from_index(0));
        return Err(VerifyError::ConfigMismatch { node });
    }
    let reencoded = round.to_words();
    if reencoded != words {
        let word_index = words
            .iter()
            .zip(&reencoded)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| words.len().min(reencoded.len()));
        return Err(VerifyError::ReencodeMismatch {
            word_index,
            expected: words.get(word_index).copied().unwrap_or(0),
            got: reencoded.get(word_index).copied().unwrap_or(0),
        });
    }
    let decoded = Bitstream::decode(&words)?;
    Ok(VerifiedConfig {
        bitstream: bitstream.clone(),
        decoded,
        words,
        schedule_digest: schedule_digest(schedule),
    })
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::{schedule, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;

    use super::*;

    fn scheduled() -> (dsagen_adg::Adg, dsagen_dfg::CompiledKernel, Schedule) {
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 256, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(256), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let m = r.bin(Opcode::Mul, va, vb);
        let s = r.bin(Opcode::Add, m, vb);
        r.store(c, AffineExpr::var(i), s);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let res = schedule(
            &adg,
            &ck,
            &Start::Empty,
            &SchedulerConfig::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(res.is_legal());
        (adg, ck, res.schedule)
    }

    #[test]
    fn encode_covers_used_components() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        // Two compute ops → at least one PE config with 2 instrs total.
        let instr_total: usize = bs.configs.values().map(|c| c.instrs.len()).sum();
        assert_eq!(instr_total, 2);
        // Some switches carry routes.
        assert!(bs.configs.values().any(|c| !c.routes.is_empty()));
        // Ports have sync configs.
        assert!(bs.configs.values().any(|c| c.sync.is_some()));
    }

    #[test]
    fn words_roundtrip() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        let words = bs.to_words();
        let decoded = Bitstream::from_words(&words).unwrap();
        assert_eq!(bs, decoded);
    }

    #[test]
    fn bytes_are_word_aligned() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        assert_eq!(bs.to_bytes().len(), bs.word_count() * 8);
    }

    #[test]
    fn truncated_words_error() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let words = Bitstream::encode(&problem, &sched).to_words();
        assert!(Bitstream::from_words(&words[..words.len() - 1]).is_err());
    }

    #[test]
    fn opcode_discriminants_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Bitstream::opcode_of(op as u8), Some(op));
        }
        assert_eq!(Bitstream::opcode_of(200), None);
    }

    #[test]
    fn timing_encode_programs_static_delays() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        // Re-evaluate to obtain timing facts.
        let eval = dsagen_scheduler::evaluate(
            &problem,
            &sched,
            &dsagen_scheduler::Weights::default(),
        );
        let bs = Bitstream::encode_with_timing(&problem, &sched, &eval);
        // The axpy add consumes the mul result and a port value — their
        // arrival times differ, so at least one static instruction carries
        // a nonzero balancing delay.
        let any_delay = bs
            .configs
            .values()
            .flat_map(|c| c.instrs.iter())
            .any(|i| i.delay > 0);
        assert!(any_delay, "expected a nonzero balancing delay");
        // And the result still roundtrips.
        let decoded = Bitstream::from_words(&bs.to_words()).unwrap();
        assert_eq!(bs, decoded);
    }

    #[test]
    fn truncated_words_error_is_typed() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let words = Bitstream::encode(&problem, &sched).to_words();
        match Bitstream::from_words(&words[..words.len() - 1]) {
            Err(BitstreamError::TruncatedPayload {
                expected,
                remaining,
                ..
            }) => assert_eq!(remaining + 1, expected),
            other => panic!("expected TruncatedPayload, got {other:?}"),
        }
    }

    #[test]
    fn decode_resolves_every_opcode() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        let decoded = Bitstream::decode(&bs.to_words()).expect("decodes");
        assert_eq!(decoded.instr_count(), 2);
        let ops = decoded.opcodes();
        assert!(ops.contains(&Opcode::Mul) && ops.contains(&Opcode::Add), "{ops:?}");
        assert!(decoded.route_count() > 0);
        // Classes line up with payload content.
        for node in decoded.nodes.values() {
            if !node.instrs.is_empty() {
                assert_eq!(node.class, ComponentClass::Pe);
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_opcode_with_context() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let mut words = Bitstream::encode(&problem, &sched).to_words();
        // Overwrite the first instruction word's opcode with an invalid
        // discriminant, leaving the payload tag intact.
        let idx = words
            .iter()
            .position(|w| w & 0xF == 0x1)
            .expect("an instruction word exists");
        words[idx] = (words[idx] & !(0xFFu64 << 56)) | (0xEEu64 << 56);
        match Bitstream::decode(&words) {
            Err(BitstreamError::UnknownOpcode {
                word_index,
                discriminant,
                ..
            }) => {
                assert_eq!(word_index, idx);
                assert_eq!(discriminant, 0xEE);
            }
            other => panic!("expected UnknownOpcode, got {other:?}"),
        }
    }

    #[test]
    fn word_owners_parallel_to_words() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        let owners = bs.word_owners();
        assert_eq!(owners.len(), bs.word_count());
        // Every configured node owns at least its header word.
        for node in bs.configs.keys() {
            assert!(owners.contains(node));
        }
    }

    #[test]
    fn round_trip_verification_mints_a_matching_token() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let vc = verify_round_trip(&problem, &sched).expect("identity holds");
        assert!(vc.matches(&sched));
        assert_eq!(vc.word_count(), vc.bitstream().word_count());
        assert_eq!(vc.decoded().instr_count(), 2);
        // A different schedule does not match the token.
        let mut other = sched.clone();
        other.placement.push(None);
        assert!(!vc.matches(&other));
    }

    #[test]
    fn timed_verification_also_holds() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let eval = dsagen_scheduler::evaluate(
            &problem,
            &sched,
            &dsagen_scheduler::Weights::default(),
        );
        let vc = verify_round_trip_timed(&problem, &sched, &eval).expect("identity holds");
        assert!(vc.matches(&sched));
    }

    #[test]
    fn schedule_digest_is_stable_and_discriminating() {
        let (_, _, sched) = scheduled();
        assert_eq!(schedule_digest(&sched), schedule_digest(&sched));
        let mut other = sched.clone();
        if let Some(slot) = other.placement.iter_mut().find(|s| s.is_some()) {
            *slot = None;
        }
        assert_ne!(schedule_digest(&sched), schedule_digest(&other));
    }

    #[test]
    fn operand_ports_recorded() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let bs = Bitstream::encode(&problem, &sched);
        // Every instruction has at least one routed operand.
        for cfg in bs.configs.values() {
            for i in &cfg.instrs {
                assert!(
                    i.operands.iter().any(|p| *p != 0xFF),
                    "instruction with no routed operands"
                );
            }
        }
    }
}
