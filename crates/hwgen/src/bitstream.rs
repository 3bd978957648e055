//! Bitstream encoding (§VI "Bitstream Encoding").
//!
//! Each component has local configuration registers: a switch's bitstream
//! encodes routing, a PE's encodes instruction opcodes, execution timing
//! (static PEs), and instruction tags (shared PEs); a sync element's
//! encodes delay/grouping. This module encodes a [`Schedule`] into 64-bit
//! configuration words addressed to components, and decodes them back.
//! One `const` table per word kind (header, instruction, route, sync) gives
//! every field's shift and width; the encoder and the one decoder both walk
//! it.

use std::collections::BTreeMap;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use dsagen_adg::{NodeId, NodeKind, Opcode, Scheduling};
use dsagen_scheduler::{EntityKind, Evaluation, Problem, Schedule};

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
    /// no [`Opcode`] (only raised by [`verify_round_trip`], which resolves
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

impl NodeConfig {
    /// Payload words this component's header announces.
    fn payload_len(&self) -> usize {
        self.instrs.len() + self.routes.len() + usize::from(self.sync.is_some())
    }
}

/// A complete bitstream: per-component configuration words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitstream {
    /// Configuration per node, in node-id order.
    pub configs: BTreeMap<NodeId, NodeConfig>,
}

/// One field of a configuration word: `width` bits starting at bit `shift`.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// Read only by the table test's failure messages.
    #[cfg_attr(not(test), allow(dead_code))]
    name: &'static str,
    shift: u32,
    width: u32,
}

impl Field {
    const fn new(name: &'static str, shift: u32, width: u32) -> Field {
        Field { name, shift, width }
    }

    /// The largest value the field holds.
    fn max(self) -> u64 {
        u64::MAX >> (64 - self.width)
    }

    fn get(self, word: u64) -> u64 {
        (word >> self.shift) & self.max()
    }

    fn put(self, value: u64) -> u64 {
        (value & self.max()) << self.shift
    }
}

/// The layout of one word kind: its fields, and the value a payload word
/// carries in [`PAYLOAD_TAG`] (a header carries none).
struct Layout<const N: usize> {
    fields: [Field; N],
    tag: Option<u64>,
}

impl<const N: usize> Layout<N> {
    fn pack(&self, values: [u64; N]) -> u64 {
        let tag = self.tag.map_or(0, |t| PAYLOAD_TAG.put(t));
        self.fields
            .iter()
            .zip(values)
            .fold(tag, |word, (field, v)| word | field.put(v))
    }

    fn unpack(&self, word: u64) -> [u64; N] {
        self.fields.map(|field| field.get(word))
    }

    /// Whether `word` is a payload word of this kind.
    fn tags(&self, word: u64) -> bool {
        self.tag == Some(PAYLOAD_TAG.get(word))
    }
}

// The §VI word format: one table per word kind. `to_words` and
// `from_words` both walk these tables; no other code knows a bit position.

/// Bits 0–3 of every payload word: which payload kind it is.
const PAYLOAD_TAG: Field = Field::new("payload_tag", 0, 4);

/// A component header: destination node, component kind, payload words.
const HEADER: Layout<3> = Layout {
    fields: [
        Field::new("node", 48, 16),
        Field::new("kind", 45, 3),
        Field::new("payload", 37, 8),
    ],
    tag: None,
};

/// A PE instruction slot ([`InstrConfig`]).
const INSTR: Layout<6> = Layout {
    fields: [
        Field::new("opcode", 56, 8),
        Field::new("operand0", 48, 8),
        Field::new("operand1", 40, 8),
        Field::new("operand2", 32, 8),
        Field::new("delay", 24, 8),
        Field::new("tag", 16, 8),
    ],
    tag: Some(1),
};

/// A switch route ([`RouteConfig`]).
const ROUTE: Layout<2> = Layout {
    fields: [Field::new("in_port", 56, 8), Field::new("out_port", 48, 8)],
    tag: Some(2),
};

/// A sync-element configuration ([`SyncConfig`]).
const SYNC: Layout<3> = Layout {
    fields: [
        Field::new("lanes", 56, 8),
        Field::new("delay", 40, 16),
        Field::new("group", 32, 8),
    ],
    tag: Some(3),
};

/// Values of the header's component-kind field.
const KIND_PE: u64 = 1;
const KIND_SWITCH: u64 = 2;
const KIND_SYNC: u64 = 3;

impl InstrConfig {
    fn word(&self) -> u64 {
        let [a, b, c] = self.operands;
        INSTR.pack([self.opcode, a, b, c, self.delay, self.tag].map(u64::from))
    }

    fn from_word(word: u64) -> InstrConfig {
        let [opcode, a, b, c, delay, tag] = INSTR.unpack(word).map(|v| v as u8);
        InstrConfig {
            opcode,
            operands: [a, b, c],
            delay,
            tag,
        }
    }
}

impl RouteConfig {
    fn word(&self) -> u64 {
        ROUTE.pack([self.in_port, self.out_port].map(u64::from))
    }

    fn from_word(word: u64) -> RouteConfig {
        let [in_port, out_port] = ROUTE.unpack(word).map(|v| v as u8);
        RouteConfig { in_port, out_port }
    }
}

impl SyncConfig {
    fn word(&self) -> u64 {
        SYNC.pack([self.lanes.into(), self.delay.into(), self.group.into()])
    }

    fn from_word(word: u64) -> SyncConfig {
        let [lanes, delay, group] = SYNC.unpack(word);
        SyncConfig {
            lanes: lanes as u8,
            delay: delay as u16,
            group: group as u8,
        }
    }
}

/// Opcode the discriminant decodes to, if valid.
fn opcode_of(discriminant: u8) -> Option<Opcode> {
    Opcode::ALL.into_iter().find(|op| *op as u8 == discriminant)
}

impl Bitstream {
    /// Encodes a schedule into per-component configuration, programming
    /// each static-PE instruction's balancing delay from the schedule's
    /// operand-arrival spread (§VI: a PE's bitstream encodes "execution
    /// timing (for static PEs only)").
    #[must_use]
    pub fn encode_with_timing(
        problem: &Problem<'_>,
        schedule: &Schedule,
        eval: &Evaluation,
    ) -> Bitstream {
        Bitstream::assemble(problem, schedule, Some(eval))
    }

    /// Encodes a schedule into per-component configuration.
    #[must_use]
    pub fn encode(problem: &Problem<'_>, schedule: &Schedule) -> Bitstream {
        Bitstream::assemble(problem, schedule, None)
    }

    /// The one encoder walk; `timing` programs static-PE delays.
    fn assemble(
        problem: &Problem<'_>,
        schedule: &Schedule,
        timing: Option<&Evaluation>,
    ) -> Bitstream {
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
                    let tag = configs.get(&node).map_or(0, |c| c.instrs.len().min(255)) as u8;
                    let delay = timing
                        .filter(|_| {
                            matches!(
                                adg.kind(node),
                                Ok(NodeKind::Pe(pe)) if pe.scheduling == Scheduling::Static
                            )
                        })
                        .map_or(0, |eval| {
                            let spread = eval.operand_spread.get(i).copied().unwrap_or(0.0);
                            spread.clamp(0.0, 255.0) as u8
                        });
                    configs.entry(node).or_default().instrs.push(InstrConfig {
                        opcode,
                        operands,
                        delay,
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
                let Some(edge_in) = adg.edge(e_in) else {
                    continue;
                };
                let node = edge_in.dst;
                if !matches!(adg.kind(node), Ok(NodeKind::Switch(_))) {
                    continue;
                }
                let (Some(ip), Some(op)) = (adg.input_port_of(e_in), adg.output_port_of(e_out))
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
        let mut words = Vec::with_capacity(self.word_count());
        for (node, cfg) in &self.configs {
            let kind = if !cfg.instrs.is_empty() {
                KIND_PE
            } else if !cfg.routes.is_empty() {
                KIND_SWITCH
            } else {
                KIND_SYNC
            };
            words.push(HEADER.pack([node.index() as u64, kind, cfg.payload_len() as u64]));
            words.extend(cfg.instrs.iter().map(InstrConfig::word));
            words.extend(cfg.routes.iter().map(RouteConfig::word));
            words.extend(cfg.sync.iter().map(SyncConfig::word));
        }
        words
    }

    /// Parses words back into per-component configuration. Opcodes stay
    /// raw discriminants.
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
            let [node, kind, payload] = HEADER.unpack(words[i]);
            i += 1;
            let node = NodeId::from_index(node as usize);
            if !(KIND_PE..=KIND_SYNC).contains(&kind) {
                return Err(BitstreamError::UnknownComponentKind {
                    word_index: header_index,
                    kind: kind as u8,
                });
            }
            let payload = payload as usize;
            if i + payload > words.len() {
                return Err(BitstreamError::TruncatedPayload {
                    word_index: header_index,
                    node,
                    expected: payload,
                    remaining: words.len() - i,
                });
            }
            let cfg = configs.entry(node).or_default();
            for (off, &w) in words[i..i + payload].iter().enumerate() {
                if INSTR.tags(w) {
                    cfg.instrs.push(InstrConfig::from_word(w));
                } else if ROUTE.tags(w) {
                    cfg.routes.push(RouteConfig::from_word(w));
                } else if SYNC.tags(w) {
                    cfg.sync = Some(SyncConfig::from_word(w));
                } else {
                    return Err(BitstreamError::UnknownPayloadTag {
                        word_index: i + off,
                        tag: PAYLOAD_TAG.get(w) as u8,
                    });
                }
            }
            i += payload;
        }
        Ok(Bitstream { configs })
    }

    /// The first instruction word whose opcode field resolves to no
    /// [`Opcode`], located by its index in [`Bitstream::to_words`].
    fn check_opcodes(&self) -> Result<(), BitstreamError> {
        let mut header_index = 0;
        for (&node, cfg) in &self.configs {
            // Instruction words follow their header directly.
            for (slot, instr) in cfg.instrs.iter().enumerate() {
                if opcode_of(instr.opcode).is_none() {
                    return Err(BitstreamError::UnknownOpcode {
                        word_index: header_index + 1 + slot,
                        node,
                        discriminant: instr.opcode,
                    });
                }
            }
            header_index += 1 + cfg.payload_len();
        }
        Ok(())
    }

    /// The owning component of every word [`Bitstream::to_words`] emits,
    /// by word index (headers included). Lets config-path delivery map a
    /// lost or corrupted word back to the node it was configuring.
    #[must_use]
    pub(crate) fn word_owners(&self) -> Vec<NodeId> {
        let mut owners = Vec::with_capacity(self.word_count());
        for (node, cfg) in &self.configs {
            owners.extend(std::iter::repeat_n(*node, 1 + cfg.payload_len()));
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
        self.configs.values().map(|cfg| 1 + cfg.payload_len()).sum()
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
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Decode(e) => write!(f, "emitted words failed to decode: {e}"),
            VerifyError::ConfigMismatch { node } => {
                write!(
                    f,
                    "decoded configuration of {node} disagrees with the encoder"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Decode(e) => Some(e),
            VerifyError::ConfigMismatch { .. } => None,
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
    words: Vec<u64>,
    schedule_digest: u64,
}

impl VerifiedConfig {
    /// The verified per-component configuration.
    #[must_use]
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
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
/// the decoded configuration equal the encoded one, and resolves every
/// opcode.
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
    verify_bitstream(Bitstream::encode(problem, schedule), schedule)
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
    eval: &Evaluation,
) -> Result<VerifiedConfig, VerifyError> {
    verify_bitstream(
        Bitstream::encode_with_timing(problem, schedule, eval),
        schedule,
    )
}

/// Shared verification core: serialize once, decode once, compare, and
/// resolve every opcode. Re-encoding the decode is not checked: `to_words`
/// is a pure function of the [`Bitstream`], so once the decode equals it,
/// re-encoding returns the same words.
fn verify_bitstream(
    bitstream: Bitstream,
    schedule: &Schedule,
) -> Result<VerifiedConfig, VerifyError> {
    let words = bitstream.to_words();
    let round = Bitstream::from_words(&words)?;
    if round != bitstream {
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
    bitstream.check_opcodes()?;
    Ok(VerifiedConfig {
        bitstream,
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
            assert_eq!(opcode_of(op as u8), Some(op));
        }
        assert_eq!(opcode_of(200), None);
    }

    #[test]
    fn timing_encode_programs_static_delays() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        // Re-evaluate to obtain timing facts.
        let eval =
            dsagen_scheduler::evaluate(&problem, &sched, &dsagen_scheduler::Weights::default());
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
        let words = Bitstream::encode(&problem, &sched).to_words();
        let decoded = Bitstream::from_words(&words).expect("decodes");
        decoded.check_opcodes().expect("every opcode resolves");
        let ops: Vec<Opcode> = decoded
            .configs
            .values()
            .flat_map(|c| c.instrs.iter().filter_map(|i| opcode_of(i.opcode)))
            .collect();
        assert_eq!(ops.len(), 2);
        assert!(
            ops.contains(&Opcode::Mul) && ops.contains(&Opcode::Add),
            "{ops:?}"
        );
        assert!(decoded.configs.values().any(|c| !c.routes.is_empty()));
        // Header kinds line up with payload content.
        let mut header_index = 0;
        for cfg in decoded.configs.values() {
            let [_, kind, _] = HEADER.unpack(words[header_index]);
            if !cfg.instrs.is_empty() {
                assert_eq!(kind, KIND_PE);
            }
            header_index += 1 + cfg.payload_len();
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
            .position(|w| INSTR.tags(*w))
            .expect("an instruction word exists");
        let opcode = INSTR.fields[0];
        words[idx] = (words[idx] & !opcode.put(u64::MAX)) | opcode.put(0xEE);
        // The decoder keeps raw discriminants; the opcode check rejects it.
        let decoded = Bitstream::from_words(&words).expect("the frame still parses");
        match decoded.check_opcodes() {
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
        assert_eq!(vc.words(), vc.bitstream().to_words());
        let instrs: usize = vc
            .bitstream()
            .configs
            .values()
            .map(|c| c.instrs.len())
            .sum();
        assert_eq!(instrs, 2);
        // A different schedule does not match the token.
        let mut other = sched.clone();
        other.placement.push(None);
        assert!(!vc.matches(&other));
    }

    #[test]
    fn timed_verification_also_holds() {
        let (adg, ck, sched) = scheduled();
        let problem = Problem::new(&adg, &ck);
        let eval =
            dsagen_scheduler::evaluate(&problem, &sched, &dsagen_scheduler::Weights::default());
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

    /// The table's own invariants for one word kind: every field is
    /// non-empty and inside 64 bits, and no two fields (the payload tag
    /// included) share a bit.
    fn assert_disjoint<const N: usize>(kind: &str, layout: &Layout<N>) {
        let tag = layout.tag.map(|t| {
            assert!(t <= PAYLOAD_TAG.max(), "{kind}: tag {t} does not fit");
            PAYLOAD_TAG
        });
        let mut used = 0u64;
        for field in layout.fields.iter().chain(&tag) {
            assert!(
                field.width >= 1 && field.shift + field.width <= 64,
                "{kind}.{} does not fit in 64 bits",
                field.name
            );
            let bits = field.put(u64::MAX);
            assert_eq!(used & bits, 0, "{kind}.{} overlaps a field", field.name);
            used |= bits;
        }
    }

    #[test]
    fn word_tables_are_disjoint_and_fit_in_64_bits() {
        assert_disjoint("header", &HEADER);
        assert_disjoint("instruction", &INSTR);
        assert_disjoint("route", &ROUTE);
        assert_disjoint("sync", &SYNC);
        let mut tags = [INSTR.tag, ROUTE.tag, SYNC.tag].map(Option::unwrap);
        tags.sort_unstable();
        assert!(
            tags[0] > 0 && tags.windows(2).all(|w| w[0] < w[1]),
            "{tags:?}"
        );
    }

    /// Each field of one payload kind at its maximum, every other field
    /// zero: the table reads the value back alone, and the word survives
    /// `from_words` then `to_words` behind a header of `kind`.
    fn assert_fields_round_trip<const N: usize>(layout: &Layout<N>, kind: u64) {
        for (k, field) in layout.fields.iter().enumerate() {
            let mut values = [0; N];
            values[k] = field.max();
            let word = layout.pack(values);
            assert_eq!(layout.unpack(word), values, "{} at its maximum", field.name);
            let words = [HEADER.pack([0, kind, 1]), word];
            let decoded = Bitstream::from_words(&words).expect(field.name);
            assert_eq!(decoded.to_words(), words, "{} at its maximum", field.name);
        }
    }

    #[test]
    fn every_field_at_its_maximum_round_trips_alone() {
        assert_fields_round_trip(&INSTR, KIND_PE);
        assert_fields_round_trip(&ROUTE, KIND_SWITCH);
        assert_fields_round_trip(&SYNC, KIND_SYNC);
        // Header fields: the node at its maximum on an empty component,
        // the payload count at its maximum over zero route words, and the
        // kind at its maximum is read whole and rejected.
        let [node, kind, payload] = HEADER.fields;
        let words = vec![HEADER.pack([node.max(), KIND_SYNC, 0])];
        assert_eq!(Bitstream::from_words(&words).unwrap().to_words(), words);
        let mut words = vec![HEADER.pack([0, KIND_SWITCH, payload.max()])];
        words.extend((0..payload.max()).map(|_| ROUTE.pack([0, 0])));
        assert_eq!(Bitstream::from_words(&words).unwrap().to_words(), words);
        assert_eq!(
            Bitstream::from_words(&[HEADER.pack([0, kind.max(), 0])]),
            Err(BitstreamError::UnknownComponentKind {
                word_index: 0,
                kind: kind.max() as u8,
            })
        );
    }
}
