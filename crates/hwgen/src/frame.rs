//! CRC-guarded configuration-path delivery (§VI, hardened).
//!
//! The raw bitstream is a bare sequence of 64-bit words; anything flipped,
//! dropped, duplicated, or reordered between the encoder and the fabric
//! silently misconfigures the accelerator. This module wraps every word in
//! a **frame** — payload word + sequence number + CRC32 — and drives
//! delivery through a [`ProgrammingSession`] state machine
//! (`Idle → Streaming → Verified | Failed`) with bounded retransmission:
//!
//! * any single-bit flip anywhere in a frame (payload, sequence field, or
//!   the CRC itself) is *detected*, never silently accepted;
//! * corrupted or missing frames are selectively retransmitted with an
//!   exponential backoff charge, up to [`SessionConfig::max_retries`];
//! * frames carry their word index as the sequence number, so duplicated
//!   and reordered frames are idempotently re-slotted;
//! * when the retry budget runs out the session degrades gracefully: it
//!   reports exactly which components are unreachable (via
//!   [`Bitstream::word_owners`]) instead of aborting.
//!
//! The CRC polynomial is the reflected IEEE 802.3 polynomial
//! `0xEDB88320`, computed over the 4 sequence bytes followed by the 8
//! payload bytes (little-endian).

use std::fmt;

use dsagen_adg::NodeId;

use crate::bitstream::{Bitstream, BitstreamError};

/// Reflected IEEE 802.3 CRC32 polynomial.
pub(crate) const CRC32_POLY: u32 = 0xEDB8_8320;

/// Byte-indexed CRC32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (reflected IEEE 802.3) over a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// CRC over one frame's guarded content: sequence field then payload.
fn frame_crc(seq: u32, payload: u64) -> u32 {
    let mut bytes = [0u8; 12];
    bytes[..4].copy_from_slice(&seq.to_le_bytes());
    bytes[4..].copy_from_slice(&payload.to_le_bytes());
    crc32(&bytes)
}

/// Number of transport words per frame (payload word + guard word).
pub(crate) const FRAME_WORDS: usize = 2;

/// One config-path delivery unit: a payload word guarded by a sequence
/// number and a CRC32 over both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    /// Word index within the bitstream this frame delivers.
    pub seq: u32,
    /// The configuration word.
    pub payload: u64,
}

impl Frame {
    /// Builds the frame for word `seq` of a stream.
    #[must_use]
    pub(crate) fn new(seq: u32, payload: u64) -> Self {
        Frame { seq, payload }
    }

    /// Serializes to two transport words: `[payload, seq<<32 | crc]`.
    #[must_use]
    pub(crate) fn pack(&self) -> [u64; 2] {
        let crc = frame_crc(self.seq, self.payload);
        [self.payload, (u64::from(self.seq) << 32) | u64::from(crc)]
    }

    /// Parses and CRC-checks two transport words.
    ///
    /// # Errors
    ///
    /// [`FrameError::CrcMismatch`] when the stored CRC disagrees with the
    /// recomputed one — any single-bit flip in either word lands here.
    pub(crate) fn unpack(words: [u64; 2]) -> Result<Frame, FrameError> {
        let payload = words[0];
        let seq = (words[1] >> 32) as u32;
        let stored = words[1] as u32;
        let computed = frame_crc(seq, payload);
        if stored != computed {
            return Err(FrameError::CrcMismatch {
                seq,
                expected: computed,
                got: stored,
            });
        }
        Ok(Frame { seq, payload })
    }
}

/// Why a framed stream failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream length is not a whole number of frames.
    Truncated {
        /// Transport words present.
        words: usize,
    },
    /// A frame's CRC did not match its content.
    CrcMismatch {
        /// Sequence field as received (possibly itself corrupted).
        seq: u32,
        /// CRC recomputed from the received content.
        expected: u32,
        /// CRC stored in the frame.
        got: u32,
    },
    /// The same sequence number arrived twice with different payloads.
    ConflictingDuplicate {
        /// The duplicated sequence number.
        seq: u32,
    },
    /// A sequence number outside the expected stream.
    SeqOutOfRange {
        /// The out-of-range sequence number.
        seq: u32,
        /// Number of words the stream announces.
        expected: usize,
    },
    /// Frames are missing after reassembly.
    MissingFrames {
        /// Distinct sequence numbers received.
        got: usize,
        /// Sequence numbers expected.
        expected: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { words } => {
                write!(f, "framed stream truncated: {words} transport words is not a whole number of frames")
            }
            FrameError::CrcMismatch { seq, expected, got } => write!(
                f,
                "frame {seq}: CRC mismatch (computed {expected:#010x}, stored {got:#010x})"
            ),
            FrameError::ConflictingDuplicate { seq } => {
                write!(f, "frame {seq}: duplicate with conflicting payload")
            }
            FrameError::SeqOutOfRange { seq, expected } => {
                write!(
                    f,
                    "frame {seq}: sequence out of range (stream has {expected} words)"
                )
            }
            FrameError::MissingFrames { got, expected } => {
                write!(f, "reassembly incomplete: {got} of {expected} frames")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps every word of `words` into a CRC-guarded frame, in order.
#[must_use]
pub fn frame_words(words: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(words.len() * FRAME_WORDS);
    for (i, w) in words.iter().enumerate() {
        out.extend_from_slice(&Frame::new(i as u32, *w).pack());
    }
    out
}

/// Strictly validates and unwraps a framed stream of `expected` payload
/// words: every frame must CRC-check, sequence numbers must cover
/// `0..expected` exactly (duplicates allowed only when byte-identical).
///
/// # Errors
///
/// The first [`FrameError`] encountered; a single-bit flip anywhere in
/// the stream is guaranteed to surface as one.
pub fn deframe_words(framed: &[u64], expected: usize) -> Result<Vec<u64>, FrameError> {
    if !framed.len().is_multiple_of(FRAME_WORDS) {
        return Err(FrameError::Truncated {
            words: framed.len(),
        });
    }
    let mut slots: Vec<Option<u64>> = vec![None; expected];
    let mut got = 0usize;
    for chunk in framed.chunks_exact(FRAME_WORDS) {
        let frame = Frame::unpack([chunk[0], chunk[1]])?;
        let seq = frame.seq as usize;
        if seq >= expected {
            return Err(FrameError::SeqOutOfRange {
                seq: frame.seq,
                expected,
            });
        }
        match slots[seq] {
            None => {
                slots[seq] = Some(frame.payload);
                got += 1;
            }
            Some(prev) if prev == frame.payload => {} // idempotent duplicate
            Some(_) => {
                return Err(FrameError::ConflictingDuplicate { seq: frame.seq });
            }
        }
    }
    if got != expected {
        return Err(FrameError::MissingFrames { got, expected });
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Why a byte-chunk stream (see [`frame_chunk`]) failed validation.
///
/// The word-frame [`FrameError`] speaks in transport words; persistent
/// records are byte streams, so their framing errors carry byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChunkError {
    /// The buffer ends before the chunk it announces (a torn or truncated
    /// write — the header promised more bytes than the medium holds).
    Truncated {
        /// Byte offset of the chunk whose body is missing.
        offset: usize,
        /// Bytes the header announced.
        want: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A chunk's CRC32 disagrees with its payload (bit rot, torn tail).
    CrcMismatch {
        /// Byte offset of the offending chunk.
        offset: usize,
        /// CRC recomputed from the payload.
        expected: u32,
        /// CRC stored in the header.
        got: u32,
    },
    /// A chunk header announces an implausible length (corrupt header).
    OversizedChunk {
        /// Byte offset of the chunk.
        offset: usize,
        /// The announced length.
        len: usize,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Truncated { offset, want, have } => write!(
                f,
                "chunk at byte {offset} truncated: header announces {want} bytes, {have} present"
            ),
            ChunkError::CrcMismatch {
                offset,
                expected,
                got,
            } => write!(
                f,
                "chunk at byte {offset}: CRC mismatch (computed {expected:#010x}, stored {got:#010x})"
            ),
            ChunkError::OversizedChunk { offset, len } => {
                write!(f, "chunk at byte {offset}: implausible length {len}")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// Upper bound on a single chunk's payload. Persistent records are small
/// (schedules + config words); anything past this is a corrupt header,
/// not a real chunk — rejecting it keeps a flipped length bit from
/// allocating gigabytes.
pub(crate) const MAX_CHUNK_LEN: usize = 1 << 24;

/// Frames one byte chunk for persistent storage:
/// `[len: u32 LE][crc32(payload): u32 LE][payload]`. The same CRC32
/// discipline the config-path transport uses ([`crc32`], reflected IEEE
/// 802.3), applied to byte records — the artifact store's record format
/// is a sequence of these.
#[must_use]
pub fn frame_chunk(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses and CRC-checks the chunk at the front of `buf` (whose position
/// within the whole record is `offset`, for error reporting), returning
/// `(payload, rest)`.
///
/// # Errors
///
/// A typed [`ChunkError`] on truncation, CRC mismatch, or an implausible
/// header — never a panic, whatever the bytes.
pub fn unframe_chunk(buf: &[u8], offset: usize) -> Result<(&[u8], &[u8]), ChunkError> {
    if buf.len() < 8 {
        return Err(ChunkError::Truncated {
            offset,
            want: 8,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_CHUNK_LEN {
        return Err(ChunkError::OversizedChunk { offset, len });
    }
    let stored = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let body = &buf[8..];
    if body.len() < len {
        return Err(ChunkError::Truncated {
            offset,
            want: len,
            have: body.len(),
        });
    }
    let (payload, rest) = body.split_at(len);
    let computed = crc32(payload);
    if computed != stored {
        return Err(ChunkError::CrcMismatch {
            offset,
            expected: computed,
            got: stored,
        });
    }
    Ok((payload, rest))
}

/// Programming-session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created, nothing transmitted yet.
    Idle,
    /// Frames in flight (also the state of an aborted mid-stream session).
    Streaming,
    /// Every word delivered, CRC-clean, and the reassembled stream decodes
    /// back to the encoder's exact configuration.
    Verified,
    /// Delivery or verification failed after the retry budget; see
    /// [`SessionReport::unreachable_nodes`] and [`SessionReport::error`].
    Failed,
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionState::Idle => "idle",
            SessionState::Streaming => "streaming",
            SessionState::Verified => "verified",
            SessionState::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// Backoff charge (cycles) before retransmission round `r` (from 1) is
/// `BACKOFF_BASE << (r - 1)`.
const BACKOFF_BASE: u32 = 4;

/// Retry tunables for a [`ProgrammingSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Retransmission rounds after the initial attempt.
    pub max_retries: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { max_retries: 3 }
    }
}

/// Why a completed session ended [`SessionState::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// Some words never arrived intact within the retry budget.
    Undelivered {
        /// Words still missing after the final retry.
        missing_words: usize,
    },
    /// All words arrived, but the reassembled stream does not decode back
    /// to the encoder's configuration (multi-bit corruption that collided
    /// past the CRC, or an encoder/decoder bug).
    VerificationFailed(BitstreamError),
    /// The reassembled stream decodes, but to a *different* configuration.
    ConfigDiverged,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Undelivered { missing_words } => {
                write!(f, "{missing_words} words undelivered after retry budget")
            }
            SessionError::VerificationFailed(e) => {
                write!(f, "delivered stream failed to decode: {e}")
            }
            SessionError::ConfigDiverged => {
                write!(f, "delivered stream decodes to a different configuration")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The structured outcome of one programming session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Final state ([`SessionState::Verified`] or [`SessionState::Failed`]).
    pub state: SessionState,
    /// Transmission rounds executed (1 = no retries needed).
    pub attempts: u32,
    /// Total frames put on the wire across all rounds.
    pub frames_sent: u64,
    /// Frames rejected by the CRC check.
    pub crc_failures: u64,
    /// Frames rejected for sequence violations (out-of-range, conflicting
    /// duplicate) or stream truncation.
    pub seq_violations: u64,
    /// Duplicated frames accepted idempotently.
    pub duplicates: u64,
    /// Total backoff cycles charged before retransmissions.
    pub backoff_cycles: u64,
    /// Components whose every word arrived intact (acknowledged).
    pub acked_nodes: Vec<NodeId>,
    /// Components still owed at least one word when the budget ran out.
    pub unreachable_nodes: Vec<NodeId>,
    /// The typed failure, when `state == Failed`.
    pub error: Option<SessionError>,
}

impl SessionReport {
    /// Whether the session delivered and verified everything.
    #[must_use]
    pub fn is_verified(&self) -> bool {
        self.state == SessionState::Verified
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} attempts, {} frames sent, {} crc failures, {} seq violations, {} backoff cycles, {} acked, {} unreachable",
            self.state,
            self.attempts,
            self.frames_sent,
            self.crc_failures,
            self.seq_violations,
            self.backoff_cycles,
            self.acked_nodes.len(),
            self.unreachable_nodes.len(),
        )?;
        if let Some(e) = &self.error {
            write!(f, " ({e})")?;
        }
        Ok(())
    }
}

/// Drives CRC-framed delivery of one bitstream over a (possibly lossy)
/// channel, with selective retransmission and per-node acknowledgment.
///
/// The channel is any `FnMut(attempt, &[u64]) -> Vec<u64>`: it receives
/// the framed transport words for one transmission round and returns what
/// the far end observed — corrupted, truncated, duplicated, reordered, or
/// intact. Determinstic fault injectors from `dsagen-faults` slot in
/// directly.
#[derive(Debug, Clone)]
pub struct ProgrammingSession {
    words: Vec<u64>,
    owners: Vec<NodeId>,
    cfg: SessionConfig,
    state: SessionState,
}

impl ProgrammingSession {
    /// Prepares a session for `bitstream` (state [`SessionState::Idle`]).
    #[must_use]
    pub fn new(bitstream: &Bitstream, cfg: SessionConfig) -> Self {
        ProgrammingSession {
            words: bitstream.to_words(),
            owners: bitstream.word_owners(),
            cfg,
            state: SessionState::Idle,
        }
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The words this session delivers.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Runs the session to completion over `channel`, never panicking:
    /// streams every word as a CRC32 frame, selectively retransmits
    /// corrupted/missing frames with exponential backoff up to the retry
    /// budget, then verifies the reassembled stream decodes back to the
    /// original configuration.
    pub fn program(&mut self, mut channel: impl FnMut(u32, &[u64]) -> Vec<u64>) -> SessionReport {
        let n = self.words.len();
        let mut received: Vec<Option<u64>> = vec![None; n];
        let mut attempts = 0u32;
        let mut frames_sent = 0u64;
        let mut crc_failures = 0u64;
        let mut seq_violations = 0u64;
        let mut duplicates = 0u64;
        let mut backoff_cycles = 0u64;

        self.state = SessionState::Streaming;
        for round in 0..=self.cfg.max_retries {
            let pending: Vec<u32> = (0..n as u32)
                .filter(|&i| received[i as usize].is_none())
                .collect();
            if pending.is_empty() {
                break;
            }
            if round > 0 {
                backoff_cycles += u64::from(BACKOFF_BASE) << (round - 1).min(31);
            }
            attempts += 1;
            let mut framed = Vec::with_capacity(pending.len() * FRAME_WORDS);
            for &seq in &pending {
                framed.extend_from_slice(&Frame::new(seq, self.words[seq as usize]).pack());
            }
            frames_sent += pending.len() as u64;

            let observed = channel(round, &framed);
            if !observed.len().is_multiple_of(FRAME_WORDS) {
                // A truncated tail loses at most one frame; everything
                // before the cut still validates.
                seq_violations += 1;
            }
            for chunk in observed.chunks_exact(FRAME_WORDS) {
                match Frame::unpack([chunk[0], chunk[1]]) {
                    Ok(frame) => {
                        let seq = frame.seq as usize;
                        if seq >= n {
                            seq_violations += 1;
                            continue;
                        }
                        match received[seq] {
                            None => received[seq] = Some(frame.payload),
                            Some(prev) if prev == frame.payload => duplicates += 1,
                            Some(_) => {
                                // Conflicting CRC-clean duplicate: distrust
                                // both copies and re-request the word.
                                seq_violations += 1;
                                received[seq] = None;
                            }
                        }
                    }
                    Err(_) => crc_failures += 1,
                }
            }
        }

        let missing: Vec<usize> = (0..n).filter(|&i| received[i].is_none()).collect();
        let mut unreachable: Vec<NodeId> = missing
            .iter()
            .filter_map(|&i| self.owners.get(i).copied())
            .collect();
        unreachable.sort();
        unreachable.dedup();
        let mut acked: Vec<NodeId> = self
            .owners
            .iter()
            .copied()
            .filter(|o| !unreachable.contains(o))
            .collect();
        acked.sort();
        acked.dedup();

        let (state, error) = if missing.is_empty() {
            let delivered: Vec<u64> = received.into_iter().flatten().collect();
            if delivered == self.words {
                (SessionState::Verified, None)
            } else {
                match Bitstream::from_words(&delivered) {
                    Ok(_) => (SessionState::Failed, Some(SessionError::ConfigDiverged)),
                    Err(e) => (
                        SessionState::Failed,
                        Some(SessionError::VerificationFailed(e)),
                    ),
                }
            }
        } else {
            (
                SessionState::Failed,
                Some(SessionError::Undelivered {
                    missing_words: missing.len(),
                }),
            )
        };
        self.state = state;
        SessionReport {
            state,
            attempts,
            frames_sent,
            crc_failures,
            seq_violations,
            duplicates,
            backoff_cycles,
            acked_nodes: acked,
            unreachable_nodes: unreachable,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::{schedule, Problem, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;

    use super::*;

    fn bitstream() -> Bitstream {
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(256), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let m = r.bin(Opcode::Mul, va, vb);
        let s = r.bin(Opcode::Add, m, vb);
        r.store(b, AffineExpr::var(i), s);
        k.finish_region(r);
        let kernel = k.build().expect("fixture kernel builds");
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())
            .expect("fixture compiles");
        let res = schedule(
            &adg,
            &ck,
            &Start::Empty,
            &SchedulerConfig::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(res.is_legal());
        Bitstream::encode(&Problem::new(&adg, &ck), &res.schedule)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip() {
        let words = bitstream().to_words();
        let framed = frame_words(&words);
        assert_eq!(framed.len(), words.len() * FRAME_WORDS);
        let back = deframe_words(&framed, words.len()).expect("clean stream deframes");
        assert_eq!(back, words);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let words = bitstream().to_words();
        let framed = frame_words(&words);
        // Exhaustive over a whole frame, sampled across the stream.
        for word_idx in [
            0usize,
            1,
            framed.len() / 2,
            framed.len() - 2,
            framed.len() - 1,
        ] {
            for bit in 0..64 {
                let mut corrupted = framed.clone();
                corrupted[word_idx] ^= 1u64 << bit;
                let res = deframe_words(&corrupted, words.len());
                assert!(
                    res.is_err(),
                    "flip word {word_idx} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn session_verifies_on_a_clean_channel() {
        let bs = bitstream();
        let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
        assert_eq!(session.state(), SessionState::Idle);
        let report = session.program(|_, frames| frames.to_vec());
        assert!(report.is_verified(), "{report}");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.crc_failures, 0);
        assert!(report.unreachable_nodes.is_empty());
        assert_eq!(report.acked_nodes.len(), bs.configs.len());
        assert_eq!(session.state(), SessionState::Verified);
    }

    #[test]
    fn corrupted_frame_is_retried_with_backoff() {
        let bs = bitstream();
        let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
        let report = session.program(|round, frames| {
            let mut out = frames.to_vec();
            if round == 0 {
                out[0] ^= 1 << 17; // one flipped bit on the first attempt
            }
            out
        });
        assert!(report.is_verified(), "{report}");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.crc_failures, 1);
        assert!(report.backoff_cycles > 0);
        assert!(report.unreachable_nodes.is_empty());
    }

    #[test]
    fn hostile_channel_degrades_gracefully() {
        let bs = bitstream();
        let cfg = SessionConfig { max_retries: 2 };
        let mut session = ProgrammingSession::new(&bs, cfg);
        // The first frame is corrupted on *every* attempt: its word can
        // never be delivered, and the owning node must be reported.
        let report = session.program(|_, frames| {
            let mut out = frames.to_vec();
            out[1] ^= 1; // CRC word of the first pending frame
            out
        });
        assert_eq!(report.state, SessionState::Failed);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.crc_failures, 3);
        assert_eq!(report.unreachable_nodes.len(), 1);
        assert!(matches!(
            report.error,
            Some(SessionError::Undelivered { missing_words: 1 })
        ));
        // Everything else was still delivered — graceful degradation.
        assert_eq!(report.acked_nodes.len(), bs.configs.len() - 1);
    }

    #[test]
    fn reordered_and_duplicated_frames_are_idempotent() {
        let bs = bitstream();
        let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
        let report = session.program(|_, frames| {
            let mut out = frames.to_vec();
            // Swap the first two frames and duplicate the last one.
            out.swap(0, FRAME_WORDS);
            out.swap(1, FRAME_WORDS + 1);
            let tail: Vec<u64> = out[out.len() - FRAME_WORDS..].to_vec();
            out.extend_from_slice(&tail);
            out
        });
        assert!(report.is_verified(), "{report}");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.duplicates, 1);
    }

    #[test]
    fn truncated_stream_is_recovered_by_retransmit() {
        let bs = bitstream();
        let mut session = ProgrammingSession::new(&bs, SessionConfig::default());
        let report = session.program(|round, frames| {
            if round == 0 {
                frames[..frames.len() / 2].to_vec() // drop the tail
            } else {
                frames.to_vec()
            }
        });
        assert!(report.is_verified(), "{report}");
        assert_eq!(report.attempts, 2);
    }

    #[test]
    fn deframe_rejects_conflicting_duplicates_and_bad_seq() {
        let words = bitstream().to_words();
        let framed = frame_words(&words);
        // Conflicting duplicate: re-frame word 0 with a different payload.
        let mut with_conflict = framed.clone();
        with_conflict.extend_from_slice(&Frame::new(0, !words[0]).pack());
        assert!(matches!(
            deframe_words(&with_conflict, words.len()),
            Err(FrameError::ConflictingDuplicate { seq: 0 })
        ));
        // Out-of-range sequence.
        let mut with_bad_seq = framed.clone();
        with_bad_seq.extend_from_slice(&Frame::new(words.len() as u32, 7).pack());
        assert!(matches!(
            deframe_words(&with_bad_seq, words.len()),
            Err(FrameError::SeqOutOfRange { .. })
        ));
        // Odd transport length.
        assert!(matches!(
            deframe_words(&framed[..framed.len() - 1], words.len()),
            Err(FrameError::Truncated { .. })
        ));
        // Missing frames.
        assert!(matches!(
            deframe_words(&framed[..framed.len() - FRAME_WORDS], words.len()),
            Err(FrameError::MissingFrames { .. })
        ));
    }
}
