//! The on-disk record format: a magic header plus a fixed sequence of
//! CRC32-framed sections (the byte-chunk discipline from
//! [`dsagen_hwgen::frame_chunk`]).
//!
//! ```text
//! "DSAGART1"                                  8-byte magic
//! chunk KEY        adg_fp, kernel_hash, sched_seed, schedule_digest,
//!                  flags, perf bits, footprint bits
//! chunk PLACEMENT  entity count + one u32 per entity (MAX = unplaced)
//! chunk ROUTES     route count + (vedge, len, edge ids...) per route
//! chunk CONFIG     word count + u64 config words
//! chunk END        the literal bytes "END!"
//! ```
//!
//! Every chunk is `[len u32 LE][crc32 u32 LE][payload]`, so *any* torn
//! write, truncation, or bit flip anywhere in the file surfaces as a
//! typed [`RecordError`] — never a panic, never a silently wrong
//! artifact. The END chunk guards the one failure the per-chunk framing
//! cannot see: a file cut exactly at a chunk boundary. Beyond framing,
//! the decoded schedule's digest is recomputed and compared against the
//! KEY chunk's stored digest, so even a coherent-looking record that
//! decodes to a different schedule is rejected.

use std::collections::BTreeMap;

use dsagen_adg::{EdgeId, NodeId};
use dsagen_hwgen::{frame_chunk, schedule_digest, unframe_chunk, ChunkError};
use dsagen_scheduler::Schedule;

use crate::{Artifact, ArtifactKey};

/// Record magic: format name + version byte.
pub(crate) const MAGIC: &[u8; 8] = b"DSAGART1";

/// Sentinel payload of the final (commit) chunk.
const END_PAYLOAD: &[u8; 4] = b"END!";

/// Placement slot sentinel for an unplaced entity.
const UNPLACED: u32 = u32::MAX;

/// Why a record failed to decode. Every variant is a *quarantine reason*:
/// the store moves the offending file aside and reports the artifact as
/// absent, it never aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub(crate) enum RecordError {
    /// The file does not start with the record magic (alien file, or the header
    /// itself was torn/corrupted).
    BadMagic,
    /// A chunk failed its length/CRC framing (torn write, truncation,
    /// bit rot). Carries the underlying framing diagnosis.
    Frame(ChunkError),
    /// All chunks framed clean but the record is structurally wrong
    /// (missing sections, trailing garbage, malformed section payload).
    Malformed {
        /// What was wrong.
        what: String,
    },
    /// The decoded schedule's recomputed digest disagrees with the digest
    /// stored in the KEY chunk — the record decodes, but not to the
    /// schedule it claims to hold.
    DigestMismatch {
        /// Digest stored at write time.
        stored: u64,
        /// Digest recomputed from the decoded schedule.
        computed: u64,
    },
    /// The record's embedded key disagrees with the key the caller asked
    /// for (a file filed under the wrong name — content-addressing broken).
    AlienKey {
        /// The key the record claims.
        found: ArtifactKey,
        /// The key implied by the file's address.
        expected: ArtifactKey,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadMagic => write!(f, "bad magic (not a DSAGART1 record)"),
            RecordError::Frame(e) => write!(f, "framing: {e}"),
            RecordError::Malformed { what } => write!(f, "malformed: {what}"),
            RecordError::DigestMismatch { stored, computed } => write!(
                f,
                "schedule digest mismatch (stored {stored:#018x}, recomputed {computed:#018x})"
            ),
            RecordError::AlienKey { found, expected } => write!(
                f,
                "alien key: record claims {found}, address implies {expected}"
            ),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<ChunkError> for RecordError {
    fn from(e: ChunkError) -> Self {
        RecordError::Frame(e)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u32(&mut self, what: &str) -> Result<u32, RecordError> {
        let end = self.pos + 4;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| short(what))?;
        self.pos = end;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, RecordError> {
        let end = self.pos + 8;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| short(what))?;
        self.pos = end;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(b))
    }

    fn done(&self, what: &str) -> Result<(), RecordError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(RecordError::Malformed {
                what: format!(
                    "{what}: {} trailing payload bytes",
                    self.buf.len() - self.pos
                ),
            })
        }
    }
}

fn short(what: &str) -> RecordError {
    RecordError::Malformed {
        what: format!("{what}: payload shorter than its own counts announce"),
    }
}

/// Serializes an artifact into record bytes, END chunk included.
#[must_use]
pub fn encode(artifact: &Artifact) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);

    // KEY chunk.
    let mut key = Vec::with_capacity(8 * 6 + 4);
    put_u64(&mut key, artifact.key.adg_fp);
    put_u64(&mut key, artifact.key.kernel_hash);
    put_u64(&mut key, artifact.key.sched_seed);
    put_u64(&mut key, schedule_digest(&artifact.schedule));
    let flags = u32::from(artifact.perf.is_some()) | (u32::from(artifact.footprint.is_some()) << 1);
    put_u32(&mut key, flags);
    put_u64(&mut key, artifact.perf.unwrap_or(0.0).to_bits());
    put_u64(&mut key, artifact.footprint.unwrap_or(0));
    out.extend_from_slice(&frame_chunk(&key));

    // PLACEMENT chunk.
    let mut placement = Vec::with_capacity(4 + 4 * artifact.schedule.placement.len());
    put_u32(&mut placement, artifact.schedule.placement.len() as u32);
    for slot in &artifact.schedule.placement {
        put_u32(&mut placement, slot.map_or(UNPLACED, |n| n.index() as u32));
    }
    out.extend_from_slice(&frame_chunk(&placement));

    // ROUTES chunk.
    let mut routes = Vec::new();
    put_u32(&mut routes, artifact.schedule.routes.len() as u32);
    for (vedge, path) in &artifact.schedule.routes {
        put_u32(&mut routes, *vedge as u32);
        put_u32(&mut routes, path.len() as u32);
        for e in path {
            put_u32(&mut routes, e.index() as u32);
        }
    }
    out.extend_from_slice(&frame_chunk(&routes));

    // CONFIG chunk.
    let mut config = Vec::with_capacity(4 + 8 * artifact.config_words.len());
    put_u32(&mut config, artifact.config_words.len() as u32);
    for w in &artifact.config_words {
        put_u64(&mut config, *w);
    }
    out.extend_from_slice(&frame_chunk(&config));

    // END (commit) chunk.
    out.extend_from_slice(&frame_chunk(END_PAYLOAD));
    out
}

/// Byte offsets *after* the magic and after each chunk of an encoded
/// record — the structurally distinct crash points a torn write can
/// leave. Feeds [`dsagen_faults::kill_points`].
#[must_use]
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    if bytes.len() < MAGIC.len() {
        return out;
    }
    out.push(MAGIC.len());
    let mut rest = &bytes[MAGIC.len()..];
    let mut offset = MAGIC.len();
    while !rest.is_empty() {
        match unframe_chunk(rest, offset) {
            Ok((payload, next)) => {
                offset += 8 + payload.len();
                out.push(offset);
                rest = next;
            }
            Err(_) => break,
        }
    }
    out
}

/// Decodes record bytes back into an [`Artifact`], verifying framing,
/// structure, and the schedule digest. `expected_key` is the key implied
/// by the record's address (filename); a record claiming a different key
/// is rejected as [`RecordError::AlienKey`].
///
/// # Errors
///
/// A typed [`RecordError`] for every way the bytes can be wrong; decoding
/// never panics on arbitrary input (property-tested).
pub(crate) fn decode(
    bytes: &[u8],
    expected_key: Option<ArtifactKey>,
) -> Result<Artifact, RecordError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(RecordError::BadMagic);
    }
    let mut rest = &bytes[MAGIC.len()..];
    let mut offset = MAGIC.len();
    let mut next = |what: &str| -> Result<&[u8], RecordError> {
        let (payload, r) = unframe_chunk(rest, offset)?;
        offset += 8 + payload.len();
        rest = r;
        let _ = what;
        Ok(payload)
    };

    // KEY.
    let key_bytes = next("key")?;
    let mut r = Reader::new(key_bytes);
    let key = ArtifactKey {
        adg_fp: r.u64("key.adg_fp")?,
        kernel_hash: r.u64("key.kernel_hash")?,
        sched_seed: r.u64("key.sched_seed")?,
    };
    let stored_digest = r.u64("key.digest")?;
    let flags = r.u32("key.flags")?;
    let perf_bits = r.u64("key.perf")?;
    let footprint_bits = r.u64("key.footprint")?;
    r.done("key")?;
    if let Some(expected) = expected_key {
        if key != expected {
            return Err(RecordError::AlienKey {
                found: key,
                expected,
            });
        }
    }

    // PLACEMENT.
    let placement_bytes = next("placement")?;
    let mut r = Reader::new(placement_bytes);
    let n = r.u32("placement.count")? as usize;
    if n > placement_bytes.len() / 4 {
        return Err(short("placement"));
    }
    let mut placement = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.u32("placement.slot")?;
        placement.push((raw != UNPLACED).then(|| NodeId::from_index(raw as usize)));
    }
    r.done("placement")?;

    // ROUTES.
    let routes_bytes = next("routes")?;
    let mut r = Reader::new(routes_bytes);
    let nroutes = r.u32("routes.count")? as usize;
    if nroutes > routes_bytes.len() / 8 {
        return Err(short("routes"));
    }
    let mut routes = BTreeMap::new();
    for _ in 0..nroutes {
        let vedge = r.u32("routes.vedge")? as usize;
        let len = r.u32("routes.len")? as usize;
        if len > routes_bytes.len() / 4 {
            return Err(short("routes"));
        }
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            path.push(EdgeId::from_index(r.u32("routes.edge")? as usize));
        }
        if routes.insert(vedge, path).is_some() {
            return Err(RecordError::Malformed {
                what: format!("routes: duplicate virtual edge {vedge}"),
            });
        }
    }
    r.done("routes")?;

    // CONFIG.
    let config_bytes = next("config")?;
    let mut r = Reader::new(config_bytes);
    let nwords = r.u32("config.count")? as usize;
    if nwords > config_bytes.len() / 8 {
        return Err(short("config"));
    }
    let mut config_words = Vec::with_capacity(nwords);
    for _ in 0..nwords {
        config_words.push(r.u64("config.word")?);
    }
    r.done("config")?;

    // END.
    let end = next("end")?;
    if end != END_PAYLOAD {
        return Err(RecordError::Malformed {
            what: "end chunk payload is not the commit sentinel".to_string(),
        });
    }
    if !rest.is_empty() {
        return Err(RecordError::Malformed {
            what: format!("{} bytes after the end chunk", rest.len()),
        });
    }

    let schedule = Schedule { placement, routes };
    let computed = schedule_digest(&schedule);
    if computed != stored_digest {
        return Err(RecordError::DigestMismatch {
            stored: stored_digest,
            computed,
        });
    }
    Ok(Artifact {
        key,
        schedule,
        perf: (flags & 1 != 0).then(|| f64::from_bits(perf_bits)),
        footprint: (flags & 2 != 0).then_some(footprint_bits),
        config_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn sample_artifact(seed: u64) -> Artifact {
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = (0..6)
            .map(|i| (i % 3 != 2).then(|| NodeId::from_index(rng.gen_range(0..40usize))))
            .collect();
        let mut routes = BTreeMap::new();
        for v in 0..4usize {
            let path = (0..rng.gen_range(1..5usize))
                .map(|_| EdgeId::from_index(rng.gen_range(0..60usize)))
                .collect();
            routes.insert(v, path);
        }
        Artifact {
            key: ArtifactKey {
                adg_fp: rng.gen_range(0..u64::MAX),
                kernel_hash: rng.gen_range(0..u64::MAX),
                sched_seed: rng.gen_range(0..u64::MAX),
            },
            schedule: Schedule { placement, routes },
            perf: Some(3.25),
            footprint: Some(0xF00D),
            config_words: (0..10).map(|_| rng.gen_range(0..u64::MAX)).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let a = sample_artifact(1);
        let bytes = encode(&a);
        let b = decode(&bytes, Some(a.key)).expect("clean record decodes");
        assert_eq!(a.key, b.key);
        assert_eq!(a.schedule.placement, b.schedule.placement);
        assert_eq!(a.schedule.routes, b.schedule.routes);
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.footprint, b.footprint);
        assert_eq!(a.config_words, b.config_words);
    }

    #[test]
    fn every_truncation_point_is_typed_not_panic() {
        let bytes = encode(&sample_artifact(2));
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], None).expect_err("truncated record must not decode");
            // Any typed variant is acceptable; panics are not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let a = sample_artifact(3);
        let bytes = encode(&a);
        // Exhaustive over bytes is slow in debug; stride through the file
        // plus always test the first/last byte.
        let mut positions: Vec<usize> = (0..bytes.len()).step_by(7).collect();
        positions.push(bytes.len() - 1);
        for pos in positions {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= 1 << bit;
                assert!(
                    decode(&corrupted, Some(a.key)).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn alien_key_is_rejected() {
        let a = sample_artifact(4);
        let bytes = encode(&a);
        let wrong = ArtifactKey {
            adg_fp: a.key.adg_fp ^ 1,
            ..a.key
        };
        match decode(&bytes, Some(wrong)) {
            Err(RecordError::AlienKey { found, expected }) => {
                assert_eq!(found, a.key);
                assert_eq!(expected, wrong);
            }
            other => panic!("expected AlienKey, got {other:?}"),
        }
    }

    #[test]
    fn frame_boundaries_cover_all_five_chunks() {
        let bytes = encode(&sample_artifact(5));
        let bounds = frame_boundaries(&bytes);
        // magic + KEY + PLACEMENT + ROUTES + CONFIG + END.
        assert_eq!(bounds.len(), 6);
        assert_eq!(bounds[0], MAGIC.len());
        assert_eq!(*bounds.last().unwrap(), bytes.len());
    }

    #[test]
    fn digest_mismatch_is_its_own_error() {
        let a = sample_artifact(6);
        let mut bytes = encode(&a);
        // Rewrite the stored digest inside the KEY chunk and re-CRC the
        // chunk, so framing passes but the semantic check must fire.
        let key_payload_start = MAGIC.len() + 8;
        let digest_at = key_payload_start + 24;
        for (i, b) in 0xDEAD_BEEFu64.to_le_bytes().iter().enumerate() {
            bytes[digest_at + i] = *b;
        }
        let key_len = 8 * 6 + 4;
        let crc = dsagen_hwgen::crc32(&bytes[key_payload_start..key_payload_start + key_len]);
        let crc_at = MAGIC.len() + 4;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        match decode(&bytes, Some(a.key)) {
            Err(RecordError::DigestMismatch { stored, .. }) => {
                assert_eq!(stored, 0xDEAD_BEEF);
            }
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }
}
