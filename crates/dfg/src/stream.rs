//! Compiled memory streams: the decoupled access half of a region.
//!
//! After decoupling (§IV-C), every memory access in an offload region is a
//! coarse-grained *stream* — the compiler hoists address generation out of
//! the dataflow graph and encodes it as a pattern executed by a memory's
//! stream controller.

use serde::{Deserialize, Serialize};

use crate::MemClass;

/// Where a stream's data comes from or goes to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamSource {
    /// A decoupled memory (scratchpad or main-memory interface).
    Memory(MemClass),
    /// Forwarded on-fabric from another region's output port — the
    /// producer-consumer and repetitive-update optimizations (§IV-D).
    Forward {
        /// Producing region index within the kernel.
        from_region: usize,
        /// Producing output port within that region.
        from_port: usize,
    },
    /// Generated element-by-element by the control core — the scalar
    /// fallback path when a stream idiom is unsupported (§IV-C).
    ControlCore,
}

/// Direction and semantics of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamDir {
    /// Memory → fabric.
    Read,
    /// Fabric → memory.
    Write,
    /// Fabric → memory read-modify-write in the bank (atomic update,
    /// `a[b[i]] op= v`; requires the atomic-update controller).
    AtomicUpdate,
}

/// The address pattern of a stream, summarized for modeling and simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamPattern {
    /// Average elements delivered per issued stream command.
    pub elems_per_command: f64,
    /// Number of stream commands the control core issues over the whole
    /// region execution (outer loops that don't fold into the 2-D pattern
    /// each cost a command).
    pub commands: u64,
    /// Innermost stride in bytes; 0 means the same element repeats
    /// (loop-invariant operand), `elem_bytes` means contiguous.
    pub stride_bytes: i64,
    /// Whether the inner length varies with the outer loop (inductive 2-D
    /// pattern, e.g. triangular solvers).
    pub inductive: bool,
    /// Whether addresses come from an index stream (`a[b[i]]`).
    pub indirect: bool,
}

impl StreamPattern {
    /// A simple linear pattern: one command, `elems` elements, given stride.
    #[must_use]
    pub fn linear(elems: f64, stride_bytes: i64) -> Self {
        StreamPattern {
            elems_per_command: elems,
            commands: 1,
            stride_bytes,
            inductive: false,
            indirect: false,
        }
    }

    /// Total elements transferred over the region execution.
    #[must_use]
    pub fn total_elems(&self) -> f64 {
        self.elems_per_command * self.commands as f64
    }

    /// The number of memory-line requests needed to deliver the stream,
    /// given a line width and the stream's vector lane count. Contiguous
    /// streams coalesce into full lines; strided streams need one request
    /// per *lane group* (unrolled lanes fetch consecutive elements, so a
    /// group shares a request) — but never fewer than one per distinct
    /// line touched. Small non-unit strides thus still pay per group:
    /// exactly the fft pathology of §VIII-A ("the stride of data access
    /// becomes so small that the compiled version may generate too many
    /// requests to the same line").
    #[must_use]
    pub fn line_requests(&self, line_bytes: u32, elem_bytes: u32) -> f64 {
        self.line_requests_lanes(line_bytes, elem_bytes, 1)
    }

    /// [`StreamPattern::line_requests`] with an explicit lane-group size.
    #[must_use]
    pub fn line_requests_lanes(&self, line_bytes: u32, elem_bytes: u32, lanes: u16) -> f64 {
        let elems = self.total_elems();
        let group = f64::from(lanes.max(1));
        if self.indirect {
            return elems; // gather: one request per element
        }
        if self.stride_bytes == 0 {
            return self.commands as f64; // repeated element: one fill per command
        }
        if self.stride_bytes.unsigned_abs() as u32 == elem_bytes {
            // Contiguous: perfectly coalesced.
            (elems * f64::from(elem_bytes) / f64::from(line_bytes)).ceil()
        } else {
            // Strided: one request per lane group, the group's lanes being
            // consecutive elements (bounded below by full-line coalescing).
            let coalesced = elems * f64::from(elem_bytes) / f64::from(line_bytes);
            (elems / group).max(coalesced).ceil()
        }
    }
}

/// One compiled stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stream {
    /// The sync-element port this stream feeds (reads) or drains (writes).
    /// Index streams that feed the memory controller rather than the fabric
    /// have [`Stream::to_fabric`] `false` and a port of the paired stream.
    pub port: usize,
    /// Read, write, or atomic update.
    pub dir: StreamDir,
    /// Element size in bytes.
    pub elem_bytes: u32,
    /// Vector lanes delivered per fabric firing (the unrolling degree).
    pub lanes: u16,
    /// The address pattern.
    pub pattern: StreamPattern,
    /// Data source/sink.
    pub source: StreamSource,
    /// Whether the stream's data enters the fabric (false for index
    /// streams consumed by an indirect controller).
    pub to_fabric: bool,
}

impl Stream {
    /// Feeds the stream's full content into `h` with explicit variant tags
    /// and bit-exact floats — part of `CompiledKernel::content_hash`.
    pub(crate) fn hash_content<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_usize(self.port);
        h.write_u8(match self.dir {
            StreamDir::Read => 0,
            StreamDir::Write => 1,
            StreamDir::AtomicUpdate => 2,
        });
        h.write_u32(self.elem_bytes);
        h.write_u16(self.lanes);
        h.write_u64(self.pattern.elems_per_command.to_bits());
        h.write_u64(self.pattern.commands);
        h.write_i64(self.pattern.stride_bytes);
        h.write_u8(u8::from(self.pattern.inductive) | (u8::from(self.pattern.indirect) << 1));
        match self.source {
            StreamSource::Memory(MemClass::MainMemory) => h.write_u8(0),
            StreamSource::Memory(MemClass::Scratchpad) => h.write_u8(1),
            StreamSource::Forward {
                from_region,
                from_port,
            } => {
                h.write_u8(2);
                h.write_usize(from_region);
                h.write_usize(from_port);
            }
            StreamSource::ControlCore => h.write_u8(3),
        }
        h.write_u8(u8::from(self.to_fabric));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_pattern_totals() {
        let p = StreamPattern::linear(1024.0, 8);
        assert_eq!(p.total_elems(), 1024.0);
        assert_eq!(p.commands, 1);
    }

    #[test]
    fn contiguous_coalesces_into_lines() {
        let p = StreamPattern::linear(1024.0, 8);
        assert_eq!(p.line_requests(64, 8), 128.0);
    }

    #[test]
    fn strided_pays_per_element() {
        let p = StreamPattern::linear(1024.0, 512);
        assert_eq!(p.line_requests(64, 8), 1024.0);
        // Small non-unit stride also pays per element (fft pathology).
        let small = StreamPattern::linear(1024.0, 16);
        assert_eq!(small.line_requests(64, 8), 1024.0);
    }

    #[test]
    fn repeated_element_is_one_fill_per_command() {
        let mut p = StreamPattern::linear(1024.0, 0);
        p.commands = 4;
        p.elems_per_command = 256.0;
        assert_eq!(p.line_requests(64, 8), 4.0);
    }

    #[test]
    fn indirect_pays_per_element() {
        let mut p = StreamPattern::linear(100.0, 8);
        p.indirect = true;
        assert_eq!(p.line_requests(64, 8), 100.0);
    }

    #[test]
    fn stream_byte_accounting() {
        let s = Stream {
            port: 0,
            dir: StreamDir::Read,
            elem_bytes: 8,
            lanes: 4,
            pattern: StreamPattern::linear(256.0, 8),
            source: StreamSource::Memory(MemClass::MainMemory),
            to_fabric: true,
        };
        assert_eq!(s.pattern.total_elems() * f64::from(s.elem_bytes), 2048.0);
    }
}
