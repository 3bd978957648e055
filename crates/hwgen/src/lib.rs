//! Hardware generation for DSAGEN (§VI).
//!
//! Three artifacts turn an ADG + schedule into deployable hardware:
//!
//! * [`Bitstream`] — per-component configuration words (routing tables,
//!   instruction slots with opcodes/timing/tags, sync-element delays),
//!   serializable and roundtrip-decodable;
//! * [`generate_config_paths`] — one or more network walks covering every
//!   configurable component, minimizing the longest path (which dominates
//!   configuration time, Fig 13);
//! * [`emit_verilog`] — structural Verilog for the whole fabric (the
//!   Chisel-backend substitute; see DESIGN.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod bitstream;
mod config_path;
mod frame;
mod rtl;

pub use bitstream::{
    schedule_digest, verify_round_trip, verify_round_trip_timed, Bitstream, BitstreamError,
    InstrConfig, NodeConfig, RouteConfig, SyncConfig, VerifiedConfig, VerifyError,
};
pub use config_path::{
    generate_config_paths, try_generate_config_paths, ConfigPathError, ConfigPaths,
};
pub use frame::{
    crc32, deframe_words, frame_chunk, frame_words, unframe_chunk, ChunkError, FrameError,
    ProgrammingSession, SessionConfig, SessionError, SessionReport, SessionState,
};
pub use rtl::emit_verilog;
