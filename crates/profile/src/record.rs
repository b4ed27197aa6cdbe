//! Byte sizes of the records the three tools would persist.
//!
//! The paper compares tools by the bytes they persist (Table I, Fig. 11,
//! Fig. 13). The tools here write no output file of that format: each
//! counts the records it would append and charges their sizes, defined
//! below and nowhere else. A record is a one-byte type tag followed by
//! little-endian fields. The sizes are what the storage columns report;
//! the profile image ([`store`](crate::store)) is a separate format.

/// Per-(vertex, rank) performance vector: tag + vertex u32 + rank u32 +
/// time, instructions and wait as f64.
pub const VERTEX_PERF: u64 = 1 + 4 + 4 + 3 * 8;

/// Communication dependence: tag + source rank, source vertex and
/// destination vertex as u32 + tag i32 + payload bytes u64.
pub const COMM_DEP: u64 = 1 + 4 * 4 + 8;

/// Timestamped trace event: tag + rank u32 + vertex u32 + event code u8 +
/// timestamp and payload as f64.
pub const TRACE_EVENT: u64 = 1 + 4 + 4 + 1 + 8 + 8;

/// Call-path histogram entry without its frames: tag + rank u32 +
/// vertex u32 + samples u64 + seconds f64 + frame count u32.
pub const SAMPLE_ENTRY: u64 = 1 + 4 + 4 + 8 + 8 + 4;

/// One unwound call-path frame of a histogram entry.
pub const SAMPLE_FRAME: u64 = 8;

/// Resolved indirect call without its callee name: tag + context u32 +
/// statement u32 + name length u16. The name's bytes follow.
pub const INDIRECT_CALL: u64 = 1 + 4 + 4 + 2;
