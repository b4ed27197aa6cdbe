//! Binary record encoding with byte accounting.
//!
//! The paper compares tools by the bytes they persist (Table I, Fig. 11,
//! Fig. 13). [`RecordWriter`] is a small length-accurate binary encoder:
//! tools append records through it and the writer's length is the tool's
//! storage cost. Records can be decoded back ([`RecordReader`]) so tests
//! can verify round trips.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Record types in tool output files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordTag {
    /// Per-(vertex, rank) performance vector.
    VertexPerf = 1,
    /// Communication-dependence record.
    CommDep = 2,
    /// Timestamped trace event.
    TraceEvent = 3,
    /// Call-path sample histogram entry.
    SampleEntry = 4,
    /// Resolved indirect call.
    IndirectCall = 5,
}

impl RecordTag {
    fn from_u8(v: u8) -> Option<RecordTag> {
        Some(match v {
            1 => RecordTag::VertexPerf,
            2 => RecordTag::CommDep,
            3 => RecordTag::TraceEvent,
            4 => RecordTag::SampleEntry,
            5 => RecordTag::IndirectCall,
            _ => return None,
        })
    }
}

/// Append-only binary record writer.
#[derive(Debug, Default)]
pub struct RecordWriter {
    buf: BytesMut,
    records: u64,
}

impl RecordWriter {
    /// Fresh writer.
    pub fn new() -> RecordWriter {
        RecordWriter::default()
    }

    /// Bytes written so far — the storage cost.
    pub fn bytes_written(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Number of records written.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Freeze into an immutable buffer (for decoding/tests).
    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }

    fn header(&mut self, tag: RecordTag) {
        self.buf.put_u8(tag as u8);
        self.records += 1;
    }

    /// Per-(vertex, rank) performance vector: 1 + 4 + 4 + 8*3 = 33 bytes.
    pub fn vertex_perf(&mut self, vertex: u32, rank: u32, time: f64, tot_ins: f64, wait: f64) {
        self.header(RecordTag::VertexPerf);
        self.buf.put_u32_le(vertex);
        self.buf.put_u32_le(rank);
        self.buf.put_f64_le(time);
        self.buf.put_f64_le(tot_ins);
        self.buf.put_f64_le(wait);
    }

    /// Communication-dependence record: 1 + 4*4 + 8 = 25 bytes.
    pub fn comm_dep(
        &mut self,
        src_rank: u32,
        src_vertex: u32,
        dst_vertex: u32,
        tag: i32,
        bytes: u64,
    ) {
        self.header(RecordTag::CommDep);
        self.buf.put_u32_le(src_rank);
        self.buf.put_u32_le(src_vertex);
        self.buf.put_u32_le(dst_vertex);
        self.buf.put_i32_le(tag);
        self.buf.put_u64_le(bytes);
    }

    /// Timestamped trace event: 1 + 4 + 4 + 1 + 8 + 8 = 26 bytes.
    pub fn trace_event(&mut self, rank: u32, vertex: u32, kind: u8, time: f64, payload: f64) {
        self.header(RecordTag::TraceEvent);
        self.buf.put_u32_le(rank);
        self.buf.put_u32_le(vertex);
        self.buf.put_u8(kind);
        self.buf.put_f64_le(time);
        self.buf.put_f64_le(payload);
    }

    /// Call-path sample histogram entry: 1 + 4 + 4 + 8 + 8 + 4 = 29
    /// bytes, plus the modeled unwound-call-path cost (`path_len` frames
    /// × 8). The frame count is part of the record so a reader can
    /// decode past it — the format is self-describing end to end.
    pub fn sample_entry(&mut self, rank: u32, vertex: u32, count: u64, time: f64, path_len: u32) {
        self.header(RecordTag::SampleEntry);
        self.buf.put_u32_le(rank);
        self.buf.put_u32_le(vertex);
        self.buf.put_u64_le(count);
        self.buf.put_f64_le(time);
        self.buf.put_u32_le(path_len);
        // Call-path frames (modeled as 8 bytes each).
        for i in 0..path_len {
            self.buf.put_u64_le(u64::from(i));
        }
    }

    /// Resolved indirect call: 1 + 4 + 4 + 2 + name bytes.
    pub fn indirect_call(&mut self, ctx: u32, stmt: u32, callee: &str) {
        self.header(RecordTag::IndirectCall);
        self.buf.put_u32_le(ctx);
        self.buf.put_u32_le(stmt);
        self.buf.put_u16_le(callee.len() as u16);
        self.buf.put_slice(callee.as_bytes());
    }
}

/// Decoded record (used by round-trip tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Performance vector entry.
    VertexPerf {
        /// Vertex id.
        vertex: u32,
        /// Rank id.
        rank: u32,
        /// Attributed seconds.
        time: f64,
        /// Instructions.
        tot_ins: f64,
        /// Waiting seconds.
        wait: f64,
    },
    /// Communication dependence.
    CommDep {
        /// Sender rank.
        src_rank: u32,
        /// Sender vertex.
        src_vertex: u32,
        /// Receiver vertex.
        dst_vertex: u32,
        /// Tag.
        tag: i32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Trace event.
    TraceEvent {
        /// Rank.
        rank: u32,
        /// Vertex.
        vertex: u32,
        /// Event code.
        kind: u8,
        /// Timestamp.
        time: f64,
        /// Payload (duration / bytes).
        payload: f64,
    },
    /// Sample histogram entry.
    SampleEntry {
        /// Rank.
        rank: u32,
        /// Vertex.
        vertex: u32,
        /// Samples.
        count: u64,
        /// Seconds.
        time: f64,
        /// Call-path frames.
        path: Vec<u64>,
    },
    /// Indirect call record.
    IndirectCall {
        /// Calling context.
        ctx: u32,
        /// Call statement.
        stmt: u32,
        /// Target function.
        callee: String,
    },
}

/// Streaming decoder over a frozen buffer.
pub struct RecordReader {
    buf: Bytes,
}

impl RecordReader {
    /// Wrap an encoded buffer.
    pub fn new(buf: Bytes) -> RecordReader {
        RecordReader { buf }
    }

    /// Bytes left to decode.
    fn check(&self, n: usize) -> Option<()> {
        if self.buf.remaining() >= n {
            Some(())
        } else {
            None
        }
    }

    /// Decode the next record; `None` at end of buffer or on corruption
    /// (unknown tag, or a record truncated mid-field — the reader never
    /// panics on short input).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Record> {
        if !self.buf.has_remaining() {
            return None;
        }
        let tag = RecordTag::from_u8(self.buf.get_u8())?;
        match tag {
            RecordTag::VertexPerf => {
                self.check(4 + 4 + 3 * 8)?;
                Some(Record::VertexPerf {
                    vertex: self.buf.get_u32_le(),
                    rank: self.buf.get_u32_le(),
                    time: self.buf.get_f64_le(),
                    tot_ins: self.buf.get_f64_le(),
                    wait: self.buf.get_f64_le(),
                })
            }
            RecordTag::CommDep => {
                self.check(4 * 4 + 8)?;
                Some(Record::CommDep {
                    src_rank: self.buf.get_u32_le(),
                    src_vertex: self.buf.get_u32_le(),
                    dst_vertex: self.buf.get_u32_le(),
                    tag: self.buf.get_i32_le(),
                    bytes: self.buf.get_u64_le(),
                })
            }
            RecordTag::TraceEvent => {
                self.check(4 + 4 + 1 + 8 + 8)?;
                Some(Record::TraceEvent {
                    rank: self.buf.get_u32_le(),
                    vertex: self.buf.get_u32_le(),
                    kind: self.buf.get_u8(),
                    time: self.buf.get_f64_le(),
                    payload: self.buf.get_f64_le(),
                })
            }
            RecordTag::SampleEntry => {
                self.check(4 + 4 + 8 + 8 + 4)?;
                let rank = self.buf.get_u32_le();
                let vertex = self.buf.get_u32_le();
                let count = self.buf.get_u64_le();
                let time = self.buf.get_f64_le();
                let path_len = self.buf.get_u32_le() as usize;
                self.check(path_len.checked_mul(8)?)?;
                let path = (0..path_len).map(|_| self.buf.get_u64_le()).collect();
                Some(Record::SampleEntry {
                    rank,
                    vertex,
                    count,
                    time,
                    path,
                })
            }
            RecordTag::IndirectCall => {
                self.check(4 + 4 + 2)?;
                let ctx = self.buf.get_u32_le();
                let stmt = self.buf.get_u32_le();
                let len = self.buf.get_u16_le() as usize;
                self.check(len)?;
                let name = self.buf.copy_to_bytes(len);
                Some(Record::IndirectCall {
                    ctx,
                    stmt,
                    callee: String::from_utf8_lossy(&name).into_owned(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_perf_round_trip() {
        let mut w = RecordWriter::new();
        w.vertex_perf(7, 3, 1.5, 1000.0, 0.25);
        assert_eq!(w.bytes_written(), 33);
        assert_eq!(w.record_count(), 1);
        let mut r = RecordReader::new(w.freeze());
        assert_eq!(
            r.next(),
            Some(Record::VertexPerf {
                vertex: 7,
                rank: 3,
                time: 1.5,
                tot_ins: 1000.0,
                wait: 0.25
            })
        );
        assert_eq!(r.next(), None);
    }

    #[test]
    fn comm_dep_round_trip() {
        let mut w = RecordWriter::new();
        w.comm_dep(1, 2, 3, -1, 4096);
        assert_eq!(w.bytes_written(), 25);
        assert_eq!(w.record_count(), 1);
        let mut r = RecordReader::new(w.freeze());
        assert_eq!(
            r.next(),
            Some(Record::CommDep {
                src_rank: 1,
                src_vertex: 2,
                dst_vertex: 3,
                tag: -1,
                bytes: 4096
            })
        );
    }

    #[test]
    fn trace_event_size_is_fixed() {
        let mut w = RecordWriter::new();
        w.trace_event(0, 1, 2, 0.001, 64.0);
        w.trace_event(0, 1, 3, 0.002, 0.0);
        assert_eq!(w.bytes_written(), 52);
        assert_eq!(w.record_count(), 2);
    }

    #[test]
    fn indirect_call_round_trip() {
        let mut w = RecordWriter::new();
        w.indirect_call(4, 17, "handle_event");
        let mut r = RecordReader::new(w.freeze());
        assert_eq!(
            r.next(),
            Some(Record::IndirectCall {
                ctx: 4,
                stmt: 17,
                callee: "handle_event".into()
            })
        );
    }

    #[test]
    fn sample_entry_grows_with_path_len() {
        let mut w1 = RecordWriter::new();
        w1.sample_entry(0, 1, 10, 0.5, 0);
        assert_eq!(w1.bytes_written(), 29);
        let mut w2 = RecordWriter::new();
        w2.sample_entry(0, 1, 10, 0.5, 8);
        assert_eq!(w2.bytes_written() - w1.bytes_written(), 64);
    }

    #[test]
    fn sample_entry_round_trips_with_path() {
        let mut w = RecordWriter::new();
        w.sample_entry(3, 9, 17, 0.25, 4);
        w.comm_dep(0, 1, 2, 5, 64);
        let mut r = RecordReader::new(w.freeze());
        assert_eq!(
            r.next(),
            Some(Record::SampleEntry {
                rank: 3,
                vertex: 9,
                count: 17,
                time: 0.25,
                path: vec![0, 1, 2, 3],
            })
        );
        // The reader resynchronizes exactly on the next record.
        assert!(matches!(r.next(), Some(Record::CommDep { bytes: 64, .. })));
        assert_eq!(r.next(), None);
    }

    #[test]
    fn truncated_buffers_yield_none_not_panic() {
        let mut w = RecordWriter::new();
        w.vertex_perf(7, 3, 1.5, 1000.0, 0.25);
        w.indirect_call(4, 17, "handle_event");
        w.sample_entry(0, 1, 10, 0.5, 8);
        let full = w.freeze();
        for cut in 0..full.len() {
            let mut r = RecordReader::new(full.slice(0..cut));
            // Drain: complete prefix records decode, the torn one stops
            // the stream. No cut position may panic.
            while r.next().is_some() {}
        }
    }

    #[test]
    fn empty_reader_yields_none() {
        let mut r = RecordReader::new(RecordWriter::new().freeze());
        assert_eq!(r.next(), None);
    }
}
