//! The traced pass's span recorder. Spans are recorded by the
//! benchmark around its own calls into each layer (nothing is added
//! inside the program), kept in memory, and written out as
//! `trace.jsonl` when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span. `parent` is the index of the enclosing span in the same
/// recorder; spans of one op share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span list with one time origin. One per thread; the
/// lists are concatenated ([`Recorder::absorb`]) before writing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, op_id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, op_id, parent, now, now)
    }

    pub fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Record a span whose bounds were measured elsewhere (the daemon's
    /// own `/trace` spans, shifted onto this recorder's clock).
    pub fn push(
        &mut self,
        name: &str,
        op_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span and hand back its result and duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        op_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, op_id, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Append another recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Write one JSON object per span:
/// `{"workload","id","name","op_id","parent","start_ns","end_ns","self_ns"}`.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.op_id, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".to_string(),
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(None, 0, 100),    // children cover 10..40 and 50..70 (+ overlap)
            span(Some(0), 10, 30), // own child covers 15..20
            span(Some(0), 25, 40), // overlaps its sibling by 5
            span(Some(0), 50, 70),
            span(Some(1), 15, 20),
            span(Some(0), 90, 120), // reaches 20 past the parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 15, 15, 20, 5, 30]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.open("op", 1, None);
        a.close(root);
        let mut b = Recorder::new(origin);
        let op = b.open("op", 2, None);
        let child = b.open("submit", 2, Some(op));
        b.close(child);
        b.close(op);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].parent, None);
        assert_eq!(a.spans.iter().filter(|s| s.name == "op").count(), 2);
    }
}
