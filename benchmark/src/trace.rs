//! In-memory spans, recorded from the benchmark's side of each call
//! into a layer and written at exit as Chrome trace-event JSON (opens
//! in Perfetto and chrome://tracing).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span timed. Root spans are one op of the client loop; the
/// rest are children of a `Walk`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    /// `store.contains`, called as any client would.
    Get,
    /// `store.insert`.
    Put,
    /// `store.range_keys`.
    Scan,
    /// A traced get: the driver's own walk of the layers, clock reads
    /// between them.
    Walk,
    /// `ShardRouter::route_owner`.
    Route,
    /// Binary search in the shard's pending buffer.
    Buffer,
    /// `SortedRun::contains`, one span per run probed.
    Run,
    /// `Rmi::predict`.
    Predict,
    /// `search_with_widening` in the predicted window.
    LastMile,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Get => "store.contains",
            Name::Put => "store.insert",
            Name::Scan => "store.range_keys",
            Name::Walk => "walk",
            Name::Route => "router.route",
            Name::Buffer => "delta.buffer",
            Name::Run => "run.contains",
            Name::Predict => "rmi.predict",
            Name::LastMile => "search.last_mile",
        }
    }
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    /// Index of the op in the stream; spans of one op share it.
    pub op: u32,
    /// Index of the parent span, or `ROOT`.
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u32,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Nanoseconds as a `u32`: 4.29 s, longer than any one op.
pub fn ns32(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

impl Trace {
    /// A buffer for `spans` spans, touched now so that recording one
    /// never page-faults.
    pub fn with_capacity(spans: usize) -> Self {
        let blank = Span {
            name: Name::Get,
            op: 0,
            parent: ROOT,
            start_ns: 0,
            dur_ns: 1,
        };
        let mut buffer = vec![blank; spans];
        buffer.clear();
        Self {
            origin: Instant::now(),
            spans: buffer,
        }
    }

    /// Record a span; returns its index, for children to name as parent.
    pub fn push(&mut self, name: Name, op: u32, parent: u32, start: Instant, end: Instant) -> u32 {
        let at = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: ns32(start, end),
        });
        at
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: Name) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Self time per span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u32> {
        let mut own: Vec<u32> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Write at most `cap` spans (whole ops, in order) as complete
    /// ("X") events; timestamps are microseconds.
    pub fn write_chrome(&self, path: &Path, workload: &str, cap: usize) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(cap);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{written}}},\"traceEvents\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent},\"self_ns\":{}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                f64::from(s.dur_ns) / 1e3,
                s.op,
                own[i],
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
