//! Spans recorded by the benchmark, from outside the program: a name,
//! a start, an end, the span that caused it and the op it belongs to.
//! Kept in memory and written as one JSON object per line at exit.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Index into the workload's op list.
    pub op: u32,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// `A`: over HTTP. `B`: the in-process layer walk.
    pub pass: char,
    /// A child measured by calling the same public function again right
    /// after its parent returned, because the parent cannot be opened
    /// from outside. Its duration counts against the parent's self time;
    /// its timestamps lie after the parent's end.
    pub replayed: bool,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_us - self.start_us) as f64
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    pass: char,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `id_base` keeps ids of concurrent tracers apart.
    pub fn new(epoch: Instant, pass: char, id_base: u32) -> Tracer {
        Tracer {
            epoch,
            next_id: id_base,
            pass,
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        start_us: u64,
        replayed: bool,
    ) -> u32 {
        let end_us = self.now_us();
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            op,
            name,
            start_us,
            end_us,
            pass: self.pass,
            replayed,
        });
        self.next_id
    }

    /// Time `f` as a span; returns its result and the span's id.
    pub fn span_id<T>(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        replayed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now_us();
        let out = f();
        let id = self.record(parent, op, name, start, replayed);
        (out, id)
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        replayed: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span_id(parent, op, name, replayed, f).0
    }

    /// Reserve an id for a parent whose children are recorded first.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span under an id from [`Tracer::reserve`].
    pub fn record_as(&mut self, id: u32, op: u32, name: &'static str, start_us: u64) {
        let end_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: 0,
            op,
            name,
            start_us,
            end_us,
            pass: self.pass,
            replayed: false,
        });
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Self time (µs) of every span: its duration minus the durations of
/// its direct children.
pub fn self_times(spans: &[Span]) -> impl Iterator<Item = (&Span, f64)> {
    let mut child_total = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_total.entry(s.parent).or_insert(0.0) += s.micros();
    }
    spans.iter().map(move |s| {
        let children = child_total.get(&s.id).copied().unwrap_or(0.0);
        (s, (s.micros() - children).max(0.0))
    })
}

pub fn write_jsonl(path: &Path, kinds: &[&str], op_kind: &[u8], spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"pass\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"replayed\":{}}}",
            s.pass,
            s.id,
            s.parent,
            s.op,
            kinds[op_kind[s.op as usize] as usize],
            s.name,
            s.start_us,
            s.end_us,
            s.replayed
        )?;
    }
    out.flush()
}
