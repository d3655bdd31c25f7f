//! In-memory spans recorded from outside the program's public calls.
//!
//! A [`Tracer`] is either off (every call is a no-op, the untraced
//! end-to-end run) or collecting. A span has a name, a start and end on
//! one process-wide monotonic clock, a parent span, and a correlation id
//! shared by every span of one request or one `(trace, config)` pair.
//! Spans stay in memory until the run ends; [`write_tsv`] writes them out
//! and [`self_times`] turns them into per-layer self time: a span's
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (one clock shared by
/// every thread's tracer, so merged spans compare).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// No parent: a root span.
pub const ROOT: usize = usize::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.optimize`.
    pub name: &'static str,
    /// Correlation id: request index, or `(trace, config)` index.
    pub id: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: usize,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end: u64,
}

/// An open span: where to write the end time.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(usize);

/// A per-thread span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` (an [`Open`] of this tracer, or `None`
    /// for a root span).
    pub fn start(&mut self, name: &'static str, id: u64, parent: Option<Open>) -> Open {
        if !self.on {
            return Open(ROOT);
        }
        let now = now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.map_or(ROOT, |p| p.0),
            start: now,
            end: now,
        });
        Open(self.spans.len() - 1)
    }

    /// Closes an open span.
    pub fn end(&mut self, open: Open) {
        if self.on {
            self.spans[open.0].end = now_ns();
        }
    }

    /// Records an already-closed span, e.g. one timed on another thread.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<Open>,
        start: u64,
        end: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent: parent.map_or(ROOT, |p| p.0),
                start,
                end,
            });
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<Open>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.start(name, id, parent);
        let r = f();
        self.end(s);
        r
    }

    /// Appends another thread's spans, re-basing their parent indices.
    /// `under` re-parents the other tracer's root spans.
    pub fn absorb(&mut self, other: Tracer, under: Option<Open>) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let root = under.map_or(ROOT, |p| p.0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == ROOT {
                root
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals (children of one span never overlap
/// in this benchmark, but the union is taken anyway and clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Writes spans as tab-separated `index name id parent start_ns end_ns`
/// lines (parent `-` for a root span).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.id, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: usize, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("outer", ROOT, 0, 1_000),
            span("inner", 0, 100, 300),
            span("inner", 0, 500, 900),
        ];
        let t = self_times(&spans);
        assert!((t["outer"] - 400e-9).abs() < 1e-15);
        assert!((t["inner"] - 600e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.start("x", 1, None);
        t.end(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        let root = a.start("root", 0, None);
        let mut b = Tracer::new(true);
        let p = b.start("req", 7, None);
        b.time("leaf", 7, Some(p), || ());
        b.end(p);
        a.absorb(b, Some(root));
        a.end(root);
        let s = a.spans();
        assert_eq!(s[1].parent, 0, "other tracer's root re-parented");
        assert_eq!(s[2].parent, 1, "inner parent re-based");
    }
}
