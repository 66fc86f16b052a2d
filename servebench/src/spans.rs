//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it (a
//! lookup's children point at the lookup) and the lookup's id. A
//! span's self time is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// The lookup this span belongs to (see [`lookup_id`]); 0 for spans
    /// that serve many lookups at once.
    pub lookup: u64,
}

/// The id spans of one lookup share: its run counter and its XID.
pub fn lookup_id(sequence: u64, xid: u16) -> u64 {
    (sequence << 16) | u64::from(xid)
}

/// Collects spans when on; every method is one branch when off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Recorder { on, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch when on; 0 (no clock read) when off.
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a finished span; returns its index for children to name
    /// as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        lookup: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, lookup });
        Some(self.spans.len() as u32 - 1)
    }

    /// Opens a parent span that ends at [`Recorder::close`]; its
    /// children are recorded in between.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, lookup: u64) -> Option<u32> {
        let now = self.stamp();
        self.record(name, now, now, parent, lookup)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, span: Option<u32>) {
        if let Some(index) = span {
            let now = self.stamp();
            self.spans[index as usize].end_ns = now;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it), in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn summarize(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, NameSummary> {
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns.saturating_sub(span.start_ns);
        entry.self_ns += own;
    }
    out
}

/// Writes every span, one tab-separated line each, with its self time.
///
/// # Errors
///
/// Returns the I/O error of a failed create or write.
pub fn write_tsv(path: &std::path::Path, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tlookup\tself_ns")?;
    for (id, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            span.name, span.start_ns, span.end_ns, span.lookup
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, lookup: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("lookup", 0, 100, None),
            span("send", 10, 30, Some(0)),
            // Overlaps `send` by 10: counted once.
            span("wait", 20, 60, Some(0)),
            // Runs past the parent's end: clipped at 100.
            span("recv", 90, 120, Some(0)),
            span("inner", 25, 35, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - (50 + 10), 20, 40 - 10, 30, 10]);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        assert_eq!(self_times(&[span("x", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.stamp(), 0);
        let parent = rec.open("lookup", None, 1);
        assert_eq!(rec.record("send", 0, 1, parent, 1), None);
        rec.close(parent);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn open_close_brackets_children() {
        let mut rec = Recorder::new(true);
        let id = lookup_id(3, 0xBEEF);
        let parent = rec.open("lookup", None, id);
        let start = rec.stamp();
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.record("wait", start, rec.stamp(), parent, id);
        rec.close(parent);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].lookup, (3 << 16) | 0xBEEF);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        assert!(own[0] < spans[0].end_ns - spans[0].start_ns);
        let summary = summarize(spans, &own);
        assert_eq!(summary["wait"].count, 1);
        assert_eq!(summary["lookup"].self_ns, own[0]);
    }
}
