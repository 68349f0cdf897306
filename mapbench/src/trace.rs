//! Spans around every call the benchmark makes into a layer.  Each worker keeps
//! its spans in its own buffer; they are reduced to per-layer self times only
//! after the workers join, so no tracing state is shared during the run.

use std::io::Write;
use std::time::Instant;

/// Span names, one per layer boundary the op loop crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Loop,
    Keygen,
    Pin,
    Read,
    Insert,
    Remove,
    ScanOpen,
    ScanNext,
    ValueCheck,
    Unpin,
}

impl Name {
    pub const ALL: [Name; 10] = [
        Name::Pin,
        Name::Unpin,
        Name::Read,
        Name::Insert,
        Name::Remove,
        Name::ScanOpen,
        Name::ScanNext,
        Name::Keygen,
        Name::ValueCheck,
        Name::Loop,
    ];

    /// The per-layer metric this span's mean self time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Name::Pin => "smr.pin_ns",
            Name::Unpin => "smr.unpin_ns",
            Name::Read => "scot.read_ns",
            Name::Insert => "scot.insert_ns",
            Name::Remove => "scot.remove_ns",
            Name::ScanOpen => "scot.scan_open_ns",
            Name::ScanNext => "scot.scan_next_ns",
            Name::Keygen => "bench.keygen_ns",
            Name::ValueCheck => "bench.value_check_ns",
            Name::Loop => "bench.loop_ns",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation the span belongs to: `worker << 48 | op index`.
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

/// One worker's span buffer.  `open`/`close` do nothing unless the current
/// op was selected for tracing, so the untraced path costs one branch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    op: u64,
    on: bool,
}

impl Tracer {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            cap,
            op: 0,
            on: false,
        }
    }

    /// Selects whether the next op's spans are recorded.  Recording stops for
    /// good once the buffer is full; a span needs at most `headroom` slots.
    pub fn begin_op(&mut self, op: u64, traced: bool, headroom: usize) {
        self.op = op;
        self.on = traced && self.spans.len() + headroom <= self.cap;
        if self.on && self.spans.capacity() == 0 {
            self.spans.reserve_exact(self.cap);
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn open(&mut self, name: Name, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Mean duration of an empty span: the clock cost included in every span's
/// self time, so a layer's own cost is its self time minus this.
pub fn empty_span_ns() -> f64 {
    let n = 100_000;
    let mut tr = Tracer::new(Instant::now(), n);
    tr.begin_op(0, true, n);
    for _ in 0..n {
        let s = tr.open(Name::Loop, NO_PARENT);
        tr.close(s);
    }
    let spans = tr.into_spans();
    spans.iter().map(|s| s.end - s.start).sum::<u64>() as f64 / spans.len() as f64
}

/// Per-name totals of self time: `(name, self_ns, calls)`, plus the covered
/// share of the root spans: `(children_ns, roots_ns)`.
pub struct SelfTimes {
    pub by_name: Vec<(Name, u64, u64)>,
    pub root_children_ns: u64,
    pub root_ns: u64,
}

impl SelfTimes {
    /// Sums the totals of two buffers.
    pub fn merged(mut self, other: SelfTimes) -> SelfTimes {
        for (a, b) in self.by_name.iter_mut().zip(&other.by_name) {
            a.1 += b.1;
            a.2 += b.2;
        }
        self.root_children_ns += other.root_children_ns;
        self.root_ns += other.root_ns;
        self
    }

    pub fn mean_ns(&self, name: Name) -> f64 {
        self.by_name
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, ns, calls)| ns as f64 / calls.max(1) as f64)
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the span).  `spans` is one buffer, whose parent
/// indices point into itself.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut by_name: Vec<(Name, u64, u64)> = Name::ALL.iter().map(|&n| (n, 0, 0)).collect();
    let (mut root_children_ns, mut root_ns) = (0, 0);
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(kids, s.start, s.end);
        let dur = s.end - s.start;
        let slot = by_name
            .iter_mut()
            .find(|(n, _, _)| *n == s.name)
            .expect("every name is listed");
        slot.1 += dur - covered;
        slot.2 += 1;
        if s.parent == NO_PARENT {
            root_children_ns += covered;
            root_ns += dur;
        }
    }
    SelfTimes {
        by_name,
        root_children_ns,
        root_ns,
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes one buffer as tab-separated `op name parent start end` rows.
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{:#x}\t{}\t{}\t{}\t{}",
            s.op,
            s.name.metric(),
            parent,
            s.start,
            s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        // Loop [0,100] ⊃ Pin [10,30], Read [20,50] (overlapping siblings),
        // and Read ⊃ ValueCheck [25,35].  Unpin [90,100] is a third child.
        let spans = [
            span(Name::Loop, NO_PARENT, 0, 100),
            span(Name::Pin, 0, 10, 30),
            span(Name::Read, 0, 20, 50),
            span(Name::ValueCheck, 2, 25, 35),
            span(Name::Unpin, 0, 90, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t.mean_ns(Name::Loop), 50.0); // 100 - |[10,50] ∪ [90,100]|
        assert_eq!(t.mean_ns(Name::Pin), 20.0);
        assert_eq!(t.mean_ns(Name::Read), 20.0); // 30 - 10
        assert_eq!(t.mean_ns(Name::ValueCheck), 10.0);
        assert_eq!(t.mean_ns(Name::Unpin), 10.0);
        assert_eq!(t.mean_ns(Name::Insert), 0.0); // never called
        assert_eq!((t.root_children_ns, t.root_ns), (50, 100));
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_averages_calls() {
        let spans = [
            span(Name::Loop, NO_PARENT, 0, 10),
            span(Name::Keygen, 0, 5, 15), // runs past its parent: clipped
            span(Name::Loop, NO_PARENT, 20, 50),
            span(Name::Keygen, 2, 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t.mean_ns(Name::Loop), (5.0 + 20.0) / 2.0);
        assert_eq!(t.mean_ns(Name::Keygen), 10.0);
    }

    #[test]
    fn tracer_records_only_selected_ops_within_capacity() {
        let mut tr = Tracer::new(Instant::now(), 3);
        tr.begin_op(1, false, 2);
        assert_eq!(tr.open(Name::Loop, NO_PARENT), NO_PARENT);
        tr.begin_op(2, true, 2);
        let root = tr.open(Name::Loop, NO_PARENT);
        let child = tr.open(Name::Pin, root);
        tr.close(child);
        tr.close(root);
        tr.begin_op(3, true, 2); // 2 + 2 > 3: buffer full
        assert_eq!(tr.open(Name::Loop, NO_PARENT), NO_PARENT);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op), (0, 2));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
