//! Spans measured from outside the program, and the self-time
//! arithmetic that splits an op's time between the layers.
//!
//! One op of the traced stack is one span. Its children are not kept one
//! by one (an insert makes dozens of `Mem` calls): the `Mem` seam and the
//! `RawDev` seam each add their call time to a running total, and the
//! span keeps the totals that fell inside it. Self time is a span's
//! duration minus what its children cover:
//!
//! ```text
//! op span ──────────────────────────────  core      = op − mem
//!    Mem calls ───────  ────────          dam.cache = mem − dev
//!       RawDev calls ──    ──             dam.dev   = dev
//! sync span (save_meta + commit_meta)     dam.commit = all of it
//! ```

use std::time::Instant;

use crate::hist::Hist;
use crate::json::Json;

/// Nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            base: Instant::now(),
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// What a span is a span of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Delete,
    Get,
    Scan,
    Sync,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Get => "get",
            Kind::Scan => "scan",
            Kind::Sync => "sync",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One op as the trace saw it: its interval and the time and calls of
/// the two seams below it that fell inside the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub mem_ns: u64,
    pub mem_calls: u64,
    pub dev_ns: u64,
    pub dev_calls: u64,
    /// Bytes read or written at the device inside the span.
    pub dev_bytes: u64,
}

/// Self time per layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub core: u64,
    pub cache: u64,
    pub dev: u64,
    pub commit: u64,
}

impl SelfTime {
    pub fn total(&self) -> u64 {
        self.core + self.cache + self.dev + self.commit
    }

    fn add(&mut self, o: SelfTime) {
        self.core += o.core;
        self.cache += o.cache;
        self.dev += o.dev;
        self.commit += o.commit;
    }
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A layer's self time is its interval minus what its children
    /// cover. A child can read a few nanoseconds longer than its parent
    /// (each is timed with its own pair of clock reads), hence the
    /// saturating subtractions; the four parts always sum to the span.
    pub fn self_time(&self) -> SelfTime {
        let op = self.duration();
        if self.kind == Kind::Sync {
            return SelfTime {
                commit: op,
                ..SelfTime::default()
            };
        }
        let mem = self.mem_ns.min(op);
        let dev = self.dev_ns.min(mem);
        SelfTime {
            core: op - mem,
            cache: mem - dev,
            dev,
            commit: 0,
        }
    }

    fn json(&self) -> Json {
        let mut o = Json::obj();
        o.set("id", self.id)
            .set("kind", self.kind.name())
            .set("start_ns", self.start_ns)
            .set("end_ns", self.end_ns)
            .set("mem_ns", self.mem_ns)
            .set("mem_calls", self.mem_calls)
            .set("dev_ns", self.dev_ns)
            .set("dev_calls", self.dev_calls)
            .set("dev_bytes", self.dev_bytes);
        o
    }
}

/// Spans at least this long are all kept for `trace_<workload>.jsonl`.
pub const KEEP_OVER_NS: u64 = 100_000;
/// Of the rest, one in this many is kept.
pub const SAMPLE_ONE_IN: u64 = 256;

/// Aggregates over every span, and the kept spans, held in memory until
/// the run ends.
#[derive(Debug, Default)]
pub struct Recorder {
    next_id: u64,
    pub spans: u64,
    pub span_ns: u64,
    pub self_time: SelfTime,
    pub mem_calls: u64,
    /// Durations of the sync spans, and the device bytes moved in them.
    pub commit: Hist,
    pub commit_bytes: u64,
    pub kept: Vec<Span>,
}

impl Recorder {
    pub fn record(&mut self, mut span: Span) {
        span.id = self.next_id;
        self.next_id += 1;
        self.spans += 1;
        self.span_ns += span.duration();
        self.self_time.add(span.self_time());
        self.mem_calls += span.mem_calls;
        if span.kind == Kind::Sync {
            self.commit.record(span.duration());
            self.commit_bytes += span.dev_bytes;
        }
        if span.duration() >= KEEP_OVER_NS || span.id.is_multiple_of(SAMPLE_ONE_IN) {
            self.kept.push(span);
        }
    }

    /// One JSON object per line, in op order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            out.push_str(&s.json().line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, dur: u64, mem_ns: u64, dev_ns: u64) -> Span {
        Span {
            id: 0,
            kind,
            start_ns: 1_000,
            end_ns: 1_000 + dur,
            mem_ns,
            mem_calls: 3,
            dev_ns,
            dev_calls: 1,
            dev_bytes: 4096,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // insert: 1000 ns, of which 600 inside Mem calls, of which 250
        // inside device calls.
        let s = span(Kind::Insert, 1_000, 600, 250).self_time();
        assert_eq!(
            s,
            SelfTime {
                core: 400,
                cache: 350,
                dev: 250,
                commit: 0
            }
        );
        assert_eq!(s.total(), 1_000);
        // A sync span is the commit layer's, whatever ran below it.
        let c = span(Kind::Sync, 5_000, 900, 4_000).self_time();
        assert_eq!(
            c,
            SelfTime {
                commit: 5_000,
                ..SelfTime::default()
            }
        );
        // Children that read longer than the parent are clamped; the sum
        // still equals the span.
        let odd = span(Kind::Get, 100, 120, 130).self_time();
        assert_eq!(odd.total(), 100);
        assert_eq!(odd.core, 0);
    }

    #[test]
    fn recorder_sums_every_span_and_keeps_slow_ones_and_a_sample() {
        let mut r = Recorder::default();
        for i in 0..1024u64 {
            let dur = if i == 700 { 150_000 } else { 1_000 };
            r.record(span(
                if i == 9 { Kind::Sync } else { Kind::Get },
                dur,
                400,
                100,
            ));
        }
        assert_eq!(r.spans, 1024);
        assert_eq!(r.span_ns, 1023 * 1_000 + 150_000);
        assert_eq!(r.self_time.total(), r.span_ns);
        assert_eq!(r.self_time.commit, 1_000);
        assert_eq!(r.mem_calls, 3 * 1024);
        assert_eq!((r.commit.count(), r.commit_bytes), (1, 4096));
        let ids: Vec<u64> = r.kept.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 256, 512, 700, 768]);
        assert_eq!(r.jsonl().lines().count(), 5);
        assert!(r.jsonl().contains("\"kind\": \"get\""));
    }
}
