//! Harness-side spans: one around every call the benchmark makes into the
//! library, nested under the span of the op that made it. Recorded in
//! memory, written out when the workload ends. Spans inside the library are
//! not this benchmark's to add.

use std::time::Instant;

use crate::util::Json;

/// One timed interval on one rank. `parent` indexes the same rank's span
/// list; `op` is the identifier every span of one op shares.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-rank span recorder. With tracing off every method is one branch.
pub struct Recorder {
    on: bool,
    rank: u32,
    epoch: Instant,
    open: Option<u32>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by the ranks of a repetition so their spans line up.
    pub fn new(on: bool, rank: usize, epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            on,
            rank: rank as u32,
            epoch,
            open: None,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the span of op `op`; calls made until `end_op` nest under it.
    pub fn begin_op(&mut self, name: &'static str, op: u64) {
        if self.on {
            self.open = Some(self.spans.len() as u32);
            let t = self.now_ns();
            self.spans.push(Span {
                name,
                rank: self.rank,
                op,
                parent: None,
                start_ns: t,
                end_ns: t,
            });
        }
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.open.take() {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` (one call into the library) inside a span named `name`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            op,
            parent: self.open,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Spans as rows `[name, rank, op, parent, start_ns, end_ns]` (parent −1
/// for an op span), which keeps a 100 000-span file at a few MB.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.rank as f64),
                    Json::Num(s.op as f64),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect(),
    )
}
