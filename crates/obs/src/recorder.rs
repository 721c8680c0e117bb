//! [`FlightRecorder`] — a bounded ring-buffer probe sink — plus the
//! Chrome trace-event exporter and [`SpanLatencyProbe`], the per-span
//! histogram and counter collector the tests count simulations with.
//!
//! The recorder keeps the last `capacity` events; older events are
//! dropped (and counted) so tracing a million-arrival run costs bounded
//! memory. Each [`Span`] whose [`Span::starts_lane`] is true opens a new
//! *lane* — the exporter maps lanes to Chrome `tid`s, so Perfetto shows
//! one row per admission with the step1→step4→buffer-sizing nesting
//! inside it.

use crate::hist::LatencyHistogram;
use crate::probe::{Counter, Probe, Span, N_COUNTERS, N_SPANS};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// What a recorded [`TraceEvent`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A [`Span`] region was entered.
    Begin(Span),
    /// The matching [`Span`] region was left.
    End(Span),
    /// A [`Counter`] advanced by the given delta.
    Count(Counter, u64),
}

/// One event captured by the [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (survives ring-buffer drops, so gaps
    /// reveal how much history was lost).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Trace lane — incremented every time a lane-starting span begins,
    /// 0 before the first one.
    pub lane: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

struct Inner {
    events: VecDeque<TraceEvent>,
    seq: u64,
    lane: u32,
    dropped: u64,
}

/// A bounded ring buffer of probe events.
///
/// Install an `Rc<FlightRecorder>` with [`crate::install`] and every
/// span/counter emission on the thread lands here until the guard drops.
/// On a failed admission (or from a panic hook) [`FlightRecorder::dump`]
/// renders the last events as an indented span tree;
/// [`FlightRecorder::chrome_trace_json`] exports the whole buffer in
/// Chrome trace-event JSON for Perfetto.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    inner: RefCell<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &inner.events.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            inner: RefCell::new(Inner {
                events: VecDeque::with_capacity(capacity.min(4096)),
                seq: 0,
                lane: 0,
                dropped: 0,
            }),
        }
    }

    fn push(&self, kind: TraceEventKind) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.borrow_mut();
        if let TraceEventKind::Begin(span) = kind {
            if span.starts_lane() {
                inner.lane += 1;
            }
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let event = TraceEvent {
            seq: inner.seq,
            ts_ns,
            lane: inner.lane,
            kind,
        };
        inner.seq += 1;
        inner.events.push_back(event);
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().events.is_empty()
    }

    /// Maximum events held before the oldest are dropped.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Snapshot of the most recent `n` events, oldest first.
    fn last_events(&self, n: usize) -> Vec<TraceEvent> {
        let inner = self.inner.borrow();
        let skip = inner.events.len().saturating_sub(n);
        inner.events.iter().skip(skip).copied().collect()
    }

    /// Number of unpaired span events in the buffer: `End`s whose `Begin`
    /// fell off the ring plus `Begin`s still open. A freshly traced,
    /// fully completed run with no drops has 0.
    pub fn balance_errors(&self) -> usize {
        let inner = self.inner.borrow();
        let mut stack: Vec<Span> = Vec::new();
        let mut errors = 0usize;
        for event in &inner.events {
            match event.kind {
                TraceEventKind::Begin(span) => stack.push(span),
                TraceEventKind::End(span) => {
                    if stack.last() == Some(&span) {
                        stack.pop();
                    } else {
                        errors += 1;
                    }
                }
                TraceEventKind::Count(..) => {}
            }
        }
        errors + stack.len()
    }

    /// Renders the last `n` events as an indented span tree — the
    /// post-mortem view dumped when an admission fails. Durations come
    /// from matched begin/end pairs; a span whose end (or begin) is
    /// outside the window renders without one.
    pub fn dump(&self, n: usize) -> String {
        let events = self.last_events(n);
        // Match begin/end pairs to attach durations to begins.
        let mut durations: Vec<Option<u64>> = vec![None; events.len()];
        let mut stack: Vec<(usize, Span)> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            match event.kind {
                TraceEventKind::Begin(span) => stack.push((i, span)),
                TraceEventKind::End(span) => {
                    if let Some(&(begin_idx, top)) = stack.last() {
                        if top == span {
                            stack.pop();
                            durations[begin_idx] =
                                Some(event.ts_ns.saturating_sub(events[begin_idx].ts_ns));
                        }
                    }
                }
                TraceEventKind::Count(..) => {}
            }
        }
        let mut out = String::new();
        let dropped = self.dropped();
        if dropped > 0 {
            let _ = writeln!(out, "… {dropped} older event(s) dropped from the ring");
        }
        let mut depth = 0usize;
        for (i, event) in events.iter().enumerate() {
            match event.kind {
                TraceEventKind::Begin(span) => {
                    let indent = "  ".repeat(depth);
                    match durations[i] {
                        Some(dur) => {
                            let _ = writeln!(
                                out,
                                "{indent}{} [lane {}] {}",
                                span.name(),
                                event.lane,
                                format_ns(dur)
                            );
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "{indent}{} [lane {}] (unfinished)",
                                span.name(),
                                event.lane
                            );
                        }
                    }
                    depth += 1;
                }
                TraceEventKind::End(_) => depth = depth.saturating_sub(1),
                TraceEventKind::Count(counter, delta) => {
                    let indent = "  ".repeat(depth);
                    let _ = writeln!(out, "{indent}+{delta} {}", counter.name());
                }
            }
        }
        out
    }

    /// Exports the buffer as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load). Lanes become `tid`s, so each
    /// admission gets its own row. Only *matched* begin/end pairs are
    /// emitted — even if the ring dropped history, the exported trace is
    /// balanced by construction. Counter events export as `ph:"C"`.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        // (ts_ns, seq, rendered event) so the output sorts by time with
        // the original emission order breaking ties (B before E at equal
        // timestamps).
        let mut rows: Vec<(u64, u64, String)> = Vec::new();
        let mut stack: Vec<(usize, Span)> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            match event.kind {
                TraceEventKind::Begin(span) => stack.push((i, span)),
                TraceEventKind::End(span) => {
                    if let Some(&(begin_idx, top)) = stack.last() {
                        if top == span {
                            stack.pop();
                            let begin = &events[begin_idx];
                            rows.push((begin.ts_ns, begin.seq, phase_row(begin, "B", span)));
                            rows.push((event.ts_ns, event.seq, phase_row(event, "E", span)));
                        }
                    }
                }
                TraceEventKind::Count(counter, delta) => {
                    rows.push((
                        event.ts_ns,
                        event.seq,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"rtsm\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                            counter.name(),
                            format_ts_us(event.ts_ns),
                            event.lane,
                            delta
                        ),
                    ));
                }
            }
        }
        rows.sort_by_key(|&(ts, seq, _)| (ts, seq));
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (_, _, row)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(row);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Chrome trace timestamps are floating-point microseconds; render the
/// integer nanosecond clock exactly as `µs.nnn`.
fn format_ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

fn phase_row(event: &TraceEvent, ph: &str, span: Span) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"rtsm\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
        span.name(),
        ph,
        format_ts_us(event.ts_ns),
        event.lane
    )
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

impl Probe for FlightRecorder {
    fn span_begin(&self, span: Span) {
        self.push(TraceEventKind::Begin(span));
    }
    fn span_end(&self, span: Span) {
        self.push(TraceEventKind::End(span));
    }
    fn count(&self, counter: Counter, delta: u64) {
        self.push(TraceEventKind::Count(counter, delta));
    }
}

/// A probe that times every span into a per-span [`LatencyHistogram`]
/// and totals every counter. Nested spans are timed independently
/// (a `Map` sample includes the steps inside it).
#[derive(Default)]
pub struct SpanLatencyProbe {
    histograms: RefCell<[LatencyHistogram; N_SPANS]>,
    counters: RefCell<[u64; N_COUNTERS]>,
    stack: RefCell<Vec<(Span, Instant)>>,
}

impl std::fmt::Debug for SpanLatencyProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLatencyProbe")
            .field("open_spans", &self.stack.borrow().len())
            .finish()
    }
}

impl SpanLatencyProbe {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency distribution observed for `span` so far.
    pub fn histogram(&self, span: Span) -> LatencyHistogram {
        self.histograms.borrow()[span.index()].clone()
    }

    /// Total delta accumulated for `counter` so far.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.counters.borrow()[counter.index()]
    }
}

impl Probe for SpanLatencyProbe {
    fn span_begin(&self, span: Span) {
        self.stack.borrow_mut().push((span, Instant::now()));
    }

    fn span_end(&self, span: Span) {
        let mut stack = self.stack.borrow_mut();
        if let Some(&(top, started)) = stack.last() {
            if top == span {
                stack.pop();
                self.histograms.borrow_mut()[span.index()].record(started.elapsed());
            }
        }
    }

    fn count(&self, counter: Counter, delta: u64) {
        self.counters.borrow_mut()[counter.index()] += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{count, install, span};
    use std::rc::Rc;

    fn record_admission(recorder: &Rc<FlightRecorder>) {
        let _guard = install(recorder.clone());
        let _admission = span(Span::Admission);
        let _map = span(Span::Map);
        {
            let _s = span(Span::Step1);
        }
        {
            let _s = span(Span::Step4);
            let _b = span(Span::BufferSizing);
            count(Counter::BufferProbe, 2);
            count(Counter::BufferMemoHit, 1);
        }
        count(Counter::TxCommit, 1);
    }

    #[test]
    fn records_balanced_lanes_and_events() {
        let recorder = Rc::new(FlightRecorder::new(1024));
        record_admission(&recorder);
        record_admission(&recorder);
        assert_eq!(recorder.balance_errors(), 0);
        assert_eq!(recorder.dropped(), 0);
        let events = recorder.events();
        assert_eq!(events.len(), 2 * 13);
        // Every event of the second admission is on lane 2.
        assert!(events[13..].iter().all(|e| e.lane == 2));
        assert!(events[..13].iter().all(|e| e.lane == 1));
        // Sequence numbers are dense when nothing was dropped.
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn ring_drops_oldest_and_counts_them() {
        let recorder = Rc::new(FlightRecorder::new(5));
        record_admission(&recorder); // 13 events into a 5-slot ring
        assert_eq!(recorder.len(), 5);
        assert_eq!(recorder.dropped(), 8);
        assert_eq!(recorder.last_events(2).len(), 2);
        // Ends whose begins were evicted count as balance errors …
        assert!(recorder.balance_errors() > 0);
        // … but the Chrome export only emits matched pairs.
        let json = recorder.chrome_trace_json();
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
    }

    fn map_field<'a>(value: &'a serde::Value, name: &str) -> &'a serde::Value {
        let serde::Value::Map(entries) = value else {
            panic!("expected a JSON object, got {value:?}");
        };
        &entries
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing field {name}"))
            .1
    }

    fn str_field<'a>(value: &'a serde::Value, name: &str) -> &'a str {
        match map_field(value, name) {
            serde::Value::Str(s) => s,
            other => panic!("field {name} is not a string: {other:?}"),
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_balanced() {
        let recorder = Rc::new(FlightRecorder::new(1024));
        record_admission(&recorder);
        let json = recorder.chrome_trace_json();
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde::Value::Seq(events) = map_field(&value, "traceEvents") else {
            panic!("traceEvents is not an array");
        };
        // 5 spans × (B+E) + 3 counters.
        assert_eq!(events.len(), 13);
        let mut stack: Vec<&str> = Vec::new();
        for e in events {
            match str_field(e, "ph") {
                "B" => stack.push(str_field(e, "name")),
                "E" => assert_eq!(stack.pop(), Some(str_field(e, "name"))),
                "C" => assert!(matches!(
                    map_field(map_field(e, "args"), "value"),
                    serde::Value::UInt(_)
                )),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stack.is_empty(), "unbalanced spans in export");
    }

    #[test]
    fn dump_renders_an_indented_tree() {
        let recorder = Rc::new(FlightRecorder::new(1024));
        record_admission(&recorder);
        let tree = recorder.dump(64);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("admission [lane 1]"));
        assert!(lines[1].starts_with("  map"));
        assert!(lines[2].starts_with("    step1"));
        assert!(tree.contains("+2 buffer_probe"));
        assert!(tree.contains("+1 tx_commit"));
    }

    #[test]
    fn span_latency_probe_times_every_span() {
        let probe = Rc::new(SpanLatencyProbe::new());
        {
            let _guard = install(probe.clone());
            for _ in 0..3 {
                let _map = span(Span::Map);
                let _s1 = span(Span::Step1);
            }
            count(Counter::TxAbort, 2);
        }
        assert_eq!(probe.histogram(Span::Map).count(), 3);
        assert_eq!(probe.histogram(Span::Step1).count(), 3);
        assert_eq!(probe.histogram(Span::Step2).count(), 0);
        assert_eq!(probe.counter_total(Counter::TxAbort), 2);
        // Map encloses Step1, so its samples cannot be smaller.
        assert!(probe.histogram(Span::Map).total_ns() >= probe.histogram(Span::Step1).total_ns());
    }
}
