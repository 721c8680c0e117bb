//! The benchmark's own in-memory span recorder.
//!
//! Spans sit only at calls the benchmark itself makes into the program —
//! nothing is added inside it. A span records its name, start, end, the
//! span that caused it and the op it belongs to; the buffer is written out
//! when the run ends.

use rtsm_app::ApplicationSpec;
use rtsm_core::{MapError, MappingAlgorithm, MappingConstraints, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.start`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op (trace index) the span belongs to.
    pub op: u32,
    /// Whether the spanned call returned `Ok`.
    pub ok: bool,
    /// Refinement attempts the spanned `map` call reported (0 elsewhere).
    pub attempts: u32,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span buffer with a current-span cursor.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
    op: Cell<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording allocates
    /// nothing while ops are being timed.
    pub fn with_capacity(capacity: usize) -> Rc<Recorder> {
        Rc::new(Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            current: Cell::new(NO_PARENT),
            op: Cell::new(0),
        })
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current one and makes it current.
    pub fn begin(&self, name: &'static str) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current.get(),
            op: self.op.get(),
            ok: true,
            attempts: 0,
        });
        self.current.set(id);
        id
    }

    /// Closes span `id` (which must be current) with its outcome.
    pub fn end(&self, id: u32, ok: bool, attempts: u32) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        debug_assert_eq!(self.current.get(), id, "spans close innermost first");
        span.end_ns = end_ns;
        span.ok = ok;
        span.attempts = attempts;
        self.current.set(span.parent);
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Per-span self time: duration minus the part of it the span's direct
/// children cover. Children of one parent never overlap here (one thread,
/// strictly nested calls), so covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Whether span `index` has a direct child named `name`.
pub fn has_child(spans: &[Span], index: usize, name: &str) -> bool {
    // Children follow their parent in the buffer and start before it ends.
    spans[index + 1..]
        .iter()
        .take_while(|s| s.start_ns <= spans[index].end_ns)
        .any(|s| s.parent == index as u32 && s.name == name)
}

/// A [`MappingAlgorithm`] wrapper recording one span around every `map`
/// call of the wrapped algorithm. Placed outside `TemplatedMapper`
/// (`template.map`) and inside it (`mapper.map`) on traced runs; untraced
/// runs use no wrapper.
#[derive(Debug)]
pub struct Timed<A> {
    inner: A,
    name: &'static str,
    recorder: Rc<Recorder>,
}

impl<A> Timed<A> {
    /// Wraps `inner`, recording spans called `name`.
    pub fn new(inner: A, name: &'static str, recorder: Rc<Recorder>) -> Self {
        Timed {
            inner,
            name,
            recorder,
        }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: MappingAlgorithm> MappingAlgorithm for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let id = self.recorder.begin(self.name);
        let result = self
            .inner
            .map_constrained(spec, platform, base, constraints);
        let attempts = match &result {
            Ok(outcome) => outcome.attempts,
            Err(MapError::NoFeasibleMapping { attempts, .. }) => *attempts,
            Err(_) => 0,
        };
        self.recorder.end(id, result.is_ok(), attempts as u32);
        result
    }
}

/// Most spans written to a trace file: enough to inspect any phase of a
/// run without the largest workload writing 100 MB per run.
pub const TRACE_FILE_SPANS: usize = 200_000;

/// Renders spans as `{"spans_recorded": n, "spans": [...]}` with one
/// `{"name","start_ns","end_ns","parent","op","ok"}` object per span
/// (`parent` is an index into the array, or `null`), for at most the first
/// [`TRACE_FILE_SPANS`] spans.
pub fn to_json(spans: &[Span]) -> String {
    let written = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let mut out = String::with_capacity(written.len() * 96 + 64);
    out.push_str(&format!(
        "{{\"spans_recorded\":{},\"spans\":[\n",
        spans.len()
    ));
    for (i, s) in written.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"ok\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op, s.ok
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            ok: true,
            attempts: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // start ⊃ template ⊃ mapper, then a sibling stop.
        let spans = [
            span("runtime.start", 0, 100, NO_PARENT),
            span("template.map", 10, 90, 0),
            span("mapper.map", 20, 70, 1),
            span("runtime.stop", 100, 130, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50, 30]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 130, "no gap here");
        assert!(has_child(&spans, 1, "mapper.map"));
        assert!(!has_child(&spans, 0, "mapper.map"), "grandchild");
        assert!(!has_child(&spans, 3, "mapper.map"));
    }

    #[test]
    fn two_children_of_one_parent_both_count() {
        let spans = [
            span("template.map", 0, 100, NO_PARENT),
            span("mapper.map", 5, 40, 0),
            span("mapper.map", 50, 95, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 35 - 45);
    }

    #[test]
    fn recorder_nests_and_restores_the_cursor() {
        let rec = Recorder::with_capacity(8);
        rec.set_op(3);
        let outer = rec.begin("runtime.start");
        let inner = rec.begin("mapper.map");
        rec.end(inner, false, 2);
        rec.end(outer, true, 0);
        let sibling = rec.begin("runtime.stop");
        rec.end(sibling, true, 0);
        let spans = rec.take();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(!spans[1].ok && spans[1].attempts == 2 && spans[1].op == 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"parent\":null"));
    }
}
