//! The [`Probe`] trait and the thread-local emission points.
//!
//! Instrumented crates call the free functions ([`span_begin`],
//! [`span_end`], [`count`], or the RAII [`span`]); whatever probe the
//! *caller* installed with [`install`] receives the events. The handle is
//! thread-local, so the experiment harness's worker threads never share a
//! probe, and a thread without one pays a single borrow-and-branch per
//! emission point — no allocation, no virtual dispatch.
//!
//! Probes observe, they never decide: an implementation must not call
//! back into instrumented code or [`install`] from inside a callback.

use std::cell::RefCell;
use std::rc::Rc;

/// Number of distinct [`Span`] kinds, for fixed-size per-span tables.
pub const N_SPANS: usize = 11;

/// Number of distinct [`Counter`] kinds, for fixed-size tables.
pub const N_COUNTERS: usize = 12;

/// The instrumented regions of the admission path. Span begin/end events
/// always come in balanced, properly nested pairs per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// `RuntimeManager::start` — one admission attempt end to end
    /// (map + transactional commit). Opens a new trace lane.
    Admission,
    /// `RuntimeManager::switch` — transactional mode switch to a new
    /// specification. Opens a new trace lane.
    Switch,
    /// One migration-plan evaluation inside
    /// `RuntimeManager::start_with_reconfiguration`: staged on the ledger
    /// in a transaction that is dropped, then scored.
    PlanEval,
    /// One `SpatialMapper` map call — the four-step refinement loop.
    Map,
    /// Step 1: implementation assignment + first-fit tile packing.
    Step1,
    /// Step 2: local-search tile-assignment improvement.
    Step2,
    /// Step 3: channel-to-path routing.
    Step3,
    /// Step 4: QoS constraint check (the verdict; CSDF composition and
    /// analysis only for a mapping signature the thread has not seen).
    Step4,
    /// The buffer-capacity search (`size_buffers`) — step 4's cold path; a
    /// step 4 answered from its memo opens none.
    BufferSizing,
    /// `RuntimeManager::evacuate` — one failure's recovery end to end
    /// (victim identification, constrained re-maps, evictions). Opens a
    /// new trace lane.
    Evacuate,
    /// One template-library lookup: matching cached mapping shapes
    /// against the current platform state (anchor enumeration,
    /// translation/rotation, transactional fit check). Covers only the
    /// instantiation attempt, not the full-heuristic fallback.
    TemplateMatch,
}

impl Span {
    /// All spans, in [`Span::index`] order.
    pub const ALL: [Span; N_SPANS] = [
        Span::Admission,
        Span::Switch,
        Span::PlanEval,
        Span::Map,
        Span::Step1,
        Span::Step2,
        Span::Step3,
        Span::Step4,
        Span::BufferSizing,
        Span::Evacuate,
        Span::TemplateMatch,
    ];

    /// Dense index of this span, `0..N_SPANS`.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (also the Chrome trace event name).
    pub const fn name(self) -> &'static str {
        match self {
            Span::Admission => "admission",
            Span::Switch => "switch",
            Span::PlanEval => "plan_eval",
            Span::Map => "map",
            Span::Step1 => "step1",
            Span::Step2 => "step2",
            Span::Step3 => "step3",
            Span::Step4 => "step4",
            Span::BufferSizing => "buffer_sizing",
            Span::Evacuate => "evacuate",
            Span::TemplateMatch => "template_match",
        }
    }

    /// Whether beginning this span opens a new trace lane — one lane per
    /// admission-path entry, so Perfetto shows each arrival on its own
    /// row.
    pub const fn starts_lane(self) -> bool {
        matches!(self, Span::Admission | Span::Switch | Span::Evacuate)
    }
}

/// Counted events on the admission path (no duration, only occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// A buffer-sizing feasibility probe actually simulated.
    BufferProbe,
    /// An analysis answered from memory: once per step 4 that found its
    /// mapping's signature in the memo, and once per feasibility probe a
    /// (cold) buffer-sizing search answered from its own table — the
    /// vector's own entry, or a refuted vector that dominates it.
    BufferMemoHit,
    /// A `PlatformTransaction` committed. Template candidates stage on a
    /// scratch ledger without a transaction, so they never count here.
    TxCommit,
    /// A `PlatformTransaction` that staged something aborted (explicitly or
    /// by drop): its copy of the ledger was swapped back. Every evaluated
    /// migration plan counts here, fitting or not — it is staged and
    /// dropped — and so does a refused switch or evacuation attempt.
    TxAbort,
    /// An admission served by instantiating a cached mapping shape — the
    /// template hit path, which skips the four-step heuristic entirely.
    TemplateHit,
    /// An admission that found no instantiable shape and fell back to
    /// the full heuristic (whose result is learned into the library).
    TemplateMiss,
    /// One self-timed CSDF simulation (`Simulation::run`) — the unit of
    /// dataflow analysis work; a warm step 4 counts none.
    CsdfRun,
    /// A step-1 attempt that ran out of viable implementations for some
    /// process. A refused `map` with as many dead ends as attempts was
    /// blocked by *capacity*; one with fewer got as far as routing or the
    /// period check.
    Step1DeadEnd,
    /// A buffer-sizing feasibility probe whose simulation hit the firing
    /// guard before reaching a steady state. The search reads it as
    /// "infeasible", which can only inflate a capacity; zero means every
    /// capacity was searched, not cut off.
    BufferProbeCutoff,
    /// A `start_with_reconfiguration` that took over the refusal `start`
    /// had just returned for the same specification on the same ledger,
    /// instead of asking the algorithm again.
    RefusalReplayed,
    /// A placement — of a `start`, a `switch`, a reconfiguration plan or an
    /// evacuation attempt — turned away by the slot-matching certificate:
    /// no assignment of the application's processes to distinct free
    /// compute slots exists, so the algorithm — template lookup included —
    /// was not asked.
    PlacementRuledOut,
    /// A buffer-sizing feasibility probe whose simulation had not recurred
    /// within its firing budget, refuted there by the cycle-ratio test (a
    /// cycle pacing the source is too slow for the period, or holds no
    /// tokens) instead of being simulated on to its recurrence.
    BufferProbeCycleRefuted,
}

impl Counter {
    /// All counters, in [`Counter::index`] order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::BufferProbe,
        Counter::BufferMemoHit,
        Counter::TxCommit,
        Counter::TxAbort,
        Counter::TemplateHit,
        Counter::TemplateMiss,
        Counter::CsdfRun,
        Counter::Step1DeadEnd,
        Counter::BufferProbeCutoff,
        Counter::RefusalReplayed,
        Counter::PlacementRuledOut,
        Counter::BufferProbeCycleRefuted,
    ];

    /// Dense index of this counter, `0..N_COUNTERS`.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (also the Chrome trace counter name).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::BufferProbe => "buffer_probe",
            Counter::BufferMemoHit => "buffer_memo_hit",
            Counter::TxCommit => "tx_commit",
            Counter::TxAbort => "tx_abort",
            Counter::TemplateHit => "template_hit",
            Counter::TemplateMiss => "template_miss",
            Counter::CsdfRun => "csdf_run",
            Counter::Step1DeadEnd => "step1_dead_end",
            Counter::BufferProbeCutoff => "buffer_probe_cutoff",
            Counter::RefusalReplayed => "refusal_replayed",
            Counter::PlacementRuledOut => "placement_ruled_out",
            Counter::BufferProbeCycleRefuted => "buffer_probe_cycle_refuted",
        }
    }
}

/// A sink for instrumentation events. Implementations must be pure
/// observers: decisions, counters, and reports of the instrumented code
/// must be identical whether or not a probe is installed.
pub trait Probe {
    /// A [`Span`] region was entered.
    fn span_begin(&self, span: Span);
    /// The matching [`Span`] region was left.
    fn span_end(&self, span: Span);
    /// A [`Counter`] advanced by `delta`.
    fn count(&self, counter: Counter, delta: u64);
}

/// The do-nothing probe: every callback is empty. Installing it measures
/// the pure dispatch overhead of the instrumentation points (the repo
/// benchmark reports it as `obs.noop_probe_overhead_permille`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn span_begin(&self, _span: Span) {}
    fn span_end(&self, _span: Span) {}
    fn count(&self, _counter: Counter, _delta: u64) {}
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };
}

/// Installs `probe` as this thread's probe until the returned guard
/// drops; the previously installed probe (if any) is restored then.
#[must_use = "dropping the guard uninstalls the probe immediately"]
pub fn install(probe: Rc<dyn Probe>) -> ProbeGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(probe));
    ProbeGuard { prev }
}

/// Uninstalls the probe [`install`] set up, restoring its predecessor.
pub struct ProbeGuard {
    prev: Option<Rc<dyn Probe>>,
}

impl std::fmt::Debug for ProbeGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeGuard")
            .field("restores_previous", &self.prev.is_some())
            .finish()
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

#[inline]
fn with_probe(f: impl FnOnce(&dyn Probe)) {
    CURRENT.with(|c| {
        if let Some(p) = c.borrow().as_deref() {
            f(p);
        }
    });
}

/// Emits a span-begin event to the installed probe, if any.
#[inline]
pub fn span_begin(span: Span) {
    with_probe(|p| p.span_begin(span));
}

/// Emits a span-end event to the installed probe, if any.
#[inline]
pub fn span_end(span: Span) {
    with_probe(|p| p.span_end(span));
}

/// Emits a counter event to the installed probe, if any.
#[inline]
pub fn count(counter: Counter, delta: u64) {
    with_probe(|p| p.count(counter, delta));
}

/// Begins `span` now and ends it when the returned guard drops — the
/// emission form the instrumented crates use, so early returns and `?`
/// cannot unbalance the trace.
#[must_use = "dropping the guard ends the span immediately"]
#[inline]
pub fn span(span: Span) -> SpanGuard {
    span_begin(span);
    SpanGuard(span)
}

/// Ends the span [`span`] began, on drop.
#[derive(Debug)]
pub struct SpanGuard(Span);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        span_end(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[derive(Default)]
    struct Tally {
        begins: Cell<u64>,
        ends: Cell<u64>,
        counts: Cell<u64>,
    }

    impl Probe for Tally {
        fn span_begin(&self, _span: Span) {
            self.begins.set(self.begins.get() + 1);
        }
        fn span_end(&self, _span: Span) {
            self.ends.set(self.ends.get() + 1);
        }
        fn count(&self, _counter: Counter, delta: u64) {
            self.counts.set(self.counts.get() + delta);
        }
    }

    #[test]
    fn events_reach_only_the_installed_probe() {
        let tally = Rc::new(Tally::default());
        span_begin(Span::Map); // no probe: dropped
        {
            let _guard = install(tally.clone());
            let _span = span(Span::Map);
            count(Counter::TxCommit, 3);
        }
        span_end(Span::Map); // no probe again
        assert_eq!(tally.begins.get(), 1);
        assert_eq!(tally.ends.get(), 1);
        assert_eq!(tally.counts.get(), 3);
    }

    #[test]
    fn nested_installs_restore_the_outer_probe() {
        let outer = Rc::new(Tally::default());
        let inner = Rc::new(Tally::default());
        let _outer_guard = install(outer.clone());
        {
            let _inner_guard = install(inner.clone());
            span_begin(Span::Step1);
        }
        span_begin(Span::Step2);
        assert_eq!(inner.begins.get(), 1);
        assert_eq!(outer.begins.get(), 1);
    }

    #[test]
    fn span_indices_are_dense_and_names_distinct() {
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut names: Vec<&str> = Span::ALL.iter().map(|s| s.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "span/counter names must be distinct");
    }
}
