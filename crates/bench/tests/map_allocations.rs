//! Pins how often one admission-time call of the paper case calls the
//! allocator, on any machine: a capture-off `map` on a warm thread (steps
//! 1, 2 and 4 read the spec through one per-map `SpecTable` over the
//! thread's compiled entry; a change that goes back to validating or
//! deriving channel lists and orders per call, or claims per candidate,
//! shows up here as a count), the warm step-4 verdict inside it (which builds no graph), the
//! two ends of a template lookup — a warm hit and a lookup that fails on a
//! full platform — a `map` refused after a full chain of step-1 dead
//! ends, where what one attempt allocates must serve the next, a
//! reconfiguration retry that evaluates one doomed plan, and a cold buffer
//! sizing — the search step 4 runs on a mapping it has not seen — of the
//! paper case and of one mixed-catalog composition.

use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::ApplicationSpec;
use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_core::mapper::MAX_REFINEMENTS;
use rtsm_core::step4::{check_constraints_in, compose};
use rtsm_core::{
    MapError, MapperConfig, Mapping, MappingAlgorithm, ReconfigurationPolicy, RuntimeManager,
    SpatialMapper, SpecTable, TemplatedMapper,
};
use rtsm_dataflow::{size_buffers_ref, BufferSizingConfig};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::Platform;
use rtsm_workloads::apps::{dvbt_rx, wlan_tx};
use rtsm_workloads::catalog_world;
use std::sync::Arc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Allocator calls allowed per map on a thread that has mapped the spec
/// before. Measured: 31 (rustc 1.95), one of them the spec table's claims
/// (filled when it is built) and one step 2's vector (an entry per process, which also holds
/// the tried set, and room for one neighbour row; 33 while the tried set
/// was a `BTreeSet`, which allocated a node at the first revert after
/// each keep — twice on the paper case); step 3 allocates
/// its paths on the working ledger directly (34 while it staged them in a
/// transaction with an undo log); the `Mapping` is
/// two id-indexed vectors sized to the spec when step 1 builds it, so
/// binding and re-binding routes allocates nothing and a clone is two
/// allocations. 38 on the same toolchain while the `Mapping` kept
/// `BTreeMap`s, whose nodes came and went as steps 2 and 3 re-bound
/// routes; validation, the topological order and the port rows are the
/// thread's compiled entry, read by digest (51 while every call validated
/// the spec, sorted it and built the table's rows again; 165 while a warm
/// step 4 composed, digested and dropped the Figure-3 graph — a `String`
/// per actor, a `Vec` per phase vector — and copied the working ledger to
/// probe buffer memory; 457 before the spec table). The slack is one
/// allocation.
const MAP_CEILING: usize = 32;

/// Allocator calls allowed per warm step-4 verdict. Measured: 1, the list
/// of buffers it returns.
const WARM_STEP4_CEILING: usize = 1;

/// Allocator calls allowed per warm template hit. Measured: 14 (rustc
/// 1.95) — the anchor list (1) and the outcome itself (mapping, one owned
/// path per routed channel, buffers). The candidates stage the 25
/// operations of the paper case (4 processes, 5 routed channels over 7
/// links, 4 buffers) on the library's scratch ledger directly, which is
/// refreshed in place and so allocates nothing once it is sized. 15 while
/// each candidate staged in a transaction with an undo log; 23 while
/// every lookup copied the ledger (8 vectors) for its candidates; 24 while
/// every candidate built a `Mapping` as its tiles were resolved, so the
/// first of the paper case's two candidates, which the tile skeleton turns
/// away, left a map node behind; 28 when every routed channel opened a
/// transaction of its own on a ledger cloned per surviving candidate. The
/// slack is one allocation.
const HIT_CEILING: usize = 15;

/// Allocator calls allowed per lookup that ends in "no" on a full platform.
/// Measured: 5 on rustc 1.95 — the code before the dense `Mapping` reads 5
/// there too, though this comment gave 4 — all of them the wrapped
/// mapper's step-1 reject, which builds no `Mapping`: among them the spec
/// table's claims, the slot states, the unassigned list and the
/// error. With both MONTIUMs taken the shape's anchor kind has no free
/// tile, so its candidate loop runs zero times and the lookup itself
/// allocates nothing and never copies the ledger. 18 while every `map`
/// validated the spec, sorted it and built the table's rows; 28 while
/// step 1 also copied the working ledger (8 vectors) before it knew it
/// would place anything, and built a feedback list nobody read. No slack:
/// the ceiling may not rise.
const FAILED_LOOKUP_CEILING: usize = 5;

/// Allocator calls allowed per `map` refused after eight step-1 dead ends
/// (`wlan-tx` arriving on the mixed 4×4 mesh while `dvbt-rx` runs).
/// Measured: 16 on rustc 1.95 — the code before the dense `Mapping` reads
/// 16 there too, though this comment gave 15; no `Mapping` is built —
/// among them the spec table's claims, then the first attempt's slot
/// states, working ledger (8), decision log and unassigned list, one node
/// of the constraint set and the final attempt's feedback list; no attempt
/// after the first allocates: each starts from nothing but the constraints
/// in the first one's buffers, and refreshes the working ledger from the
/// base with `clone_from`. 34 while every call validated the spec,
/// sorted it and built the table's rows; 141 while every attempt also
/// copied the ledger and rebuilt its vectors, mapping and feedback (about
/// 15 apiece). No slack: the ceiling may not rise.
const DEAD_END_CHAIN_CEILING: usize = 16;

/// Allocator calls allowed per warm reconfiguration retry whose one plan
/// is doomed. Measured: 17 (rustc 1.95) — the arrival's template hit inside
/// the plan (14, as above) and the search's own buffers (3: among them the
/// candidate list and the victim indices). The plan stages on the ledger,
/// and dropping its transaction swaps back the copy the manager's spare
/// took, which allocates nothing once the spare is sized. 20 while the plan
/// and every template candidate that staged something kept an undo log;
/// 28 while the lookup copied the ledger (the plan itself staged on the
/// manager's ledger and rolled back). The slack is one allocation.
const RETRY_CEILING: usize = 18;

/// Allocator calls allowed per cold sizing of the paper case's Figure-3
/// graph (`size_buffers_ref` on what `step4::compose` builds). Measured:
/// 117 (rustc 1.95) — the repetition vector (its search keeps a vector
/// per actor), four simulations over one set of tables built for the
/// search (each run's event heap grows as firings overlap), and the cycle
/// test of the probe that refutes the period. 368 while the search
/// copied the graph and every probe built its tables again, a vector per
/// table. No slack: a table build that falls back to a vector per actor,
/// or a copy of the graph coming back, fails it.
const COLD_SIZING_PAPER_CEILING: usize = 117;

/// Allocator calls allowed per cold sizing of `dvbt-rx` mapped alone on
/// the mixed catalog's 4×4 mesh, where every buffer at its floor sustains
/// the period, so the search runs one simulation. Measured: 61 (rustc
/// 1.95; 33 with the repetition vector's adjacency in one flat list),
/// 208 while the search copied the graph. No slack.
const COLD_SIZING_MIXED_CEILING: usize = 61;

/// The fewest allocator calls `f` makes over three runs.
fn calls<T>(mut f: impl FnMut() -> T) -> usize {
    let calls = (0..3)
        .map(|_| ALLOC.allocations_during(&mut f).0)
        .min()
        .expect("three runs");
    assert!(calls > 0, "the counter must be armed");
    calls
}

/// Allocator calls of one cold sizing of the `B_i` of `spec` under
/// `mapping`, as step 4's cold path asks it.
fn cold_sizing_calls(spec: &ApplicationSpec, platform: &Platform, mapping: &Mapping) -> usize {
    let table = SpecTable::for_validated(spec);
    let composition = compose(&table, platform, mapping).expect("the mapping composes");
    let config = BufferSizingConfig {
        source: composition.source,
        period: spec.qos.period_ps,
        channels: composition.buffer_edges.clone(),
        max_sweeps: 3,
    };
    calls(|| size_buffers_ref(&composition.csdf, &config).expect("the graph sizes"))
}

// The only test in this binary: the counter is process-wide.
#[test]
fn paper_case_admission_calls_stay_under_their_allocation_ceilings() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let state = platform.initial_state();
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    let map = || {
        let outcome = mapper.map(&spec, &platform, &state).expect("maps");
        assert_eq!(outcome.communication_hops, 7);
        outcome
    };
    // The first map compiles the spec and fills this thread's step-4
    // analyses; admission-time maps run warm.
    let outcome = map();
    let per_map = calls(map);
    assert!(
        per_map <= MAP_CEILING,
        "{per_map} allocator calls per map, ceiling {MAP_CEILING}"
    );

    // Step 4 alone, on what steps 1–3 hand it (the working ledgers it
    // consumes are copied beforehand).
    let (mapping, working) = rtsm_bench::steps_one_to_three(&spec, &platform);
    assert_eq!(mapping, outcome.mapping);
    let table = SpecTable::for_validated(&spec);
    let mut ledgers = vec![working; 3];
    let per_verdict = calls(|| {
        let working = ledgers.pop().expect("one per run");
        let verdict = check_constraints_in(&table, &platform, &mapping, working);
        assert_eq!(verdict.buffers, outcome.buffers);
        verdict
    });
    assert!(
        per_verdict <= WARM_STEP4_CEILING,
        "{per_verdict} allocator calls per warm step-4 verdict, ceiling {WARM_STEP4_CEILING}"
    );
    let per_paper_sizing = cold_sizing_calls(&spec, &platform, &mapping);

    let templated = TemplatedMapper::new(mapper);
    // The first arrival seeds the library; later ones on the empty platform
    // instantiate the seeded shape.
    templated.map(&spec, &platform, &state).expect("maps");
    let hits_before = templated.stats().hits;
    let per_hit = calls(|| templated.map(&spec, &platform, &state).expect("hits"));
    assert_eq!(templated.stats().hits, hits_before + 3, "three warm hits");
    assert!(
        per_hit <= HIT_CEILING,
        "{per_hit} allocator calls per template hit, ceiling {HIT_CEILING}"
    );

    // One running receiver holds both MONTIUMs: no shape fits, and the
    // wrapped mapper rejects in step 1.
    let mut full = state.clone();
    outcome.commit(&spec, &platform, &mut full).expect("fits");
    let misses_before = templated.stats().misses;
    let per_failed_lookup = calls(|| {
        templated
            .map(&spec, &platform, &full)
            .expect_err("the platform is full")
    });
    assert_eq!(templated.stats().misses, misses_before + 3);
    assert!(
        per_failed_lookup <= FAILED_LOOKUP_CEILING,
        "{per_failed_lookup} allocator calls per failed lookup, ceiling {FAILED_LOOKUP_CEILING}"
    );

    // A chain of dead ends as long as the refinement budget: every attempt
    // places five of `wlan-tx`'s six processes before the sixth finds the
    // MONTIUMs gone.
    let mesh = (catalog_world("mixed").expect("registered").platform)(42);
    let mapper = templated.inner();
    let (running, arriving) = (dvbt_rx(), wlan_tx());
    let mut ledger = mesh.initial_state();
    let alone = mapper.map(&running, &mesh, &ledger).expect("maps alone");
    let per_mixed_sizing = cold_sizing_calls(&running, &mesh, &alone.mapping);
    alone.commit(&running, &mesh, &mut ledger).expect("fits");
    let per_chain = calls(|| {
        let refusal = mapper
            .map(&arriving, &mesh, &ledger)
            .expect_err("the MONTIUMs are taken");
        assert!(
            matches!(refusal, MapError::NoFeasibleMapping { attempts: n, .. } if n == MAX_REFINEMENTS),
            "{refusal}"
        );
    });

    // A retry with one plan to evaluate, doomed: one receiver runs on the
    // paper platform, a second arrives and is refused; the plan moves the
    // first out of the way, the arrival takes its MONTIUMs (a template
    // hit), and the first cannot be placed again.
    let mut manager = RuntimeManager::new(platform.clone(), TemplatedMapper::new(mapper.clone()));
    let spec = Arc::new(spec);
    manager
        .start(spec.clone())
        .expect("the first receiver fits");
    let policy = ReconfigurationPolicy::default();
    let per_retry = calls(|| {
        let failure = manager
            .start_with_reconfiguration(spec.clone(), &policy)
            .expect_err("the second receiver cannot be admitted");
        assert_eq!((failure.plans_tried, failure.migrations_attempted), (1, 1));
    });
    // With `--nocapture`: the figures to write into the comments above.
    eprintln!(
        "allocator calls: map {per_map}, warm step 4 {per_verdict}, hit {per_hit}, \
         failed lookup {per_failed_lookup}, dead-end chain {per_chain}, retry {per_retry}, \
         cold sizing: paper case {per_paper_sizing}, dvbt-rx on the mesh {per_mixed_sizing}"
    );
    assert!(
        per_retry <= RETRY_CEILING,
        "{per_retry} allocator calls per doomed retry, ceiling {RETRY_CEILING}"
    );
    assert!(
        per_chain <= DEAD_END_CHAIN_CEILING,
        "{per_chain} allocator calls per refused map, ceiling {DEAD_END_CHAIN_CEILING}"
    );
    assert!(
        per_paper_sizing <= COLD_SIZING_PAPER_CEILING,
        "{per_paper_sizing} allocator calls per cold sizing of the paper case, \
         ceiling {COLD_SIZING_PAPER_CEILING}"
    );
    assert!(
        per_mixed_sizing <= COLD_SIZING_MIXED_CEILING,
        "{per_mixed_sizing} allocator calls per cold sizing of dvbt-rx, \
         ceiling {COLD_SIZING_MIXED_CEILING}"
    );
}
