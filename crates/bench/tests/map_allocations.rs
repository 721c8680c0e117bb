//! Pins how often one admission-time call of the paper case calls the
//! allocator, on any machine: a capture-off `map` (steps 1, 2 and 4 read
//! the spec through one per-map `SpecTable`; a change that goes back to
//! deriving channel lists, orders or claims per candidate shows up here as
//! a count), the warm step-4 verdict inside it (which builds no graph), the
//! two ends of a template lookup — a warm hit and a lookup that fails on a
//! full platform — and a `map` refused after a full chain of step-1 dead
//! ends, where what one attempt allocates must serve the next.

use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_core::mapper::MAX_REFINEMENTS;
use rtsm_core::step4::check_constraints_in;
use rtsm_core::{
    MapError, MapperConfig, MappingAlgorithm, SpatialMapper, SpecTable, TemplatedMapper,
};
use rtsm_platform::paper::paper_platform;
use rtsm_platform::TileKind;
use rtsm_workloads::apps::{dvbt_rx, wlan_tx};
use rtsm_workloads::mesh_platform;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Allocator calls allowed per map. Measured: 51 (165 while a warm step 4
/// composed, digested and dropped the Figure-3 graph — a `String` per
/// actor, a `Vec` per phase vector — and copied the working ledger to probe
/// buffer memory; 457 before the spec table); the slack absorbs hash-map
/// growth differences across toolchains, not a per-candidate allocation.
const MAP_CEILING: usize = 60;

/// Allocator calls allowed per warm step-4 verdict. Measured: 1, the list
/// of buffers it returns.
const WARM_STEP4_CEILING: usize = 1;

/// Allocator calls allowed per warm template hit. Measured: 24 — one
/// scratch ledger (8), one transaction log however many channels are routed
/// (1: reserved on the first of the 25 operations the paper case stages —
/// 4 processes, 5 routed channels over 7 links, 4 buffers), the anchor
/// list (1), and the outcome itself (mapping, one owned path per routed
/// channel, buffers). 28 when every routed channel opened a transaction of
/// its own on a ledger cloned per surviving candidate; the slack is one
/// doubling of the log.
const HIT_CEILING: usize = 25;

/// Allocator calls allowed per lookup that ends in "no" on a full platform.
/// Measured: 18 — all of them the wrapped mapper's step-1 reject (18 on its
/// own: the spec's validation and order, the spec table, the slot states,
/// the unassigned list, the error); with both MONTIUMs taken the shape is
/// short of slots, so the lookup itself allocates nothing and never copies
/// the ledger. 28 while step 1 copied the working ledger (8 vectors) before
/// it knew it would place anything, and built a feedback list nobody read.
const FAILED_LOOKUP_CEILING: usize = 18;

/// Allocator calls allowed per `map` refused after eight step-1 dead ends
/// (`wlan-tx` arriving on the mixed 4×4 mesh while `dvbt-rx` runs).
/// Measured: 34, and 34 for a budget of one attempt as well — validation,
/// order and spec table, then the first attempt's slot states, working
/// ledger (8), decision log and unassigned list, one node of the constraint
/// set and the final attempt's feedback list; no attempt after the first
/// allocates. 141 while every attempt copied the ledger and rebuilt its
/// vectors, mapping and feedback (about 15 apiece); the slack is one growth
/// step of the constraint set.
const DEAD_END_CHAIN_CEILING: usize = 36;

/// The fewest allocator calls `f` makes over three runs.
fn calls<T>(mut f: impl FnMut() -> T) -> usize {
    let calls = (0..3)
        .map(|_| ALLOC.allocations_during(&mut f).0)
        .min()
        .expect("three runs");
    assert!(calls > 0, "the counter must be armed");
    calls
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
    // The first map fills this thread's step-4 memo; admission-time maps
    // run warm.
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
    let mesh = mesh_platform(
        42,
        4,
        4,
        &[
            (TileKind::Montium, 4),
            (TileKind::Arm, 4),
            (TileKind::Dsp, 2),
        ],
    );
    let mapper = templated.inner();
    let (running, arriving) = (dvbt_rx(), wlan_tx());
    let mut ledger = mesh.initial_state();
    mapper
        .map(&running, &mesh, &ledger)
        .expect("maps alone")
        .commit(&running, &mesh, &mut ledger)
        .expect("fits");
    let per_chain = calls(|| {
        let refusal = mapper
            .map(&arriving, &mesh, &ledger)
            .expect_err("the MONTIUMs are taken");
        assert!(
            matches!(refusal, MapError::NoFeasibleMapping { attempts: n, .. } if n == MAX_REFINEMENTS),
            "{refusal}"
        );
    });
    // With `--nocapture`: the figures to write into the comments above.
    eprintln!(
        "allocator calls: map {per_map}, warm step 4 {per_verdict}, hit {per_hit}, \
         failed lookup {per_failed_lookup}, dead-end chain {per_chain}"
    );
    assert!(
        per_chain <= DEAD_END_CHAIN_CEILING,
        "{per_chain} allocator calls per refused map, ceiling {DEAD_END_CHAIN_CEILING}"
    );
}
