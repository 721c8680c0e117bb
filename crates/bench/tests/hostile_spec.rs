//! Specs that validate and are mapped up to step 4, where an actor of the
//! Figure-3 graph would have more phases than the dataflow analysis fires:
//! the A/D, when the stream input carries that many tokens per period (step 4
//! used to materialise one `u64` per phase — 512 GiB for 2³⁶ tokens, an
//! abort; at `u32::MAX` the simulator's flat phase tables aborted instead),
//! or an implementation whose own phase vector is that long (a few dozen
//! bytes of run-length-encoded JSON; the simulator laid 3 000 000 phases out
//! in 124 MiB before giving up, and aborted at `u32::MAX`). Step 4 must
//! refuse the mapping without building the actor at all.

use rtsm_app::{
    ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec,
};
use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_core::step4::{check_constraints, Step4Config};
use rtsm_core::{Feedback, MapError, MapperConfig, Mapping, SpatialMapper};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::{Coord, PlatformBuilder, TileKind};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Heap growth allowed while the spec is refused. Measured: 3.7 KiB (the
/// spec table, step 1's ledger, two routes); one `u64` per phase of the
/// source actor would be 512 GiB.
const PEAK_CEILING_BYTES: usize = 8 * 1024;

/// One ARM stage fed `tokens` per period of 1 000 s (2³⁶ tokens are then
/// 6.9e7 words/s, which the NI carries), which it reads in the first of its
/// `wcet`'s phases and answers with 16 in the last.
fn one_stage_app(name: &str, tokens: u64, wcet: PhaseVec) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let p = graph.add_process("Stage");
    graph
        .add_channel(Endpoint::StreamInput, Endpoint::Process(p), tokens)
        .unwrap();
    graph
        .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
        .unwrap();
    let idle = PhaseVec::uniform(0, wcet.len() as u32 - 1);
    let mut library = ImplementationLibrary::new();
    library.register(
        p,
        Implementation::simple(
            "Stage @ ARM",
            TileKind::Arm,
            wcet,
            PhaseVec::single(tokens).concat(&idle),
            idle.concat(&PhaseVec::single(16)),
            5_000,
            2048,
        ),
    );
    ApplicationSpec {
        name: name.into(),
        graph,
        qos: QosSpec::with_period(1_000_000_000_000_000),
        library,
    }
}

// The only test in this binary: the counter is process-wide.
#[test]
fn an_actor_of_too_many_phases_is_refused_without_materialising_it() {
    let platform = PlatformBuilder::mesh(3, 1)
        .tile_defaults(200, 1, 64 * 1024, 200_000_000)
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
        .tile("ARM", TileKind::Arm, Coord { x: 1, y: 0 })
        .tile("Sink", TileKind::Sink, Coord { x: 2, y: 0 })
        .build()
        .unwrap();
    let state = platform.initial_state();
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
    let refused = |spec: &ApplicationSpec| {
        spec.validate().expect("nothing bounds a phase count");
        let (peak, refusal) = ALLOC.peak_during(|| mapper.map(spec, &platform, &state));
        assert!(
            peak <= PEAK_CEILING_BYTES,
            "{peak} bytes of heap growth while refusing, ceiling {PEAK_CEILING_BYTES}"
        );
        refusal.expect_err("the dataflow analysis cannot fire that many phases")
    };

    // The A/D: one phase per token of the stream input.
    for tokens in [1 << 36, u64::from(u32::MAX)] {
        let wcet = PhaseVec::from_slice(&[8, 60, 8]);
        let MapError::NoFeasibleMapping { last_feedback, .. } =
            refused(&one_stage_app("a flood of samples", tokens, wcet))
        else {
            panic!("refused by step 4, not before it");
        };
        assert!(
            matches!(&last_feedback[..], [Feedback::Infeasible { detail }]
                if detail.contains(&format!("{tokens} tokens"))),
            "{last_feedback:?}"
        );
    }

    // An implementation: 1 cycle per phase, 15 ms to 21 s of a 1 000 s
    // period. Step 4 excludes it, which leaves the process nothing to run.
    for phases in [3_000_000, u32::MAX] {
        let spec = one_stage_app("a stage of many phases", 16, PhaseVec::uniform(1, phases));
        let refusal = refused(&spec);
        assert!(
            matches!(&refusal, MapError::Unmappable { process } if process == "Stage"),
            "{refusal:?}"
        );
        let stage = spec.graph.process_by_name("Stage").unwrap();
        let mut mapping = Mapping::new();
        mapping.assign(stage, 0, platform.tile_by_name("ARM").unwrap());
        let feedback =
            check_constraints(&spec, &platform, &mapping, &state, &Step4Config::default())
                .verdict
                .feedback;
        assert!(
            matches!(&feedback[..], [
                Feedback::Infeasible { detail },
                Feedback::ExcludeImplementation { process, impl_index: 0 },
            ] if *process == stage
                && detail.contains("`Stage @ ARM`")
                && detail.contains(&format!("{phases} phases"))),
            "{feedback:?}"
        );
    }
}
