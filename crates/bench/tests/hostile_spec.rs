//! Specs that validate and are mapped up to step 4, whose stream input
//! carries more tokens per period than the A/D can be given phases: step 4
//! used to materialise one `u64` per phase (512 GiB for 2³⁶ tokens, an
//! abort; at `u32::MAX` the simulator's flat phase tables aborted instead),
//! and must refuse the mapping without building the source at all.

use rtsm_app::{
    ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec,
};
use rtsm_bench::alloc_track::PeakAlloc;
use rtsm_core::{Feedback, MapError, MapperConfig, SpatialMapper};
use rtsm_dataflow::PhaseVec;
use rtsm_platform::{Coord, PlatformBuilder, TileKind};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Heap growth allowed while the spec is refused. Measured: 3.7 KiB (the
/// spec table, step 1's ledger, two routes); one `u64` per phase of the
/// source actor would be 512 GiB.
const PEAK_CEILING_BYTES: usize = 8 * 1024;

/// One ARM stage fed `tokens` per period of 1 000 s (2³⁶ tokens are then
/// 6.9e7 words/s, which the NI carries).
fn one_stage_app(tokens: u64) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let p = graph.add_process("Stage");
    graph
        .add_channel(Endpoint::StreamInput, Endpoint::Process(p), tokens)
        .unwrap();
    graph
        .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 16)
        .unwrap();
    let mut library = ImplementationLibrary::new();
    library.register(
        p,
        Implementation::simple(
            "Stage @ ARM",
            TileKind::Arm,
            PhaseVec::from_slice(&[8, 60, 8]),
            PhaseVec::from_slice(&[tokens, 0, 0]),
            PhaseVec::from_slice(&[0, 0, 16]),
            5_000,
            2048,
        ),
    );
    ApplicationSpec {
        name: "a flood of samples".into(),
        graph,
        qos: QosSpec::with_period(1_000_000_000_000_000),
        library,
    }
}

// The only test in this binary: the counter is process-wide.
#[test]
fn a_stream_input_of_too_many_tokens_is_refused_without_materialising_the_source() {
    let platform = PlatformBuilder::mesh(3, 1)
        .tile_defaults(200, 1, 64 * 1024, 200_000_000)
        .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
        .tile("ARM", TileKind::Arm, Coord { x: 1, y: 0 })
        .tile("Sink", TileKind::Sink, Coord { x: 2, y: 0 })
        .build()
        .unwrap();
    let state = platform.initial_state();
    let mapper = SpatialMapper::new(MapperConfig::default().without_capture());

    for tokens in [1 << 36, u64::from(u32::MAX)] {
        let spec = one_stage_app(tokens);
        spec.validate().expect("nothing bounds tokens per period");
        let (peak, refusal) = ALLOC.peak_during(|| mapper.map(&spec, &platform, &state));
        let MapError::NoFeasibleMapping { last_feedback, .. } =
            refusal.expect_err("the A/D cannot have that many phases")
        else {
            panic!("refused by step 4, not before it");
        };
        assert!(
            matches!(&last_feedback[..], [Feedback::Infeasible { detail }]
                if detail.contains(&format!("{tokens} tokens"))),
            "{last_feedback:?}"
        );
        assert!(
            peak <= PEAK_CEILING_BYTES,
            "{peak} bytes of heap growth while refusing, ceiling {PEAK_CEILING_BYTES}"
        );
    }
}
