//! End-to-end reproduction assertions for every paper artefact: the
//! paper-vs-measured comparison, held as the workspace-level contract.

use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::app::Endpoint;
use rtsm::core::mapper::{MapperConfig, SpatialMapper};
use rtsm::core::step4::compose;
use rtsm::core::trace::Step2Move;
use rtsm::core::SpecTable;
use rtsm::platform::paper::paper_platform;

/// E4 / Table 2: the exact published iteration sequence.
#[test]
fn table2_cost_sequence_is_11_11revert_9_7() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .expect("paper case maps");
    let trace = &result
        .trace
        .as_ref()
        .expect("the heuristic records a trace")
        .successful_attempt()
        .unwrap()
        .step2;

    assert_eq!(trace.initial_cost, 11, "initial greedy cost");
    // Shown rows: ARM swap (11, revert), MONTIUM swap (9, keep),
    // ARM swap (7, keep); afterwards only reverts ("No further choices").
    assert!(trace.events.len() >= 3);
    assert_eq!((trace.events[0].cost, trace.events[0].kept), (11, false));
    assert_eq!((trace.events[1].cost, trace.events[1].kept), (9, true));
    assert_eq!((trace.events[2].cost, trace.events[2].kept), (7, true));
    assert!(trace.events[3..].iter().all(|e| !e.kept));
    assert_eq!(trace.final_cost, 7);

    // Iteration kinds: swaps within tile types, as the paper notes
    // ("Swaps can, of course, only occur between tiles of the same type").
    for event in &trace.events {
        assert!(matches!(event.candidate, Step2Move::Swap { .. }));
    }
}

/// §4.4: the final placement of Table 2's last row.
#[test]
fn final_placement_matches_paper() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    let tile_of = |name: &str| {
        let p = spec.graph.process_by_name(name).unwrap();
        platform
            .tile(result.mapping.assignment(p).unwrap().tile)
            .name
            .clone()
    };
    assert_eq!(tile_of("Prefix removal"), "ARM2");
    assert_eq!(tile_of("Freq. off. correction"), "ARM1");
    assert_eq!(tile_of("Inverse OFDM"), "MONTIUM2");
    assert_eq!(tile_of("Remainder"), "MONTIUM1");
    // And every process runs its preferred implementation type per Table 1:
    // Montium where it had to be, ARM elsewhere.
    assert_eq!(result.communication_hops, 7);
}

/// E5 / Figure 3: 12 router actors, 18 actors total, 4 computed buffers,
/// the figure's fixed capacities, and the achieved period equals the
/// required 4 µs exactly.
#[test]
fn figure3_composition_matches_paper() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    // Figure 3 is the composition of the accepted mapping, sized with the
    // buffers the mapper returned.
    let mut figure3 = compose(&SpecTable::for_validated(&spec), &platform, &result.mapping)
        .expect("the paper mapping composes");
    figure3.size(&result.buffers);
    let csdf = &figure3.csdf;
    let routers = csdf
        .actors()
        .filter(|(_, a)| a.name.starts_with("R("))
        .count();
    assert_eq!(routers, 12);
    assert_eq!(csdf.n_actors(), 18);
    assert_eq!(result.buffers.len(), 4);
    // The capacities that are not computed: 4-word router buffers, the
    // Sink's `x = max(4, tokens per period)`, and producer-side NI buffers
    // holding two of the producer's largest bursts, and at least 4 words.
    let sink_tokens = spec
        .graph
        .stream_channels()
        .find(|(_, c)| c.dst == Endpoint::StreamOutput)
        .expect("the receiver streams out")
        .1
        .tokens_per_period;
    let is_router = |actor| csdf.actor(actor).name.starts_with("R(");
    let (mut between_routers, mut into_sink, mut into_noc) = (0, 0, 0);
    for (_, channel) in csdf.channels() {
        if is_router(channel.src) && is_router(channel.dst) {
            assert_eq!(channel.capacity, Some(4));
            between_routers += 1;
        } else if csdf.actor(channel.dst).name == "Sink" {
            assert_eq!(channel.capacity, Some(sink_tokens.max(4)));
            into_sink += 1;
        } else if is_router(channel.dst) {
            assert_eq!(channel.capacity, Some((2 * channel.prod.max()).max(4)));
            into_noc += 1;
        }
    }
    // Five routed channels over 7 hops, one of them into the Sink.
    assert_eq!((between_routers, into_sink, into_noc), (7, 1, 5));
    assert_eq!(
        result.achieved_period.0,
        4_000_000 * result.achieved_period.1
    );
    // The composed CSDF graph is internally consistent (repetition vector
    // exists) — the property the paper's verification step relies on.
    assert!(csdf.validate().is_ok());
}

/// E11: every one of the seven modes maps feasibly on the paper platform.
#[test]
fn all_seven_modes_feasible() {
    let platform = paper_platform();
    let mapper = SpatialMapper::new(MapperConfig::default());
    for mode in Hiperlan2Mode::ALL {
        let spec = hiperlan2_receiver(mode);
        let result = mapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap_or_else(|e| panic!("mode {} failed: {e}", mode.name()));
        assert!(result.feasible, "mode {}", mode.name());
        // Energy is mode-independent in Table 1 (341 nJ processing) plus
        // communication, which grows with b on the Rem→Sink channel.
        assert!(result.energy_pj > 341_000);
    }
}

/// The mapper is deterministic: identical inputs give identical results.
#[test]
fn mapping_is_deterministic() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let mapper = SpatialMapper::new(MapperConfig::default());
    let a = mapper
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    let b = mapper
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.energy_pj, b.energy_pj);
    assert_eq!(a.buffers, b.buffers);
}
