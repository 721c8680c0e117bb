//! Serde round-trips for the model types: application specifications,
//! platforms, mappings and results survive JSON persistence — the basis
//! for stored reports and tooling interchange.

use proptest::prelude::*;
use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::app::ApplicationSpec;
use rtsm::core::mapper::{MapperConfig, SpatialMapper};
use rtsm::core::{Mapping, MappingOutcome, RouteBinding};
use rtsm::dataflow::{CsdfGraph, PhaseVec};
use rtsm::exp::ExperimentSpec;
use rtsm::platform::paper::paper_platform;
use rtsm::platform::{Platform, PlatformState};
use rtsm::sim::{run_sim, Catalog, InstanceId, SimConfig, SimEvent, SimReport};
use serde::{Deserialize, Serialize};

#[test]
fn application_spec_roundtrips() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qam64R34);
    let json = serde_json::to_string(&spec).expect("serialize");
    let back: ApplicationSpec = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(spec, back);
    assert_eq!(back.validate(), Ok(()));
}

#[test]
fn platform_roundtrips() {
    let platform = paper_platform();
    let json = serde_json::to_string(&platform).expect("serialize");
    let back: Platform = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(platform, back);
    // Derived structure intact: link lookups still work.
    let arm1 = back.tile_by_name("ARM1").unwrap();
    let m2 = back.tile_by_name("MONTIUM2").unwrap();
    assert_eq!(back.manhattan(arm1, m2), 1);
}

#[test]
fn platform_state_roundtrips_with_allocations() {
    let platform = paper_platform();
    let mut state = platform.initial_state();
    let (link, _) = platform.links().next().unwrap();
    state.allocate_link(&platform, link, 12345).unwrap();
    let json = serde_json::to_string(&state).expect("serialize");
    let back: PlatformState = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(state, back);
    assert_eq!(
        back.residual_link(&platform, link),
        platform.link(link).capacity - 12345
    );
}

#[test]
fn mapping_roundtrips_with_routes() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let result = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    let json = serde_json::to_string(&result.mapping).expect("serialize");
    let back: Mapping = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(result.mapping, back);
    assert_eq!(back.communication_hops(&spec, &platform), 7);
}

#[test]
fn csdf_graph_roundtrips() {
    let mut g = CsdfGraph::new();
    let a = g.add_actor("a", PhaseVec::from_slice(&[1, 170, 1]), 5000);
    let b = g.add_actor("b", PhaseVec::single(4), 5000);
    g.add_channel_full(
        a,
        b,
        PhaseVec::from_slice(&[0, 0, 64]),
        PhaseVec::single(1),
        2,
        Some(8),
    )
    .unwrap();
    let json = serde_json::to_string(&g).expect("serialize");
    let back: CsdfGraph = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(g, back);
}

#[test]
fn mapper_config_roundtrips() {
    let config = MapperConfig::default();
    let json = serde_json::to_string(&config).expect("serialize");
    let back: MapperConfig = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(config, back);
}

#[test]
fn mapping_outcome_roundtrips() {
    // The unified outcome type persists whole: mapping, buffers, CSDF
    // graph, trace, and the scalar scores — the record a benchmark run
    // stores per admission.
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let outcome = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    let json = serde_json::to_string(&outcome).expect("serialize");
    let back: MappingOutcome = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(outcome, back);
    // A deserialized outcome is still operational: it commits and releases.
    let mut state = platform.initial_state();
    let before = state.clone();
    back.commit(&spec, &platform, &mut state).expect("commit");
    assert_ne!(state, before);
    back.release(&spec, &platform, &mut state).expect("release");
    assert_eq!(state, before);
}

/// The derive's one field attribute: the key is left out — not `null` —
/// when the predicate holds, sits in declaration order when it does not,
/// and a missing key reads back as `None`.
#[test]
fn skip_serializing_if_omits_the_key_and_roundtrips() {
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Sections {
        always: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        sometimes: Option<String>,
        last: bool,
    }
    let mut value = Sections {
        always: 7,
        sometimes: None,
        last: true,
    };
    let absent = serde_json::to_string(&value).expect("serialize");
    assert_eq!(absent, r#"{"always":7,"last":true}"#);
    assert_eq!(serde_json::from_str::<Sections>(&absent).unwrap(), value);

    value.sometimes = Some("here".to_string());
    let present = serde_json::to_string(&value).expect("serialize");
    assert_eq!(present, r#"{"always":7,"sometimes":"here","last":true}"#);
    assert_eq!(serde_json::from_str::<Sections>(&present).unwrap(), value);
}

/// Hostile text is an `Err` — never a panic, stack overflow or abort — for
/// each type a file holds: nesting one past the limit, truncation, a
/// number past `u128`, a key repeated in an otherwise valid document.
/// Nesting *at* the limit parses, then fails on shape.
#[test]
fn hostile_json_is_an_error_for_every_file_type() {
    fn refusals<T: Deserialize + std::fmt::Debug>(valid: &str) -> Vec<String> {
        assert!(serde_json::from_str::<T>(valid).is_ok());
        let nested = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(serde_json::from_str::<serde::Value>(&nested(128)).is_ok());
        [
            nested(128),
            nested(129),
            valid.chars().take(valid.len() / 2).collect(),
            r#"{"x":340282366920938463463374607431768211456}"#.to_string(),
            format!(r#"{{"dup":0,"dup":1,{}"#, &valid[1..]),
        ]
        .iter()
        .map(|text| serde_json::from_str::<T>(text).unwrap_err().to_string())
        .collect()
    }
    let spec = serde_json::to_string(&hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
    let platform = serde_json::to_string(&paper_platform()).unwrap();
    for errors in [
        refusals::<ExperimentSpec>(include_str!("../specs/ci_smoke_mixed_1m.json")),
        refusals::<ApplicationSpec>(&spec),
        refusals::<Platform>(&platform),
        refusals::<Mapping>(include_str!("golden/paper_mapping.json")),
    ] {
        assert!(!errors[0].contains("nesting"), "{}", errors[0]);
        let expected = ["nesting deeper", "", "invalid number", "duplicate key"];
        for (error, expected) in errors[1..].iter().zip(expected) {
            assert!(error.contains(expected) && error.len() < 512, "{error}");
        }
    }
}

/// A mapping's tables are as long as its largest id, so a file naming
/// process or channel 10¹² is refused rather than allocated for; an id
/// far past the last one bound reads back as it was written.
#[test]
fn a_mapping_file_naming_a_huge_id_is_refused() {
    let huge = 1_000_000_000_000u64;
    for json in [
        format!(r#"{{"assignments":[[{huge},{{"impl_index":0,"tile":0}}]],"routes":[]}}"#),
        format!(r#"{{"assignments":[],"routes":[[{huge},"SameTile"]]}}"#),
    ] {
        let error = serde_json::from_str::<Mapping>(&json)
            .unwrap_err()
            .to_string();
        assert!(error.contains("exceeds"), "{error}");
    }
    let sparse = r#"{"assignments":[[5000,{"impl_index":1,"tile":2}]],"routes":[]}"#;
    let mapping: Mapping = serde_json::from_str(sparse).unwrap();
    assert_eq!(mapping.assignments().count(), 1);
    assert_eq!(serde_json::to_string(&mapping).unwrap(), sparse);
}

/// A platform file is held to the builder's rules: a tile moved off the
/// mesh, or onto a router another tile holds, is refused with the
/// builder's own error. (Read as it was, a tile off the mesh made the
/// adjacency lookup panic past the last router, or aliased another
/// router's row.)
#[test]
fn a_platform_file_with_a_misplaced_tile_is_refused() {
    let json = serde_json::to_string(&paper_platform()).unwrap();
    let origin = r#""position":{"x":0,"y":0}"#;
    assert_eq!(json.matches(origin).count(), 1, "OTHER1 sits at (0, 0)");
    for (x, y) in [(0, 9), (7, 0), (65535, 65535)] {
        let moved = format!(r#""position":{{"x":{x},"y":{y}}}"#);
        let error = serde_json::from_str::<Platform>(&json.replacen(origin, &moved, 1))
            .unwrap_err()
            .to_string();
        let expected = format!("invalid platform: coordinate ({x},{y}) outside 3x3 mesh");
        assert!(error.contains(&expected), "{error}");
    }
    // Onto the router of the next tile in the file.
    let paper = paper_platform();
    let next = paper.tiles().nth(1).unwrap().1.position;
    let onto = format!(r#""position":{{"x":{},"y":{}}}"#, next.x, next.y);
    let error = serde_json::from_str::<Platform>(&json.replacen(origin, &onto, 1))
        .unwrap_err()
        .to_string();
    let expected = format!("invalid platform: two tiles share router position {next}");
    assert!(error.contains(&expected), "{error}");
}

/// Every tile of the paper platform moved off the mesh in turn — and the
/// mesh shrunk under the tiles — is refused when the file is read, before
/// any algorithm could route to it; the file as written still loads.
#[test]
fn no_platform_file_puts_a_tile_off_the_mesh() {
    let paper = paper_platform();
    let json = serde_json::to_string(&paper).unwrap();
    assert_eq!(serde_json::from_str::<Platform>(&json).unwrap(), paper);
    let mut platforms = Vec::new();
    for (_, tile) in paper.tiles() {
        let (x, y) = (tile.position.x, tile.position.y);
        let at = format!(r#""position":{{"x":{x},"y":{y}}}"#);
        assert_eq!(
            json.matches(&at).count(),
            1,
            "{} has its own router",
            tile.name
        );
        for (x, y) in [(0, 9), (7, 0), (65535, 65535)] {
            let moved = format!(r#""position":{{"x":{x},"y":{y}}}"#);
            platforms.push(json.replacen(&at, &moved, 1));
        }
    }
    for (mesh, shrunk) in [
        (r#""width":3"#, r#""width":0"#),
        (r#""height":3"#, r#""height":1"#),
    ] {
        assert_eq!(json.matches(mesh).count(), 1);
        platforms.push(json.replacen(mesh, shrunk, 1));
    }
    for text in &platforms {
        let error = serde_json::from_str::<Platform>(text)
            .unwrap_err()
            .to_string();
        assert!(
            error.contains("outside") && error.contains("mesh"),
            "{error}"
        );
    }
}

#[test]
fn sim_event_roundtrips() {
    let events = [
        SimEvent::Arrival {
            instance: InstanceId(3),
            catalog_index: 5,
        },
        SimEvent::Departure {
            instance: InstanceId(3),
        },
        SimEvent::ModeSwitch {
            instance: InstanceId(9),
        },
        SimEvent::Reconfigure {
            instance: InstanceId(12),
            catalog_index: 1,
        },
    ];
    for event in events {
        let json = serde_json::to_string(&event).expect("serialize");
        let back: SimEvent = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(event, back);
    }
}

#[test]
fn sim_report_roundtrips() {
    let run = run_sim(
        &paper_platform(),
        SpatialMapper::default(),
        &Catalog::hiperlan2(),
        &SimConfig {
            seed: 17,
            arrivals: 40,
            ..SimConfig::default()
        },
    )
    .expect("simulation never breaks its own ledger");
    let json = serde_json::to_string(&run.report).expect("serialize");
    let back: SimReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(run.report, back);
    // The rejection histogram's enum keys survive the round trip.
    assert_eq!(back.rejection_histogram, run.report.rejection_histogram);
    assert!(!back.samples.is_empty());
    // Without a reconfiguration policy, the optional section is *absent*
    // from the JSON (not null) — the byte-compatibility contract with
    // pre-reconfiguration reports.
    assert!(run.report.reconfiguration.is_none());
    assert!(!json.contains("\"reconfiguration\""));
    assert!(!json.contains("frag_permille"));
}

#[test]
fn sim_report_with_reconfiguration_roundtrips() {
    use rtsm::core::ReconfigurationPolicy;
    use rtsm::workloads::defrag_platform;
    let run = run_sim(
        &defrag_platform(4),
        SpatialMapper::default(),
        &Catalog::defrag(),
        &SimConfig {
            seed: 2008,
            arrivals: 300,
            reconfiguration: Some(ReconfigurationPolicy::default()),
            track_fragmentation: true,
            ..SimConfig::default()
        },
    )
    .expect("simulation never breaks its own ledger");
    let reconfiguration = run
        .report
        .reconfiguration
        .clone()
        .expect("counters present");
    assert!(
        reconfiguration.admissions_recovered > 0,
        "the engineered defrag workload recovers admissions: {reconfiguration:?}"
    );
    assert!(reconfiguration.migrations_committed > 0);
    assert!(reconfiguration.migration_energy_pj > 0);
    assert!(
        run.report.samples.iter().any(|s| s.frag_permille.is_some()),
        "fragmentation tracked per sample"
    );
    // With all three optional sections present they close the report, in
    // declaration order — the bytes the stored fixtures hold.
    let mut report = run.report;
    report.survivability = Some(Default::default());
    report.templates = Some(Default::default());
    let json = serde_json::to_string(&report).expect("serialize");
    let serde::Value::Map(entries) = serde_json::from_str(&json).expect("a JSON object") else {
        panic!("a report serializes as a map");
    };
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys[keys.len() - 4..],
        [
            "ledger_idle_at_end",
            "reconfiguration",
            "survivability",
            "templates"
        ]
    );
    let back: SimReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report, back);
}

/// The paper case's outcome, plus a copy of its mapping that keeps one
/// channel on a tile and leaves its last process unbound — the two shapes a
/// `RouteBinding` and a partial mapping take in a file.
fn paper_case_files() -> (MappingOutcome, Mapping) {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let platform = paper_platform();
    let outcome = SpatialMapper::new(MapperConfig::default())
        .map(&spec, &platform, &platform.initial_state())
        .unwrap();
    let mut partial = outcome.mapping.clone();
    let (first, _) = spec.graph.stream_channels().next().unwrap();
    partial.bind_route(first, RouteBinding::SameTile);
    let (last, _) = spec.graph.stream_processes().last().unwrap();
    partial.unassign(last);
    (outcome, partial)
}

/// The bytes a stored mapping or outcome is written as: keys in field
/// order, assignments and routes as `[id, value]` pairs in id order, only
/// bound ids listed. Round-trips alone would not see a changed format.
#[test]
fn mapping_and_outcome_json_are_pinned() {
    let (outcome, partial) = paper_case_files();
    let pinned = [
        (
            serde_json::to_string(&outcome.mapping).unwrap(),
            include_str!("golden/paper_mapping.json"),
        ),
        (
            serde_json::to_string(&partial).unwrap(),
            include_str!("golden/paper_mapping_partial.json"),
        ),
        (
            serde_json::to_string(&outcome).unwrap(),
            include_str!("golden/paper_outcome.json"),
        ),
    ];
    for (written, expected) in &pinned {
        assert_eq!(written, expected.trim_end());
    }
    let back: Mapping = serde_json::from_str(pinned[1].1).unwrap();
    assert_eq!(back, partial);
    let back: MappingOutcome = serde_json::from_str(pinned[2].1).unwrap();
    assert_eq!(back, outcome);
}

/// Equality reads bound entries only: a mapping that bound its last
/// process and route and then dropped them equals one that never bound
/// them, and so does its JSON.
#[test]
fn unbinding_the_last_entry_leaves_an_equal_mapping() {
    let (outcome, _) = paper_case_files();
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let (last, _) = spec.graph.stream_processes().last().unwrap();
    let mut never = Mapping::new();
    let mut dropped = Mapping::new();
    for (process, a) in outcome.mapping.assignments() {
        if process != last {
            never.assign(process, a.impl_index, a.tile);
        }
        dropped.assign(process, a.impl_index, a.tile);
    }
    assert_ne!(never, dropped);
    dropped.unassign(last);
    assert_eq!(never, dropped);
    assert_eq!(
        serde_json::to_string(&never).unwrap(),
        serde_json::to_string(&dropped).unwrap()
    );
    let (channel, route) = outcome.mapping.routes().last().unwrap();
    dropped.bind_route(channel, route.clone());
    assert_ne!(never, dropped);
    dropped.clear_routes();
    assert_eq!(never, dropped);
}

/// A phase vector file whose runs contradict its `len` — or that has no
/// run, or a run of no phases — is refused when it is read. (Read as it
/// was, `{"runs":[{"value":40,"count":1}],"len":4}` loaded, a spec holding
/// it passed `validate()`, and step 4 panicked indexing phase 2.)
#[test]
fn a_phase_vector_file_that_contradicts_itself_is_refused() {
    let read = |json: &str| serde_json::from_str::<PhaseVec>(json).map_err(|e| e.to_string());
    let v = PhaseVec::from_slice(&[40, 40, 8]);
    assert_eq!(read(&serde_json::to_string(&v).unwrap()), Ok(v));
    for (json, refusal) in [
        (
            r#"{"runs":[{"value":40,"count":1}],"len":4}"#,
            "runs of 1 phases under a len of 4",
        ),
        (
            r#"{"runs":[{"value":40,"count":3}],"len":2}"#,
            "runs of 3 phases under a len of 2",
        ),
        (r#"{"runs":[],"len":0}"#, "no runs"),
        (
            r#"{"runs":[{"value":40,"count":0},{"value":8,"count":1}],"len":1}"#,
            "a run of 0 phases",
        ),
    ] {
        let error = read(json).unwrap_err();
        assert!(
            error.contains(&format!("invalid phase vector: {refusal}")),
            "{json}: {error}"
        );
    }
}

/// A platform file whose NoC clock is 0 MHz is refused when it is read
/// (with the error `PlatformBuilder::build` gives). Read as it was, it
/// loaded and the first `start` divided by zero in
/// `NocParams::cycle_time_ps`.
#[test]
fn a_platform_file_with_a_stopped_noc_clock_is_refused() {
    let json = serde_json::to_string(&paper_platform()).unwrap();
    let clock = r#""clock_mhz":200,"link_capacity""#;
    assert_eq!(json.matches(clock).count(), 1, "the NoC's clock");
    let stopped = json.replacen(clock, r#""clock_mhz":0,"link_capacity""#, 1);
    let error = serde_json::from_str::<Platform>(&stopped).unwrap_err();
    let expected = "invalid platform: the NoC clock is 0 MHz";
    assert!(error.to_string().contains(expected), "{error}");
}

/// The integer literals of `json` that stand as values (after `:`, `[` or
/// `,`), as byte ranges, with the key each belongs to (the last key before
/// it).
fn integer_literals(json: &str) -> Vec<(&str, std::ops::Range<usize>)> {
    let bytes = json.as_bytes();
    let (mut literals, mut key) = (Vec::new(), "");
    let mut at = 0;
    while at < bytes.len() {
        let start = at;
        if bytes[at] == b'"' {
            at += 1 + json[at + 1..].find('"').expect("a closed string");
            key = &json[start + 1..at];
        } else if bytes[at].is_ascii_digit() && b":[,".contains(&bytes[start - 1]) {
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            if !b".eE".contains(&bytes[at]) {
                literals.push((key, start..at));
            }
            continue;
        }
        at += 1;
    }
    literals
}

/// Every catalog spec and its platform — HIPERLAN/2 on the paper platform,
/// the mixed catalog on its 4×4 mesh — written to JSON with one integer
/// literal rewritten (to 0, 1, 2³², `u64::MAX` or a thousand times itself)
/// either loads to an error or validates and starts twice on a fresh
/// manager without a panic. The literal is drawn key first, so the NoC's
/// clock and a phase vector's `len` and `count` come up often enough that
/// the case count here meets both defects the file checks now refuse.
#[test]
fn a_catalog_file_with_one_integer_rewritten_loads_to_an_error_or_starts() {
    use rtsm::core::runtime::RuntimeManager;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let files: Vec<(String, String)> = ["hiperlan2", "mixed"]
        .into_iter()
        .flat_map(|name| {
            let (platform, specs) = rtsm::workloads::catalog_world(name).unwrap().instance(42);
            let platform = serde_json::to_string(&platform).unwrap();
            let specs = specs.into_iter();
            specs.map(move |spec| (serde_json::to_string(&spec).unwrap(), platform.clone()))
        })
        .collect();
    TestRunner::new(ProptestConfig::with_cases(1500)).run(|tape| {
        let (spec, platform) = &files[tape.draw(files.len() as u32) as usize];
        let mut files = [spec.clone(), platform.clone()];
        let which = tape.draw(2) as usize;
        let file = &files[which];
        let literals = integer_literals(file);
        let mut names: Vec<&str> = literals.iter().map(|(key, _)| *key).collect();
        names.sort_unstable();
        names.dedup();
        let key = names[tape.draw(names.len() as u32) as usize].to_string();
        let of_key: Vec<_> = literals.iter().filter(|(k, _)| *k == key).collect();
        let (_, range) = of_key[tape.draw(of_key.len() as u32) as usize].clone();
        // A mesh side a thousand times the paper's is a valid platform of
        // millions of routers: too large for a test.
        let scaled = match key.as_str() {
            "width" | "height" => "0".to_string(),
            _ => format!("{}000", &file[range.clone()]),
        };
        let values = ["0", "1", "4294967296", "18446744073709551615", &scaled];
        let value = values[tape.draw(values.len() as u32) as usize];
        let mutation = format!("`{key}` {} → {value}", &file[range.clone()]);
        files[which] = format!("{}{value}{}", &file[..range.start], &file[range.end..]);
        let (Ok(spec), Ok(platform)) = (
            serde_json::from_str::<ApplicationSpec>(&files[0]),
            serde_json::from_str::<Platform>(&files[1]),
        ) else {
            return;
        };
        if spec.validate().is_err() {
            return;
        }
        let started = catch_unwind(AssertUnwindSafe(|| {
            let spec = std::sync::Arc::new(spec);
            let mut manager = RuntimeManager::new(platform, SpatialMapper::default());
            let _ = manager.start(spec.clone());
            let _ = manager.start(spec);
        }));
        assert!(started.is_ok(), "a panic after {mutation}");
    });
}
