//! Oracles for the structural digests `ProcessGraph` and
//! `ImplementationLibrary` keep of themselves, and for the template key
//! (`ApplicationSpec::structural_digest`) built on them:
//!
//! * equal specs ⇔ equal digests over the whole catalog and proptested
//!   synthetic graphs, and every single-field flip the pre-digest
//!   fingerprint could see moves the digest too;
//! * the digest is a function of content — not of how the builder calls
//!   were interleaved, nor of `clone` or a serde round trip — and is never
//!   serialized (JSON byte-identical to the committed fixture);
//! * end to end, two same-named specs that differ in one rate never share
//!   a template shape;
//! * a deserialized spec that bypassed the builders' checks is refused
//!   with a one-line error, never a panic.

use proptest::prelude::*;
use rtsm::app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm::app::{
    AppModelError, ApplicationSpec, Endpoint, Implementation, ImplementationLibrary, KpnChannel,
    Process, ProcessGraph, ProcessId, QosSpec,
};
use rtsm::core::{MapError, MappingAlgorithm, SpatialMapper, TemplatedMapper};
use rtsm::dataflow::PhaseVec;
use rtsm::platform::paper::paper_platform;
use rtsm::platform::TileKind;
use rtsm::sim::Catalog;
use rtsm::workloads::{synthetic_app, GraphShape, SyntheticConfig};
use std::hash::{Hash, Hasher};

/// A spec taken apart into plain public values, so a test can change one
/// field and put it back together through the builders.
#[derive(Clone)]
struct Parts {
    name: String,
    qos: QosSpec,
    processes: Vec<Process>,
    channels: Vec<KpnChannel>,
    impls: Vec<Vec<Implementation>>,
}

fn parts(spec: &ApplicationSpec) -> Parts {
    Parts {
        name: spec.name.clone(),
        qos: spec.qos,
        processes: spec.graph.processes().map(|(_, p)| p.clone()).collect(),
        channels: spec.graph.channels().map(|(_, c)| c.clone()).collect(),
        impls: spec
            .graph
            .processes()
            .map(|(pid, _)| spec.library.impls_for(pid).to_vec())
            .collect(),
    }
}

fn add_process(graph: &mut ProcessGraph, p: &Process) {
    if p.is_control {
        // The builders give a control process no separate abbreviation.
        assert_eq!(p.name, p.short_name);
        graph.add_control_process(p.name.as_str());
    } else {
        graph.add_process_abbrev(p.name.as_str(), p.short_name.as_str());
    }
}

fn add_channel(graph: &mut ProcessGraph, c: &KpnChannel) {
    let add = if c.is_control {
        ProcessGraph::add_control_channel
    } else {
        ProcessGraph::add_channel
    };
    add(graph, c.src, c.dst, c.tokens_per_period).expect("endpoints exist");
}

/// How [`build`] orders its builder calls. Every order yields the same
/// lists, hence must yield the same digest.
#[derive(Clone, Copy)]
enum Order {
    /// All processes, all channels, then `register` by ascending process.
    Plain,
    /// Each channel as soon as both its ends exist (channels *between*
    /// processes), and `register` by descending process.
    Interleaved,
}

fn build(parts: &Parts, order: Order) -> ApplicationSpec {
    let mut graph = ProcessGraph::new();
    let mut library = ImplementationLibrary::new();
    let registrations = |library: &mut ImplementationLibrary, process: usize| {
        for implementation in &parts.impls[process] {
            library.register(ProcessId::from_index(process), implementation.clone());
        }
    };
    match order {
        Order::Plain => {
            for p in &parts.processes {
                add_process(&mut graph, p);
            }
            for c in &parts.channels {
                add_channel(&mut graph, c);
            }
            for process in 0..parts.impls.len() {
                registrations(&mut library, process);
            }
        }
        Order::Interleaved => {
            let ready = |c: &KpnChannel, n: usize| {
                [c.src, c.dst]
                    .iter()
                    .all(|e| !matches!(e, Endpoint::Process(p) if p.index() >= n))
            };
            // Channels keep their relative order, so the first one whose
            // ends are still missing holds back the rest.
            let mut next_channel = 0;
            for (i, p) in parts.processes.iter().enumerate() {
                add_process(&mut graph, p);
                while parts
                    .channels
                    .get(next_channel)
                    .is_some_and(|c| ready(c, i + 1))
                {
                    add_channel(&mut graph, &parts.channels[next_channel]);
                    next_channel += 1;
                }
            }
            assert_eq!(next_channel, parts.channels.len());
            for process in (0..parts.impls.len()).rev() {
                registrations(&mut library, process);
            }
        }
    }
    ApplicationSpec {
        name: parts.name.clone(),
        graph,
        qos: parts.qos,
        library,
    }
}

/// FNV-1a, as `template.rs` had it before the digests.
struct Fnv64(u64);

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The template key this repository used before the digests: a walk
/// over the whole spec. Kept verbatim as the oracle's *field list* — the
/// digest must tell apart every pair of specs this walk told apart.
fn walked_fingerprint(spec: &ApplicationSpec) -> u64 {
    fn endpoint_code(endpoint: Endpoint) -> (u8, usize) {
        match endpoint {
            Endpoint::Process(p) => (0, p.index()),
            Endpoint::StreamInput => (1, 0),
            Endpoint::StreamOutput => (2, 0),
        }
    }
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    spec.name.hash(&mut h);
    spec.qos.period_ps.hash(&mut h);
    spec.qos.max_latency_ps.hash(&mut h);
    spec.graph.n_processes().hash(&mut h);
    spec.graph.n_channels().hash(&mut h);
    for (pid, process) in spec.graph.processes() {
        process.name.hash(&mut h);
        for implementation in spec.library.impls_for(pid) {
            implementation.name.hash(&mut h);
            implementation.tile_kind.hash(&mut h);
            implementation.wcet.hash(&mut h);
            implementation.inputs.hash(&mut h);
            implementation.outputs.hash(&mut h);
            implementation.energy_pj_per_period.hash(&mut h);
            implementation.memory_bytes.hash(&mut h);
        }
    }
    for (_, ch) in spec.graph.channels() {
        endpoint_code(ch.src).hash(&mut h);
        endpoint_code(ch.dst).hash(&mut h);
        ch.tokens_per_period.hash(&mut h);
        ch.is_control.hash(&mut h);
    }
    h.finish()
}

/// `v` with its first phase one larger.
fn bumped(v: &PhaseVec) -> PhaseVec {
    let mut values: Vec<u64> = v.iter().collect();
    values[0] += 1;
    PhaseVec::from_slice(&values)
}

/// Every variant of `base` that differs from it in exactly one field
/// (labelled for the failure message). Covers each field of each process,
/// implementation and channel, plus `name` and both QoS fields; the two
/// flips the builders cannot express are left out (a control process with
/// an abbreviation of its own, and an endpoint no process stands behind).
fn single_field_flips(base: &Parts) -> Vec<(String, Parts)> {
    let mut flips = Vec::new();
    let mut flip = |label: String, edit: &dyn Fn(&mut Parts)| {
        let mut variant = base.clone();
        edit(&mut variant);
        flips.push((label, variant));
    };
    flip("name".into(), &|p| p.name.push('!'));
    flip("qos.period_ps".into(), &|p| p.qos.period_ps += 1);
    flip("qos.max_latency_ps".into(), &|p| {
        p.qos.max_latency_ps = Some(p.qos.max_latency_ps.map_or(1, |l| l + 1));
    });
    for (i, process) in base.processes.iter().enumerate() {
        flip(format!("process {i} name"), &|p| {
            let process = &mut p.processes[i];
            // A control process's abbreviation *is* its name.
            if process.is_control {
                process.short_name.push('!');
            }
            process.name.push('!');
        });
        if !process.is_control {
            flip(format!("process {i} short_name"), &|p| {
                p.processes[i].short_name.push('!');
            });
        }
    }
    for (i, impls) in base.impls.iter().enumerate() {
        for (j, implementation) in impls.iter().enumerate() {
            let mut edit = |field: &str, edit: &dyn Fn(&mut Implementation)| {
                flip(format!("process {i} impl {j} {field}"), &|p| {
                    edit(&mut p.impls[i][j]);
                });
            };
            edit("name", &|im| im.name.push('!'));
            edit("tile_kind", &|im| {
                im.tile_kind = match im.tile_kind {
                    TileKind::Dsp => TileKind::Fpga,
                    _ => TileKind::Dsp,
                };
            });
            edit("wcet", &|im| im.wcet = bumped(&im.wcet));
            for port in 0..implementation.inputs.len() {
                edit(&format!("input {port}"), &|im| {
                    im.inputs[port] = bumped(&im.inputs[port]);
                });
            }
            for port in 0..implementation.outputs.len() {
                edit(&format!("output {port}"), &|im| {
                    im.outputs[port] = bumped(&im.outputs[port]);
                });
            }
            edit("energy", &|im| im.energy_pj_per_period += 1);
            edit("memory", &|im| im.memory_bytes += 1);
        }
    }
    let n = base.processes.len();
    for (i, channel) in base.channels.iter().enumerate() {
        // Another process that exists, so the builder accepts the channel.
        let other = |e: Endpoint| match e {
            Endpoint::Process(p) if n > 1 => Some(Endpoint::Process(ProcessId::from_index(
                (p.index() + 1) % n,
            ))),
            Endpoint::Process(_) => None,
            _ => Some(Endpoint::Process(ProcessId::from_index(0))),
        };
        if let Some(src) = other(channel.src) {
            flip(format!("channel {i} src"), &|p| p.channels[i].src = src);
        }
        if let Some(dst) = other(channel.dst) {
            flip(format!("channel {i} dst"), &|p| p.channels[i].dst = dst);
        }
        flip(format!("channel {i} tokens_per_period"), &|p| {
            p.channels[i].tokens_per_period += 1;
        });
        flip(format!("channel {i} is_control"), &|p| {
            p.channels[i].is_control ^= true;
        });
    }
    flips
}

/// `a == b ⇔ digest(a) == digest(b)`, and wherever the old walk saw a
/// difference the digest sees one too.
fn assert_digests_agree_with_equality(specs: &[(String, ApplicationSpec)]) {
    for (i, (name_a, a)) in specs.iter().enumerate() {
        for (name_b, b) in &specs[i..] {
            let same_digest = a.structural_digest() == b.structural_digest();
            assert_eq!(a == b, same_digest, "`{name_a}` vs `{name_b}`");
            if walked_fingerprint(a) != walked_fingerprint(b) {
                assert!(!same_digest, "`{name_a}` vs `{name_b}`: the walk saw it");
            }
        }
    }
}

/// The flip oracle on one spec: the spec, rebuilt, and all its single-field
/// variants are pairwise distinct exactly where `==` says so.
fn assert_every_field_counts(spec: &ApplicationSpec) {
    let base = parts(spec);
    let mut family = vec![("rebuilt".to_string(), build(&base, Order::Plain))];
    assert_eq!(&family[0].1, spec, "the builders reproduce the spec");
    for (label, variant) in single_field_flips(&base) {
        let variant = build(&variant, Order::Plain);
        assert_ne!(&variant, spec, "{label}: the flip changed nothing");
        family.push((label, variant));
    }
    assert_digests_agree_with_equality(&family);
}

fn catalog_specs() -> Vec<(String, ApplicationSpec)> {
    let mut specs: Vec<(String, ApplicationSpec)> = Vec::new();
    for catalog in [Catalog::hiperlan2(), Catalog::mixed_dsp()] {
        for entry in catalog.entries() {
            specs.push((entry.name.clone(), (*entry.spec).clone()));
        }
    }
    assert_eq!(specs.len(), 7 + 5);
    specs
}

#[test]
fn catalog_digests_are_equal_exactly_for_equal_specs() {
    // `mixed_dsp` repeats the QPSK 3/4 receiver: one equal pair among the
    // twelve, sixty-five unequal ones.
    assert_digests_agree_with_equality(&catalog_specs());
}

#[test]
fn every_field_the_old_fingerprint_walked_moves_the_digest() {
    for (_, spec) in catalog_specs() {
        assert_every_field_counts(&spec);
    }
}

#[test]
fn digest_is_a_function_of_content_not_of_construction() {
    for (name, spec) in catalog_specs() {
        let base = parts(&spec);
        let plain = build(&base, Order::Plain);
        let interleaved = build(&base, Order::Interleaved);
        let json = serde_json::to_string(&spec).expect("serialize");
        let reread: ApplicationSpec = serde_json::from_str(&json).expect("deserialize");
        for (how, other) in [
            ("plain build", &plain),
            ("interleaved build", &interleaved),
            ("clone", &spec.clone()),
            ("serde round trip", &reread),
        ] {
            assert_eq!(other, &spec, "{name}: {how}");
            assert_eq!(
                other.graph.structural_digest(),
                spec.graph.structural_digest(),
                "{name}: {how}"
            );
            assert_eq!(
                other.library.structural_digest(),
                spec.library.structural_digest(),
                "{name}: {how}"
            );
            assert_eq!(
                other.structural_digest(),
                spec.structural_digest(),
                "{name}: {how}"
            );
        }
        // A spec's own `pub` fields are mixed in per call, not remembered.
        let mut renamed = spec.clone();
        renamed.name.push('!');
        assert_ne!(renamed.structural_digest(), spec.structural_digest());
        renamed.name.pop();
        assert_eq!(renamed.structural_digest(), spec.structural_digest());
    }
}

#[test]
fn digests_are_not_serialized() {
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    // The encoding as it was before the containers kept a digest.
    let pinned = include_str!("golden/hiperlan2_qpsk34_spec.json");
    assert_eq!(serde_json::to_string(&spec).expect("serialize"), pinned);
    let reread: ApplicationSpec = serde_json::from_str(pinned).expect("deserialize");
    assert_eq!(serde_json::to_string(&reread).expect("serialize"), pinned);
}

fn synthetic(seed: u64, n_processes: usize, width: usize) -> ApplicationSpec {
    synthetic_app(&SyntheticConfig {
        seed,
        n_processes,
        shape: if width == 0 {
            GraphShape::Chain
        } else {
            GraphShape::ForkJoin { width }
        },
        ..SyntheticConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic chains (`width` 0) and fork-joins: a small population is
    /// pairwise consistent, and each member passes the flip oracle and the
    /// construction-order check.
    #[test]
    fn synthetic_digests_agree_with_equality(
        seeds in proptest::collection::vec(0u64..1000, 2..5),
        n_processes in 3usize..8,
        width in 0usize..4,
    ) {
        let specs: Vec<(String, ApplicationSpec)> = seeds
            .iter()
            .map(|&seed| (format!("seed {seed}"), synthetic(seed, n_processes, width)))
            .collect();
        assert_digests_agree_with_equality(&specs);
        let (_, first) = &specs[0];
        assert_every_field_counts(first);
        let interleaved = build(&parts(first), Order::Interleaved);
        prop_assert_eq!(&interleaved, first);
        prop_assert_eq!(interleaved.structural_digest(), first.structural_digest());
    }
}

#[test]
fn same_named_specs_differing_in_one_rate_never_share_a_shape() {
    let platform = paper_platform();
    let state = platform.initial_state();
    let tm = TemplatedMapper::new(SpatialMapper::default());
    let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    tm.map(&spec, &platform, &state).expect("maps");
    assert_eq!((tm.stats().hits, tm.stats().misses), (1, 0));
    let shapes_before = tm.stats().shapes_cached;

    // The same application but for one WCET phase (one cycle more on the
    // first process's first implementation): same name, same shape of
    // graph, a different CSDF — so a recorded sizing must not answer for
    // it.
    let mut twin = parts(&spec);
    twin.impls[0][0].wcet = bumped(&twin.impls[0][0].wcet);
    let twin = build(&twin, Order::Plain);
    assert_eq!(twin.name, spec.name);
    assert_ne!(twin.structural_digest(), spec.structural_digest());

    // Its first arrival seeds shapes of its own, under its own key.
    tm.map(&twin, &platform, &state).expect("maps");
    let stats = tm.stats();
    assert_eq!(stats.seeded, 2, "the twin was seeded as a new spec");
    assert!(
        stats.shapes_cached > shapes_before,
        "and its shape stored apart"
    );
}

fn tampered(from: &str, to: &str) -> ApplicationSpec {
    let json = serde_json::to_string(&hiperlan2_receiver(Hiperlan2Mode::Qpsk34)).unwrap();
    let bad = json.replacen(from, to, 1);
    assert_ne!(bad, json, "`{from}` occurs in the encoding");
    serde_json::from_str(&bad).expect("the shape is still valid JSON for a spec")
}

#[test]
fn dangling_channel_endpoint_in_deserialized_spec_is_an_error_not_a_panic() {
    let platform = paper_platform();
    // A process-to-process data channel, a channel into the sink, and the
    // control process's channel: deserialization skips `add_channel`'s
    // endpoint check, so each must be caught before anything indexes.
    for (from, to) in [
        (r#"{"Process":1}"#, r#"{"Process":99}"#),
        (r#""src":{"Process":3}"#, r#""src":{"Process":99}"#),
        (r#""src":{"Process":4}"#, r#""src":{"Process":99}"#),
    ] {
        let spec = tampered(from, to);
        assert_eq!(
            spec.graph.topological_order(),
            Err(AppModelError::UnknownProcess(99))
        );
        assert_eq!(spec.validate(), Err(AppModelError::UnknownProcess(99)));
        let refused = |result: Result<_, MapError>| {
            let error = result.map(drop).expect_err("an invalid spec does not map");
            assert!(matches!(
                error,
                MapError::InvalidSpec(AppModelError::UnknownProcess(99))
            ));
            assert!(!error.to_string().contains('\n'), "a one-line error");
        };
        refused(SpatialMapper::default().map(&spec, &platform, &platform.initial_state()));
        refused(TemplatedMapper::new(SpatialMapper::default()).map(
            &spec,
            &platform,
            &platform.initial_state(),
        ));
    }
}

#[test]
fn library_longer_than_graph_and_empty_graph_do_not_panic() {
    let platform = paper_platform();
    let tm = TemplatedMapper::new(SpatialMapper::default());

    // Implementations registered for a process the graph does not have are
    // simply never asked for — and survive a round trip, digest included.
    let mut long = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
    let spare = long.library.impls_for(ProcessId::from_index(0))[0].clone();
    long.library.register(ProcessId::from_index(40), spare);
    assert_eq!(long.validate(), Ok(()));
    assert!(tm.map(&long, &platform, &platform.initial_state()).is_ok());
    let json = serde_json::to_string(&long).unwrap();
    let reread: ApplicationSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(reread, long);
    assert_eq!(reread.structural_digest(), long.structural_digest());
    assert_ne!(
        long.structural_digest(),
        hiperlan2_receiver(Hiperlan2Mode::Qpsk34).structural_digest()
    );

    // Nothing to place: whatever the verdict, it is a value, not a panic.
    let empty: ApplicationSpec =
        serde_json::from_str(r#"{"name":"empty","graph":{"processes":[],"channels":[]},"qos":{"period_ps":1000,"max_latency_ps":null},"library":{"by_process":[]}}"#)
            .expect("deserialize");
    assert_eq!(empty.graph, ProcessGraph::new());
    assert_eq!(
        empty.graph.structural_digest(),
        ProcessGraph::new().structural_digest()
    );
    assert_eq!(empty.validate(), Ok(()));
    if let Err(error) = tm.map(&empty, &platform, &platform.initial_state()) {
        assert!(!error.to_string().contains('\n'), "a one-line error");
    }
}
