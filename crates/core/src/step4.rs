//! Step 4: check the application constraints (§3.4).
//!
//! The mapped application is composed into one CSDF graph — Figure 3: the
//! chosen implementations' actors, one router actor (single phase, WCET =
//! the 4-cycle round-robin arbitration bound) per router traversed by each
//! routed channel, the A/D source paced at the application period and the
//! Sink. Finite buffers are channel capacities: router-to-router buffers of
//! [`Step4Config::router_buffer_words`], the fixed Sink buffer `x`, and the
//! tile-side input buffers `B_i`, which are *computed* here (via
//! `rtsm-dataflow`'s buffer sizing, standing in for Wiggers et al. \[11\]).
//!
//! The mapping is **feasible** iff the composed graph sustains one source
//! firing per period, the computed buffers fit the consuming tiles'
//! memories, and the optional latency bound holds.
//!
//! The throughput verdict is not a second analysis: buffer sizing proves the
//! period on exactly the capacities it returns and hands that
//! [`Throughput`](rtsm_dataflow::Throughput) back with them. Sizing results
//! are memoised per thread by the composed graph's *structure* (never its
//! actor names; at most 512 entries, flushed whole), so step 4 on a graph
//! shape seen before composes the graph, digests it once and runs no
//! simulation at all.
//!
//! Model note: tile-side *producer* NI buffers are sized to the largest
//! single-phase burst of the producing implementation (atomic firings
//! reserve their whole production at start, so a uniform 4-word buffer
//! would spuriously deadlock bursty producers that a cycle-accurate NI
//! would drain in flight).

use crate::feedback::Feedback;
use crate::mapping::{Mapping, RouteBinding};
use crate::spec_table::SpecTable;
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId};
use rtsm_dataflow::{
    iteration_latency, size_buffers_ref, ActorId, BufferSizingConfig, CsdfGraph, PhaseVec,
};
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId};
use serde::{Deserialize, Serialize};

/// Configuration of the step-4 composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step4Config {
    /// Router input-buffer capacity in words (Figure 3's `4`).
    pub router_buffer_words: u64,
    /// The Sink's fixed buffer `x` in words; `None` derives
    /// `max(router_buffer_words, channel tokens/period)`.
    pub sink_buffer_words: Option<u64>,
    /// Warm-up and window (in source cycles) for the latency measurement.
    pub latency_window: (u64, u64),
}

impl Default for Step4Config {
    fn default() -> Self {
        Step4Config {
            router_buffer_words: 4,
            sink_buffer_words: None,
            latency_window: (4, 8),
        }
    }
}

/// A computed tile-side input buffer (Figure 3's `B_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelBuffer {
    /// The KPN channel buffered.
    pub channel: KpnChannelId,
    /// Computed capacity in 32-bit words.
    pub capacity_words: u64,
    /// The tile whose memory holds the buffer.
    pub tile: TileId,
}

/// Outcome of step 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Step4Result {
    /// The composed whole-application CSDF graph (Figure 3), with all
    /// computed capacities applied.
    pub csdf: CsdfGraph,
    /// The A/D source actor.
    pub source: ActorId,
    /// The Sink actor.
    pub sink: ActorId,
    /// Computed tile-side buffers (`B_1 … B_n`).
    pub buffers: Vec<ChannelBuffer>,
    /// Whether all QoS constraints hold.
    pub feasible: bool,
    /// Achieved source period, `(time_ps, iterations)` — divide to compare
    /// with the required period.
    pub achieved_period: (u64, u64),
    /// Measured end-to-end latency (only when a latency bound was given).
    pub latency_ps: Option<u64>,
    /// Feedback when infeasible (empty otherwise).
    pub feedback: Vec<Feedback>,
}

/// Composes the mapped application's CSDF graph and checks feasibility.
///
/// `working` must contain this mapping's tile reservations (buffer memory
/// is claimed on top of it and released again before returning — the caller
/// re-claims real buffers when it commits the mapping).
///
/// Builds its own [`SpecTable`]; callers that run several steps on one spec
/// build the table once and call [`check_constraints_in`].
pub fn check_constraints(
    spec: &ApplicationSpec,
    platform: &Platform,
    mapping: &Mapping,
    working: &PlatformState,
    config: &Step4Config,
) -> Step4Result {
    check_constraints_in(
        &SpecTable::for_validated(spec),
        platform,
        mapping,
        working,
        config,
    )
}

/// [`check_constraints`] over a prebuilt [`SpecTable`].
pub fn check_constraints_in(
    table: &SpecTable<'_>,
    platform: &Platform,
    mapping: &Mapping,
    working: &PlatformState,
    config: &Step4Config,
) -> Step4Result {
    let spec = table.spec();
    let period = spec.qos.period_ps;
    let mut csdf = CsdfGraph::new();

    // --- Actors -----------------------------------------------------------
    // Source: the A/D streams samples continuously across the period
    // (Figure 3 draws it as ⟨1⟩ per sample), so it is a multi-phase actor —
    // one phase per token of its largest output channel, phase durations
    // spreading the period evenly. A single burst-firing source would
    // serialise production against NoC drainage and under-run the period.
    let source_phases = spec
        .graph
        .stream_channels()
        .filter(|(_, c)| c.src == Endpoint::StreamInput)
        .map(|(_, c)| c.tokens_per_period)
        .max()
        .unwrap_or(1)
        .max(1);
    let source = csdf.add_actor("A/D", bresenham(period, source_phases), 1);
    let noc_cycle = platform.noc().cycle_time_ps();
    let sink = csdf.add_actor("Sink", PhaseVec::single(1), noc_cycle);

    let mut process_actor = std::collections::BTreeMap::new();
    for (pid, _) in spec.graph.stream_processes() {
        let Some(assignment) = mapping.assignment(pid) else {
            return infeasible_result(
                csdf,
                source,
                sink,
                vec![Feedback::Infeasible {
                    detail: format!(
                        "process `{}` is unassigned in step 4",
                        spec.graph.process(pid).name
                    ),
                }],
            );
        };
        let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
        let tile = platform.tile(assignment.tile);
        let actor = csdf.add_actor(
            implementation.name.clone(),
            implementation.wcet.clone(),
            tile.cycle_time_ps(),
        );
        process_actor.insert(pid, (actor, assignment));
    }

    // Utilisation pre-check with structured feedback: a sequential actor
    // busier than the period can never keep up; implicate its
    // implementation choice.
    for (pid, _) in spec.graph.stream_processes() {
        let (_, assignment) = process_actor[&pid];
        let implementation = &spec.library.impls_for(pid)[assignment.impl_index];
        let cycles = table.cycles_per_period(pid, assignment.impl_index);
        let busy_ps =
            implementation.wcet_per_period(cycles) * platform.tile(assignment.tile).cycle_time_ps();
        if busy_ps > period {
            return infeasible_result(
                csdf,
                source,
                sink,
                vec![
                    Feedback::Infeasible {
                        detail: format!(
                            "`{}` needs {busy_ps} ps per {period} ps period",
                            implementation.name
                        ),
                    },
                    Feedback::ExcludeImplementation {
                        process: pid,
                        impl_index: assignment.impl_index,
                    },
                ],
            );
        }
    }

    // --- Channels ---------------------------------------------------------
    // Tile-side input buffers (B_i) to size afterwards.
    let mut size_targets = Vec::new();
    let mut buffer_sites: Vec<(KpnChannelId, TileId, rtsm_dataflow::ChannelId)> = Vec::new();

    for (cid, ch) in spec.graph.stream_channels() {
        let (src_actor, src_rates) = match ch.src {
            Endpoint::Process(p) => {
                let (actor, assignment) = process_actor[&p];
                let implementation = &spec.library.impls_for(p)[assignment.impl_index];
                let port = table
                    .outputs(p)
                    .iter()
                    .position(|c| *c == cid)
                    .expect("channel is an output of its producer");
                (actor, implementation.outputs[port].clone())
            }
            Endpoint::StreamInput => (source, bresenham(ch.tokens_per_period, source_phases)),
            Endpoint::StreamOutput => unreachable!("validated: StreamOutput never produces"),
        };
        let (dst_actor, dst_rates, dst_tile) = match ch.dst {
            Endpoint::Process(p) => {
                let (actor, assignment) = process_actor[&p];
                let implementation = &spec.library.impls_for(p)[assignment.impl_index];
                let port = table
                    .inputs(p)
                    .iter()
                    .position(|c| *c == cid)
                    .expect("channel is an input of its consumer");
                (
                    actor,
                    implementation.inputs[port].clone(),
                    Some(assignment.tile),
                )
            }
            Endpoint::StreamOutput => (sink, PhaseVec::single(ch.tokens_per_period), None),
            Endpoint::StreamInput => unreachable!("validated: StreamInput never consumes"),
        };

        let routers: Vec<ActorId> = match mapping.route(cid) {
            Some(RouteBinding::Path(path)) => path
                .routers
                .iter()
                .map(|coord| {
                    csdf.add_actor(
                        format!("R{coord}"),
                        PhaseVec::single(platform.noc().hop_latency_cycles),
                        noc_cycle,
                    )
                })
                .collect(),
            Some(RouteBinding::SameTile) | None => Vec::new(),
        };

        // Producer-side NI buffer: double-buffered against the largest
        // production burst, so a producer can fill one burst while the NoC
        // drains the previous one.
        let ni_capacity = config.router_buffer_words.max(2 * src_rates.max());
        let one = PhaseVec::single(1);
        if routers.is_empty() {
            // Direct edge; capacity sized below (or sink x).
            let edge = csdf
                .add_channel_full(src_actor, dst_actor, src_rates, dst_rates, 0, None)
                .expect("rates validated against actor phases");
            match dst_tile {
                Some(tile) => {
                    size_targets.push(edge);
                    buffer_sites.push((cid, tile, edge));
                }
                None => {
                    let x = config
                        .sink_buffer_words
                        .unwrap_or(config.router_buffer_words.max(ch.tokens_per_period));
                    csdf.channel_mut(edge).capacity = Some(x.max(ch.tokens_per_period));
                }
            }
        } else {
            let first = csdf
                .add_channel_full(
                    src_actor,
                    routers[0],
                    src_rates,
                    one.clone(),
                    0,
                    Some(ni_capacity),
                )
                .expect("rates validated against actor phases");
            let _ = first;
            for pair in routers.windows(2) {
                csdf.add_channel_full(
                    pair[0],
                    pair[1],
                    one.clone(),
                    one.clone(),
                    0,
                    Some(config.router_buffer_words),
                )
                .expect("router rates are single-phase");
            }
            let last = csdf
                .add_channel_full(
                    *routers.last().expect("non-empty"),
                    dst_actor,
                    one.clone(),
                    dst_rates,
                    0,
                    None,
                )
                .expect("rates validated against actor phases");
            match dst_tile {
                Some(tile) => {
                    size_targets.push(last);
                    buffer_sites.push((cid, tile, last));
                }
                None => {
                    let x = config
                        .sink_buffer_words
                        .unwrap_or(config.router_buffer_words.max(ch.tokens_per_period));
                    csdf.channel_mut(last).capacity = Some(x.max(ch.tokens_per_period));
                }
            }
        }
    }

    // --- Buffer sizing (B_i) and throughput check --------------------------
    let sizing = match size_buffers_ref(
        &csdf,
        &BufferSizingConfig {
            source,
            period,
            channels: size_targets,
            max_sweeps: 3,
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            return infeasible_result(
                csdf,
                source,
                sink,
                vec![Feedback::Infeasible {
                    detail: format!("buffer sizing failed: {e}"),
                }],
            );
        }
    };
    rtsm_dataflow::apply_sizing(&mut csdf, &sizing);

    let mut buffers = Vec::new();
    for (cid, tile, edge) in &buffer_sites {
        let capacity = sizing.capacity_of(*edge).expect("edge was a sizing target");
        buffers.push(ChannelBuffer {
            channel: *cid,
            capacity_words: capacity,
            tile: *tile,
        });
    }

    // Buffer memory must fit the consuming tiles (4 bytes per word).
    let mut feedback = Vec::new();
    let mut probe = working.clone();
    for buffer in &buffers {
        let claim = TileClaim {
            slots: 0,
            memory_bytes: buffer.capacity_words * 4,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        };
        if probe.claim_tile(platform, buffer.tile, &claim).is_err() {
            feedback.push(Feedback::BufferOverflow {
                tile: buffer.tile,
                needed_bytes: buffer.capacity_words * 4,
            });
            if let Some((pid, _)) = spec
                .graph
                .stream_processes()
                .find(|(p, _)| mapping.assignment(*p).map(|a| a.tile) == Some(buffer.tile))
            {
                feedback.push(Feedback::ForbidTile {
                    process: pid,
                    tile: buffer.tile,
                });
            }
        }
    }

    // The sizing carries the throughput its search proved for exactly the
    // capacities just applied, so the sized graph is not simulated again.
    let achieved = (sizing.achieved.period, sizing.achieved.iterations);
    if !sizing.achieved.sustains_period(period) && feedback.is_empty() {
        feedback.push(Feedback::Infeasible {
            detail: format!(
                "achieved period {}/{} exceeds required {period}",
                achieved.0, achieved.1
            ),
        });
    }

    // Latency bound, when specified.
    let mut latency_ps = None;
    if let Some(bound) = spec.qos.max_latency_ps {
        match iteration_latency(
            &csdf,
            source,
            sink,
            config.latency_window.0,
            config.latency_window.1,
        ) {
            Ok(lat) => {
                latency_ps = Some(lat);
                if lat > bound {
                    feedback.push(Feedback::Infeasible {
                        detail: format!("latency {lat} ps exceeds bound {bound} ps"),
                    });
                }
            }
            Err(e) => feedback.push(Feedback::Infeasible {
                detail: format!("latency analysis failed: {e}"),
            }),
        }
    }

    Step4Result {
        csdf,
        source,
        sink,
        buffers,
        feasible: feedback.is_empty(),
        achieved_period: achieved,
        latency_ps,
        feedback,
    }
}

/// Distributes `total` over `phases` values as evenly as integer division
/// allows (Bresenham spreading): the first `total % phases` positions get
/// one extra unit. Sums to `total` exactly.
fn bresenham(total: u64, phases: u64) -> PhaseVec {
    debug_assert!(phases >= 1);
    let q = total / phases;
    let r = total % phases;
    let values: Vec<u64> = (0..phases).map(|i| q + u64::from(i < r)).collect();
    PhaseVec::from_slice(&values)
}

fn infeasible_result(
    csdf: CsdfGraph,
    source: ActorId,
    sink: ActorId,
    feedback: Vec<Feedback>,
) -> Step4Result {
    Step4Result {
        csdf,
        source,
        sink,
        buffers: Vec::new(),
        feasible: false,
        achieved_period: (u64::MAX, 1),
        latency_ps: None,
        feedback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::feedback::Constraints;
    use crate::step1::assign_implementations;
    use crate::step2::{improve_assignment, Step2Config};
    use crate::step3::route_channels;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn full_pipeline(
        mode: Hiperlan2Mode,
    ) -> (rtsm_app::ApplicationSpec, Platform, Mapping, PlatformState) {
        let spec = hiperlan2_receiver(mode);
        let platform = paper_platform();
        let constraints = Constraints::new();
        let out = assign_implementations(&spec, &platform, &platform.initial_state(), &constraints)
            .unwrap();
        let mut mapping = out.mapping;
        let mut working = out.working;
        improve_assignment(
            &spec,
            &platform,
            &constraints,
            &mut mapping,
            &mut working,
            &CostModel::HopCount,
            &Step2Config::default(),
        );
        route_channels(&spec, &platform, &mut mapping, &mut working).unwrap();
        (spec, platform, mapping, working)
    }

    #[test]
    fn paper_mapping_is_feasible() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &working,
            &Step4Config::default(),
        );
        assert!(result.feasible, "feedback: {:?}", result.feedback);
        // Achieved period = required period exactly (the A/D is the
        // bottleneck by construction).
        assert_eq!(
            result.achieved_period.0,
            4_000_000 * result.achieved_period.1
        );
    }

    #[test]
    fn figure3_structure_twelve_routers_four_buffers() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &working,
            &Step4Config::default(),
        );
        let routers = result
            .csdf
            .actors()
            .filter(|(_, a)| a.name.starts_with("R("))
            .count();
        assert_eq!(routers, 12, "Figure 3 has 12 router actors");
        assert_eq!(result.buffers.len(), 4, "B1..B4");
        for b in &result.buffers {
            assert!(b.capacity_words >= 1);
        }
        // 4 process actors + A/D + Sink + 12 routers.
        assert_eq!(result.csdf.n_actors(), 18);
    }

    #[test]
    fn all_modes_feasible_on_paper_platform() {
        for mode in Hiperlan2Mode::ALL {
            let (spec, platform, mapping, working) = full_pipeline(mode);
            let result = check_constraints(
                &spec,
                &platform,
                &mapping,
                &working,
                &Step4Config::default(),
            );
            assert!(
                result.feasible,
                "mode {}: {:?}",
                mode.name(),
                result.feedback
            );
        }
    }

    #[test]
    fn buffers_cover_consumer_bursts() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &working,
            &Step4Config::default(),
        );
        for buffer in &result.buffers {
            let ch = spec.graph.channel(buffer.channel);
            if let Endpoint::Process(p) = ch.dst {
                let a = mapping.assignment(p).unwrap();
                let implementation = &spec.library.impls_for(p)[a.impl_index];
                let port = spec
                    .graph
                    .inputs_of(p)
                    .iter()
                    .position(|c| *c == buffer.channel)
                    .unwrap();
                assert!(
                    buffer.capacity_words >= implementation.inputs[port].max(),
                    "buffer below burst size"
                );
            }
        }
    }

    #[test]
    fn unassigned_process_is_infeasible_with_feedback() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = check_constraints(
            &spec,
            &platform,
            &Mapping::new(),
            &platform.initial_state(),
            &Step4Config::default(),
        );
        assert!(!result.feasible);
        assert!(!result.feedback.is_empty());
    }

    #[test]
    fn overloaded_implementation_yields_exclusion_feedback() {
        // Force Inverse OFDM onto an ARM (impossible at 200 MHz): step 4
        // must produce ExcludeImplementation feedback.
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut mapping = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        mapping.assign(p("Prefix removal"), 0, t("ARM1"));
        mapping.assign(p("Freq. off. correction"), 1, t("MONTIUM1"));
        mapping.assign(p("Inverse OFDM"), 0, t("ARM2")); // ARM impl: 4370 cc
        mapping.assign(p("Remainder"), 1, t("MONTIUM2"));
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &platform.initial_state(),
            &Step4Config::default(),
        );
        assert!(!result.feasible);
        assert!(result.feedback.iter().any(|f| matches!(
            f,
            Feedback::ExcludeImplementation { process, .. }
                if *process == p("Inverse OFDM")
        )));
    }

    #[test]
    fn latency_bound_checked_when_present() {
        let (mut spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        // Absurdly tight bound: 1 ps.
        spec.qos.max_latency_ps = Some(1);
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &working,
            &Step4Config::default(),
        );
        assert!(!result.feasible);
        assert!(result.latency_ps.is_some());
        // Generous bound: 10 periods.
        spec.qos.max_latency_ps = Some(40_000_000);
        let result = check_constraints(
            &spec,
            &platform,
            &mapping,
            &working,
            &Step4Config::default(),
        );
        assert!(result.feasible, "feedback: {:?}", result.feedback);
    }
}
