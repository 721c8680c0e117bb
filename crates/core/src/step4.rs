//! Step 4: check the application constraints (§3.4).
//!
//! The mapped application is one CSDF graph — Figure 3: the chosen
//! implementations' actors, one router actor (single phase, WCET = the
//! 4-cycle round-robin arbitration bound) per router traversed by each
//! routed channel, the A/D source paced at the application period and the
//! Sink. Finite buffers are channel capacities: router-to-router buffers of
//! `ROUTER_BUFFER_WORDS` (Figure 3's 4 words), the fixed Sink buffer
//! `x = max(4, tokens per period)`, and the tile-side input buffers `B_i`,
//! which are *computed* (via `rtsm-dataflow`'s buffer sizing, standing in for
//! Wiggers et al. \[11\]).
//!
//! The mapping is **feasible** iff that graph sustains one source firing
//! per period, the computed buffers fit the consuming tiles' memories, and
//! the optional latency bound holds.
//!
//! # Signature, composition, verdict
//!
//! The graph is a function of far less than the mapping: which
//! implementation each process runs and at what clock, how many routers
//! each channel crosses and the NoC's timing — not which tiles or which
//! routers. [`signature`] digests exactly that, from the spec table and the
//! mapping, without building anything; two mappings with equal signatures
//! compose graphs that differ in actor names only, so they share one
//! analysis. This is the isomorphism a template hit already
//! trusts when it reuses a shape's buffers at another anchor.
//!
//! [`check_constraints_in`] is the **verdict**: the pre-checks that need no
//! graph, then the analysis — capacities of the `B_i`, achieved throughput,
//! latency — looked up by signature in the thread's store (`store.rs`: at
//! most 512 analyses, flushed whole, so memory is bounded and behaviour
//! deterministic; the compiled specs beside them are bounded on their own),
//! then the memory-fit, period and latency checks on the mapping at hand. Only a signature never seen on this thread pays for
//! [`compose`] and the sizing search, and what it pays is counted in
//! self-timed simulations of the graph (`Counter::CsdfRun`): one — every
//! `B_i` at its structural floor sustains the period, which is how all but
//! a few analyses end — or, on the paper platform, four (the floors, the
//! unbounded pilot, two probes of the descent). The floors' refusal there is
//! the one simulation that does not end soon: it is stopped after four graph
//! iterations, when a cycle of the graph's HSDF expansion proves the period
//! out of reach (`Counter::BufferProbeCycleRefuted`), instead of run some
//! thirty iterations on to the recurrence that says the same. The
//! throughput verdict comes out of that search (sizing proves the period on
//! exactly the capacities it returns), never from a second simulation.
//! Failed analyses are not remembered: their diagnostics name actors.
//!
//! Nothing on the admission path reads the graph itself, so the verdict
//! returns none and no mapping outcome carries one. Figure 3 of a mapping is
//! [`compose`] sized by [`Composition::size`] with the verdict's buffers;
//! [`check_constraints`] returns it next to the verdict.
//!
//! Model note: tile-side *producer* NI buffers are sized to the largest
//! single-phase burst of the producing implementation (atomic firings
//! reserve their whole production at start, so a uniform 4-word buffer
//! would spuriously deadlock bursty producers that a cycle-accurate NI
//! would drain in flight).

use crate::feedback::Feedback;
use crate::mapping::{Mapping, RouteBinding};
use crate::spec_table::SpecTable;
use crate::store;
use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_dataflow::{
    iteration_latency, size_buffers_ref, ActorId, BufferSizingConfig, ChannelId, CsdfGraph,
    DataflowError, PhaseVec, SimConfig, Throughput,
};
use rtsm_obs as obs;
use rtsm_platform::{Platform, PlatformState, TileClaim, TileId};
use serde::{Deserialize, Serialize};

/// Capacity in words of every router input buffer — Figure 3's `4`. The
/// Sink's buffer `x` and each producer-side NI buffer hold at least as much.
const ROUTER_BUFFER_WORDS: u64 = 4;

/// Source cycles the latency measurement discards as its transient.
const LATENCY_WARMUP_CYCLES: u64 = 4;

/// Source cycles the latency measurement takes its maximum over.
const LATENCY_WINDOW_CYCLES: u64 = 8;

/// Step 4 has no settings: its fixed capacities are `ROUTER_BUFFER_WORDS`
/// (4) and what the module docs derive from it, and its latency window is
/// `LATENCY_WARMUP_CYCLES` (4) then `LATENCY_WINDOW_CYCLES` (8) source
/// cycles. It is kept only because the `benchmark/` crate names it; it goes
/// when `benchmark/` is next maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Step4Config;

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

impl ChannelBuffer {
    /// What the buffer claims on its tile: four bytes of memory per word,
    /// and no compute slot.
    pub fn claim(&self) -> TileClaim {
        TileClaim {
            slots: 0,
            memory_bytes: self.capacity_words * 4,
            cycles_per_second: 0,
            injection: 0,
            ejection: 0,
        }
    }
}

/// What step 4 decides about a mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Step4Verdict {
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

impl Step4Verdict {
    /// The verdict on a mapping refused before any buffer was sized.
    fn refused(feedback: Vec<Feedback>) -> Self {
        Step4Verdict {
            buffers: Vec::new(),
            feasible: false,
            achieved_period: (u64::MAX, 1),
            latency_ps: None,
            feedback,
        }
    }
}

/// A [`Step4Verdict`] together with the graph it is a verdict on.
#[derive(Debug, Clone, PartialEq)]
pub struct Step4Result {
    /// The composed whole-application CSDF graph (Figure 3), with all
    /// computed capacities applied. Holds the A/D and the Sink alone when
    /// the mapping cannot be composed (see [`compose`]).
    pub csdf: CsdfGraph,
    /// The A/D source actor.
    pub source: ActorId,
    /// The Sink actor.
    pub sink: ActorId,
    /// What step 4 decided.
    pub verdict: Step4Verdict,
}

/// The Figure-3 graph of one mapping, as [`compose`] builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    /// The graph. The `B_i` edges are unbounded until [`Composition::size`]
    /// applies computed capacities.
    pub csdf: CsdfGraph,
    /// The A/D source actor.
    pub source: ActorId,
    /// The Sink actor.
    pub sink: ActorId,
    /// The edges that are tile-side input buffers `B_i`, in stream-channel
    /// order — the order of [`Step4Verdict::buffers`].
    pub buffer_edges: Vec<ChannelId>,
}

impl Composition {
    /// Sets the capacity of every `B_i` edge to its computed buffer
    /// (`buffers` as a verdict on the same mapping lists them; an empty
    /// list — nothing was sized — leaves the edges unbounded).
    pub fn size(&mut self, buffers: &[ChannelBuffer]) {
        for (edge, buffer) in self.buffer_edges.iter().zip(buffers) {
            self.csdf.channel_mut(*edge).capacity = Some(buffer.capacity_words);
        }
    }
}

/// Checks feasibility and composes the mapped application's CSDF graph:
/// [`check_constraints_in`]'s verdict plus [`compose`]'s graph with the
/// verdict's buffers applied.
///
/// `working` must contain this mapping's tile reservations (buffer memory
/// is checked on top of a copy of it — the caller re-claims real buffers
/// when it commits the mapping).
///
/// Builds its own [`SpecTable`]; callers that run several steps on one spec
/// build the table once, and callers that only want the decision call
/// [`check_constraints_in`]. Nothing reads `_config`; it is kept only because
/// the `benchmark/` crate passes it (see [`Step4Config`]).
pub fn check_constraints(
    spec: &ApplicationSpec,
    platform: &Platform,
    mapping: &Mapping,
    working: &PlatformState,
    _config: &Step4Config,
) -> Step4Result {
    let table = SpecTable::for_validated(spec);
    let verdict = check_constraints_in(&table, platform, mapping, working.clone());
    let Composition {
        csdf, source, sink, ..
    } = match compose(&table, platform, mapping) {
        Some(mut composition) => {
            composition.size(&verdict.buffers);
            composition
        }
        None => endpoints_only(spec.qos.period_ps, platform),
    };
    Step4Result {
        csdf,
        source,
        sink,
        verdict,
    }
}

/// The step-4 verdict over a prebuilt [`SpecTable`], without the graph (see
/// the [module docs](self)).
///
/// `working` must contain this mapping's tile reservations; it is consumed
/// — the buffers' memory is claimed on top of it to see whether they fit.
pub fn check_constraints_in(
    table: &SpecTable<'_>,
    platform: &Platform,
    mapping: &Mapping,
    mut working: PlatformState,
) -> Step4Verdict {
    let spec = table.spec();
    let period = spec.qos.period_ps;
    let infeasible = |detail: String| Step4Verdict::refused(vec![Feedback::Infeasible { detail }]);

    if let Err(tokens) = source_phases(spec) {
        return infeasible(format!(
            "the stream input's {tokens} tokens per period are more A/D phases than the \
             dataflow analysis fires"
        ));
    }
    let key = match signature(table, platform, mapping) {
        Ok(key) => key,
        Err(pid) => {
            return infeasible(format!(
                "process `{}` is unassigned in step 4",
                spec.graph.process(pid).name
            ));
        }
    };

    // Per-implementation pre-checks with structured feedback, implicating
    // the implementation choice so that refinement may try another. An
    // actor of more phases than the analysis fires is the A/D's case over
    // again (see `source_phases`): nothing in a spec's validation bounds an
    // implementation's phase vector either. And a sequential actor busier
    // than the period can never keep up; a product past `u128` is busier
    // than any period.
    for (pid, _) in spec.graph.stream_processes() {
        let assignment = mapping.assignment(pid).expect("the signature covers it");
        let implementation = table.implementation(pid, assignment.impl_index);
        let excluding = |detail: String| {
            Step4Verdict::refused(vec![
                Feedback::Infeasible { detail },
                Feedback::ExcludeImplementation {
                    process: pid,
                    impl_index: assignment.impl_index,
                },
            ])
        };
        let phases = implementation.wcet.len() as u64;
        if phases > max_phases() {
            return excluding(format!(
                "`{}` has {phases} phases, more than the dataflow analysis fires",
                implementation.name
            ));
        }
        let cycles = table.cycles_per_period(pid, assignment.impl_index);
        let busy_ps = (u128::from(implementation.cycle_wcet()) * u128::from(cycles))
            .saturating_mul(u128::from(platform.tile(assignment.tile).cycle_time_ps()));
        if busy_ps > u128::from(period) {
            return excluding(format!(
                "`{}` needs {busy_ps} ps per {period} ps period",
                implementation.name
            ));
        }
    }

    // --- Buffer sizing (B_i), throughput and latency ------------------------
    // An entry that does not have one capacity per buffer site of this spec
    // (two specs sharing a 64-bit digest) is no answer.
    let remembered = store::with(|store| {
        let analysis = store.analyses.get(&key)?;
        let buffers = buffers_at_sites(spec, mapping, &analysis.capacities)?;
        Some((buffers, analysis.achieved, analysis.latency_ps.map(Ok)))
    });
    let (buffers, achieved, latency) = match remembered {
        Some(hit) => {
            obs::count(obs::Counter::BufferMemoHit, 1);
            hit
        }
        None => {
            let mut composition = compose(table, platform, mapping).expect("the pre-checks passed");
            let (analysis, latency) = match analyse(&mut composition, spec) {
                Ok(analysed) => analysed,
                Err(e) => return infeasible(format!("buffer sizing failed: {e}")),
            };
            let buffers = buffers_at_sites(spec, mapping, &analysis.capacities)
                .expect("one sized edge per buffer site");
            let achieved = analysis.achieved;
            if !matches!(latency, Some(Err(_))) {
                store::remember(key, analysis);
            }
            (buffers, achieved, latency)
        }
    };

    // Buffer memory must fit the consuming tiles.
    let mut feedback = Vec::new();
    for buffer in &buffers {
        let claim = buffer.claim();
        if working.claim_tile(platform, buffer.tile, &claim).is_err() {
            feedback.push(Feedback::BufferOverflow {
                tile: buffer.tile,
                needed_bytes: claim.memory_bytes,
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

    let achieved_period = (achieved.period, achieved.iterations);
    if !achieved.sustains_period(period) && feedback.is_empty() {
        feedback.push(Feedback::Infeasible {
            detail: format!(
                "achieved period {}/{} exceeds required {period}",
                achieved_period.0, achieved_period.1
            ),
        });
    }

    // Latency bound, when specified.
    let mut latency_ps = None;
    if let (Some(bound), Some(latency)) = (spec.qos.max_latency_ps, latency) {
        match latency {
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

    Step4Verdict {
        buffers,
        feasible: feedback.is_empty(),
        achieved_period,
        latency_ps,
        feedback,
    }
}

/// What the analysis of one composed graph yields, and the thread's
/// [`store`] keeps by signature: the capacity of each `B_i` in
/// stream-channel order, the throughput the sizing search proved on them,
/// and the sized graph's iteration latency when the spec bounds it.
pub(crate) struct Analysis {
    pub(crate) capacities: Box<[u64]>,
    pub(crate) achieved: Throughput,
    pub(crate) latency_ps: Option<u64>,
}

/// The cold path: sizes the `B_i` of `composition` (left applied to its
/// graph) and, when the spec bounds latency, measures it. A failed latency
/// measurement comes back beside the analysis, which is then not one to
/// remember.
fn analyse(
    composition: &mut Composition,
    spec: &ApplicationSpec,
) -> Result<(Analysis, Option<Result<u64, DataflowError>>), DataflowError> {
    let sizing = size_buffers_ref(
        &composition.csdf,
        &BufferSizingConfig {
            source: composition.source,
            period: spec.qos.period_ps,
            channels: composition.buffer_edges.clone(),
            max_sweeps: 3,
        },
    )?;
    rtsm_dataflow::apply_sizing(&mut composition.csdf, &sizing);
    let latency = spec.qos.max_latency_ps.map(|_| {
        iteration_latency(
            &composition.csdf,
            composition.source,
            composition.sink,
            LATENCY_WARMUP_CYCLES,
            LATENCY_WINDOW_CYCLES,
        )
    });
    let analysis = Analysis {
        capacities: composition
            .buffer_edges
            .iter()
            .map(|&edge| sizing.capacity_of(edge).expect("edge was a sizing target"))
            .collect(),
        achieved: sizing.achieved,
        latency_ps: match latency {
            Some(Ok(lat)) => Some(lat),
            _ => None,
        },
    };
    Ok((analysis, latency))
}

/// The buffer sites of a mapped spec — every stream channel a process
/// consumes, with the consumer's tile — in stream-channel order.
fn buffer_sites<'a>(
    spec: &'a ApplicationSpec,
    mapping: &'a Mapping,
) -> impl Iterator<Item = (KpnChannelId, TileId)> + 'a {
    spec.graph
        .stream_channels()
        .filter_map(|(cid, ch)| match ch.dst {
            Endpoint::Process(p) => Some((cid, mapping.assignment(p)?.tile)),
            _ => None,
        })
}

/// `capacities` laid over the buffer sites; `None` unless there is exactly
/// one per site.
fn buffers_at_sites(
    spec: &ApplicationSpec,
    mapping: &Mapping,
    capacities: &[u64],
) -> Option<Vec<ChannelBuffer>> {
    if buffer_sites(spec, mapping).count() != capacities.len() {
        return None;
    }
    let mut buffers = Vec::with_capacity(capacities.len());
    buffers.extend(buffer_sites(spec, mapping).zip(capacities).map(
        |((channel, tile), &capacity_words)| ChannelBuffer {
            channel,
            capacity_words,
            tile,
        },
    ));
    Some(buffers)
}

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Two word-at-a-time mixers with distinct keys over one stream of words.
struct Lanes(u64, u64);

impl Lanes {
    #[inline]
    fn word(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word, 0x9e37_79b9_7f4a_7c15);
        self.1 = fold(self.1 ^ word, 0xc2b2_ae3d_27d4_eb4f);
    }

    /// Both lanes into each half of the key. `fold` commutes, so one lane
    /// is rotated before the second cross-multiply: without that the two
    /// halves are one word whenever both lanes are odd, and the key 64 bits.
    #[inline]
    fn finish(self) -> u128 {
        let high = fold(self.0, self.1 | 1);
        let low = fold(self.1.rotate_left(32), self.0 | 1);
        u128::from(high) << 64 | u128::from(low)
    }
}

/// The 128-bit signature of the graph [`compose`] would build for
/// `mapping`: the spec's [structural
/// digest](ApplicationSpec::structural_digest) (name, QoS, graph and
/// library — trusted as a key the way the template library trusts it), per
/// stream process its implementation and tile clock, per stream channel the
/// routers it crosses (none when it stays on a tile or is unrouted) and the
/// NoC's timing. O(processes + channels), no allocation.
///
/// # Errors
///
/// The first stream process `mapping` leaves unassigned.
pub fn signature(
    table: &SpecTable<'_>,
    platform: &Platform,
    mapping: &Mapping,
) -> Result<u128, ProcessId> {
    let spec = table.spec();
    let mut lanes = Lanes(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
    lanes.word(spec.structural_digest());
    for (pid, _) in spec.graph.stream_processes() {
        let assignment = mapping.assignment(pid).ok_or(pid)?;
        lanes.word(assignment.impl_index as u64);
        lanes.word(platform.tile(assignment.tile).cycle_time_ps());
    }
    for (cid, _) in spec.graph.stream_channels() {
        lanes.word(match mapping.route(cid) {
            Some(RouteBinding::Path(path)) => path.routers.len() as u64,
            Some(RouteBinding::SameTile) | None => 0,
        });
    }
    lanes.word(platform.noc().cycle_time_ps());
    lanes.word(platform.noc().hop_latency_cycles);
    Ok(lanes.finish())
}

/// The most phases an actor of the composed graph may have: what the
/// dataflow simulator fires in a whole run (its `max_firings` guard, far
/// below the `u32` a [`PhaseVec`] counts in). No analysis of an actor with
/// more sees it wrap even once, so none reaches a steady state; and the
/// simulator lays every actor's phases out flat before it starts.
fn max_phases() -> u64 {
    SimConfig::default().max_firings
}

/// Phases of the A/D source: the A/D streams samples continuously across
/// the period (Figure 3 draws it as ⟨1⟩ per sample), so it is a multi-phase
/// actor — one phase per token of its largest output channel. A single
/// burst-firing source would serialise production against NoC drainage and
/// under-run the period.
///
/// # Errors
///
/// The token count, when it is more than [`max_phases`]: nothing in a
/// spec's validation bounds tokens per period.
fn source_phases(spec: &ApplicationSpec) -> Result<u32, u64> {
    let tokens = spec
        .graph
        .stream_channels()
        .filter(|(_, c)| c.src == Endpoint::StreamInput)
        .map(|(_, c)| c.tokens_per_period)
        .max()
        .unwrap_or(1)
        .max(1);
    match u32::try_from(tokens) {
        Ok(phases) if tokens <= max_phases() => Ok(phases),
        _ => Err(tokens),
    }
}

/// The A/D and the Sink with nothing between them: what
/// [`check_constraints`] returns for a mapping [`compose`] refuses.
fn endpoints_only(period: u64, platform: &Platform) -> Composition {
    let mut csdf = CsdfGraph::new();
    let source = csdf.add_actor("A/D", PhaseVec::single(period), 1);
    let sink = csdf.add_actor("Sink", PhaseVec::single(1), platform.noc().cycle_time_ps());
    Composition {
        csdf,
        source,
        sink,
        buffer_edges: Vec::new(),
    }
}

/// Composes the mapped application's CSDF graph (Figure 3). A pure function
/// of its arguments, and of no more of them than [`signature`] digests,
/// actor names aside (implementations' names, `R(x,y)` per router).
///
/// `None` when a stream process is unassigned or the stream input carries
/// more tokens per period than the A/D can be given phases.
pub fn compose(
    table: &SpecTable<'_>,
    platform: &Platform,
    mapping: &Mapping,
) -> Option<Composition> {
    let spec = table.spec();
    let period = spec.qos.period_ps;
    let mut csdf = CsdfGraph::new();

    // --- Actors -----------------------------------------------------------
    // The source's phase durations spread the period evenly.
    let source_phases = source_phases(spec).ok()?;
    let source = csdf.add_actor("A/D", bresenham(period, source_phases), 1);
    let noc_cycle = platform.noc().cycle_time_ps();
    let sink = csdf.add_actor("Sink", PhaseVec::single(1), noc_cycle);

    let mut process_actor = std::collections::BTreeMap::new();
    for (pid, _) in spec.graph.stream_processes() {
        let assignment = mapping.assignment(pid)?;
        let implementation = table.implementation(pid, assignment.impl_index);
        let actor = csdf.add_actor(
            implementation.name.clone(),
            implementation.wcet.clone(),
            platform.tile(assignment.tile).cycle_time_ps(),
        );
        process_actor.insert(pid, (actor, implementation));
    }

    // --- Channels ---------------------------------------------------------
    let mut buffer_edges = Vec::new();
    for (cid, ch) in spec.graph.stream_channels() {
        let (src_actor, src_rates) = match ch.src {
            Endpoint::Process(p) => {
                let (actor, implementation) = process_actor[&p];
                let port = table
                    .outputs(p)
                    .position(|c| c == cid)
                    .expect("channel is an output of its producer");
                (actor, implementation.outputs[port].clone())
            }
            Endpoint::StreamInput => (source, bresenham(ch.tokens_per_period, source_phases)),
            Endpoint::StreamOutput => unreachable!("validated: StreamOutput never produces"),
        };
        // A channel into a process ends in a tile-side input buffer (B_i),
        // sized afterwards; one into the Sink in the fixed buffer `x`.
        let (dst_actor, dst_rates, sink_buffer) = match ch.dst {
            Endpoint::Process(p) => {
                let (actor, implementation) = process_actor[&p];
                let port = table
                    .inputs(p)
                    .position(|c| c == cid)
                    .expect("channel is an input of its consumer");
                (actor, implementation.inputs[port].clone(), None)
            }
            Endpoint::StreamOutput => (
                sink,
                PhaseVec::single(ch.tokens_per_period),
                Some(ROUTER_BUFFER_WORDS.max(ch.tokens_per_period)),
            ),
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

        let one = PhaseVec::single(1);
        let last_hop = match (routers.first(), routers.last()) {
            (Some(&first), Some(&last)) => {
                // Producer-side NI buffer: double-buffered against the
                // largest production burst, so a producer can fill one
                // burst while the NoC drains the previous one.
                let ni_capacity = ROUTER_BUFFER_WORDS.max(2 * src_rates.max());
                csdf.add_channel_full(
                    src_actor,
                    first,
                    src_rates,
                    one.clone(),
                    0,
                    Some(ni_capacity),
                )
                .expect("rates validated against actor phases");
                for pair in routers.windows(2) {
                    csdf.add_channel_full(
                        pair[0],
                        pair[1],
                        one.clone(),
                        one.clone(),
                        0,
                        Some(ROUTER_BUFFER_WORDS),
                    )
                    .expect("router rates are single-phase");
                }
                csdf.add_channel_full(last, dst_actor, one, dst_rates, 0, sink_buffer)
            }
            // Direct edge.
            _ => csdf.add_channel_full(src_actor, dst_actor, src_rates, dst_rates, 0, sink_buffer),
        }
        .expect("rates validated against actor phases");
        if sink_buffer.is_none() {
            buffer_edges.push(last_hop);
        }
    }

    Some(Composition {
        csdf,
        source,
        sink,
        buffer_edges,
    })
}

/// Distributes `total` over `phases` values as evenly as integer division
/// allows (Bresenham spreading): the first `total % phases` positions get
/// one extra unit. Sums to `total` exactly. At most two runs, built as such.
fn bresenham(total: u64, phases: u32) -> PhaseVec {
    debug_assert!(phases >= 1);
    let n = u64::from(phases);
    let (q, r) = (total / n, (total % n) as u32);
    if r == 0 {
        PhaseVec::uniform(q, phases)
    } else {
        PhaseVec::uniform(q + 1, r).concat(&PhaseVec::uniform(q, phases - r))
    }
}

#[cfg(test)]
mod twin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::feedback::Constraints;
    use crate::step1::assign_implementations;
    use crate::step2::improve_assignment;
    use crate::step3::route_channels;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    pub(super) fn full_pipeline(
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
        );
        route_channels(&spec, &platform, &mut mapping, &mut working).unwrap();
        (spec, platform, mapping, working)
    }

    #[test]
    fn paper_mapping_is_feasible() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
        assert!(
            result.verdict.feasible,
            "feedback: {:?}",
            result.verdict.feedback
        );
        // Achieved period = required period exactly (the A/D is the
        // bottleneck by construction).
        assert_eq!(
            result.verdict.achieved_period.0,
            4_000_000 * result.verdict.achieved_period.1
        );
    }

    #[test]
    fn figure3_structure_twelve_routers_four_buffers() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
        let routers = result
            .csdf
            .actors()
            .filter(|(_, a)| a.name.starts_with("R("))
            .count();
        assert_eq!(routers, 12, "Figure 3 has 12 router actors");
        assert_eq!(result.verdict.buffers.len(), 4, "B1..B4");
        for b in &result.verdict.buffers {
            assert!(b.capacity_words >= 1);
        }
        // 4 process actors + A/D + Sink + 12 routers.
        assert_eq!(result.csdf.n_actors(), 18);
    }

    #[test]
    fn all_modes_feasible_on_paper_platform() {
        for mode in Hiperlan2Mode::ALL {
            let (spec, platform, mapping, working) = full_pipeline(mode);
            let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
            assert!(
                result.verdict.feasible,
                "mode {}: {:?}",
                mode.name(),
                result.verdict.feedback
            );
        }
    }

    #[test]
    fn buffers_cover_consumer_bursts() {
        let (spec, platform, mapping, working) = full_pipeline(Hiperlan2Mode::Qpsk34);
        let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
        for buffer in &result.verdict.buffers {
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
            &Step4Config,
        );
        assert!(!result.verdict.feasible);
        assert!(!result.verdict.feedback.is_empty());
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
            &Step4Config,
        );
        assert!(!result.verdict.feasible);
        assert!(result.verdict.feedback.iter().any(|f| matches!(
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
        let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
        assert!(!result.verdict.feasible);
        assert!(result.verdict.latency_ps.is_some());
        // Generous bound: 10 periods.
        spec.qos.max_latency_ps = Some(40_000_000);
        let result = check_constraints(&spec, &platform, &mapping, &working, &Step4Config);
        assert!(
            result.verdict.feasible,
            "feedback: {:?}",
            result.verdict.feedback
        );
    }

    proptest::proptest! {
        /// The two runs are the run-length encoding of the spread written
        /// out phase by phase.
        #[test]
        fn bresenham_is_the_even_spread_run_length_encoded(
            total in 0u64..200_000,
            phases in 1u32..3_000,
        ) {
            let (q, r) = (total / u64::from(phases), total % u64::from(phases));
            let spread: Vec<u64> = (0..u64::from(phases)).map(|i| q + u64::from(i < r)).collect();
            proptest::prop_assert_eq!(bresenham(total, phases), PhaseVec::from_slice(&spread));
        }
    }

    #[test]
    fn a_busy_time_past_u64_is_busier_than_the_period_not_a_wrap() {
        use rtsm_app::{Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_platform::TileKind;
        // 2^62 cycles at 5 000 ps each is 0 modulo 2^64.
        let mut graph = ProcessGraph::new();
        let p = graph.add_process("Stage");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 16)
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
                PhaseVec::from_slice(&[1 << 62, 0, 0]),
                PhaseVec::from_slice(&[16, 0, 0]),
                PhaseVec::from_slice(&[0, 0, 16]),
                5_000,
                2048,
            ),
        );
        let spec = ApplicationSpec {
            name: "an eternity per sample".into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        };
        let platform = paper_platform();
        let mut mapping = Mapping::new();
        mapping.assign(p, 0, platform.tile_by_name("ARM1").unwrap());
        let verdict = check_constraints(
            &spec,
            &platform,
            &mapping,
            &platform.initial_state(),
            &Step4Config,
        )
        .verdict;
        assert!(!verdict.feasible);
        assert_eq!(
            verdict.feedback.last(),
            Some(&Feedback::ExcludeImplementation {
                process: p,
                impl_index: 0
            })
        );
    }
}
