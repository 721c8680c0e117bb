//! The spatial mapper: steps 1–4 under the iterative-refinement driver.
//!
//! "In general, the production of feedback immediately triggers a new
//! iteration … The feedback from a lower level may result in a completely
//! different mapping on a higher level in a next iteration." (§3.)

use crate::algorithm::{MappingAlgorithm, MappingOutcome};
use crate::constraints::MappingConstraints;
use crate::cost::CostModel;
use crate::error::MapError;
use crate::feedback::{Constraints, Feedback};
use crate::spec_table::SpecTable;
use crate::step1::Step1;
use crate::step2::{SearchCtx, Step2Config};
use crate::step3::route_channels;
use crate::step4::{check_constraints_in, Step4Config};
use crate::trace::{AttemptTrace, MapTrace};
use rtsm_app::{ApplicationSpec, Endpoint};
use rtsm_obs as obs;
use rtsm_platform::{Platform, PlatformState, RoutingPolicy};
use serde::{Deserialize, Serialize};

/// Refinement attempts one `map` makes before giving up.
pub const MAX_REFINEMENTS: usize = 8;

/// Configuration of the whole mapper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Step-2 cost model (default: the paper's hop count).
    pub cost_model: CostModel,
    /// Read by nothing: step 2 has no settings (see [`Step2Config`]).
    pub step2: Step2Config,
    /// Read by nothing: step 4 has no settings (see [`Step4Config`]).
    pub step4: Step4Config,
    /// Read by nothing: step 3 routes every channel on the paper's
    /// capacity-aware shortest path (see [`RoutingPolicy`]).
    pub routing: RoutingPolicy,
    /// Record the full search trace ([`MappingOutcome::trace`], Table-2
    /// events, assignment snapshots). Default `true` — what the paper
    /// reproduction and debugging read. Turn it **off** on hot paths
    /// (simulators, benches): the search makes identical decisions and the
    /// `evaluated`/`attempts` counters stay exact, but no trace structures
    /// are allocated at all. The Figure-3 graph is never kept: draw it with
    /// [`compose`](crate::step4::compose) (or
    /// [`check_constraints`](crate::step4::check_constraints)).
    pub capture: bool,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            cost_model: CostModel::HopCount,
            step2: Step2Config,
            step4: Step4Config,
            routing: RoutingPolicy,
            capture: true,
        }
    }
}

impl MapperConfig {
    /// This configuration with trace capture disabled — the hot-path
    /// variant for simulators and benches.
    #[must_use]
    pub fn without_capture(mut self) -> Self {
        self.capture = false;
        self
    }
}

/// The run-time spatial mapper (see the [crate documentation](crate)).
#[derive(Debug, Clone, Default)]
pub struct SpatialMapper {
    config: MapperConfig,
}

impl SpatialMapper {
    /// Creates a mapper with `config`.
    pub fn new(config: MapperConfig) -> Self {
        SpatialMapper { config }
    }

    /// The mapper's configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Maps `spec` onto `platform` given the current occupancy `base`.
    ///
    /// `base` is **not** mutated: apply the returned result with
    /// [`MappingOutcome::commit`] when the application actually starts, or
    /// let a [`RuntimeManager`](crate::RuntimeManager) manage the whole
    /// lifecycle.
    ///
    /// # Errors
    ///
    /// * [`MapError::InvalidSpec`] if the specification fails validation.
    /// * [`MapError::NoStreamEndpoint`] if stream endpoints are used but
    ///   the platform has no `AdcSource`/`Sink` tile.
    /// * [`MapError::NoFeasibleMapping`] if refinement exhausts its budget
    ///   or dead-ends.
    pub fn map(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
    ) -> Result<MappingOutcome, MapError> {
        self.map_constrained(spec, platform, base, &MappingConstraints::none())
    }

    /// Maps `spec` onto `platform` under caller-imposed `constraints`
    /// (pinned process→tile assignments, excluded tiles): the external
    /// constraints seed every refinement attempt, so steps 1–2 never place
    /// a process where the caller forbade it, and a returned mapping always
    /// satisfies [`MappingConstraints::satisfied_by`]. With
    /// [`MappingConstraints::none`] this is exactly [`SpatialMapper::map`].
    ///
    /// # Errors
    ///
    /// As for [`SpatialMapper::map`]; constraints that leave a process no
    /// viable placement surface as [`MapError::Unmappable`] or
    /// [`MapError::NoFeasibleMapping`].
    pub fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        external: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let order = spec.validated_order()?;
        self.check_endpoints(spec, platform)?;
        // Everything below that depends on the spec alone reads this table;
        // per attempt only the constraints and the ledger change.
        let table = SpecTable::new(spec, order);

        // Observability only: span guards report timing to whatever probe
        // the caller installed; no decision below depends on them.
        let _map_span = obs::span(obs::Span::Map);
        let capture = self.config.capture;
        let mut constraints = Constraints::with_external(external.clone());
        // Step 1 for the whole call: what an attempt learns about `base`
        // serves the attempts after it.
        let mut step1 = Step1::new(&table, platform, base);
        let mut trace = MapTrace::default();
        let mut last_feedback = Vec::new();
        // Counters maintained independently of the trace so `evaluated` and
        // `attempts` stay exact when capture is off: every attempt costs
        // its step-2 evaluations plus one (the attempt itself), exactly the
        // `events.len() + 1` sum the captured trace would yield.
        let mut attempts_made = 0usize;
        let mut evaluated: u64 = 0;

        for attempt in 0..MAX_REFINEMENTS {
            let mut attempt_trace = AttemptTrace::default();

            // Step 1: implementations + greedy first-fit tiles.
            let step1_result = {
                let _s = obs::span(obs::Span::Step1);
                step1.attempt(&constraints)
            };
            let step1_out = match step1_result {
                Ok(out) => out,
                Err(dead_end) => {
                    obs::count(obs::Counter::Step1DeadEnd, 1);
                    attempts_made += 1;
                    evaluated += 1;
                    let forbid = dead_end.forbid();
                    if !absorb(&mut constraints, &mut step1, forbid.as_slice()) {
                        return Err(MapError::Unmappable {
                            process: spec.graph.process(dead_end.process).name.clone(),
                        });
                    }
                    // The dead end's feedback list is read by the trace, and by
                    // the error if no attempt follows this one.
                    if capture || attempt + 1 == MAX_REFINEMENTS {
                        last_feedback = dead_end.feedback(spec);
                    }
                    if capture {
                        attempt_trace.feedback = last_feedback.clone();
                        trace.attempts.push(attempt_trace);
                    }
                    continue;
                }
            };
            if capture {
                attempt_trace.step1 = step1_out.events;
            }
            let mut mapping = step1_out.mapping;
            let mut working = step1_out.working;

            // Step 2: local-search improvement.
            let step2_trace = {
                let _s = obs::span(obs::Span::Step2);
                SearchCtx::new(&table, platform, &constraints, &self.config.cost_model).improve(
                    &mut mapping,
                    &mut working,
                    capture,
                )
            };
            attempts_made += 1;
            evaluated += step2_trace.evaluations + 1;
            if capture {
                attempt_trace.step2 = step2_trace;
            }

            // Step 3: routing.
            let step3_result = {
                let _s = obs::span(obs::Span::Step3);
                route_channels(spec, platform, &mut mapping, &mut working)
            };
            if let Err(feedback) = step3_result {
                if capture {
                    attempt_trace.feedback = feedback.clone();
                    trace.attempts.push(attempt_trace);
                }
                let absorbed = absorb(&mut constraints, &mut step1, &feedback);
                last_feedback = feedback;
                if !absorbed {
                    break;
                }
                continue;
            }

            // Step 4: constraint check.
            let step4 = {
                let _s = obs::span(obs::Span::Step4);
                check_constraints_in(&table, platform, &mapping, working)
            };
            if step4.feasible {
                if capture {
                    attempt_trace.feasible = true;
                    trace.attempts.push(attempt_trace);
                }
                let energy_pj = mapping.energy_pj(spec, platform);
                let communication_hops = mapping.communication_hops(spec, platform);
                return Ok(MappingOutcome {
                    mapping,
                    buffers: step4.buffers,
                    energy_pj,
                    communication_hops,
                    feasible: true,
                    evaluated,
                    trace: capture.then_some(trace),
                    attempts: attempt + 1,
                    achieved_period: step4.achieved_period,
                    latency_ps: step4.latency_ps,
                });
            }
            if capture {
                attempt_trace.feedback = step4.feedback.clone();
                trace.attempts.push(attempt_trace);
            }
            let absorbed = absorb(&mut constraints, &mut step1, &step4.feedback);
            last_feedback = step4.feedback;
            if !absorbed {
                break;
            }
        }

        Err(MapError::NoFeasibleMapping {
            attempts: attempts_made,
            last_feedback,
        })
    }

    fn check_endpoints(&self, spec: &ApplicationSpec, platform: &Platform) -> Result<(), MapError> {
        let uses_input = spec
            .graph
            .stream_channels()
            .any(|(_, c)| c.src == Endpoint::StreamInput);
        let uses_output = spec
            .graph
            .stream_channels()
            .any(|(_, c)| c.dst == Endpoint::StreamOutput);
        if uses_input && platform.stream_input_tile().is_none() {
            return Err(MapError::NoStreamEndpoint { which: "AdcSource" });
        }
        if uses_output && platform.stream_output_tile().is_none() {
            return Err(MapError::NoStreamEndpoint { which: "Sink" });
        }
        Ok(())
    }
}

/// Folds `feedback` into `constraints`, telling `step1` about every item
/// that changed them. Returns whether any did (none ⇒ the feedback is not
/// actionable and refinement stops rather than loops).
fn absorb(constraints: &mut Constraints, step1: &mut Step1<'_>, feedback: &[Feedback]) -> bool {
    let mut absorbed = false;
    for fb in feedback {
        if constraints.absorb(fb) {
            step1.constrained_by(fb);
            absorbed = true;
        }
    }
    absorbed
}

impl MappingAlgorithm for SpatialMapper {
    fn name(&self) -> &str {
        "hierarchical heuristic (paper)"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        SpatialMapper::map_constrained(self, spec, platform, base, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;
    use rtsm_platform::{TileClaim, TileKind};

    #[test]
    fn paper_case_maps_first_attempt() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert!(result.feasible);
        assert_eq!(result.attempts, 1);
        assert_eq!(result.communication_hops, 7);
        assert_eq!(result.buffers.len(), 4);
    }

    #[test]
    fn commit_release_roundtrip() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut state = platform.initial_state();
        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &state)
            .unwrap();
        let before = state.clone();
        result.commit(&spec, &platform, &mut state).unwrap();
        assert_ne!(state, before);
        // Mapping a second instance against the committed state must avoid
        // the occupied MONTIUMs — and therefore fail (Inverse OFDM cannot
        // run on an ARM at 200 MHz).
        let second = SpatialMapper::new(MapperConfig::default()).map(&spec, &platform, &state);
        assert!(second.is_err());
        result.release(&spec, &platform, &mut state).unwrap();
        assert_eq!(state, before);
    }

    #[test]
    fn double_commit_fails_cleanly() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut state = platform.initial_state();
        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &state)
            .unwrap();
        result.commit(&spec, &platform, &mut state).unwrap();
        let snapshot = state.clone();
        assert!(result.commit(&spec, &platform, &mut state).is_err());
        assert_eq!(state, snapshot, "failed commit must roll back");
    }

    #[test]
    fn run_time_knowledge_beats_worst_case() {
        // §1.3: with the actual platform state known at run time, the
        // mapper exploits whatever is free. Occupy ARM1 and let the mapper
        // adapt: the mapping still succeeds using ARM2 only if the ARM
        // processes fit together — otherwise a refinement kicks in. Either
        // way, no panic and a coherent result/error.
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut base = platform.initial_state();
        base.claim_tile(
            &platform,
            platform.tile_by_name("ARM1").unwrap(),
            &TileClaim {
                slots: 1,
                memory_bytes: 0,
                cycles_per_second: 0,
                injection: 0,
                ejection: 0,
            },
        )
        .unwrap();
        match SpatialMapper::new(MapperConfig::default()).map(&spec, &platform, &base) {
            Ok(result) => {
                // Pfx and Frq must share ARM2 — only possible if slots
                // allowed it, which they do not (1 slot): so reaching here
                // would mean another packing was found.
                assert!(result.feasible);
            }
            Err(MapError::NoFeasibleMapping { .. }) | Err(MapError::Unmappable { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn capture_off_identical_outcome_minus_trace() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let with = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &state)
            .unwrap();
        let without = SpatialMapper::new(MapperConfig::default().without_capture())
            .map(&spec, &platform, &state)
            .unwrap();
        assert!(with.trace.is_some());
        assert!(without.trace.is_none(), "capture off records no trace");
        // Every other field is equal.
        let stripped = MappingOutcome {
            trace: None,
            ..with
        };
        assert_eq!(stripped, without);
    }

    #[test]
    fn pinned_process_lands_on_its_tile() {
        use crate::constraints::MappingConstraints;
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        // Unconstrained, Prefix removal ends on ARM2 (Table 2); pin it to
        // ARM1 and the mapper must honour that, still finding a feasible
        // (if costlier) mapping.
        let arm1 = platform.tile_by_name("ARM1").unwrap();
        let constraints = MappingConstraints::none().pin(pfx, arm1);
        let result = SpatialMapper::default()
            .map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
            .expect("pinning Prefix removal to an ARM stays feasible");
        assert_eq!(result.mapping.assignment(pfx).unwrap().tile, arm1);
        assert!(constraints.satisfied_by(&result.mapping));
    }

    #[test]
    fn pinned_processes_generate_no_step2_candidates() {
        use crate::constraints::MappingConstraints;
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let mapper = SpatialMapper::default();
        let generated = |constraints: &MappingConstraints| {
            let outcome = mapper
                .map_constrained(&spec, &platform, &state, constraints)
                .expect("paper case maps");
            let trace = outcome.trace.as_ref().expect("capture is on by default");
            (
                outcome.clone(),
                trace
                    .attempts
                    .iter()
                    .map(|a| a.step2.generated)
                    .sum::<u64>(),
            )
        };
        let (_, unpinned_generated) = generated(&MappingConstraints::none());
        // Pin Inverse OFDM where step 1 already puts it: the mapping is
        // unchanged, but its moves and every swap naming it are pruned
        // before the constraint oracle ever sees them.
        let inv = spec.graph.process_by_name("Inverse OFDM").unwrap();
        let (pinned_outcome, pinned_generated) = generated(
            &MappingConstraints::none().pin(inv, platform.tile_by_name("MONTIUM1").unwrap()),
        );
        assert!(
            pinned_generated < unpinned_generated,
            "pruning must shrink the generated neighbourhood \
             ({pinned_generated} vs {unpinned_generated})"
        );
        assert_eq!(
            pinned_outcome.mapping.assignment(inv).unwrap().tile,
            platform.tile_by_name("MONTIUM1").unwrap()
        );
        // No generated candidate ever names the pinned process.
        for attempt in &pinned_outcome.trace.as_ref().unwrap().attempts {
            for event in &attempt.step2.events {
                match event.candidate {
                    crate::trace::Step2Move::Move { process, .. } => assert_ne!(process, inv),
                    crate::trace::Step2Move::Swap { a, b } => {
                        assert_ne!(a, inv);
                        assert_ne!(b, inv);
                    }
                }
            }
        }
    }

    #[test]
    fn excluded_tile_forces_relocation() {
        use crate::constraints::MappingConstraints;
        use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_dataflow::PhaseVec;
        use rtsm_platform::{Coord, PlatformBuilder};

        // Two identical ARMs; first-fit prefers ARM-a. Excluding it must
        // push the process to ARM-b without violating feasibility.
        let platform = PlatformBuilder::mesh(4, 1)
            .tile_defaults(200, 2, 64 * 1024, 200_000_000)
            .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
            .tile("ARM-a", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("ARM-b", TileKind::Arm, Coord { x: 2, y: 0 })
            .tile("Sink", TileKind::Sink, Coord { x: 3, y: 0 })
            .build()
            .unwrap();
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
                PhaseVec::from_slice(&[8, 60, 8]),
                PhaseVec::from_slice(&[16, 0, 0]),
                PhaseVec::from_slice(&[0, 0, 16]),
                5_000,
                2048,
            ),
        );
        let spec = ApplicationSpec {
            name: "relocatable app".into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        };

        let arm_a = platform.tile_by_name("ARM-a").unwrap();
        let arm_b = platform.tile_by_name("ARM-b").unwrap();
        let unconstrained = SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(unconstrained.mapping.assignment(p).unwrap().tile, arm_a);

        let constraints = MappingConstraints::none().exclude_tile(arm_a);
        let result = SpatialMapper::default()
            .map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
            .expect("ARM-b can host the process");
        assert_eq!(result.mapping.assignment(p).unwrap().tile, arm_b);
        assert!(constraints.satisfied_by(&result.mapping));
    }

    #[test]
    fn unsatisfiable_constraints_fail_cleanly() {
        use crate::constraints::MappingConstraints;
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        // Excluding both MONTIUMs leaves Inverse OFDM (MONTIUM-only at
        // 200 MHz) nowhere to go.
        let constraints = MappingConstraints::none()
            .exclude_tile(platform.tile_by_name("MONTIUM1").unwrap())
            .exclude_tile(platform.tile_by_name("MONTIUM2").unwrap());
        let err = SpatialMapper::default()
            .map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
            .unwrap_err();
        assert!(matches!(
            err,
            MapError::Unmappable { .. } | MapError::NoFeasibleMapping { .. }
        ));
    }

    #[test]
    fn empty_constraints_reproduce_unconstrained_outcome() {
        use crate::constraints::MappingConstraints;
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let state = platform.initial_state();
        let unconstrained = SpatialMapper::default()
            .map(&spec, &platform, &state)
            .unwrap();
        let constrained = SpatialMapper::default()
            .map_constrained(&spec, &platform, &state, &MappingConstraints::none())
            .unwrap();
        assert_eq!(unconstrained, constrained);
    }

    #[test]
    fn missing_sink_tile_reported() {
        use rtsm_platform::{Coord, PlatformBuilder};
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = PlatformBuilder::mesh(2, 2)
            .tile("adc", TileKind::AdcSource, Coord { x: 0, y: 0 })
            .tile("arm", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("m", TileKind::Montium, Coord { x: 0, y: 1 })
            .build()
            .unwrap();
        let err = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &platform.initial_state())
            .unwrap_err();
        assert!(matches!(err, MapError::NoStreamEndpoint { which: "Sink" }));
    }

    #[test]
    fn buffer_overflow_feedback_relocates_process() {
        use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_dataflow::PhaseVec;
        use rtsm_platform::{Coord, PlatformBuilder, Tile};

        // One burst-consuming process: its input buffer must hold the whole
        // 64-token burst (256 bytes). ARM-tight has memory for the
        // implementation but not the buffer; ARM-roomy has plenty but sits
        // further away. Steps 1–2 prefer ARM-tight; step 4's buffer check
        // must push the process to ARM-roomy via feedback.
        let tile = |name: &str, kind, x, y, mem| Tile {
            name: name.into(),
            kind,
            position: Coord { x, y },
            clock_mhz: 200,
            compute_slots: 1,
            memory_bytes: mem,
            ni_injection: 200_000_000,
            ni_ejection: 200_000_000,
        };
        let platform = PlatformBuilder::mesh(3, 3)
            .tile_custom(tile("ARM-tight", TileKind::Arm, 0, 1, 1024 + 100))
            .tile_custom(tile("ARM-roomy", TileKind::Arm, 2, 1, 64 * 1024))
            .tile_custom(tile("A/D", TileKind::AdcSource, 0, 0, 1024))
            .tile_custom(tile("Sink", TileKind::Sink, 0, 2, 1024))
            .build()
            .unwrap();

        let mut graph = ProcessGraph::new();
        let p = graph.add_process("Burst");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 64)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 64)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        library.register(
            p,
            Implementation::simple(
                "Burst @ ARM",
                TileKind::Arm,
                PhaseVec::from_slice(&[16, 100, 16]),
                PhaseVec::from_slice(&[64, 0, 0]), // whole-burst read: B ≥ 64
                PhaseVec::from_slice(&[0, 0, 64]),
                10_000,
                1024,
            ),
        );
        let spec = ApplicationSpec {
            name: "burst app".into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        };

        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &platform.initial_state())
            .expect("refinement relocates the process");
        assert!(result.attempts >= 2, "expected a refinement round");
        let a = result.mapping.assignment(p).unwrap();
        assert_eq!(platform.tile(a.tile).name, "ARM-roomy");
        // The overflow feedback is visible in the failed attempt's trace.
        assert!(result.trace.as_ref().unwrap().attempts[0]
            .feedback
            .iter()
            .any(|f| matches!(f, crate::Feedback::BufferOverflow { .. })));
    }

    #[test]
    fn multi_slot_tile_hosts_two_light_processes() {
        use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
        use rtsm_dataflow::PhaseVec;
        use rtsm_platform::{Coord, PlatformBuilder};

        // A single 2-slot ARM: both pipeline stages must share it (same-tile
        // channel, no NoC traffic), within the combined cycle budget.
        let platform = PlatformBuilder::mesh(3, 1)
            .tile_defaults(200, 2, 64 * 1024, 200_000_000)
            .tile("ARM", TileKind::Arm, Coord { x: 1, y: 0 })
            .tile("A/D", TileKind::AdcSource, Coord { x: 0, y: 0 })
            .tile("Sink", TileKind::Sink, Coord { x: 2, y: 0 })
            .build()
            .unwrap();
        let mut graph = ProcessGraph::new();
        let a = graph.add_process("StageA");
        let b = graph.add_process("StageB");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(a), 16)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(a), Endpoint::Process(b), 16)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(b), Endpoint::StreamOutput, 16)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        for (pid, name) in [(a, "StageA"), (b, "StageB")] {
            library.register(
                pid,
                Implementation::simple(
                    format!("{name} @ ARM"),
                    TileKind::Arm,
                    PhaseVec::from_slice(&[8, 60, 8]), // 76 cc ≪ 800-cc budget
                    PhaseVec::from_slice(&[16, 0, 0]),
                    PhaseVec::from_slice(&[0, 0, 16]),
                    5_000,
                    2048,
                ),
            );
        }
        let spec = ApplicationSpec {
            name: "shared-tile app".into(),
            graph,
            qos: QosSpec::with_period(4_000_000),
            library,
        };
        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &platform.initial_state())
            .expect("two light processes share the 2-slot ARM");
        let ta = result.mapping.assignment(a).unwrap().tile;
        let tb = result.mapping.assignment(b).unwrap().tile;
        assert_eq!(ta, tb, "both stages on the shared tile");
        // The A→B channel is realised in local memory.
        let shared = spec
            .graph
            .stream_channels()
            .find(|(_, c)| {
                c.src == rtsm_app::Endpoint::Process(a) && c.dst == rtsm_app::Endpoint::Process(b)
            })
            .unwrap()
            .0;
        assert_eq!(
            result.mapping.route(shared),
            Some(&crate::RouteBinding::SameTile)
        );
    }

    #[test]
    fn energy_account_is_consistent() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = SpatialMapper::new(MapperConfig::default())
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(result.energy_pj, result.mapping.energy_pj(&spec, &platform));
    }
}
