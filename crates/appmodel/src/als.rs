//! The Application Level Specification: graph + QoS + implementations.

use crate::digest::Mixer;
use crate::error::AppModelError;
use crate::kpn::{Endpoint, KpnChannel, KpnChannelId, Ports, Process, ProcessGraph, ProcessId};
use crate::library::ImplementationLibrary;
use crate::qos::QosSpec;
use serde::{Deserialize, Serialize};

/// Everything the spatial mapper needs to know about one application:
/// the KPN with its QoS constraints (the ALS of §4.1) plus the
/// implementation library (Table 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplicationSpec {
    /// Application name (e.g. `HIPERLAN/2 receiver`).
    pub name: String,
    /// The process network (Figure 1).
    pub graph: ProcessGraph,
    /// Throughput / latency constraints.
    pub qos: QosSpec,
    /// Available implementations per process (Table 1).
    pub library: ImplementationLibrary,
}

impl ApplicationSpec {
    /// Validates the specification:
    ///
    /// * every data-stream process has at least one implementation,
    /// * every implementation's port counts match the process's channel
    ///   degree,
    /// * every implementation's per-cycle rates divide the channel traffic
    ///   and imply one consistent phase-cycle count per period,
    /// * the data-stream graph is acyclic.
    ///
    /// # Errors
    ///
    /// The first violated rule, as an [`AppModelError`].
    pub fn validate(&self) -> Result<(), AppModelError> {
        self.validated_order().map(drop)
    }

    /// [`ApplicationSpec::validate`], handing back the topological order of
    /// the stream processes that the acyclicity check computed — callers
    /// that validate and then walk the processes in application order sort
    /// once instead of twice.
    ///
    /// # Errors
    ///
    /// As for [`ApplicationSpec::validate`].
    pub fn validated_order(&self) -> Result<Vec<ProcessId>, AppModelError> {
        self.validated_ports().map(|(order, _)| order)
    }

    /// [`ApplicationSpec::validated_order`] plus the graph's [`Ports`], the
    /// incidence list the checks read: one pass over the channels and the
    /// library, where collecting each process's port lists anew was a scan
    /// of every channel per process.
    ///
    /// # Errors
    ///
    /// As for [`ApplicationSpec::validate`].
    pub fn validated_ports(&self) -> Result<(Vec<ProcessId>, Ports), AppModelError> {
        let ports = self.graph.ports()?;
        let order = self.graph.topological_order_over(&ports)?;
        for (pid, process) in self.graph.stream_processes() {
            self.check_process(pid, process, ports.inputs(pid), ports.outputs(pid))?;
        }
        Ok((order, ports))
    }

    /// The rules [`ApplicationSpec::validate`] lists for one stream process
    /// whose ports are `in_channels` and `out_channels`.
    fn check_process(
        &self,
        pid: ProcessId,
        process: &Process,
        in_channels: &[KpnChannelId],
        out_channels: &[KpnChannelId],
    ) -> Result<(), AppModelError> {
        let impls = self.library.impls_for(pid);
        if impls.is_empty() {
            return Err(AppModelError::NoImplementation {
                process: process.name.clone(),
            });
        }
        for implementation in impls {
            if implementation.inputs.len() != in_channels.len() {
                return Err(AppModelError::PortMismatch {
                    implementation: implementation.name.clone(),
                    direction: "input",
                    has: implementation.inputs.len(),
                    expected: in_channels.len(),
                });
            }
            if implementation.outputs.len() != out_channels.len() {
                return Err(AppModelError::PortMismatch {
                    implementation: implementation.name.clone(),
                    direction: "output",
                    has: implementation.outputs.len(),
                    expected: out_channels.len(),
                });
            }
            if !implementation.phases_consistent() {
                return Err(AppModelError::RateMismatch {
                    implementation: implementation.name.clone(),
                    detail: "rate vector phase counts differ from WCET phases".into(),
                });
            }
            // One consistent cycles-per-period across all ports.
            let mut cycles: Option<u64> = None;
            for (port, ch) in in_channels.iter().enumerate() {
                let tokens = self.graph.channel(*ch).tokens_per_period;
                let c = implementation
                    .cycles_per_period_in(port, tokens)
                    .ok_or_else(|| AppModelError::RateMismatch {
                        implementation: implementation.name.clone(),
                        detail: format!(
                            "input port {port}: {} tokens/cycle does not divide \
                             {tokens} tokens/period",
                            implementation.tokens_in_per_cycle(port)
                        ),
                    })?;
                if *cycles.get_or_insert(c) != c {
                    return Err(AppModelError::RateMismatch {
                        implementation: implementation.name.clone(),
                        detail: "ports imply different cycle counts".into(),
                    });
                }
            }
            for (port, ch) in out_channels.iter().enumerate() {
                let tokens = self.graph.channel(*ch).tokens_per_period;
                let per_cycle = implementation.tokens_out_per_cycle(port);
                if per_cycle == 0 || !tokens.is_multiple_of(per_cycle) {
                    return Err(AppModelError::RateMismatch {
                        implementation: implementation.name.clone(),
                        detail: format!(
                            "output port {port}: {per_cycle} tokens/cycle does not \
                             divide {tokens} tokens/period"
                        ),
                    });
                }
                let c = tokens / per_cycle;
                if *cycles.get_or_insert(c) != c {
                    return Err(AppModelError::RateMismatch {
                        implementation: implementation.name.clone(),
                        detail: "ports imply different cycle counts".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Validation as it was before [`ApplicationSpec::validated_ports`]:
    /// freshly collected port lists per process, the reference of the
    /// property tests.
    #[cfg(test)]
    pub(crate) fn reference_validated_order(&self) -> Result<Vec<ProcessId>, AppModelError> {
        let order = self.graph.reference_topological_order()?;
        for (pid, process) in self.graph.stream_processes() {
            let (inputs, outputs) = (self.graph.inputs_of(pid), self.graph.outputs_of(pid));
            self.check_process(pid, process, &inputs, &outputs)?;
        }
        Ok(order)
    }

    /// A 64-bit digest of the whole specification, in O(1): the digests
    /// [`ProcessGraph`] and [`ImplementationLibrary`] keep of themselves,
    /// mixed with `name` and `qos`. Those two, like all four fields, are
    /// `pub` and may be assigned between calls, so nothing is memoised here
    /// — the containers can keep a digest because their content changes
    /// only through their own append-only methods. Equal specs have equal
    /// digests; distinct specs collide with probability ≈ 2⁻⁶⁴, so a digest
    /// match is a lookup key, not a proof of equality. Stable within one
    /// build, not a file format.
    pub fn structural_digest(&self) -> u64 {
        Mixer::of(&(
            self.name.as_str(),
            self.qos,
            self.graph.structural_digest(),
            self.library.structural_digest(),
        ))
    }

    /// Phase-cycles per period of `implementation` when serving `process` —
    /// derived from the first port (validation guarantees all ports agree).
    /// Falls back to 1 for processes without data channels.
    pub fn cycles_per_period(
        &self,
        process: ProcessId,
        implementation: &crate::implementation::Implementation,
    ) -> u64 {
        let first_tokens = |end: fn(&KpnChannel) -> Endpoint| {
            self.graph
                .stream_channels()
                .find(|(_, c)| end(c) == Endpoint::Process(process))
                .map(|(_, c)| c.tokens_per_period)
        };
        implementation.cycles_per_period(first_tokens(|c| c.dst), first_tokens(|c| c.src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implementation::Implementation;
    use proptest::prelude::*;
    use rtsm_dataflow::PhaseVec;
    use rtsm_platform::TileKind;

    fn spec() -> ApplicationSpec {
        let mut graph = ProcessGraph::new();
        let p = graph.add_process("work");
        graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(p), 8)
            .unwrap();
        graph
            .add_channel(Endpoint::Process(p), Endpoint::StreamOutput, 8)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        library.register(
            p,
            Implementation::simple(
                "work @ ARM",
                TileKind::Arm,
                PhaseVec::single(10),
                PhaseVec::single(2),
                PhaseVec::single(2),
                1000,
                64,
            ),
        );
        ApplicationSpec {
            name: "test".into(),
            graph,
            qos: QosSpec::with_period(1_000_000),
            library,
        }
    }

    #[test]
    fn valid_spec_passes() {
        assert_eq!(spec().validate(), Ok(()));
    }

    /// Stream channels A/D → p → c and d → x → Sink, with c and d control
    /// processes: an order of the right length, [p, c], used to pass for
    /// one of the stream processes, and every map then failed in step 3.
    #[test]
    fn a_stream_channel_joining_a_control_process_is_refused() {
        let mut graph = ProcessGraph::new();
        let p = graph.add_process("p");
        let c = graph.add_control_process("c");
        let d = graph.add_control_process("d");
        let x = graph.add_process("x");
        for (src, dst) in [
            (Endpoint::StreamInput, Endpoint::Process(p)),
            (Endpoint::Process(p), Endpoint::Process(c)),
            (Endpoint::Process(d), Endpoint::Process(x)),
            (Endpoint::Process(x), Endpoint::StreamOutput),
        ] {
            graph.add_channel(src, dst, 8).unwrap();
        }
        let mut library = ImplementationLibrary::new();
        for (process, name) in [(p, "p @ ARM"), (x, "x @ ARM")] {
            let rate = PhaseVec::single(2);
            let arm = Implementation::simple(
                name,
                TileKind::Arm,
                rate.clone(),
                rate.clone(),
                rate,
                1000,
                64,
            );
            library.register(process, arm);
        }
        let spec = ApplicationSpec {
            name: "control in the stream".into(),
            graph,
            qos: QosSpec::with_period(1_000_000),
            library,
        };
        let error = AppModelError::ControlInStream {
            process: "p".into(),
        };
        let refused = Err(error.clone());
        assert_eq!(spec.validate(), Err(error.clone()));
        assert_eq!(spec.graph.topological_order(), refused);
        assert_eq!(spec.graph.reference_topological_order(), refused);
        assert_eq!(spec.reference_validated_order(), refused);
        assert_eq!(
            error.to_string(),
            "stream process `p` shares a data-stream channel with a control process"
        );

        // A channel with no stream process on it: the A/D feeding a control
        // process, one control process feeding another, a control process
        // feeding the Sink. Each used to validate beside the valid
        // A/D → work → Sink, and every map failed in step 3.
        let error =
            AppModelError::BadEndpoint("a control process cannot end a data-stream channel");
        let refused = Err(error.clone());
        for shape in 0..3 {
            let mut spec = super::tests::spec();
            let c = Endpoint::Process(spec.graph.add_control_process("c"));
            let d = Endpoint::Process(spec.graph.add_control_process("d"));
            let (src, dst) = [
                (Endpoint::StreamInput, c),
                (c, d),
                (c, Endpoint::StreamOutput),
            ][shape];
            spec.graph.add_channel(src, dst, 8).unwrap();
            assert_eq!(spec.validate(), Err(error.clone()), "{src:?} → {dst:?}");
            assert_eq!(spec.graph.topological_order(), refused);
            assert_eq!(spec.graph.reference_topological_order(), refused);
            assert_eq!(spec.reference_validated_order(), refused);
        }
        assert_eq!(
            error.to_string(),
            "bad endpoint use: a control process cannot end a data-stream channel"
        );
    }

    #[test]
    fn missing_implementation_reported() {
        let mut s = spec();
        s.library = ImplementationLibrary::new();
        assert!(matches!(
            s.validate(),
            Err(AppModelError::NoImplementation { .. })
        ));
    }

    #[test]
    fn non_dividing_rate_reported() {
        let mut s = spec();
        let p = s.graph.process_by_name("work").unwrap();
        let mut lib = ImplementationLibrary::new();
        lib.register(
            p,
            Implementation::simple(
                "bad",
                TileKind::Arm,
                PhaseVec::single(10),
                PhaseVec::single(3), // 3 does not divide 8
                PhaseVec::single(2),
                1000,
                64,
            ),
        );
        s.library = lib;
        assert!(matches!(
            s.validate(),
            Err(AppModelError::RateMismatch { .. })
        ));
    }

    #[test]
    fn port_count_mismatch_reported() {
        let mut s = spec();
        let p = s.graph.process_by_name("work").unwrap();
        let mut lib = ImplementationLibrary::new();
        lib.register(
            p,
            Implementation {
                name: "two-in".into(),
                tile_kind: TileKind::Arm,
                wcet: PhaseVec::single(1),
                inputs: vec![PhaseVec::single(1), PhaseVec::single(1)],
                outputs: vec![PhaseVec::single(1)],
                energy_pj_per_period: 1,
                memory_bytes: 1,
            },
        );
        s.library = lib;
        assert!(matches!(
            s.validate(),
            Err(AppModelError::PortMismatch { .. })
        ));
    }

    #[test]
    fn cycles_per_period_derived() {
        let s = spec();
        let p = s.graph.process_by_name("work").unwrap();
        let implementation = &s.library.impls_for(p)[0];
        // 8 tokens/period ÷ 2 tokens/cycle = 4 cycles/period.
        assert_eq!(s.cycles_per_period(p, implementation), 4);
    }

    #[test]
    fn inconsistent_port_cycles_reported() {
        let mut s = spec();
        let p = s.graph.process_by_name("work").unwrap();
        let mut lib = ImplementationLibrary::new();
        lib.register(
            p,
            Implementation::simple(
                "skewed",
                TileKind::Arm,
                PhaseVec::single(10),
                PhaseVec::single(2), // 4 cycles/period
                PhaseVec::single(4), // 2 cycles/period — inconsistent
                1000,
                64,
            ),
        );
        s.library = lib;
        assert!(matches!(
            s.validate(),
            Err(AppModelError::RateMismatch { .. })
        ));
    }

    /// A random spec over raw lists — what a file can hold, so channels may
    /// name processes past the end, form cycles, touch control processes
    /// and disagree with their implementations' ports and rates.
    fn random_spec(tape: &mut Tape) -> ApplicationSpec {
        let mut draw = |bound: u64| tape.choose(bound - 1);
        let n = draw(7) as usize;
        let processes: Vec<Process> = (0..n)
            .map(|i| Process {
                name: format!("p{i}"),
                short_name: format!("p{i}"),
                is_control: draw(5) == 0,
            })
            .collect();
        // One draw in 40 names the process just past the end, and one the
        // stream endpoint that cannot stand at this end (`ends[1]`).
        let end = |ends: [Endpoint; 2], draw: &mut dyn FnMut(u64) -> u64| match draw(40) {
            0 => Endpoint::Process(ProcessId(n)),
            1 => ends[1],
            k if k < 6 || n == 0 => ends[0],
            _ => Endpoint::Process(ProcessId(draw(n as u64) as usize)),
        };
        let mut channels = Vec::new();
        for _ in 0..draw(12) {
            channels.push(KpnChannel {
                src: end([Endpoint::StreamInput, Endpoint::StreamOutput], &mut draw),
                dst: end([Endpoint::StreamOutput, Endpoint::StreamInput], &mut draw),
                tokens_per_period: [4, 6, 8, 12][draw(4) as usize],
                is_control: draw(6) == 0,
            });
        }
        let graph = ProcessGraph::from_lists(processes, channels);
        let mut library = ImplementationLibrary::new();
        for pid in (0..n).map(ProcessId) {
            let (ins, outs) = (graph.inputs_of(pid).len(), graph.outputs_of(pid).len());
            for k in 0..draw(3) {
                let ports = |degree: usize, draw: &mut dyn FnMut(u64) -> u64| {
                    let degree = match draw(8) {
                        0 => degree + 1,
                        1 => degree.saturating_sub(1),
                        _ => degree,
                    };
                    (0..degree)
                        .map(|_| PhaseVec::single([1, 2, 3, 4][draw(4) as usize]))
                        .collect()
                };
                let inputs = ports(ins, &mut draw);
                let outputs = ports(outs, &mut draw);
                library.register(
                    pid,
                    Implementation {
                        name: format!("p{}/{k}", pid.0),
                        tile_kind: TileKind::Arm,
                        wcet: PhaseVec::single(1),
                        inputs,
                        outputs,
                        energy_pj_per_period: 1,
                        memory_bytes: 1,
                    },
                );
            }
        }
        ApplicationSpec {
            name: "random".into(),
            graph,
            qos: QosSpec::with_period(1_000_000),
            library,
        }
    }

    /// The one-pass validation gives the order and the first error of the
    /// per-process scans it replaced, and its port lists are the ones
    /// those scans collected.
    #[test]
    fn the_incidence_pass_agrees_with_the_per_process_scans() {
        let (mut valid, mut cyclic, mut unknown, mut other) = (0, 0, 0, 0);
        let mut with_control = 0;
        let mut bad_ends = std::collections::BTreeMap::new();
        TestRunner::new(ProptestConfig::with_cases(4000)).run(|tape| {
            let spec = random_spec(tape);
            let expected = spec.reference_validated_order();
            assert_eq!(spec.validated_order(), expected, "{spec:?}");
            assert_eq!(
                spec.graph.topological_order(),
                spec.graph.reference_topological_order(),
                "{spec:?}"
            );
            match expected {
                Ok(_) => valid += 1,
                Err(AppModelError::CyclicKpn) => cyclic += 1,
                Err(AppModelError::UnknownProcess(_)) => unknown += 1,
                Err(AppModelError::BadEndpoint(what)) => *bad_ends.entry(what).or_insert(0) += 1,
                Err(_) => other += 1,
            }
            if let Ok(ports) = spec.graph.ports() {
                for (pid, _) in spec.graph.processes() {
                    assert_eq!(ports.inputs(pid), spec.graph.inputs_of(pid));
                    assert_eq!(ports.outputs(pid), spec.graph.outputs_of(pid));
                }
                with_control += u32::from(spec.graph.channels().any(|(_, c)| c.is_control));
            }
        });
        // Each of the three ways a channel end can be wrong is drawn.
        let mut seen = vec![valid, cyclic, unknown, other, with_control];
        seen.extend(bad_ends.values());
        assert!(
            bad_ends.len() == 3 && seen.iter().all(|&n| n >= 100),
            "{seen:?} {bad_ends:?}"
        );
    }
}
