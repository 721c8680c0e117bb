//! The traced run: one figure (or a few) per layer, all taken from
//! outside by timing calls into public functions.
//!
//! Three sources feed it. *Spans* around the manager calls the replay makes
//! and around the mapping algorithm (`template.map` ⊃ `mapper.map`) give
//! the runtime, template and mapper figures and the reconciliation residue.
//! A *shadow decomposition* re-runs, after the replay, the layers below the
//! mapper on sampled pre-admission snapshots: steps 1–4 one by one, routing,
//! the dataflow checks, transaction commit and abort, ledger clone and
//! fragmentation, `utilization()`, and three baselines. *Probes* time the
//! simulator's own queue and metrics bookkeeping and a small sweep through
//! the experiment pool.

use crate::endtoend::{memory_pass, simulate, Gate, Sizing};
use crate::metrics::{RunResult, Values, PER_LAYER};
use crate::replay::{cold, permille, replay, Algorithm, Instruments, Replay, ShadowSample};
use crate::spans::{has_child, self_times, to_json, Recorder, Span, NO_PARENT};
use crate::stats::{fold_min, percentile_us};
use crate::workload::{Prepared, Workload};
use rtsm_baselines::{GreedyMapper, PortfolioMapper, SpiralMapper};
use rtsm_core::feedback::Constraints;
use rtsm_core::step1::assign_implementations;
use rtsm_core::step2::improve_assignment_with;
use rtsm_core::step3::route_channels_with;
use rtsm_core::step4::check_constraints;
use rtsm_core::{
    MapperConfig, MappingAlgorithm, MappingConstraints, RouteBinding, RuntimeManager, SpatialMapper,
};
use rtsm_dataflow::{check_source_period, size_buffers, BufferSizingConfig};
use rtsm_exp::{run_experiment, ExperimentSpec, PolicySpec, SpecTemplate};
use rtsm_obs::NoopProbe;
use rtsm_platform::{route, PlatformTransaction};
use rtsm_sim::{EventQueue, InstanceId, MetricsCollector, SimEvent};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Pre-admission snapshots wanted per traced replay.
const SHADOW_SAMPLES: usize = 1000;

/// Every how many shadow samples the three baselines map as well (the
/// portfolio races several members under a time budget).
const BASELINE_STRIDE: usize = 4;

/// Calls per timed batch of the nanosecond-scale simulator probes.
const PROBE_BATCH: u64 = 100;

/// The p50 figures the shadow decomposition times, one call per sample.
const SHADOW_TIMINGS: [&str; 15] = [
    "mapper.step1.p50_us",
    "mapper.step2.p50_us",
    "mapper.step3.p50_us",
    "mapper.step4.p50_us",
    "dataflow.throughput_check.p50_us",
    "dataflow.size_buffers.p50_us",
    "platform.route.p50_ns",
    "platform.tx_commit.p50_us",
    "platform.tx_abort.p50_us",
    "platform.state_clone.p50_ns",
    "platform.fragmentation.p50_us",
    "runtime.utilization.p50_us",
    "baselines.greedy.map.p50_us",
    "baselines.spiral.map.p50_us",
    "baselines.portfolio.map.p50_us",
];

/// Share of a traced run's budget spent on repeated passes.
const PASS_SHARE: f64 = 0.7;

/// Seeds of the `exp` sweep matrix.
const SWEEP_SEEDS: u64 = 8;

/// The measured-phase windows of the reference, probed and traced replays,
/// each window at its fastest over the passes (as `endtoend::Composite`
/// does): whole replays compared pass by pass differ by more than either
/// overhead whenever the host is disturbed.
#[derive(Debug, Default)]
struct Overheads {
    reference_ns: Vec<u64>,
    probed_ns: Vec<u64>,
    traced_ns: Vec<u64>,
}

impl Overheads {
    /// `(slower − reference) / reference` in permille.
    fn permille(&self, slower_ns: &[u64]) -> f64 {
        let reference: u64 = self.reference_ns.iter().sum();
        let slower: u64 = slower_ns.iter().sum();
        (slower as f64 - reference as f64) * 1000.0 / reference as f64
    }
}

/// The span-derived figures of one traced replay.
fn span_metrics(values: &mut Values, spans: &[Span], replayed: &Replay, warmup_ops: u32) {
    let own = self_times(spans);
    let wall = replayed.wall_ns;
    // Only the measured phase counts, as for the end-to-end figures.
    let measured = |s: &Span| s.op >= warmup_ops;
    let durations = |name: &str, keep: &dyn Fn(usize, &Span) -> bool| -> Vec<u64> {
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && measured(s) && keep(*i, s))
            .map(|(_, s)| s.duration_ns())
            .collect()
    };
    let any = |_: usize, _: &Span| true;

    values.push(
        "runtime.start.count",
        durations("runtime.start", &any).len() as f64,
    );
    let mut start_self: Vec<u64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "runtime.start" && measured(s))
        .map(|(_, own)| *own)
        .collect();
    values.push(
        "runtime.start.self_p50_us",
        percentile_us(&mut start_self, 50),
    );
    values.push(
        "runtime.start_admitted.p50_us",
        percentile_us(&mut durations("runtime.start", &|_, s| s.ok), 50),
    );
    values.push(
        "runtime.start_blocked.p50_us",
        percentile_us(&mut durations("runtime.start", &|_, s| !s.ok), 50),
    );
    values.push(
        "runtime.stop.p50_us",
        percentile_us(&mut durations("runtime.stop", &any), 50),
    );
    values.push(
        "runtime.switch.p50_us",
        percentile_us(&mut durations("runtime.switch", &any), 50),
    );
    let mut reconfigure = durations("runtime.reconfigure", &any);
    values.push("runtime.reconfigure.count", reconfigure.len() as f64);
    values.push(
        "runtime.reconfigure.p50_us",
        percentile_us(&mut reconfigure, 50),
    );
    values.push(
        "runtime.reconfigure.p99_us",
        percentile_us(&mut reconfigure, 99),
    );
    let mut evacuate = durations("runtime.evacuate", &any);
    values.push("runtime.evacuate.count", evacuate.len() as f64);
    values.push("runtime.evacuate.p50_us", percentile_us(&mut evacuate, 50));
    values.push("runtime.evacuate.p99_us", percentile_us(&mut evacuate, 99));
    values.push(
        "runtime.reconfigure.recovered_permille",
        replayed.recovered_permille(),
    );
    values.push(
        "runtime.evacuate.evicted_permille",
        permille(replayed.evacuation_evicted, replayed.evacuation_victims),
    );

    // Shares of the measured wall, by layer, from self times.
    let share = |prefix: &str| -> f64 {
        let busy: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name.starts_with(prefix) && measured(s))
            .map(|(_, own)| *own)
            .sum();
        permille(busy, wall)
    };
    values.push("runtime.self_share_permille", share("runtime."));
    values.push("template.self_share_permille", share("template."));
    values.push("mapper.share_permille", share("mapper."));
    let top_level: u64 = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && measured(s))
        .map(Span::duration_ns)
        .sum();
    values.push(
        "replay.residue_permille",
        permille(wall.saturating_sub(top_level), wall),
    );

    // Template layer: a lookup that reached the wrapped mapper missed.
    let lookups = durations("template.map", &any);
    values.push("template.lookups", lookups.len() as f64);
    values.push(
        "template.hit.p50_us",
        percentile_us(
            &mut durations("template.map", &|i, s| {
                s.ok && !has_child(spans, i, "mapper.map")
            }),
            50,
        ),
    );
    let mut miss_overhead: Vec<u64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.name == "template.map" && measured(s) && has_child(spans, *i, "mapper.map")
        })
        .map(|(i, _)| own[i])
        .collect();
    values.push(
        "template.miss_overhead.p50_us",
        percentile_us(&mut miss_overhead, 50),
    );

    // Mapper layer.
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "mapper.map" && measured(s))
        .collect();
    values.push("mapper.calls", calls.len() as f64);
    let attempts: u64 = calls.iter().map(|s| u64::from(s.attempts)).sum();
    values.push(
        "mapper.attempts_per_call_milli",
        permille(attempts, calls.len() as u64),
    );
    values.push(
        "mapper.ok.p50_us",
        percentile_us(&mut durations("mapper.map", &|_, s| s.ok), 50),
    );
    values.push(
        "mapper.err.p50_us",
        percentile_us(&mut durations("mapper.map", &|_, s| !s.ok), 50),
    );
}

/// One pass of the traced loop: an untraced reference replay, one with the
/// no-op `obs` probe installed, the traced replay, and the traced DES.
/// Returns the traced replay and its spans.
fn traced_pass(
    workload: &Workload,
    sizing: &Sizing,
    values: &mut Values,
    overheads: &mut Overheads,
    gate: &mut Gate,
) -> (Prepared, Replay, Vec<Span>) {
    let prepared = workload.prepare(sizing.seed);
    values.push(
        "setup.catalog_build_us",
        prepared.catalog_build_ns as f64 / 1e3,
    );
    values.push("setup.trace_gen_us", prepared.trace_gen_ns as f64 / 1e3);
    let run = |algorithm: &Algorithm, instruments: &Instruments<'_>| {
        replay(
            workload,
            &prepared.resolved,
            &prepared.trace,
            algorithm,
            instruments,
        )
    };

    let reference = cold(|| run(&Algorithm::new(workload, None), &Instruments::default()));
    gate.replayed(&reference);
    values.push("setup.warmup_us", reference.warmup_ns as f64 / 1e3);
    fold_min(&mut overheads.reference_ns, &reference.window_ns);

    let probed = cold(|| {
        let _probe = rtsm_obs::install(Rc::new(NoopProbe));
        run(&Algorithm::new(workload, None), &Instruments::default())
    });
    gate.replayed(&probed);
    fold_min(&mut overheads.probed_ns, &probed.window_ns);

    let measured_arrivals = prepared.trace.arrivals as usize * 9 / 10;
    let (traced, spans, stats) = cold(|| {
        // Three spans for most ops (start ⊃ template ⊃ mapper), five for a
        // plain switch (⊃ stop + start ⊃ ...), one for the rest.
        let recorder = Recorder::with_capacity(prepared.trace.ops.len() * 4);
        let algorithm = Algorithm::new(workload, Some(&recorder));
        let traced = run(
            &algorithm,
            &Instruments {
                recorder: Some(&recorder),
                shadow_every: Some((measured_arrivals / SHADOW_SAMPLES).max(1)),
                count_allocations: false,
            },
        );
        (traced, recorder.take(), algorithm.template_stats())
    });
    gate.replayed(&traced);
    fold_min(&mut overheads.traced_ns, &traced.window_ns);
    let warmup_ops = prepared.trace.warmup_len() as u32;
    span_metrics(values, &spans, &traced, warmup_ops);
    let stats = stats.unwrap_or_default();
    values.push(
        "template.hit_permille",
        permille(stats.hits, stats.hits + stats.misses),
    );
    values.push("template.shapes_cached", stats.shapes_cached as f64);

    // Traced DES: the algorithm's outermost spans are everything `run_sim`
    // spends outside its own event loop and bookkeeping.
    let (simulated, algorithm_ns) = cold(|| {
        let recorder = Recorder::with_capacity(workload.des_arrivals as usize * 3);
        let algorithm = Algorithm::new(workload, Some(&recorder));
        let simulated = simulate(workload, &prepared, &algorithm, sizing.seed, gate);
        let algorithm_ns: u64 = recorder
            .take()
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        (simulated, algorithm_ns)
    });
    let (wall_ns, events) = (simulated.wall_ns, simulated.events);
    let overhead_us = wall_ns.saturating_sub(algorithm_ns) as f64 / 1e3 / events as f64;
    values.push("sim.events", events as f64);
    values.push(
        "sim.algorithm_share_permille",
        permille(algorithm_ns, wall_ns),
    );
    values.push("sim.overhead_us_per_event", overhead_us);
    // The replay pays per-op overhead too (commit, bookkeeping, release);
    // what the simulator adds on top is its own.
    let outermost = if workload.templates {
        "template.map"
    } else {
        "mapper.map"
    };
    let replay_algorithm_ns: u64 = spans
        .iter()
        .filter(|s| s.op >= warmup_ops && s.name == outermost)
        .map(Span::duration_ns)
        .sum();
    let replay_overhead_us =
        traced.wall_ns.saturating_sub(replay_algorithm_ns) as f64 / 1e3 / traced.ops as f64;
    values.push(
        "sim.bookkeeping_us_per_event",
        overhead_us - replay_overhead_us,
    );
    (prepared, traced, spans)
}

/// Times `f` once, in nanoseconds, keeping its result alive past the stop.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_nanos() as u64, out)
}

/// The shadow decomposition over `samples` (see the module docs).
fn shadow_decomposition(values: &mut Values, prepared: &Prepared, samples: &[ShadowSample]) {
    let platform = &prepared.resolved.platform;
    let config = MapperConfig::default().without_capture();
    let mapper = SpatialMapper::new(config);
    let portfolio = PortfolioMapper::default();
    let spiral = SpiralMapper::default();
    let mut t: BTreeMap<&str, Vec<u64>> = SHADOW_TIMINGS.iter().map(|n| (*n, vec![])).collect();
    let mut record = |name: &str, ns: u64| t.get_mut(name).expect("a shadow timing").push(ns);
    let (mut map_ns, mut steps_ns) = (0u64, 0u64);
    let (mut actors, mut graphs) = (0u64, 0u64);

    for (index, sample) in samples.iter().enumerate() {
        let spec = &*prepared.resolved.catalog.entries()[usize::from(sample.app)].spec;
        let state = &sample.state;

        // The whole mapper, then its steps one by one on the same input.
        let (whole_ns, mapped) = timed(|| mapper.map(spec, platform, state));
        let constraints = Constraints::with_external(MappingConstraints::none());
        let (s1, step1) = timed(|| assign_implementations(spec, platform, state, &constraints));
        record("mapper.step1.p50_us", s1);
        let mut chain_ns = s1;
        if let Ok(step1) = step1 {
            let (mut mapping, mut working) = (step1.mapping, step1.working);
            let (s2, _) = timed(|| {
                improve_assignment_with(
                    spec,
                    platform,
                    &constraints,
                    &mut mapping,
                    &mut working,
                    &config.cost_model,
                    &config.step2,
                    false,
                )
            });
            record("mapper.step2.p50_us", s2);
            let (s3, routed) = timed(|| {
                route_channels_with(spec, platform, &mut mapping, &mut working, config.routing)
            });
            record("mapper.step3.p50_us", s3);
            chain_ns += s2 + s3;
            if routed.is_ok() {
                let (s4, checked) =
                    timed(|| check_constraints(spec, platform, &mapping, &working, &config.step4));
                record("mapper.step4.p50_us", s4);
                chain_ns += s4;

                // Platform: each routed channel again, as one `route` call.
                for (_, binding) in mapping.routes() {
                    if let RouteBinding::Path(path) = binding {
                        let (ns, _) =
                            timed(|| route(platform, state, path.from, path.to, path.demand));
                        record("platform.route.p50_ns", ns);
                    }
                }

                // Dataflow, on the composed CSDF graph of this outcome.
                let period = spec.qos.period_ps;
                let (ns, _) = timed(|| check_source_period(&checked.csdf, checked.source, period));
                record("dataflow.throughput_check.p50_us", ns);
                // Step 4 sizes the tile-side input buffers: the channels
                // into process actors, which are named after the chosen
                // implementations. Their capacities are cleared to re-ask.
                let process_actors: Vec<&str> = mapping
                    .assignments()
                    .map(|(pid, a)| spec.library.impls_for(pid)[a.impl_index].name.as_str())
                    .collect();
                let mut unsized_graph = checked.csdf.clone();
                let targets: Vec<_> = unsized_graph
                    .channels()
                    .filter(|(_, c)| {
                        process_actors.contains(&unsized_graph.actor(c.dst).name.as_str())
                    })
                    .map(|(id, _)| id)
                    .collect();
                for &id in &targets {
                    unsized_graph.channel_mut(id).capacity = None;
                }
                let sizing = BufferSizingConfig {
                    source: checked.source,
                    period,
                    channels: targets,
                    max_sweeps: 3,
                };
                let (ns, _) = timed(|| size_buffers(unsized_graph, &sizing));
                record("dataflow.size_buffers.p50_us", ns);
                actors += checked.csdf.n_actors() as u64;
                graphs += 1;
            }
        }
        // Reconciliation only where the chain above is all the mapper did.
        if matches!(&mapped, Ok(outcome) if outcome.attempts == 1) {
            map_ns += whole_ns;
            steps_ns += chain_ns;
        }

        // Platform: ledger clone, commit, abort, fragmentation.
        let (ns, mut scratch) = timed(|| state.clone());
        record("platform.state_clone.p50_ns", ns);
        if let Ok(outcome) = &mapped {
            let (ns, _) = timed(|| {
                let mut tx = PlatformTransaction::begin(platform, &mut scratch);
                let staged = outcome.stage_commit(spec, &mut tx);
                tx.commit();
                staged
            });
            record("platform.tx_commit.p50_us", ns);
            let mut scratch = state.clone();
            let (ns, _) = timed(|| {
                let mut tx = PlatformTransaction::begin(platform, &mut scratch);
                let staged = outcome.stage_commit(spec, &mut tx);
                tx.abort();
                staged
            });
            record("platform.tx_abort.p50_us", ns);
        }
        let (ns, _) = timed(|| state.fragmentation(platform));
        record("platform.fragmentation.p50_us", ns);

        // Runtime read side: what `run_sim` calls on every event.
        let manager = RuntimeManager::with_state(platform.clone(), GreedyMapper, state.clone());
        let (ns, _) = timed(|| manager.utilization());
        record("runtime.utilization.p50_us", ns);

        if index % BASELINE_STRIDE == 0 {
            let (ns, _) = timed(|| GreedyMapper.map(spec, platform, state));
            record("baselines.greedy.map.p50_us", ns);
            let (ns, _) = timed(|| spiral.map(spec, platform, state));
            record("baselines.spiral.map.p50_us", ns);
            let (ns, _) = timed(|| portfolio.map(spec, platform, state));
            record("baselines.portfolio.map.p50_us", ns);
        }
    }

    for (name, samples) in &mut t {
        let us = percentile_us(samples, 50);
        values.push(name, if name.ends_with("_ns") { us * 1e3 } else { us });
    }
    values.push(
        "mapper.steps_residue_permille",
        permille(map_ns.saturating_sub(steps_ns), map_ns),
    );
    values.push(
        "dataflow.csdf_actors_mean",
        if graphs == 0 {
            0.0
        } else {
            actors as f64 / graphs as f64
        },
    );
}

/// The simulator's own per-event bookkeeping, timed in batches because one
/// call is shorter than the clock's resolution.
fn simulator_probes(values: &mut Values, prepared: &Prepared, samples: &[ShadowSample]) {
    // Queue: keep a standing population like a mid-run queue's.
    let mut queue = EventQueue::new();
    let departure = |n| SimEvent::Departure {
        instance: InstanceId(n),
    };
    for n in 0..32 {
        queue.push(n * 97, departure(n));
    }
    let mut now = 32 * 97;
    let mut per_batch = Vec::new();
    for _ in 0..200 {
        let (ns, _) = timed(|| {
            for _ in 0..PROBE_BATCH {
                now += 61;
                queue.push(now, departure(now));
                black_box(queue.pop());
            }
        });
        per_batch.push(ns);
    }
    values.push(
        "sim.queue_pushpop.p50_ns",
        percentile_us(&mut per_batch, 50) * 1e3 / PROBE_BATCH as f64,
    );

    // Metrics: `advance` as `run_sim` calls it, against a mid-run ledger.
    let state = samples.get(samples.len() / 2).map_or_else(
        || prepared.resolved.platform.initial_state(),
        |s| s.state.clone(),
    );
    let manager =
        RuntimeManager::with_state(prepared.resolved.platform.clone(), GreedyMapper, state);
    let utilization = manager.utilization();
    let mut metrics = MetricsCollector::new(10_000);
    let mut now = 0;
    let mut per_batch = Vec::new();
    for _ in 0..200 {
        let (ns, _) = timed(|| {
            for _ in 0..PROBE_BATCH {
                now += 61;
                metrics.advance(now, black_box(&utilization), 1_000);
            }
        });
        per_batch.push(ns);
    }
    values.push(
        "sim.metrics_advance.p50_ns",
        percentile_us(&mut per_batch, 50) * 1e3 / PROBE_BATCH as f64,
    );
}

/// A small seed sweep of `workload`'s configuration through the experiment
/// pool, at one worker and at `min(nproc, 2)`. Informational: two workers
/// on two cores are too noisy to gate.
fn sweep_probe(values: &mut Values, workload: &Workload, sizing: &Sizing, gate: &mut Gate) {
    let spec = ExperimentSpec {
        schema: None,
        name: "benchmark-sweep".to_string(),
        template: SpecTemplate {
            arrivals: (workload.des_arrivals / SWEEP_SEEDS).max(1),
            mean_hold: Some(workload.mean_hold),
            switch_prob_pct: None,
            sample_interval: None,
            horizon: None,
            platform_seed: None,
        },
        algorithms: vec!["paper".to_string()],
        catalogs: vec![workload.catalog.to_string()],
        mean_gaps: vec![workload.mean_gap],
        policies: vec![PolicySpec::none()],
        seeds: (0..SWEEP_SEEDS).map(|i| sizing.seed + i).collect(),
        repeats: None,
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut rate = |workers: usize| match run_experiment(&spec, workers, |_, _| {}) {
        Ok(run) => run.events as f64 / run.wall.as_secs_f64(),
        Err(e) => {
            gate.violation(&format!("run_experiment failed: {e}"));
            0.0
        }
    };
    let (one, many) = (rate(1), rate(workers));
    values.push("exp.sweep_events_per_s.w1", one);
    values.push("exp.sweep_events_per_s.wN", many);
    values.push(
        "exp.pool_efficiency_permille",
        if one == 0.0 {
            0.0
        } else {
            many * 1000.0 / (one * workers as f64)
        },
    );
}

/// One traced run of `workload` (already scaled by `sizing.divisor`). The
/// spans of its last traced replay go to `<out_dir>/<workload>.trace.json`.
pub fn run(workload: &Workload, sizing: &Sizing, out_dir: Option<&Path>) -> RunResult {
    let mut values = Values::default();
    let mut gate = Gate::new(workload);
    // Passes repeat while another fits in `PASS_SHARE` of the budget; the
    // rest is left to the one-off tail below (memory pass, shadow
    // decomposition, probes, sweep).
    let started = Instant::now();
    let mut overheads = Overheads::default();
    let mut pass = || traced_pass(workload, sizing, &mut values, &mut overheads, &mut gate);
    let mut last = pass();
    let mut done = 1.0;
    while started.elapsed().as_secs_f64() * (done + 1.0) / done <= sizing.seconds * PASS_SHARE {
        last = pass();
        done += 1.0;
    }
    let (prepared, traced, spans) = last;
    values.push(
        "obs.noop_probe_overhead_permille",
        overheads.permille(&overheads.probed_ns),
    );
    values.push(
        "trace.overhead_permille",
        overheads.permille(&overheads.traced_ns),
    );

    let counted = memory_pass(workload, &prepared, &mut gate);
    let allocations = counted.allocations.expect("counting was asked for");
    values.push(
        "alloc.count_per_op",
        allocations.count as f64 / counted.ops as f64,
    );
    values.push(
        "alloc.bytes_per_op",
        allocations.bytes as f64 / counted.ops as f64,
    );

    shadow_decomposition(&mut values, &prepared, &traced.shadow);
    simulator_probes(&mut values, &prepared, &traced.shadow);
    if workload.name == "mixed_miss" {
        sweep_probe(&mut values, workload, sizing, &mut gate);
    } else {
        for name in [
            "exp.sweep_events_per_s.w1",
            "exp.sweep_events_per_s.wN",
            "exp.pool_efficiency_permille",
        ] {
            values.push(name, 0.0);
        }
    }
    gate.check_golden(sizing);

    if let Some(dir) = out_dir {
        let path = dir.join(format!("{}.trace.json", workload.name));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_json(&spans)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    RunResult {
        workload: workload.name,
        traced: true,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: values.summarise(PER_LAYER.iter().copied()),
        digest: gate.digest(),
    }
}
