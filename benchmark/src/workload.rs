//! The four workloads and the seeded op trace each one replays.
//!
//! A trace is generated before any timing, from the seed alone, using only
//! the vendored `rand`; the program under test receives nothing but the
//! generated ops. The trace is *decision-independent*: every arrival's
//! holding time and mode switch are drawn whether or not it will be
//! admitted, so two workloads that differ only in their mapping algorithm
//! replay the very same ops.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_core::runtime::FailureEvent;
use rtsm_core::{EvacuationPolicy, ReconfigurationPolicy};
use rtsm_exp::{resolve_catalog, ResolvedCatalog};
use rtsm_platform::{LinkId, TileId};
use rtsm_sim::{ArrivalProcess, FaultConfig, HoldingTime, SimConfig};
use std::time::Instant;

/// Share of a trace's ops replayed as warm-up (template library and buffer
/// memo fill) and charged to `setup_s` instead of the latency figures.
pub const WARMUP_PERCENT: usize = 10;

/// Probability that an arrival attempts one mid-life mode switch.
const MODE_SWITCH_PROBABILITY: f64 = 0.1;

/// Platform layout seed of the `mixed` catalog (the repo-wide default).
const PLATFORM_SEED: u64 = 42;

/// Salt deriving the fault stream's seed, so faults never consume
/// workload randomness.
const FAULT_SEED_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// Mean ticks between failures and ticks to repair, on `recover`.
const MTTF: u64 = 5_000;
const MTTR: u64 = 3_000;

/// One workload: a traffic definition both drivers consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Catalog (and platform) name for [`resolve_catalog`].
    pub catalog: &'static str,
    /// Mean Poisson inter-arrival gap, ticks.
    pub mean_gap: u64,
    /// Mean exponential holding time, ticks.
    pub mean_hold: u64,
    /// Admit through `TemplatedMapper` at the default cap.
    pub templates: bool,
    /// Retry blocked arrivals through reconfiguration, switch through
    /// `RuntimeManager::switch`, and inject the fail/repair stream.
    pub recover: bool,
    /// Arrivals per replay repeat. Frozen: the deterministic metrics and
    /// the golden digests depend on it.
    pub arrivals: u64,
    /// Arrivals of the equivalent `run_sim` call, sized so it takes about
    /// half as long as one replay repeat.
    pub des_arrivals: u64,
}

/// The workloads, in report order. Op counts are sized so that one repeat
/// (a replay of about 1.2 s plus a DES run of about 0.6 s) lets a 30 s run
/// hold about fifteen repeats on the 2-core box this was written on: traces
/// long enough that the figures depend little on the seed (≥ 90 arrivals
/// beyond the p99), and enough repeats that nearly every arrival and every
/// window is read at least once undisturbed (see `endtoend::composite`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mixed_miss",
        catalog: "mixed",
        mean_gap: 2000,
        mean_hold: 2000,
        templates: false,
        recover: false,
        arrivals: 5_000,
        des_arrivals: 2_500,
    },
    Workload {
        name: "mixed_hit",
        catalog: "mixed",
        mean_gap: 2000,
        mean_hold: 2000,
        templates: true,
        recover: false,
        arrivals: 25_000,
        des_arrivals: 12_500,
    },
    Workload {
        name: "overload_reject",
        catalog: "hiperlan2",
        mean_gap: 500,
        mean_hold: 2000,
        templates: true,
        recover: false,
        arrivals: 100_000,
        des_arrivals: 50_000,
    },
    Workload {
        name: "recover",
        catalog: "mixed",
        mean_gap: 1200,
        mean_hold: 2000,
        templates: true,
        recover: true,
        arrivals: 5_000,
        des_arrivals: 2_500,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// This workload at `1/divisor` of its op counts (`--quick`).
    pub fn scaled_down(mut self, divisor: u64) -> Workload {
        self.arrivals = (self.arrivals / divisor).max(1);
        self.des_arrivals = (self.des_arrivals / divisor).max(1);
        self
    }

    /// The reconfiguration policy blocked arrivals retry under, if any.
    pub fn reconfiguration(&self) -> Option<ReconfigurationPolicy> {
        self.recover.then(ReconfigurationPolicy::default)
    }

    /// The `run_sim` configuration equivalent to this workload's trace:
    /// same gap, hold, switch probability, policy and fault process.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            arrivals: self.des_arrivals,
            arrival_process: ArrivalProcess::Poisson {
                mean_gap: self.mean_gap,
            },
            holding: HoldingTime::Exponential {
                mean: self.mean_hold,
            },
            mode_switch_probability: MODE_SWITCH_PROBABILITY,
            sample_interval: 10_000,
            horizon: None,
            reconfiguration: self.reconfiguration(),
            track_fragmentation: false,
            faults: self.recover.then(|| FaultConfig {
                mttf: MTTF,
                mttr: MTTR,
                evacuation: EvacuationPolicy::default(),
            }),
        }
    }
}

/// One manager operation of a trace. `arrival` numbers arrivals from 0;
/// `app` indexes the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Arrival `arrival` requests admission of catalog entry `app`.
    Start { arrival: u32, app: u8 },
    /// Arrival `arrival` departs (skipped if it is not running).
    Stop { arrival: u32 },
    /// Arrival `arrival` switches to catalog entry `app` (skipped if it is
    /// not running).
    Switch { arrival: u32, app: u8 },
    /// A tile or link fails.
    Fail(FailureEvent),
    /// A failed tile or link is repaired.
    Repair(FailureEvent),
}

/// A virtual-time-ordered op trace, cut at its last arrival so the whole
/// replay runs at the workload's steady load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// `(virtual time, op)`, ordered by time then generation order.
    pub ops: Vec<(u64, Op)>,
    /// Number of `Start` ops.
    pub arrivals: u64,
}

impl OpTrace {
    /// How many leading ops are warm-up.
    pub fn warmup_len(&self) -> usize {
        self.ops.len() * WARMUP_PERCENT / 100
    }
}

/// A workload's inputs, built before any op is timed.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Platform and application catalog.
    pub resolved: ResolvedCatalog,
    /// The op trace.
    pub trace: OpTrace,
    /// Host time `resolve_catalog` took.
    pub catalog_build_ns: u64,
    /// Host time [`generate`] took.
    pub trace_gen_ns: u64,
}

impl Workload {
    /// Builds platform, catalog and op trace for `seed`, timing each.
    pub fn prepare(&self, seed: u64) -> Prepared {
        let t0 = Instant::now();
        let resolved =
            resolve_catalog(self.catalog, PLATFORM_SEED).expect("workload catalogs are registered");
        let catalog_build_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let catalog = resolved.catalog.entries();
        let weights: Vec<u64> = catalog.iter().map(|e| e.weight).collect();
        let tiles: Vec<TileId> = resolved.platform.tiles().map(|(id, _)| id).collect();
        let links: Vec<LinkId> = resolved.platform.links().map(|(id, _)| id).collect();
        let trace = generate(self, seed, &weights, &tiles, &links);
        let trace_gen_ns = t1.elapsed().as_nanos() as u64;
        Prepared {
            resolved,
            trace,
            catalog_build_ns,
            trace_gen_ns,
        }
    }
}

/// An Exp(1/mean) draw rounded up to whole ticks (≥ 1), as `rtsm_sim`
/// draws gaps and holding times.
fn exponential_ticks(rng: &mut StdRng, mean: u64) -> u64 {
    let u: f64 = rng.random();
    ((-(1.0 - u).ln() * mean as f64).ceil() as u64).max(1)
}

/// A weighted catalog draw. Like [`exponential_ticks`], deliberately not the
/// program's own (`Catalog::sample`): a change to the program must not be
/// able to change the traffic it is measured on.
fn draw_app(rng: &mut StdRng, weights: &[u64]) -> u8 {
    let mut remaining = rng.random_range(0..weights.iter().sum::<u64>());
    for (i, &weight) in weights.iter().enumerate() {
        if remaining < weight {
            return i as u8;
        }
        remaining -= weight;
    }
    unreachable!("the draw is below the weight total")
}

/// Generates `workload`'s trace from `seed`. `weights` are the catalog's
/// sampling weights; `tiles`/`links` the platform's resources (read only on
/// `recover`).
///
/// Arrival `i`'s draws depend on the seed and on `i` alone, so a trace of
/// `n` arrivals is a prefix of the trace of `m > n` arrivals at the same
/// seed and traffic definition.
pub fn generate(
    workload: &Workload,
    seed: u64,
    weights: &[u64],
    tiles: &[TileId],
    links: &[LinkId],
) -> OpTrace {
    assert!(workload.arrivals <= u64::from(u32::MAX));
    assert!(!weights.is_empty() && weights.len() <= usize::from(u8::MAX));
    let mut rng = StdRng::seed_from_u64(seed);
    // (time, generation sequence, op): the sequence breaks ties stably.
    let mut ops: Vec<(u64, u64, Op)> = Vec::with_capacity(workload.arrivals as usize * 2 + 2);
    let mut seq = 0u64;
    let mut push = |time: u64, op: Op| {
        ops.push((time, seq, op));
        seq += 1;
    };
    let mut now = 0u64;
    for arrival in 0..workload.arrivals as u32 {
        now += exponential_ticks(&mut rng, workload.mean_gap);
        let app = draw_app(&mut rng, weights);
        push(now, Op::Start { arrival, app });
        let hold = exponential_ticks(&mut rng, workload.mean_hold);
        // A switch lands strictly inside the holding interval.
        if hold >= 2 && rng.random_bool(MODE_SWITCH_PROBABILITY) {
            let at = now + rng.random_range(1..hold);
            let app = draw_app(&mut rng, weights);
            push(at, Op::Switch { arrival, app });
        }
        push(now + hold, Op::Stop { arrival });
    }
    let last_arrival = now;

    if workload.recover {
        let mut rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        // A failure drawn for a resource still under repair is dropped.
        let mut repaired_at: std::collections::BTreeMap<FailureEvent, u64> = Default::default();
        let mut now = 0u64;
        loop {
            now += exponential_ticks(&mut rng, MTTF);
            if now > last_arrival {
                break;
            }
            let failure = if !links.is_empty() && rng.random_bool(0.5) {
                FailureEvent::Link(links[rng.random_range(0..links.len())])
            } else {
                FailureEvent::Tile(tiles[rng.random_range(0..tiles.len())])
            };
            if repaired_at.get(&failure).is_some_and(|&at| at > now) {
                continue;
            }
            repaired_at.insert(failure, now + MTTR);
            push(now, Op::Fail(failure));
            push(now + MTTR, Op::Repair(failure));
        }
    }

    ops.retain(|&(time, _, _)| time <= last_arrival);
    ops.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
    OpTrace {
        ops: ops.into_iter().map(|(time, _, op)| (time, op)).collect(),
        arrivals: workload.arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(workload: &Workload, seed: u64) -> OpTrace {
        workload.prepare(seed).trace
    }

    #[test]
    fn same_seed_same_trace_and_seeds_differ() {
        for workload in WORKLOADS {
            let workload = workload.scaled_down(20);
            let a = trace(&workload, 2008);
            assert_eq!(a, trace(&workload, 2008), "{}", workload.name);
            assert_ne!(a, trace(&workload, 2009), "{}", workload.name);
            assert!(a.ops.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
            let starts = a
                .ops
                .iter()
                .filter(|(_, op)| matches!(op, Op::Start { .. }));
            assert_eq!(starts.count() as u64, workload.arrivals);
        }
    }

    #[test]
    fn mixed_miss_is_a_prefix_of_mixed_hit() {
        let miss = Workload::by_name("mixed_miss").unwrap().scaled_down(20);
        let hit = Workload::by_name("mixed_hit").unwrap().scaled_down(20);
        assert!(miss.arrivals < hit.arrivals);
        let (short, long) = (trace(&miss, 7), trace(&hit, 7));
        assert_eq!(short.ops[..], long.ops[..short.ops.len()]);
    }

    #[test]
    fn recover_pairs_every_failure_with_a_later_repair() {
        let workload = Workload::by_name("recover").unwrap().scaled_down(4);
        let ops = trace(&workload, 2008).ops;
        let mut down = std::collections::BTreeSet::new();
        let mut failures = 0;
        for (_, op) in &ops {
            match op {
                Op::Fail(f) => {
                    assert!(down.insert(*f), "no double failure");
                    failures += 1;
                }
                Op::Repair(f) => assert!(down.remove(f), "repair follows its failure"),
                _ => {}
            }
        }
        assert!(failures > 10);
    }
}
