//! Stochastic workload generation: weighted application catalogs, Poisson
//! arrivals and exponential holding times.
//!
//! Everything here draws from one caller-supplied
//! [`StdRng`], so a whole workload — which
//! applications arrive, when, and for how long — is reproducible from a
//! single `u64` seed.

use crate::event::SimTime;
use rand::rngs::StdRng;
use rand::RngExt;
use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
use rtsm_app::ApplicationSpec;
use rtsm_platform::TileKind;
use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};
use rtsm_workloads::{synthetic_app, GraphShape, SyntheticConfig};
use std::sync::Arc;

/// One catalog entry: an application specification with a sampling weight.
///
/// The spec is shared behind an [`Arc`]: every arrival that draws this
/// entry hands the same specification to the runtime manager, so admission
/// costs one reference-count bump instead of a deep copy of the process
/// graph and implementation library.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Display name (reports and histograms).
    pub name: String,
    /// Relative sampling weight (> 0).
    pub weight: u64,
    /// The specification arrivals of this entry request.
    pub spec: Arc<ApplicationSpec>,
}

/// A weighted catalog of application specifications; arrivals and mode
/// switches draw from it.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
    total_weight: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds an entry (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is 0.
    pub fn with(
        mut self,
        name: impl Into<String>,
        weight: u64,
        spec: impl Into<Arc<ApplicationSpec>>,
    ) -> Self {
        assert!(weight > 0, "catalog weights must be positive");
        self.total_weight += weight;
        self.entries.push(CatalogEntry {
            name: name.into(),
            weight,
            spec: spec.into(),
        });
        self
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draws one entry index, weighted.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        assert!(!self.entries.is_empty(), "cannot sample an empty catalog");
        let mut remaining = rng.random_range(0..self.total_weight);
        for (i, entry) in self.entries.iter().enumerate() {
            if remaining < entry.weight {
                return i;
            }
            remaining -= entry.weight;
        }
        unreachable!("weights sum to total_weight")
    }

    /// All seven HIPERLAN/2 receiver modes (§4.1), equally weighted — the
    /// paper's own application under sustained load on the paper platform.
    pub fn hiperlan2() -> Self {
        Hiperlan2Mode::ALL.iter().fold(Catalog::new(), |c, &mode| {
            c.with(
                format!("hiperlan2 {}", mode.name()),
                1,
                hiperlan2_receiver(mode),
            )
        })
    }

    /// A mixed DSP workload for larger mesh platforms: the constructed
    /// realistic applications plus a HIPERLAN/2 receiver, weighted towards
    /// the lighter applications.
    pub fn mixed_dsp() -> Self {
        Catalog::new()
            .with("wlan-tx", 3, wlan_tx())
            .with("jpeg-encoder", 3, jpeg_encoder())
            .with("mp3-decoder", 2, mp3_decoder())
            .with("dvbt-rx", 1, dvbt_rx())
            .with(
                "hiperlan2 QPSK 3/4",
                2,
                hiperlan2_receiver(Hiperlan2Mode::Qpsk34),
            )
    }

    /// The engineered fragmentation workload
    /// ([`rtsm_workloads::defrag`]): light applications (two share an ARM
    /// tile) heavily outnumber heavy ones (which need an ARM without a
    /// light co-tenant), so churn strands free memory and heavy arrivals
    /// block on placement rather than capacity. Pair with
    /// [`rtsm_workloads::defrag_platform`] and a
    /// [`ReconfigurationPolicy`](rtsm_core::ReconfigurationPolicy) to
    /// measure recovered admissions.
    pub fn defrag() -> Self {
        Catalog::new()
            .with("defrag light", 3, rtsm_workloads::defrag_light())
            .with("defrag heavy", 1, rtsm_workloads::defrag_heavy())
    }

    /// `n` seeded synthetic chain applications (3–7 processes, MONTIUM
    /// preferred with ARM alternatives), equally weighted. Deterministic
    /// per `seed`.
    pub fn synthetic(seed: u64, n: usize) -> Self {
        (0..n).fold(Catalog::new(), |c, i| {
            let config = SyntheticConfig {
                seed: seed.wrapping_add(i as u64),
                n_processes: 3 + i % 5,
                shape: GraphShape::Chain,
                tile_kinds: vec![TileKind::Montium, TileKind::Arm],
                ..SyntheticConfig::default()
            };
            let spec = synthetic_app(&config);
            c.with(spec.name.clone(), 1, spec)
        })
    }
}

/// When the next application arrives. One variant: every workload, spec
/// and fixture runs Poisson arrivals. The enum stays because the
/// out-of-workspace `benchmark/` crate names the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponentially distributed inter-arrival gaps with
    /// the given mean (ticks). The textbook model for independent users
    /// starting applications.
    Poisson {
        /// Mean inter-arrival gap, in ticks.
        mean_gap: SimTime,
    },
}

impl ArrivalProcess {
    /// Draws the gap to the next arrival (always ≥ 1 tick).
    pub fn next_gap(&self, rng: &mut StdRng) -> SimTime {
        let ArrivalProcess::Poisson { mean_gap } = *self;
        exponential_ticks(rng, mean_gap)
    }
}

/// How long an admitted application holds its resources. One variant, for
/// the same reason as [`ArrivalProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldingTime {
    /// Exponentially distributed with the given mean (ticks) — memoryless
    /// session lengths.
    Exponential {
        /// Mean holding time, in ticks.
        mean: SimTime,
    },
}

impl HoldingTime {
    /// Draws one holding time (always ≥ 1 tick).
    pub fn draw(&self, rng: &mut StdRng) -> SimTime {
        let HoldingTime::Exponential { mean } = *self;
        exponential_ticks(rng, mean)
    }
}

/// An Exp(1/mean) draw rounded up to whole ticks (≥ 1). `u ∈ [0, 1)` makes
/// `1 - u ∈ (0, 1]`, so the logarithm is finite.
pub(crate) fn exponential_ticks(rng: &mut StdRng, mean: SimTime) -> SimTime {
    let u: f64 = rng.random();
    let ticks = -(1.0 - u).ln() * mean as f64;
    (ticks.ceil() as SimTime).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn weighted_sampling_respects_weights() {
        let catalog = Catalog::new()
            .with("heavy", 9, hiperlan2_receiver(Hiperlan2Mode::Bpsk12))
            .with("light", 1, hiperlan2_receiver(Hiperlan2Mode::Qam64R34));
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[catalog.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[1] * 5,
            "9:1 weights must dominate the draw ({counts:?})"
        );
    }

    #[test]
    fn builtin_catalogs_validate() {
        for catalog in [
            Catalog::hiperlan2(),
            Catalog::mixed_dsp(),
            Catalog::synthetic(42, 4),
        ] {
            assert!(!catalog.is_empty());
            for entry in catalog.entries() {
                assert_eq!(entry.spec.validate(), Ok(()), "{}", entry.name);
            }
        }
    }

    #[test]
    fn exponential_gaps_are_positive_and_near_the_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let process = ArrivalProcess::Poisson { mean_gap: 1000 };
        let n = 4000u64;
        let total: u64 = (0..n).map(|_| process.next_gap(&mut rng)).sum();
        let mean = total / n;
        assert!(
            (700..=1300).contains(&mean),
            "empirical mean {mean} should be near 1000"
        );
    }

    #[test]
    fn distributions_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let holding = HoldingTime::Exponential { mean: 500 };
            (0..32).map(|_| holding.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
