//! Pluggable cost models for steps 1–2.
//!
//! The paper's Table 2 uses the plain sum of channel Manhattan distances;
//! the overall objective is energy, priced by the platform's one energy
//! characterisation ([`rtsm_platform::energy`]). Both are provided, plus a
//! traffic-weighted middle ground, so ablation benches can compare them.

use crate::mapping::Mapping;
use rtsm_app::{ApplicationSpec, Endpoint};
use rtsm_platform::energy::channel_energy_pj;
use rtsm_platform::{Platform, TileId};
use serde::{Deserialize, Serialize};

/// How step 2 scores a (complete) tile assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CostModel {
    /// Σ channel Manhattan distance — the paper's Table 2 cost.
    #[default]
    HopCount,
    /// Σ channel Manhattan distance × tokens/period.
    TrafficWeighted,
    /// Full energy objective (processing + estimated communication).
    Energy,
}

impl CostModel {
    /// Cost of `mapping`; lower is better. Units depend on the model (hops,
    /// token-hops, or picojoules).
    pub fn cost(&self, mapping: &Mapping, spec: &ApplicationSpec, platform: &Platform) -> u64 {
        match self {
            CostModel::HopCount => u64::from(mapping.communication_hops(spec, platform)),
            CostModel::TrafficWeighted => spec
                .graph
                .stream_channels()
                .filter_map(|(_, ch)| {
                    let a = mapping.endpoint_tile(platform, ch.src)?;
                    let b = mapping.endpoint_tile(platform, ch.dst)?;
                    Some(u64::from(platform.manhattan(a, b)) * ch.tokens_per_period)
                })
                .sum(),
            CostModel::Energy => mapping.energy_pj(spec, platform),
        }
    }

    /// The per-channel term of this model for a channel carrying
    /// `tokens_per_period` between tiles `a` and `b` (Manhattan estimate —
    /// what steps 1–2 use before any route exists).
    ///
    /// All three models decompose as `base + Σ channel terms`, which is
    /// what makes step 2's incremental rescoring exact: a move or swap only
    /// changes the terms of channels incident to the touched processes.
    pub fn channel_cost(
        &self,
        platform: &Platform,
        tokens_per_period: u64,
        a: TileId,
        b: TileId,
    ) -> u64 {
        self.term(tokens_per_period, platform.manhattan(a, b))
    }

    /// [`CostModel::channel_cost`] of a channel whose ends are `hops` apart.
    pub(crate) fn term(&self, tokens_per_period: u64, hops: u32) -> u64 {
        match self {
            CostModel::HopCount => u64::from(hops),
            CostModel::TrafficWeighted => u64::from(hops) * tokens_per_period,
            CostModel::Energy => channel_energy_pj(tokens_per_period, hops),
        }
    }

    /// The channel-independent base term of this model: zero for the
    /// distance models, the summed processing energy of the chosen
    /// implementations for [`CostModel::Energy`].
    pub fn base_cost(&self, mapping: &Mapping, spec: &ApplicationSpec) -> u64 {
        match self {
            CostModel::HopCount | CostModel::TrafficWeighted => 0,
            CostModel::Energy => mapping
                .assignments()
                .map(|(p, a)| spec.library.impls_for(p)[a.impl_index].energy_pj_per_period)
                .sum(),
        }
    }

    /// Full recompute of the decomposed form: `base + Σ channel terms` over
    /// channels whose endpoints are both mapped. Equal to
    /// [`CostModel::cost`] on assignment-only mappings (no routes bound) —
    /// step 2's debug assertions hold the incremental deltas to this.
    pub fn assignment_cost(
        &self,
        mapping: &Mapping,
        spec: &ApplicationSpec,
        platform: &Platform,
    ) -> u64 {
        self.base_cost(mapping, spec)
            + self.channel_costs(spec, platform, |end| mapping.endpoint_tile(platform, end))
    }

    /// The channel half of [`CostModel::assignment_cost`], with the
    /// endpoints placed by `tile_of` instead of a [`Mapping`]: step 2 scores
    /// a candidate on its own view of the assignment without making it.
    pub(crate) fn channel_costs(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        tile_of: impl Fn(Endpoint) -> Option<TileId>,
    ) -> u64 {
        spec.graph
            .stream_channels()
            .filter_map(|(_, ch)| {
                let a = tile_of(ch.src)?;
                let b = tile_of(ch.dst)?;
                Some(self.channel_cost(platform, ch.tokens_per_period, a, b))
            })
            .sum()
    }

    /// The state-transfer cost of reconfiguring an application from `old`
    /// to `new`: every process whose tile changed ships its
    /// implementation's memory image (in 32-bit words) between the tiles,
    /// priced by this model's per-channel term
    /// ([`CostModel::channel_cost`]) — the *same* decomposition victim
    /// ranking and step 2 use, so migration energy is not a side-band
    /// account. Returns `(processes_moved, total_cost)`; units follow the
    /// model (hops, word-hops, or picojoules for [`CostModel::Energy`]).
    ///
    /// Processes present only in one of the two mappings contribute
    /// nothing: there is no state to transfer for a process that was not
    /// running before or does not run after.
    pub fn migration_cost(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        old: &Mapping,
        new: &Mapping,
    ) -> (usize, u64) {
        let mut processes_moved = 0;
        let mut cost = 0u64;
        for (pid, old_assignment) in old.assignments() {
            let Some(new_assignment) = new.assignment(pid) else {
                continue;
            };
            if new_assignment.tile == old_assignment.tile {
                continue;
            }
            processes_moved += 1;
            let memory_words =
                spec.library.impls_for(pid)[old_assignment.impl_index].memory_bytes / 4;
            cost += self.channel_cost(
                platform,
                memory_words,
                old_assignment.tile,
                new_assignment.tile,
            );
        }
        (processes_moved, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn paper_initial() -> (ApplicationSpec, Platform, Mapping) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut m = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        m.assign(p("Prefix removal"), 0, t("ARM1"));
        m.assign(p("Freq. off. correction"), 0, t("ARM2"));
        m.assign(p("Inverse OFDM"), 1, t("MONTIUM1"));
        m.assign(p("Remainder"), 1, t("MONTIUM2"));
        (spec, platform, m)
    }

    #[test]
    fn hop_count_matches_table2() {
        let (spec, platform, m) = paper_initial();
        assert_eq!(CostModel::HopCount.cost(&m, &spec, &platform), 11);
    }

    #[test]
    fn traffic_weighted_counts_tokens() {
        let (spec, platform, m) = paper_initial();
        // A/D→Pfx: 1 hop × 80; Pfx→Frq: 2 × 64; Frq→iOFDM: 3 × 64;
        // iOFDM→Rem: 2 × 52; Rem→Sink: 3 × 24.
        let expected = 80 + 128 + 192 + 104 + 72;
        assert_eq!(
            CostModel::TrafficWeighted.cost(&m, &spec, &platform),
            expected
        );
    }

    #[test]
    fn energy_cost_includes_processing() {
        let (spec, platform, m) = paper_initial();
        let cost = CostModel::Energy.cost(&m, &spec, &platform);
        assert!(cost >= 60_000 + 62_000 + 143_000 + 76_000);
    }

    #[test]
    fn default_is_paper_mode() {
        assert_eq!(CostModel::default(), CostModel::HopCount);
    }

    #[test]
    fn migration_cost_prices_moved_state_through_channel_terms() {
        let (spec, platform, old) = paper_initial();
        // Unchanged mapping: nothing moves, nothing is charged.
        for model in [
            CostModel::HopCount,
            CostModel::TrafficWeighted,
            CostModel::Energy,
        ] {
            assert_eq!(model.migration_cost(&spec, &platform, &old, &old), (0, 0));
        }
        // Swap the two ARM processes: both memory images travel the
        // ARM1↔ARM2 distance, priced exactly by the per-channel term.
        let mut new = old.clone();
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
        let arm1 = platform.tile_by_name("ARM1").unwrap();
        let arm2 = platform.tile_by_name("ARM2").unwrap();
        new.assign(pfx, 0, arm2);
        new.assign(frq, 0, arm1);
        let model = CostModel::Energy;
        let (moved, cost) = model.migration_cost(&spec, &platform, &old, &new);
        assert_eq!(moved, 2);
        let words = |p| spec.library.impls_for(p)[0].memory_bytes / 4;
        let expected = model.channel_cost(&platform, words(pfx), arm1, arm2)
            + model.channel_cost(&platform, words(frq), arm2, arm1);
        assert_eq!(cost, expected);
        assert!(cost > 0);
    }

    #[test]
    fn decomposition_matches_full_cost_on_unrouted_mappings() {
        let (spec, platform, m) = paper_initial();
        for model in [
            CostModel::HopCount,
            CostModel::TrafficWeighted,
            CostModel::Energy,
        ] {
            assert_eq!(
                model.assignment_cost(&m, &spec, &platform),
                model.cost(&m, &spec, &platform),
                "{model:?}"
            );
        }
    }
}
