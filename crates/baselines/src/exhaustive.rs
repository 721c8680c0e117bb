//! Exhaustive branch-and-bound: the optimal-energy reference.
//!
//! Enumerates every (implementation, tile) assignment in application order,
//! pruning branches whose partial energy already exceeds the incumbent.
//! The partial energy — processing energy of assigned processes plus
//! communication energy over Manhattan distances of fully decided channels
//! — is an admissible lower bound (routes are never shorter than Manhattan
//! distance, and remaining terms are non-negative).
//!
//! Intended for small instances; the paper's point is precisely that
//! "exhaustive search already requires far too much time" at run time, and
//! the benches quantify that claim.

use crate::common::{
    claim_option, finalize_assignment, no_feasible_mapping, release_option, viable_options,
};
use rtsm_app::{ApplicationSpec, Endpoint, ProcessId};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::{MapError, Mapping, MappingAlgorithm, MappingOutcome};
use rtsm_platform::energy::channel_energy_pj;
use rtsm_platform::{Platform, PlatformState};

/// Branch-and-bound optimal mapper.
#[derive(Debug, Clone)]
pub struct ExhaustiveMapper {
    /// Abort after this many search nodes (returns best-so-far) — the one
    /// knob, because `repro`'s quality table bounds the search tighter than
    /// the default.
    pub max_nodes: u64,
}

impl Default for ExhaustiveMapper {
    fn default() -> Self {
        ExhaustiveMapper {
            max_nodes: 5_000_000,
        }
    }
}

struct Search<'a> {
    spec: &'a ApplicationSpec,
    platform: &'a Platform,
    base: &'a PlatformState,
    constraints: &'a MappingConstraints,
    order: Vec<ProcessId>,
    best: Option<(u64, Mapping)>,
    nodes: u64,
    max_nodes: u64,
}

impl Search<'_> {
    /// Communication energy of channels fully decided by assigning `p`
    /// (both endpoints placed, or the other endpoint is a stream tile).
    fn comm_delta(&self, mapping: &Mapping, p: ProcessId) -> u64 {
        self.spec
            .graph
            .stream_channels()
            .filter_map(|(_, ch)| {
                let touches_p = ch.src == Endpoint::Process(p) || ch.dst == Endpoint::Process(p);
                if !touches_p {
                    return None;
                }
                let a = mapping.endpoint_tile(self.platform, ch.src)?;
                let b = mapping.endpoint_tile(self.platform, ch.dst)?;
                let hops = self.platform.manhattan(a, b);
                Some(channel_energy_pj(ch.tokens_per_period, hops))
            })
            .sum()
    }

    fn recurse(
        &mut self,
        depth: usize,
        mapping: &mut Mapping,
        working: &mut PlatformState,
        partial_energy: u64,
    ) {
        if self.nodes >= self.max_nodes {
            return;
        }
        self.nodes += 1;
        if let Some((best_energy, _)) = &self.best {
            if partial_energy >= *best_energy {
                return; // bound
            }
        }
        let Some(&process) = self.order.get(depth) else {
            // Leaf: validate with the shared routing + dataflow pipeline.
            if let Some(result) = finalize_assignment(
                self.spec,
                self.platform,
                self.base,
                mapping.clone(),
                self.nodes,
            ) {
                let better = self
                    .best
                    .as_ref()
                    .is_none_or(|(e, _)| result.energy_pj < *e);
                if better {
                    self.best = Some((result.energy_pj, result.mapping));
                }
            }
            return;
        };
        for (impl_index, tile) in
            viable_options(self.spec, self.platform, working, process, self.constraints)
        {
            if !claim_option(self.spec, self.platform, working, process, impl_index, tile) {
                continue;
            }
            mapping.assign(process, impl_index, tile);
            let implementation = &self.spec.library.impls_for(process)[impl_index];
            let delta = implementation.energy_pj_per_period + self.comm_delta(mapping, process);
            self.recurse(depth + 1, mapping, working, partial_energy + delta);
            // Undo: BTreeMap has no unassign; rebuild by overwrite at next
            // iteration and final removal below.
            release_option(self.spec, working, process, impl_index, tile);
        }
        mapping.unassign(process);
    }
}

impl MappingAlgorithm for ExhaustiveMapper {
    fn name(&self) -> &str {
        "exhaustive branch & bound"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let order = spec
            .graph
            .topological_order()
            .map_err(MapError::InvalidSpec)?;
        let mut search = Search {
            spec,
            platform,
            base,
            constraints,
            order,
            best: None,
            nodes: 0,
            max_nodes: self.max_nodes,
        };
        let mut mapping = Mapping::for_spec(spec);
        let mut working = base.clone();
        search.recurse(0, &mut mapping, &mut working, 0);
        let nodes = search.nodes;
        search
            .best
            .and_then(|(_, best)| finalize_assignment(spec, platform, base, best, nodes))
            .ok_or_else(|| no_feasible_mapping(nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn optimal_on_paper_case_is_feasible_and_cheap() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = ExhaustiveMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .expect("paper case has feasible mappings");
        assert!(result.feasible);
        // Optimal uses both MONTIUMs (processing 341 nJ) and minimal
        // communication; it can be no worse than the heuristic.
        let heuristic = crate::SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert!(result.energy_pj <= heuristic.energy_pj);
    }

    #[test]
    fn heuristic_matches_optimal_on_paper_case() {
        // The paper's walk-through is small enough that the heuristic finds
        // the optimum — the interesting quantitative fact E7 reports.
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let optimal = ExhaustiveMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let heuristic = crate::SpatialMapper::default()
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(optimal.energy_pj, heuristic.energy_pj);
    }

    #[test]
    fn node_guard_terminates_search() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let limited = ExhaustiveMapper { max_nodes: 1 };
        // With one node the search cannot reach a leaf: no result.
        assert!(limited
            .map(&spec, &platform, &platform.initial_state())
            .is_err());
    }
}
