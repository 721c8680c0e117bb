//! Spiral / region-growing placement (after Benhaoua et al.,
//! arXiv:1312.5764).
//!
//! The heaviest-communicating process is anchored near the mesh centre;
//! the remaining processes are then pulled in one at a time in order of
//! their traffic towards the already-placed region, and each is placed on
//! the candidate tile minimising its communication cost to the region —
//! candidate tiles are ranked along growing Manhattan rings around the
//! anchor, so the region grows as a compact spiral instead of scattering.
//! Short, compact placements are what keeps NoC links uncongested; the
//! hard congestion check is inherited from the shared back-end
//! ([`finalize_assignment`]): capacity-constrained step-3 routing plus the
//! step-4 dataflow analysis, identical to every other algorithm.

use crate::common::{claim_option, finalize_assignment, no_feasible_mapping, viable_options};
use rtsm_app::{ApplicationSpec, Endpoint};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::cost::CostModel;
use rtsm_core::{MapError, Mapping, MappingAlgorithm, MappingOutcome};
use rtsm_platform::{Platform, PlatformState};

/// How candidate tiles are scored against the already-placed region:
/// traffic-weighted distance mirrors the reference paper's
/// communication-volume objective.
const COST_MODEL: CostModel = CostModel::TrafficWeighted;

/// Weight of the ring-distance (spiral compactness) term added to the
/// communication score. `0` would degenerate to pure nearest-neighbour
/// placement; larger values force tighter spirals.
const SPREAD_PENALTY: u64 = 1;

/// Spiral / region-growing mapper: clusters communicating processes along
/// Manhattan rings around the first-placed process.
#[derive(Debug, Clone, Default)]
pub struct SpiralMapper;

/// Traffic (tokens/period, both directions summed) between every pair of
/// processes, flattened to `n × n`.
fn traffic_matrix(spec: &ApplicationSpec) -> Vec<u64> {
    let n = spec.graph.n_processes();
    let mut traffic = vec![0u64; n * n];
    for (_, channel) in spec.graph.stream_channels() {
        if let (Endpoint::Process(a), Endpoint::Process(b)) = (channel.src, channel.dst) {
            traffic[a.index() * n + b.index()] += channel.tokens_per_period;
            traffic[b.index() * n + a.index()] += channel.tokens_per_period;
        }
    }
    traffic
}

/// Builds the spiral assignment on `working` (claims are left in place).
/// Returns the mapping and the number of candidate placements scored, or
/// `None` when some process has no viable option left.
pub(crate) fn spiral_assignment(
    spec: &ApplicationSpec,
    platform: &Platform,
    working: &mut PlatformState,
    constraints: &MappingConstraints,
) -> Option<(Mapping, u64)> {
    let order = spec.graph.topological_order().ok()?;
    let n = spec.graph.n_processes();
    let traffic = traffic_matrix(spec);
    let total: Vec<u64> = (0..n)
        .map(|p| traffic[p * n..(p + 1) * n].iter().sum())
        .collect();

    // Anchor: the heaviest communicator, placed as close to the mesh
    // centre as its viable tiles allow (doubled coordinates avoid the
    // half-tile rounding of even meshes; a deserialized mesh can be empty).
    let anchor = order
        .iter()
        .copied()
        .max_by_key(|p| (total[p.index()], usize::MAX - p.index()))?;
    let (cx2, cy2) = (
        u32::from(platform.width()).saturating_sub(1),
        u32::from(platform.height()).saturating_sub(1),
    );
    let mut evaluated = 0u64;
    let mut mapping = Mapping::for_spec(spec);
    let options = viable_options(spec, platform, working, anchor, constraints);
    evaluated += options.len() as u64;
    let &(impl_index, anchor_tile) = options.iter().min_by_key(|(ix, tile)| {
        let p = platform.tile(*tile).position;
        let centre_dist = (2 * u32::from(p.x)).abs_diff(cx2) + (2 * u32::from(p.y)).abs_diff(cy2);
        (centre_dist, tile.index(), *ix)
    })?;
    claim_option(spec, platform, working, anchor, impl_index, anchor_tile);
    mapping.assign(anchor, impl_index, anchor_tile);

    let mut placed = vec![false; n];
    placed[anchor.index()] = true;
    for _ in 1..order.len() {
        // Next process: strongest pull towards the placed region, ties
        // broken by total traffic, then by topological position.
        let next = order
            .iter()
            .copied()
            .filter(|p| !placed[p.index()])
            .max_by_key(|p| {
                let pull: u64 = (0..n)
                    .filter(|q| placed[*q])
                    .map(|q| traffic[p.index() * n + q])
                    .sum();
                (pull, total[p.index()], usize::MAX - p.index())
            })?;
        let options = viable_options(spec, platform, working, next, constraints);
        evaluated += options.len() as u64;
        // Score every candidate against the region; rank by
        // (communication + spiral compactness, ring, tile, impl) so the
        // choice is total-ordered and deterministic.
        let &(impl_index, tile) = options.iter().min_by_key(|(ix, tile)| {
            let comm: u64 = spec
                .graph
                .stream_channels()
                .filter_map(|(_, ch)| {
                    let (here, there) = match (ch.src, ch.dst) {
                        (Endpoint::Process(p), other) if p == next => (*tile, other),
                        (other, Endpoint::Process(p)) if p == next => (*tile, other),
                        _ => return None,
                    };
                    let there = mapping.endpoint_tile(platform, there)?;
                    Some(COST_MODEL.channel_cost(platform, ch.tokens_per_period, here, there))
                })
                .sum();
            let ring = u64::from(platform.manhattan(*tile, anchor_tile));
            (comm + SPREAD_PENALTY * ring, ring, tile.index(), *ix)
        })?;
        claim_option(spec, platform, working, next, impl_index, tile);
        mapping.assign(next, impl_index, tile);
        placed[next.index()] = true;
    }
    Some((mapping, evaluated))
}

impl MappingAlgorithm for SpiralMapper {
    fn name(&self) -> &str {
        "spiral region growing"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let mut working = base.clone();
        let (mapping, evaluated) = spiral_assignment(spec, platform, &mut working, constraints)
            .ok_or_else(|| no_feasible_mapping(0))?;
        finalize_assignment(spec, platform, base, mapping, evaluated)
            .ok_or_else(|| no_feasible_mapping(evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn spiral_is_feasible_and_compact_on_the_paper_case() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = SpiralMapper
            .map(&spec, &platform, &platform.initial_state())
            .expect("spiral maps the paper case");
        assert!(result.feasible);
        // Region growing must at least beat plain first-fit (cost 11).
        assert!(
            result.communication_hops <= 11,
            "spiral placement scattered: {} hops",
            result.communication_hops
        );
    }

    #[test]
    fn spiral_is_deterministic() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let a = SpiralMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let b = SpiralMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.energy_pj, b.energy_pj);
    }

    #[test]
    fn spiral_honours_constraints() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let unconstrained = SpiralMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        // Exclude every tile the unconstrained run used for the first
        // process; the constrained mapping must avoid them.
        let victim = spec.graph.topological_order().unwrap()[0];
        let used = unconstrained.mapping.assignment(victim).unwrap().tile;
        let constraints = MappingConstraints::none().exclude_tile(used);
        if let Ok(result) =
            SpiralMapper.map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
        {
            assert_ne!(result.mapping.assignment(victim).unwrap().tile, used);
            assert!(constraints.satisfied_by(&result.mapping));
        }
    }
}
