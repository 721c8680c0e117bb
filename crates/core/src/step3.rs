//! Step 3: assign channels to paths (§3.3).
//!
//! "The channels are sorted by non-increasing throughput … to increase the
//! probability that a heavy demanding channel gets assigned a better path.
//! In each iteration for a given channel, a shortest path … is determined,
//! where only those paths … are taken into account which still have enough
//! capacity."

use crate::feedback::Feedback;
use crate::mapping::{Mapping, RouteBinding};
use rtsm_app::{ApplicationSpec, KpnChannelId};
use rtsm_platform::routing::route_with;
use rtsm_platform::{Platform, PlatformState, PlatformTransaction, RouteScratch, RoutingPolicy};

/// Routes every data-stream channel of `mapping` on a capacity-aware
/// shortest path ([`rtsm_platform::route`]), allocating link and NI
/// bandwidth in `working`. Channels between processes on the same tile
/// become [`RouteBinding::SameTile`].
///
/// `mapping` must enter route-free (steps 1–2 produce assignments only);
/// any stale routes would be released against `working` on rollback.
///
/// On failure, **all** allocations made by this call are rolled back and
/// the routes are cleared, so the caller can refine and retry.
///
/// # Errors
///
/// Feedback naming the unroutable channel plus a `ForbidTile` item for its
/// producer's tile (the refinement lever).
pub fn route_channels(
    spec: &ApplicationSpec,
    platform: &Platform,
    mapping: &mut Mapping,
    working: &mut PlatformState,
) -> Result<(), Vec<Feedback>> {
    // Sort by non-increasing throughput, ties by channel id for
    // reproducibility.
    let mut channels: Vec<(KpnChannelId, u64)> = spec
        .graph
        .stream_channels()
        .map(|(id, ch)| (id, ch.tokens_per_period))
        .collect();
    channels.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // One scratch serves every channel of this call: the path searches
    // themselves allocate nothing, and a path is cloned exactly once — into
    // the mapping — when it is actually kept. All bandwidth reservations are
    // staged in one transaction: a failed channel drops the transaction,
    // which rolls every earlier allocation back; only a fully routed
    // mapping commits.
    debug_assert!(
        mapping.routes().next().is_none(),
        "route_channels requires a route-free mapping (its routes \
         double as the record of what this call allocated)"
    );
    let mut scratch = RouteScratch::new();
    let mut tx = PlatformTransaction::begin(platform, working);

    for (channel_id, tokens) in channels {
        let ch = spec.graph.channel(channel_id);
        let Some(from) = mapping.endpoint_tile(platform, ch.src) else {
            mapping.clear_routes();
            return Err(vec![Feedback::Infeasible {
                detail: format!("channel {channel_id:?} has an unmapped producer"),
            }]);
        };
        let Some(to) = mapping.endpoint_tile(platform, ch.dst) else {
            mapping.clear_routes();
            return Err(vec![Feedback::Infeasible {
                detail: format!("channel {channel_id:?} has an unmapped consumer"),
            }]);
        };
        if from == to {
            mapping.bind_route(channel_id, RouteBinding::SameTile);
            continue;
        }
        let demand = spec.qos.words_per_second(tokens);
        match route_with(platform, tx.state(), from, to, demand, &mut scratch) {
            Ok(path) => {
                let path = path.clone();
                tx.allocate_path(&path)
                    .expect("route() verified residual capacity");
                mapping.bind_route(channel_id, RouteBinding::Path(path));
            }
            Err(_) => {
                let mut feedback = vec![Feedback::RouteFailed {
                    channel: channel_id,
                }];
                // Refinement lever: force the producer elsewhere (stream
                // endpoints are fixed, so fall back to the consumer then).
                if let rtsm_app::Endpoint::Process(p) = ch.src {
                    feedback.push(Feedback::ForbidTile {
                        process: p,
                        tile: from,
                    });
                } else if let rtsm_app::Endpoint::Process(p) = ch.dst {
                    feedback.push(Feedback::ForbidTile {
                        process: p,
                        tile: to,
                    });
                }
                mapping.clear_routes();
                return Err(feedback); // tx dropped: allocations rolled back
            }
        }
    }
    tx.commit();
    Ok(())
}

/// [`route_channels`]. Nothing reads `_policy`; it is kept only because the
/// `benchmark/` crate passes it (see [`RoutingPolicy`]).
///
/// # Errors
///
/// Same as [`route_channels`].
pub fn route_channels_with(
    spec: &ApplicationSpec,
    platform: &Platform,
    mapping: &mut Mapping,
    working: &mut PlatformState,
    _policy: RoutingPolicy,
) -> Result<(), Vec<Feedback>> {
    route_channels(spec, platform, mapping, working)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::feedback::Constraints;
    use crate::step1::assign_implementations;
    use crate::step2::improve_assignment;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn mapped_paper() -> (rtsm_app::ApplicationSpec, Platform, Mapping, PlatformState) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
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
        (spec, platform, mapping, working)
    }

    #[test]
    fn paper_mapping_routes_with_twelve_router_traversals() {
        let (spec, platform, mut mapping, mut working) = mapped_paper();
        route_channels(&spec, &platform, &mut mapping, &mut working).unwrap();
        // 5 channels, total Manhattan 7 → 7 hops → 12 routers traversed
        // (hops + 1 per channel), matching Figure 3's 12 router actors.
        let total_hops: u32 = mapping.routes().map(|(_, r)| r.hops()).sum();
        assert_eq!(total_hops, 7);
        let total_routers: u32 = mapping
            .routes()
            .map(|(_, r)| match r {
                RouteBinding::SameTile => 0,
                RouteBinding::Path(p) => p.router_count(),
            })
            .sum();
        assert_eq!(total_routers, 12);
        assert_eq!(mapping.routes().count(), 5);
    }

    #[test]
    fn routes_are_minimal_paths() {
        let (spec, platform, mut mapping, mut working) = mapped_paper();
        route_channels(&spec, &platform, &mut mapping, &mut working).unwrap();
        for (id, route) in mapping.routes() {
            if let RouteBinding::Path(p) = route {
                assert_eq!(
                    p.hops(),
                    platform.manhattan(p.from, p.to),
                    "channel {id:?} detoured on an empty NoC"
                );
            }
        }
    }

    #[test]
    fn heaviest_channel_routed_first() {
        // With the default capacities nothing contends; instead check the
        // sort order by starving the NoC and observing which channel's
        // failure is reported: the heaviest (A/D→Pfx, 80 tokens).
        let (spec, platform, mut mapping, working) = mapped_paper();
        let mut starved = working.clone();
        for (l, _) in platform.links() {
            let residual = starved.residual_link(&platform, l);
            if residual > 0 {
                starved.allocate_link(&platform, l, residual).unwrap();
            }
        }
        let err = route_channels(&spec, &platform, &mut mapping, &mut starved).unwrap_err();
        let heaviest = spec
            .graph
            .stream_channels()
            .max_by_key(|(_, c)| c.tokens_per_period)
            .unwrap()
            .0;
        assert!(err.iter().any(|f| matches!(
            f,
            Feedback::RouteFailed { channel } if *channel == heaviest
        )));
    }

    #[test]
    fn failure_rolls_back_allocations() {
        let (spec, platform, mut mapping, working) = mapped_paper();
        // Saturate a cut separating A/D (1,1) from the rest for demands of
        // 20M words/s: leave less than that on all four of its links.
        let mut constrained = working.clone();
        let ad = platform.tile_by_name("A/D").unwrap();
        let pos = platform.tile(ad).position;
        for n in platform.neighbours(pos) {
            for (a, b) in [(pos, n), (n, pos)] {
                let l = platform.link_between(a, b).unwrap();
                let residual = constrained.residual_link(&platform, l);
                constrained
                    .allocate_link(&platform, l, residual - 1_000_000)
                    .unwrap();
            }
        }
        let snapshot = constrained.clone();
        let err = route_channels(&spec, &platform, &mut mapping, &mut constrained);
        assert!(err.is_err());
        assert_eq!(constrained, snapshot, "failed routing must roll back");
        assert_eq!(mapping.routes().count(), 0);
    }
}
