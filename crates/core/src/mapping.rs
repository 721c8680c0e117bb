//! The mapping data structure: what the spatial mapper produces.

use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_platform::energy::channel_energy_pj;
use rtsm_platform::{Path, Platform, TileId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One process's binding: which implementation and which tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index into the process's implementation list
    /// (`spec.library.impls_for(process)`).
    pub impl_index: usize,
    /// Tile hosting the implementation.
    pub tile: TileId,
}

/// A channel's realisation on the interconnect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteBinding {
    /// Producer and consumer share a tile: local memory, no NoC traffic.
    SameTile,
    /// A guaranteed-throughput NoC connection.
    Path(Path),
}

impl RouteBinding {
    /// Router-to-router hops of this binding.
    pub fn hops(&self) -> u32 {
        match self {
            RouteBinding::SameTile => 0,
            RouteBinding::Path(p) => p.hops(),
        }
    }
}

/// A (possibly partial) spatial mapping: process → (implementation, tile)
/// and channel → route.
///
/// `BTreeMap`s keep iteration deterministic, which the paper-exact traces
/// rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    assignments: BTreeMap<ProcessId, Assignment>,
    routes: BTreeMap<KpnChannelId, RouteBinding>,
}

impl Mapping {
    /// An empty mapping.
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Binds `process` to (`impl_index`, `tile`), replacing any previous
    /// binding.
    pub fn assign(&mut self, process: ProcessId, impl_index: usize, tile: TileId) {
        self.assignments
            .insert(process, Assignment { impl_index, tile });
    }

    /// The binding of `process`, if any.
    pub fn assignment(&self, process: ProcessId) -> Option<Assignment> {
        self.assignments.get(&process).copied()
    }

    /// Removes `process`'s binding (used by backtracking searches).
    pub fn unassign(&mut self, process: ProcessId) -> Option<Assignment> {
        self.assignments.remove(&process)
    }

    /// Iterates over `(process, assignment)` in process-id order.
    pub fn assignments(&self) -> impl Iterator<Item = (ProcessId, Assignment)> + '_ {
        self.assignments.iter().map(|(p, a)| (*p, *a))
    }

    /// Binds `channel` to `route`.
    pub fn bind_route(&mut self, channel: KpnChannelId, route: RouteBinding) {
        self.routes.insert(channel, route);
    }

    /// The route of `channel`, if bound.
    pub fn route(&self, channel: KpnChannelId) -> Option<&RouteBinding> {
        self.routes.get(&channel)
    }

    /// Iterates over `(channel, route)` in channel-id order.
    pub fn routes(&self) -> impl Iterator<Item = (KpnChannelId, &RouteBinding)> {
        self.routes.iter().map(|(c, r)| (*c, r))
    }

    /// Removes all routes (step 2 invalidates step 3's work).
    pub fn clear_routes(&mut self) {
        self.routes.clear();
    }

    /// The tile realising `endpoint`: the assigned tile for processes, the
    /// platform's first `AdcSource` / `Sink` tile for stream endpoints.
    pub fn endpoint_tile(&self, platform: &Platform, endpoint: Endpoint) -> Option<TileId> {
        match endpoint {
            Endpoint::Process(p) => self.assignment(p).map(|a| a.tile),
            Endpoint::StreamInput => platform.stream_input_tile(),
            Endpoint::StreamOutput => platform.stream_output_tile(),
        }
    }

    /// The paper's step-2 cost: the sum over data-stream channels of the
    /// Manhattan distance between the endpoints' tiles (Table 2's cost
    /// column). Channels with unassigned endpoints are skipped.
    pub fn communication_hops(&self, spec: &ApplicationSpec, platform: &Platform) -> u32 {
        spec.graph
            .stream_channels()
            .filter_map(|(_, ch)| {
                let a = self.endpoint_tile(platform, ch.src)?;
                let b = self.endpoint_tile(platform, ch.dst)?;
                Some(platform.manhattan(a, b))
            })
            .sum()
    }

    /// Total energy per application period in picojoules: chosen
    /// implementations' processing energy plus communication energy over
    /// the *routed* paths (falling back to Manhattan distance for unrouted
    /// channels, as steps 1–2 estimate it).
    pub fn energy_pj(&self, spec: &ApplicationSpec, platform: &Platform) -> u64 {
        let processing: u64 = self
            .assignments()
            .map(|(p, a)| spec.library.impls_for(p)[a.impl_index].energy_pj_per_period)
            .sum();
        let communication: u64 = spec
            .graph
            .stream_channels()
            .filter_map(|(id, ch)| {
                let hops = match self.route(id) {
                    Some(binding) => binding.hops(),
                    None => {
                        let a = self.endpoint_tile(platform, ch.src)?;
                        let b = self.endpoint_tile(platform, ch.dst)?;
                        platform.manhattan(a, b)
                    }
                };
                Some(channel_energy_pj(ch.tokens_per_period, hops))
            })
            .sum();
        processing + communication
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    fn paper_final_mapping() -> (rtsm_app::ApplicationSpec, Platform, Mapping) {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let mut m = Mapping::new();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        // The paper's final assignment (Table 2, last row): impl index 0 is
        // ARM, 1 is MONTIUM (library registration order).
        m.assign(p("Prefix removal"), 0, t("ARM2"));
        m.assign(p("Freq. off. correction"), 0, t("ARM1"));
        m.assign(p("Inverse OFDM"), 1, t("MONTIUM2"));
        m.assign(p("Remainder"), 1, t("MONTIUM1"));
        (spec, platform, m)
    }

    #[test]
    fn paper_final_mapping_costs_seven() {
        let (spec, platform, m) = paper_final_mapping();
        assert_eq!(m.communication_hops(&spec, &platform), 7);
    }

    #[test]
    fn initial_greedy_mapping_costs_eleven() {
        let (spec, platform, mut m) = paper_final_mapping();
        let p = |n: &str| spec.graph.process_by_name(n).unwrap();
        let t = |n: &str| platform.tile_by_name(n).unwrap();
        m.assign(p("Prefix removal"), 0, t("ARM1"));
        m.assign(p("Freq. off. correction"), 0, t("ARM2"));
        m.assign(p("Inverse OFDM"), 1, t("MONTIUM1"));
        m.assign(p("Remainder"), 1, t("MONTIUM2"));
        assert_eq!(m.communication_hops(&spec, &platform), 11);
    }

    #[test]
    fn energy_prefers_montium_and_locality() {
        let (spec, platform, m) = paper_final_mapping();
        let e = m.energy_pj(&spec, &platform);
        // Processing: 60+62 (ARM) + 143+76 (MONTIUM) = 341 nJ, plus
        // exactly 25.68 nJ of communication over the 7 hops.
        let processing = 60_000 + 62_000 + 143_000 + 76_000;
        assert_eq!(e, processing + 25_680);
        // All-ARM processing alone would cost 60+62+275+140 = 537 nJ; the
        // heterogeneous mapping with communication still wins.
        assert!(e < 537_000);
    }

    #[test]
    fn partial_mapping_skips_unassigned() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let m = Mapping::new();
        // Only the A/D→Pfx and Rem→Sink channels have stream endpoints, but
        // their process ends are unassigned: cost is 0.
        assert_eq!(m.communication_hops(&spec, &platform), 0);
    }

    #[test]
    fn route_binding_lifecycle() {
        let (spec, _platform, mut m) = paper_final_mapping();
        let ch = spec.graph.stream_channels().next().unwrap().0;
        m.bind_route(ch, RouteBinding::SameTile);
        assert_eq!(m.route(ch), Some(&RouteBinding::SameTile));
        m.clear_routes();
        assert!(m.route(ch).is_none());
    }
}
