//! The mapping data structure: what the spatial mapper produces.

use rtsm_app::{ApplicationSpec, Endpoint, KpnChannelId, ProcessId};
use rtsm_platform::energy::channel_energy_pj;
use rtsm_platform::{Path, Platform, TileId};
use serde::{de, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

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
/// Process and channel ids are dense indices into the specification's
/// lists, so both tables are id-indexed vectors: a lookup is an array read
/// and iteration runs in id order, which the paper-exact traces rely on.
/// An unbound id is a `None` slot; equality, `Debug` and the serialized
/// form see bound entries only, so a mapping that bound and then unbound
/// an id equals one that never bound it. The JSON is the `[id, value]`
/// pair lists the `BTreeMap`s this replaced wrote
/// (`tests/golden/paper_mapping*.json` pins the bytes).
#[derive(Clone, Default)]
pub struct Mapping {
    assignments: Vec<Option<Assignment>>,
    routes: Vec<Option<RouteBinding>>,
}

/// Writes `value` at `index`, growing `slots` with unbound entries first.
fn bind<T>(slots: &mut Vec<Option<T>>, index: usize, value: T) {
    if index >= slots.len() {
        slots.resize_with(index + 1, || None);
    }
    slots[index] = Some(value);
}

impl Mapping {
    /// An empty mapping.
    pub fn new() -> Self {
        Mapping::default()
    }

    /// An empty mapping with room for every process and channel of
    /// `spec`, so binding them allocates once per table.
    pub fn for_spec(spec: &ApplicationSpec) -> Self {
        Mapping::with_capacity(spec.graph.n_processes(), spec.graph.n_channels())
    }

    fn with_capacity(processes: usize, channels: usize) -> Self {
        Mapping {
            assignments: Vec::with_capacity(processes),
            routes: Vec::with_capacity(channels),
        }
    }

    /// Binds `process` to (`impl_index`, `tile`), replacing any previous
    /// binding.
    pub fn assign(&mut self, process: ProcessId, impl_index: usize, tile: TileId) {
        bind(
            &mut self.assignments,
            process.index(),
            Assignment { impl_index, tile },
        );
    }

    /// The binding of `process`, if any.
    pub fn assignment(&self, process: ProcessId) -> Option<Assignment> {
        self.assignments.get(process.index()).copied().flatten()
    }

    /// Removes `process`'s binding (used by backtracking searches).
    pub fn unassign(&mut self, process: ProcessId) -> Option<Assignment> {
        self.assignments.get_mut(process.index())?.take()
    }

    /// Iterates over `(process, assignment)` in process-id order.
    pub fn assignments(&self) -> impl Iterator<Item = (ProcessId, Assignment)> + '_ {
        (self.assignments.iter().enumerate())
            .filter_map(|(i, a)| Some((ProcessId::from_index(i), (*a)?)))
    }

    /// Binds `channel` to `route`.
    pub fn bind_route(&mut self, channel: KpnChannelId, route: RouteBinding) {
        bind(&mut self.routes, channel.index(), route);
    }

    /// The route of `channel`, if bound.
    pub fn route(&self, channel: KpnChannelId) -> Option<&RouteBinding> {
        self.routes.get(channel.index())?.as_ref()
    }

    /// Iterates over `(channel, route)` in channel-id order.
    pub fn routes(&self) -> impl Iterator<Item = (KpnChannelId, &RouteBinding)> {
        (self.routes.iter().enumerate())
            .filter_map(|(i, r)| Some((KpnChannelId::from_index(i), r.as_ref()?)))
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
        // Saturating: a spec file may hold any per-period energy.
        let processing = (self.assignments())
            .map(|(p, a)| spec.library.impls_for(p)[a.impl_index].energy_pj_per_period)
            .fold(0, u64::saturating_add);
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
        processing.saturating_add(communication)
    }
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Self) -> bool {
        self.assignments().eq(other.assignments()) && self.routes().eq(other.routes())
    }
}

impl Eq for Mapping {}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let assignments: BTreeMap<_, _> = self.assignments().collect();
        let routes: BTreeMap<_, _> = self.routes().collect();
        f.debug_struct("Mapping")
            .field("assignments", &assignments)
            .field("routes", &routes)
            .finish()
    }
}

/// The bound entries of `pairs` as the `[id, value]` sequence a
/// `BTreeMap` serializes to.
fn pairs_value<K: Serialize, V: Serialize>(pairs: impl Iterator<Item = (K, V)>) -> Value {
    Value::Seq(
        pairs
            .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

impl Serialize for Mapping {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("assignments".to_string(), pairs_value(self.assignments())),
            ("routes".to_string(), pairs_value(self.routes())),
        ])
    }
}

/// The largest id a deserialized mapping may bind: the tables are as long
/// as the largest id, so a file naming process 10¹² would otherwise ask
/// for terabytes. A specification has far fewer processes and channels.
const MAX_DESERIALIZED_ID: usize = 1 << 20;

impl Deserialize for Mapping {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        // Read as the maps the format was written from (a repeated id keeps
        // its last value), then laid out by id.
        let assignments: BTreeMap<ProcessId, Assignment> = de::field(value, "assignments")?;
        let routes: BTreeMap<KpnChannelId, RouteBinding> = de::field(value, "routes")?;
        // The table length that holds ids up to `last`.
        let length = |last: Option<usize>| match last {
            Some(id) if id > MAX_DESERIALIZED_ID => Err(de::Error::msg(format!(
                "mapping id {id} exceeds {MAX_DESERIALIZED_ID}, the largest a file may bind"
            ))),
            last => Ok(last.map_or(0, |id| id + 1)),
        };
        let n_processes = length(assignments.keys().next_back().map(ProcessId::index))?;
        let n_channels = length(routes.keys().next_back().map(KpnChannelId::index))?;
        let mut mapping = Mapping::with_capacity(n_processes, n_channels);
        for (process, a) in assignments {
            mapping.assign(process, a.impl_index, a.tile);
        }
        for (channel, route) in routes {
            mapping.bind_route(channel, route);
        }
        Ok(mapping)
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
