//! Kahn Process Network: the functional decomposition of a streaming
//! application (the paper's Figure 1).

use crate::digest::{ListDigest, Mixer};
use crate::error::AppModelError;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a process within a [`ProcessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcessId(pub(crate) usize);

impl ProcessId {
    /// Index of this process in the graph's process list.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds a `ProcessId` from a raw index. The caller must ensure the
    /// index belongs to the intended graph.
    pub fn from_index(index: usize) -> Self {
        ProcessId(index)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a channel within a [`ProcessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KpnChannelId(pub(crate) usize);

impl KpnChannelId {
    /// Index of this channel in the graph's channel list.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds a `KpnChannelId` from a raw index. The caller must ensure the
    /// index belongs to the intended graph.
    pub fn from_index(index: usize) -> Self {
        KpnChannelId(index)
    }
}

/// A process of the KPN.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Process {
    /// Human-readable name (e.g. `Inverse OFDM`).
    pub name: String,
    /// Abbreviation used in compact tables (the paper's `Inv.OFDM`);
    /// defaults to `name`.
    pub short_name: String,
    /// Control processes are "not part of the data stream" (§4.1): they are
    /// excluded from spatial-mapping cost and routing.
    pub is_control: bool,
}

/// One end of a KPN channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// A process of this application.
    Process(ProcessId),
    /// The platform's stream input (the paper's `A/D` tile).
    StreamInput,
    /// The platform's stream output (the paper's `Sink` tile).
    StreamOutput,
}

/// A FIFO channel of the KPN, annotated with its traffic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KpnChannel {
    /// Producing end.
    pub src: Endpoint,
    /// Consuming end.
    pub dst: Endpoint,
    /// 32-bit tokens crossing this channel per application period (the edge
    /// labels of Figure 1: complex samples per OFDM symbol).
    pub tokens_per_period: u64,
    /// True for control channels (not part of the data stream).
    pub is_control: bool,
}

/// The process network. Channels are kept in insertion order; a process's
/// input/output *port order* is its channel order, which implementations'
/// per-port rate vectors must follow.
///
/// The graph is append-only behind private fields, so it keeps a
/// [structural digest](ProcessGraph::structural_digest) of its own content
/// as it is built. **Invariant:** `digest` is a pure function of
/// `processes` and `channels` — every mutator that pushes an item accounts
/// for it, deserialization rebuilds it (it is never serialized) — so two
/// graphs that compare equal have equal digests, however the `add_process*`
/// and `add_channel*` calls that built them were interleaved.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "ProcessGraphSerde", into = "ProcessGraphSerde")]
pub struct ProcessGraph {
    processes: Vec<Process>,
    channels: Vec<KpnChannel>,
    digest: ListDigest,
}

/// Which of the graph's two lists a [`ListDigest`] term belongs to.
const PROCESSES: usize = 0;
const CHANNELS: usize = 1;

/// Serde shadow of [`ProcessGraph`]: the digest is derived data.
#[derive(Serialize, Deserialize)]
#[serde(rename = "ProcessGraph")]
struct ProcessGraphSerde {
    processes: Vec<Process>,
    channels: Vec<KpnChannel>,
}

impl From<ProcessGraph> for ProcessGraphSerde {
    fn from(g: ProcessGraph) -> Self {
        ProcessGraphSerde {
            processes: g.processes,
            channels: g.channels,
        }
    }
}

impl From<ProcessGraphSerde> for ProcessGraph {
    /// Rebuilds the digest. Nothing is indexed here: a channel naming a
    /// process that does not exist is kept as read and reported by
    /// [`ProcessGraph::topological_order`].
    fn from(s: ProcessGraphSerde) -> Self {
        let mut digest = ListDigest::default();
        for (i, p) in s.processes.iter().enumerate() {
            digest.push(PROCESSES, i, p);
        }
        for (i, c) in s.channels.iter().enumerate() {
            digest.push(CHANNELS, i, c);
        }
        ProcessGraph {
            processes: s.processes,
            channels: s.channels,
            digest,
        }
    }
}

impl ProcessGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A 64-bit digest of everything the graph holds (every field of every
    /// process and channel, in order), kept up to date by the mutators: O(1)
    /// to read, equal for equal graphs. Distinct graphs collide with
    /// probability ≈ 2⁻⁶⁴; stable within one build, not a file format.
    pub fn structural_digest(&self) -> u64 {
        Mixer::of(&(self.digest.get(), self.processes.len(), self.channels.len()))
    }

    fn push_process(&mut self, process: Process) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.digest.push(PROCESSES, id.0, &process);
        self.processes.push(process);
        id
    }

    /// Adds a data-stream process.
    pub fn add_process(&mut self, name: impl Into<String>) -> ProcessId {
        let name = name.into();
        self.push_process(Process {
            short_name: name.clone(),
            name,
            is_control: false,
        })
    }

    /// Adds a data-stream process with a table abbreviation (the paper's
    /// `Pfx.rem.`, `Inv.OFDM`, …).
    pub fn add_process_abbrev(
        &mut self,
        name: impl Into<String>,
        short_name: impl Into<String>,
    ) -> ProcessId {
        self.push_process(Process {
            name: name.into(),
            short_name: short_name.into(),
            is_control: false,
        })
    }

    /// Adds a control process (excluded from the data stream).
    pub fn add_control_process(&mut self, name: impl Into<String>) -> ProcessId {
        let name = name.into();
        self.push_process(Process {
            short_name: name.clone(),
            name,
            is_control: true,
        })
    }

    /// Adds a data channel carrying `tokens_per_period` tokens per period.
    ///
    /// # Errors
    ///
    /// [`AppModelError::BadEndpoint`] if `src` is `StreamOutput` or `dst` is
    /// `StreamInput`; [`AppModelError::UnknownProcess`] for dangling ids.
    pub fn add_channel(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        tokens_per_period: u64,
    ) -> Result<KpnChannelId, AppModelError> {
        self.add_channel_inner(src, dst, tokens_per_period, false)
    }

    /// Adds a control channel (excluded from mapping cost and routing).
    ///
    /// # Errors
    ///
    /// Same as [`ProcessGraph::add_channel`].
    pub fn add_control_channel(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        tokens_per_period: u64,
    ) -> Result<KpnChannelId, AppModelError> {
        self.add_channel_inner(src, dst, tokens_per_period, true)
    }

    fn add_channel_inner(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        tokens_per_period: u64,
        is_control: bool,
    ) -> Result<KpnChannelId, AppModelError> {
        check_ends(src, dst, self.processes.len())?;
        let channel = KpnChannel {
            src,
            dst,
            tokens_per_period,
            is_control,
        };
        let id = KpnChannelId(self.channels.len());
        self.digest.push(CHANNELS, id.0, &channel);
        self.channels.push(channel);
        Ok(id)
    }

    /// Number of processes (including control processes).
    pub fn n_processes(&self) -> usize {
        self.processes.len()
    }

    /// Number of channels (including control channels).
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// The process with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this graph.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.0]
    }

    /// The channel with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a channel of this graph.
    pub fn channel(&self, id: KpnChannelId) -> &KpnChannel {
        &self.channels[id.0]
    }

    /// Iterates over `(id, process)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i), p))
    }

    /// Data-stream processes only (control excluded), in id order.
    pub fn stream_processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes().filter(|(_, p)| !p.is_control)
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (KpnChannelId, &KpnChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (KpnChannelId(i), c))
    }

    /// Data-stream channels only (control excluded), in id order.
    pub fn stream_channels(&self) -> impl Iterator<Item = (KpnChannelId, &KpnChannel)> {
        self.channels().filter(|(_, c)| !c.is_control)
    }

    /// Looks a process up by name (first match).
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.processes
            .iter()
            .position(|p| p.name == name)
            .map(ProcessId)
    }

    /// Data input channels of `process`, in port (insertion) order.
    pub fn inputs_of(&self, process: ProcessId) -> Vec<KpnChannelId> {
        self.stream_channels()
            .filter(|(_, c)| c.dst == Endpoint::Process(process))
            .map(|(id, _)| id)
            .collect()
    }

    /// Data output channels of `process`, in port (insertion) order.
    pub fn outputs_of(&self, process: ProcessId) -> Vec<KpnChannelId> {
        self.stream_channels()
            .filter(|(_, c)| c.src == Endpoint::Process(process))
            .map(|(id, _)| id)
            .collect()
    }

    /// Every process's stream ports, in one pass over the channels (see
    /// [`Ports`]).
    ///
    /// # Errors
    ///
    /// [`AppModelError::BadEndpoint`] or [`AppModelError::UnknownProcess`]
    /// for the first channel (data or control) whose ends `add_channel*`
    /// would refuse — a deserialized graph can hold one.
    pub fn ports(&self) -> Result<Ports, AppModelError> {
        let n = self.processes.len();
        // Segment 2p holds p's inputs, 2p + 1 its outputs. Count each
        // segment, turn the counts into segment ends, then fill backwards:
        // each segment keeps channel order, and each bound, decremented
        // once per item, ends at its segment's start.
        let mut bounds = vec![0usize; 2 * n + 1];
        for c in &self.channels {
            check_ends(c.src, c.dst, n)?;
            if !c.is_control {
                Ports::segments(c, |segment| bounds[segment] += 1);
            }
        }
        let mut total = 0;
        for bound in &mut bounds {
            total += *bound;
            *bound = total;
        }
        let mut ports = vec![KpnChannelId(0); total];
        for (i, c) in self.channels.iter().enumerate().rev() {
            if !c.is_control {
                Ports::segments(c, |segment| {
                    bounds[segment] -= 1;
                    ports[bounds[segment]] = KpnChannelId(i);
                });
            }
        }
        Ok(Ports { bounds, ports })
    }

    /// Topological order of the stream processes (stream-input feeders
    /// first). This is the paper's deterministic tie-break order.
    ///
    /// # Errors
    ///
    /// [`AppModelError::BadEndpoint`] or [`AppModelError::UnknownProcess`]
    /// if a channel (data or control) has ends `add_channel*` would refuse
    /// — a deserialized graph can hold one;
    /// [`AppModelError::ControlInStream`] if a data-stream channel joins a
    /// stream process to a control process, and
    /// [`AppModelError::BadEndpoint`] if one has a control process at an end
    /// and no stream process;
    /// [`AppModelError::CyclicKpn`] if the data-stream graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<ProcessId>, AppModelError> {
        self.topological_order_over(&self.ports()?)
    }

    /// The refusal of the first data-stream channel, in channel order, with
    /// a control process at an end: [`AppModelError::ControlInStream`]
    /// naming the stream process at the other end, or
    /// [`AppModelError::BadEndpoint`] when the other end is a control
    /// process or a stream endpoint — no step of the mapping places a
    /// control process, so such a channel has an end nothing would map.
    fn control_in_stream(&self) -> Option<AppModelError> {
        let process = |end| match end {
            Endpoint::Process(p) => Some(&self.processes[p.0]),
            _ => None,
        };
        self.stream_channels().find_map(|(_, c)| {
            let (src, dst) = (process(c.src), process(c.dst));
            match (src, dst) {
                (Some(a), Some(b)) if a.is_control != b.is_control => {
                    Some(AppModelError::ControlInStream {
                        process: (if a.is_control { b } else { a }).name.clone(),
                    })
                }
                _ if [src, dst].into_iter().flatten().any(|p| p.is_control) => {
                    Some(AppModelError::BadEndpoint(
                        "a control process cannot end a data-stream channel",
                    ))
                }
                _ => None,
            }
        })
    }

    /// Kahn's algorithm over `ports`' successor lists, smallest index
    /// first, once no data-stream channel has a control process at an end.
    /// Such a channel is what could make the order wrong with the right
    /// length: a stream process fed by a control process never becomes
    /// ready, a control process fed by a stream process would enter the
    /// order, and a channel between a control process and the A/D, the Sink
    /// or another control process has an end no mapping step places.
    /// Without one, the order holds stream processes only, and all of them
    /// unless the stream graph has a cycle.
    pub(crate) fn topological_order_over(
        &self,
        ports: &Ports,
    ) -> Result<Vec<ProcessId>, AppModelError> {
        if let Some(error) = self.control_in_stream() {
            return Err(error);
        }
        let n = self.processes.len();
        let from_process =
            |ch: &KpnChannelId| matches!(self.channels[ch.0].src, Endpoint::Process(_));
        let mut indegree: Vec<usize> = (0..n)
            .map(|p| {
                ports
                    .inputs(ProcessId(p))
                    .iter()
                    .filter(|ch| from_process(ch))
                    .count()
            })
            .collect();
        let mut frontier: BinaryHeap<Reverse<usize>> = (0..n)
            .filter(|&p| !self.processes[p].is_control && indegree[p] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(next)) = frontier.pop() {
            order.push(ProcessId(next));
            for ch in ports.outputs(ProcessId(next)) {
                if let Endpoint::Process(d) = self.channels[ch.0].dst {
                    indegree[d.0] -= 1;
                    if indegree[d.0] == 0 {
                        frontier.push(Reverse(d.0));
                    }
                }
            }
        }
        if order.len() != self.stream_processes().count() {
            return Err(AppModelError::CyclicKpn);
        }
        Ok(order)
    }

    /// The graph a file holding these lists deserializes to.
    #[cfg(test)]
    pub(crate) fn from_lists(processes: Vec<Process>, channels: Vec<KpnChannel>) -> Self {
        ProcessGraph::from(ProcessGraphSerde {
            processes,
            channels,
        })
    }

    /// The order as it was computed before [`ProcessGraph::ports`]: a scan
    /// of every channel per ready process, the reference of the property
    /// tests.
    #[cfg(test)]
    pub(crate) fn reference_topological_order(&self) -> Result<Vec<ProcessId>, AppModelError> {
        let n = self.processes.len();
        let mut indegree = vec![0usize; n];
        let mut is_stream = vec![false; n];
        for (id, p) in self.processes() {
            is_stream[id.0] = !p.is_control;
        }
        for c in &self.channels {
            if c.src == Endpoint::StreamOutput {
                return Err(AppModelError::BadEndpoint("StreamOutput cannot produce"));
            }
            if c.dst == Endpoint::StreamInput {
                return Err(AppModelError::BadEndpoint("StreamInput cannot consume"));
            }
            for end in [c.src, c.dst] {
                if let Endpoint::Process(p) = end {
                    if p.0 >= n {
                        return Err(AppModelError::UnknownProcess(p.0));
                    }
                }
            }
            if c.is_control {
                continue;
            }
            if let (Endpoint::Process(_), Endpoint::Process(d)) = (c.src, c.dst) {
                indegree[d.0] += 1;
            }
        }
        for (_, c) in self.stream_channels() {
            let control = |end| matches!(end, Endpoint::Process(p) if !is_stream[p.0]);
            if !control(c.src) && !control(c.dst) {
                continue;
            }
            if let (Endpoint::Process(s), Endpoint::Process(d)) = (c.src, c.dst) {
                if is_stream[s.0] != is_stream[d.0] {
                    let stream = if is_stream[s.0] { s } else { d };
                    return Err(AppModelError::ControlInStream {
                        process: self.processes[stream.0].name.clone(),
                    });
                }
            }
            return Err(AppModelError::BadEndpoint(
                "a control process cannot end a data-stream channel",
            ));
        }
        let mut order = Vec::new();
        let mut frontier: Vec<usize> = (0..n)
            .filter(|&i| is_stream[i] && indegree[i] == 0)
            .collect();
        while let Some(&next) = frontier.iter().min() {
            frontier.retain(|&x| x != next);
            order.push(ProcessId(next));
            for (_, c) in self.stream_channels() {
                if let (Endpoint::Process(s), Endpoint::Process(d)) = (c.src, c.dst) {
                    if s.0 == next {
                        indegree[d.0] -= 1;
                        if indegree[d.0] == 0 {
                            frontier.push(d.0);
                        }
                    }
                }
            }
        }
        if order.len() != is_stream.iter().filter(|&&s| s).count() {
            return Err(AppModelError::CyclicKpn);
        }
        Ok(order)
    }
}

/// The rules a channel's ends keep, whether it was added or deserialized:
/// the stream output produces nothing, the stream input consumes nothing,
/// and a process end names one of the graph's `n` processes.
fn check_ends(src: Endpoint, dst: Endpoint, n: usize) -> Result<(), AppModelError> {
    if matches!(src, Endpoint::StreamOutput) {
        return Err(AppModelError::BadEndpoint("StreamOutput cannot produce"));
    }
    if matches!(dst, Endpoint::StreamInput) {
        return Err(AppModelError::BadEndpoint("StreamInput cannot consume"));
    }
    for end in [src, dst] {
        if let Endpoint::Process(p) = end {
            if p.0 >= n {
                return Err(AppModelError::UnknownProcess(p.0));
            }
        }
    }
    Ok(())
}

/// Each process's stream channels in port order — inputs, then outputs —
/// as one incidence list: what [`ProcessGraph::inputs_of`] and
/// [`ProcessGraph::outputs_of`] collect, for every process at once, built
/// by [`ProcessGraph::ports`] in one pass over the channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ports {
    /// `bounds[2p]..bounds[2p + 1]` index process `p`'s inputs in `ports`,
    /// `bounds[2p + 1]..bounds[2p + 2]` its outputs.
    bounds: Vec<usize>,
    ports: Vec<KpnChannelId>,
}

impl Ports {
    /// Calls `f` with the segment of each process end of stream channel `c`:
    /// its consumer's inputs, its producer's outputs.
    fn segments(c: &KpnChannel, mut f: impl FnMut(usize)) {
        if let Endpoint::Process(d) = c.dst {
            f(2 * d.0);
        }
        if let Endpoint::Process(s) = c.src {
            f(2 * s.0 + 1);
        }
    }

    /// Stream input channels of `process`, in port order.
    pub fn inputs(&self, process: ProcessId) -> &[KpnChannelId] {
        &self.ports[self.bounds[2 * process.0]..self.bounds[2 * process.0 + 1]]
    }

    /// Stream output channels of `process`, in port order.
    pub fn outputs(&self, process: ProcessId) -> &[KpnChannelId] {
        &self.ports[self.bounds[2 * process.0 + 1]..self.bounds[2 * process.0 + 2]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (ProcessGraph, Vec<ProcessId>) {
        let mut g = ProcessGraph::new();
        let a = g.add_process("a");
        let b = g.add_process("b");
        let c = g.add_process("c");
        g.add_channel(Endpoint::StreamInput, Endpoint::Process(a), 80)
            .unwrap();
        g.add_channel(Endpoint::Process(a), Endpoint::Process(b), 64)
            .unwrap();
        g.add_channel(Endpoint::Process(b), Endpoint::Process(c), 52)
            .unwrap();
        g.add_channel(Endpoint::Process(c), Endpoint::StreamOutput, 24)
            .unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn topological_order_of_chain() {
        let (g, ids) = chain();
        assert_eq!(g.topological_order().unwrap(), ids);
    }

    #[test]
    fn cycle_detected() {
        let mut g = ProcessGraph::new();
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_channel(Endpoint::Process(a), Endpoint::Process(b), 1)
            .unwrap();
        g.add_channel(Endpoint::Process(b), Endpoint::Process(a), 1)
            .unwrap();
        assert_eq!(g.topological_order(), Err(AppModelError::CyclicKpn));
    }

    #[test]
    fn dangling_endpoint_of_a_deserialized_graph_is_reported() {
        // What `add_channel` refuses can still be read from a file.
        let (good, ids) = chain();
        for is_control in [false, true] {
            let mut read = ProcessGraphSerde::from(good.clone());
            read.channels.push(KpnChannel {
                src: Endpoint::Process(ids[0]),
                dst: Endpoint::Process(ProcessId(99)),
                tokens_per_period: 1,
                is_control,
            });
            assert_eq!(
                ProcessGraph::from(read).topological_order(),
                Err(AppModelError::UnknownProcess(99))
            );
        }
    }

    #[test]
    fn control_channels_excluded_from_stream_views() {
        let (mut g, ids) = chain();
        let ctrl = g.add_control_process("ctrl");
        g.add_control_channel(Endpoint::Process(ctrl), Endpoint::Process(ids[2]), 1)
            .unwrap();
        assert_eq!(g.stream_channels().count(), 4);
        assert_eq!(g.channels().count(), 5);
        assert_eq!(g.stream_processes().count(), 3);
        assert_eq!(g.inputs_of(ids[2]).len(), 1);
        // Control process excluded from topological order.
        assert_eq!(g.topological_order().unwrap().len(), 3);
    }

    #[test]
    fn bad_endpoints_rejected() {
        let mut g = ProcessGraph::new();
        let a = g.add_process("a");
        assert!(g
            .add_channel(Endpoint::StreamOutput, Endpoint::Process(a), 1)
            .is_err());
        assert!(g
            .add_channel(Endpoint::Process(a), Endpoint::StreamInput, 1)
            .is_err());
        assert!(g
            .add_channel(Endpoint::Process(ProcessId(99)), Endpoint::Process(a), 1)
            .is_err());
    }

    #[test]
    fn port_order_is_insertion_order() {
        let mut g = ProcessGraph::new();
        let join = g.add_process("join");
        let a = g.add_process("a");
        let b = g.add_process("b");
        let c1 = g
            .add_channel(Endpoint::Process(a), Endpoint::Process(join), 4)
            .unwrap();
        let c2 = g
            .add_channel(Endpoint::Process(b), Endpoint::Process(join), 8)
            .unwrap();
        assert_eq!(g.inputs_of(join), vec![c1, c2]);
    }
}
