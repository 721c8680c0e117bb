//! CSDF → HSDF (homogeneous SDF) expansion.
//!
//! Every actor `a` with firing-repetition count `q_a` becomes `q_a` nodes,
//! one per firing within a graph iteration; inter-firing dependencies carry
//! initial-token counts equal to their iteration distance. For a live,
//! consistent graph the steady-state time per graph iteration equals the
//! maximum cycle ratio of the expansion ([`crate::mcr`]), which is how the
//! buffer-sizing search refutes a capacity vector without simulating it to
//! recurrence.
//!
//! [`expand`] builds the expansion as node and edge lists. The cycle test
//! reads a graph by in-edges (`InEdges`): `Rows` regroups such lists,
//! and `Expansion` works each in-edge out from the rates when it is asked
//! for, straight from a graph and a capacity per channel as bounds — no
//! copy of the graph, nothing stored per firing.

use crate::error::DataflowError;
use crate::graph::{ActorId, ActorSpec, ChannelId, CsdfGraph};
use crate::phase::PhaseVec;

/// A node of the expanded HSDF graph: firing `firing` of actor `actor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HsdfNode {
    /// Originating CSDF actor.
    pub actor: ActorId,
    /// Firing index within one graph iteration (`0..q_actor`).
    pub firing: u64,
    /// Execution time of this firing in time units.
    pub time: u64,
}

/// A dependency edge of the expanded HSDF graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HsdfEdge {
    /// Source node index into [`HsdfGraph::nodes`].
    pub from: usize,
    /// Destination node index into [`HsdfGraph::nodes`].
    pub to: usize,
    /// Iteration distance (initial tokens on the edge).
    pub tokens: u64,
}

/// The expanded homogeneous graph.
#[derive(Debug, Clone, Default)]
pub struct HsdfGraph {
    /// One node per actor firing per iteration.
    pub nodes: Vec<HsdfNode>,
    /// Dependency edges with iteration distances.
    pub edges: Vec<HsdfEdge>,
}

/// The fewest firings of an actor producing `rates` (cycled) that move at
/// least `tokens ≥ 1` tokens; `rates` must move some. O(runs of `rates`):
/// the inverse of [`PhaseVec::cumulative`].
fn firings_to_reach(rates: &PhaseVec, tokens: u64) -> u64 {
    let cycles = (tokens - 1) / rates.total();
    let mut left = tokens - cycles * rates.total();
    let mut firings = cycles * rates.len() as u64;
    for run in rates.runs() {
        let moved = run.value * u64::from(run.count);
        if moved >= left {
            return firings + left.div_ceil(run.value);
        }
        left -= moved;
        firings += u64::from(run.count);
    }
    unreachable!("one cycle of the rates moves their total")
}

/// The last data dependency of firing `j` (within an iteration) of the
/// consumer of a channel: the producer firing whose completion brings the
/// channel's tokens up to what firings `0..=j` consume, and the iteration
/// distance between the two. `total` is what one iteration moves (non-zero).
///
/// Consumer firing `j` of iteration `m` needs the channel's
/// `m·total + consumed(j) − initial_tokens`-th token, which is token
/// `need ∈ [1, total]` of the producer's iteration `m − shift`.
fn dependency(
    prod: &PhaseVec,
    cons: &PhaseVec,
    total: u64,
    initial_tokens: u64,
    j: u64,
) -> (u64, u64) {
    let consumed = cons.cumulative(j + 1);
    let (shift, need) = if consumed > initial_tokens {
        (0, consumed - initial_tokens)
    } else {
        let shift = (initial_tokens - consumed) / total + 1;
        (shift, shift * total + consumed - initial_tokens)
    };
    (firings_to_reach(prod, need) - 1, shift)
}

/// Tokens a channel's producer moves per graph iteration, for its firing
/// repetition `q_prod`.
fn per_iteration(prod: &PhaseVec, q_prod: u64) -> u64 {
    q_prod / prod.len() as u64 * prod.total()
}

/// Execution time of firing `f` of `actor`.
fn duration(actor: &ActorSpec, f: u64) -> u64 {
    actor.phase_duration((f % actor.n_phases() as u64) as usize)
}

/// Expands a CSDF graph into its HSDF equivalent.
///
/// Channel capacities must be expanded first
/// ([`CsdfGraph::expand_capacities`]); bounded channels are rejected.
///
/// # Errors
///
/// * [`DataflowError::Inconsistent`] if the graph has no repetition vector
///   or a bounded channel.
/// * [`DataflowError::Empty`] for an empty graph.
pub fn expand(graph: &CsdfGraph) -> Result<HsdfGraph, DataflowError> {
    for (_, ch) in graph.channels() {
        if ch.capacity.is_some() {
            return Err(DataflowError::Inconsistent {
                detail: "expand_capacities() must be applied before HSDF expansion".into(),
            });
        }
    }
    let q = graph.firing_repetition_vector()?;
    let mut nodes = Vec::new();
    let mut node_base = vec![0usize; graph.n_actors()];
    for (id, actor) in graph.actors() {
        node_base[id.index()] = nodes.len();
        for f in 0..q[id.index()] {
            nodes.push(HsdfNode {
                actor: id,
                firing: f,
                time: duration(actor, f),
            });
        }
    }

    let mut edges = Vec::new();
    // Sequential (no auto-concurrency) constraint per actor.
    for (id, _) in graph.actors() {
        let qa = q[id.index()];
        let base = node_base[id.index()];
        for f in 0..qa {
            let next = (f + 1) % qa;
            edges.push(HsdfEdge {
                from: base + f as usize,
                to: base + next as usize,
                tokens: u64::from(next == 0),
            });
        }
    }

    // Data dependencies per channel.
    for (_, ch) in graph.channels() {
        let (src, dst) = (ch.src.index(), ch.dst.index());
        let total = per_iteration(&ch.prod, q[src]);
        if total == 0 {
            // Channel never carries tokens (all-zero rates): no constraint.
            continue;
        }
        for j in 0..q[dst] {
            let (p, tokens) = dependency(&ch.prod, &ch.cons, total, ch.initial_tokens, j);
            edges.push(HsdfEdge {
                from: node_base[src] + p as usize,
                to: node_base[dst] + j as usize,
                tokens,
            });
        }
    }

    Ok(HsdfGraph { nodes, edges })
}

/// No node: an actor outside an [`Expansion`], or a node without a parent.
pub(crate) const NONE: u32 = u32::MAX;

/// A node-timed HSDF graph read by in-edges, as the cycle test of
/// [`crate::mcr`] walks it.
pub(crate) trait InEdges {
    /// Number of nodes; they are `0..nodes()`.
    fn nodes(&self) -> usize;

    /// Calls `edge(tail, time of tail, tokens)` for every in-edge of `v`.
    fn in_edges(&self, v: usize, edge: impl FnMut(usize, u64, u64));
}

/// An edge list regrouped by head, in compressed rows: node `v`'s in-edges
/// are `edges[off[v]..off[v + 1]]`, as `(tail, tokens)`.
#[derive(Debug)]
pub(crate) struct Rows {
    time: Vec<u64>,
    off: Vec<usize>,
    edges: Vec<(usize, u64)>,
}

impl Rows {
    pub(crate) fn new(graph: &HsdfGraph) -> Rows {
        let n = graph.nodes.len();
        let mut off = vec![0; n + 1];
        for e in &graph.edges {
            off[e.to + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut fill = off.clone();
        let mut edges = vec![(0, 0); graph.edges.len()];
        for e in &graph.edges {
            edges[fill[e.to]] = (e.from, e.tokens);
            fill[e.to] += 1;
        }
        Rows {
            time: graph.nodes.iter().map(|node| node.time).collect(),
            off,
            edges,
        }
    }
}

impl InEdges for Rows {
    fn nodes(&self) -> usize {
        self.time.len()
    }

    fn in_edges(&self, v: usize, mut edge: impl FnMut(usize, u64, u64)) {
        for &(u, tokens) in &self.edges[self.off[v]..self.off[v + 1]] {
            edge(u, self.time[u], tokens);
        }
    }
}

/// The HSDF expansion of a graph with every capacity as a bound — the
/// expansion of [`CsdfGraph::expand_capacities`], without the copy, at
/// capacities the caller may hold apart from the graph —
/// restricted to the firings of actors from which one target actor can be
/// reached: the only ones whose cycles pace it.
///
/// Nothing is stored per firing or per edge: firing `j` of an actor depends
/// on firing `j − 1`, and per channel into it on one producer firing, which
/// [`dependency`] finds from the rates in O(runs). A bounded channel adds
/// the reverse dependency, of its producer on the consumer firing that
/// frees the room it needs. O(actors + channels) words.
#[derive(Debug)]
pub(crate) struct Expansion<'g> {
    graph: &'g CsdfGraph,
    /// Per channel, the capacity it is expanded at.
    capacities: &'g [Option<u64>],
    /// Firings per iteration, per actor.
    q: Vec<u64>,
    /// First node per actor; `NONE` for one outside.
    base: Vec<u32>,
    /// The actors inside, in node order.
    kept: Vec<u32>,
    /// Per kept actor, in `kept` order: the channels it depends on,
    /// `deps[deps_off[k]..deps_off[k + 1]]`, each with `true` for the room
    /// of a bounded output channel and `false` for the data of an input.
    deps_off: Vec<u32>,
    deps: Vec<(u32, bool)>,
    nodes: usize,
}

impl<'g> Expansion<'g> {
    /// The expansion of `graph`, its channels at `capacities` (one per
    /// channel), reaching `target`. `reps` is the graph's cycle-repetition
    /// vector.
    ///
    /// # Errors
    ///
    /// * [`DataflowError::Overflow`] when the nodes outnumber `u32`.
    /// * [`DataflowError::Inconsistent`] for a capacity below its channel's
    ///   initial tokens, which the expansion cannot express.
    pub(crate) fn reaching(
        graph: &'g CsdfGraph,
        capacities: &'g [Option<u64>],
        reps: &[u64],
        target: ActorId,
    ) -> Result<Expansion<'g>, DataflowError> {
        let n_actors = graph.n_actors();
        // A channel that moves no tokens constrains nothing.
        let moving = || graph.channels().filter(|(_, ch)| ch.prod.total() > 0);

        // Actors with a path to `target`: data flows from producer to
        // consumer, and the room of a bounded channel back.
        let mut reaches = vec![false; n_actors];
        reaches[target.index()] = true;
        let mut stack = vec![target];
        while let Some(actor) = stack.pop() {
            for (c, ch) in moving() {
                let from = if ch.dst == actor {
                    ch.src
                } else if ch.src == actor && capacities[c.index()].is_some() {
                    ch.dst
                } else {
                    continue;
                };
                if !reaches[from.index()] {
                    reaches[from.index()] = true;
                    stack.push(from);
                }
            }
        }

        let q: Vec<u64> = graph
            .actors()
            .map(|(id, actor)| reps[id.index()] * actor.n_phases() as u64)
            .collect();
        let mut expansion = Expansion {
            graph,
            capacities,
            q,
            base: vec![NONE; n_actors],
            kept: Vec::new(),
            deps_off: vec![0],
            deps: Vec::new(),
            nodes: 0,
        };
        for (id, _) in graph.actors().filter(|(id, _)| reaches[id.index()]) {
            let a = id.index();
            expansion.base[a] = expansion.nodes as u32;
            expansion.nodes += expansion.q[a] as usize;
            if expansion.nodes >= NONE as usize {
                return Err(DataflowError::Overflow("HSDF expansion size"));
            }
            expansion.kept.push(a as u32);
            // A producer into a kept actor reaches it, and so does the
            // consumer of a bounded channel out of one: both are kept.
            for (c, ch) in moving() {
                if let Some(capacity) = capacities[c.index()].filter(|_| ch.src == id) {
                    if capacity < ch.initial_tokens {
                        return Err(DataflowError::Inconsistent {
                            detail: format!("capacity {capacity} below the initial tokens"),
                        });
                    }
                    expansion.deps.push((c.index() as u32, true));
                }
                if ch.dst == id {
                    expansion.deps.push((c.index() as u32, false));
                }
            }
            expansion.deps_off.push(expansion.deps.len() as u32);
        }
        Ok(expansion)
    }
}

impl InEdges for Expansion<'_> {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn in_edges(&self, v: usize, mut edge: impl FnMut(usize, u64, u64)) {
        let k = self
            .kept
            .partition_point(|&a| self.base[a as usize] as usize <= v)
            - 1;
        let a = self.kept[k] as usize;
        let (first, q) = (self.base[a] as usize, self.q[a]);
        let j = (v - first) as u64;
        // Firing `j` follows `j − 1`; firing 0 the previous iteration's last.
        let prev = if j == 0 { q - 1 } else { j - 1 };
        let actor = self.graph.actor(ActorId(a));
        edge(
            first + prev as usize,
            duration(actor, prev),
            u64::from(j == 0),
        );
        for &(c, room) in &self.deps[self.deps_off[k] as usize..self.deps_off[k + 1] as usize] {
            let ch = self.graph.channel(ChannelId(c as usize));
            let (producer, rates, needs, initial_tokens) = if room {
                // What the consumer frees, `capacity − initial_tokens` free
                // from the start.
                let capacity =
                    self.capacities[c as usize].expect("room is asked of bounded channels");
                (ch.dst, &ch.cons, &ch.prod, capacity - ch.initial_tokens)
            } else {
                (ch.src, &ch.prod, &ch.cons, ch.initial_tokens)
            };
            let q_prod = self.q[producer.index()];
            let total = per_iteration(rates, q_prod);
            let (p, tokens) = dependency(rates, needs, total, initial_tokens, j);
            edge(
                self.base[producer.index()] as usize + p as usize,
                duration(self.graph.actor(producer), p),
                tokens,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseVec;

    #[test]
    fn sdf_expansion_counts() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(2), 1);
        let b = g.add_actor("b", PhaseVec::single(3), 1);
        g.add_channel(a, b, PhaseVec::single(2), PhaseVec::single(3))
            .unwrap();
        let h = expand(&g).unwrap();
        // q = [3, 2]: 5 nodes; 5 sequential edges + 2 data edges.
        assert_eq!(h.nodes.len(), 5);
        assert_eq!(h.edges.len(), 7);
    }

    #[test]
    fn same_iteration_dependency_has_zero_tokens() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        let h = expand(&g).unwrap();
        let data_edge = h
            .edges
            .iter()
            .find(|e| h.nodes[e.from].actor != h.nodes[e.to].actor)
            .unwrap();
        assert_eq!(data_edge.tokens, 0);
    }

    #[test]
    fn initial_tokens_become_iteration_distance() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 2, None)
            .unwrap();
        let h = expand(&g).unwrap();
        let data_edge = h
            .edges
            .iter()
            .find(|e| h.nodes[e.from].actor != h.nodes[e.to].actor)
            .unwrap();
        assert_eq!(data_edge.tokens, 2);
    }

    #[test]
    fn bounded_channel_rejected() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::single(1), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel_full(a, b, PhaseVec::single(1), PhaseVec::single(1), 0, Some(4))
            .unwrap();
        assert!(expand(&g).is_err());
        assert!(expand(&g.expand_capacities()).is_ok());
    }

    #[test]
    fn csdf_phases_expand_to_distinct_times() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::from_slice(&[2, 7]), 1);
        let b = g.add_actor("b", PhaseVec::single(1), 1);
        g.add_channel(a, b, PhaseVec::from_slice(&[1, 1]), PhaseVec::single(2))
            .unwrap();
        let h = expand(&g).unwrap();
        // q = [2, 1] (a fires 2 per iteration producing 2; b consumes 2).
        let times: Vec<u64> = h
            .nodes
            .iter()
            .filter(|n| n.actor == a)
            .map(|n| n.time)
            .collect();
        assert_eq!(times, vec![2, 7]);
    }

    #[test]
    fn firings_to_reach_inverts_cumulative() {
        for values in [&[3, 0, 1][..], &[0, 2], &[4], &[1, 1, 0, 5]] {
            let rates = PhaseVec::from_slice(values);
            for tokens in 1..=3 * rates.total() {
                let k = firings_to_reach(&rates, tokens);
                assert!(rates.cumulative(k) >= tokens, "{rates} {tokens}");
                assert!(rates.cumulative(k - 1) < tokens, "{rates} {tokens}");
            }
        }
    }

    /// A bounded multi-rate chain and a loop hanging off it behind an
    /// unbounded channel.
    fn chain_with_a_loop() -> (CsdfGraph, ActorId) {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", PhaseVec::from_slice(&[2, 3]), 1);
        let b = g.add_actor("b", PhaseVec::from_slice(&[1, 4, 1]), 1);
        let c = g.add_actor("c", PhaseVec::single(5), 1);
        let x = g.add_actor("x", PhaseVec::single(7), 1);
        g.add_channel_full(
            a,
            b,
            PhaseVec::from_slice(&[1, 2]),
            PhaseVec::from_slice(&[1, 0, 1]),
            1,
            Some(5),
        )
        .unwrap();
        g.add_channel_full(
            b,
            c,
            PhaseVec::from_slice(&[2, 0, 1]),
            PhaseVec::single(3),
            0,
            Some(4),
        )
        .unwrap();
        g.add_channel(c, x, PhaseVec::single(1), PhaseVec::single(1))
            .unwrap();
        g.add_channel_full(x, x, PhaseVec::single(1), PhaseVec::single(1), 1, None)
            .unwrap();
        (g, a)
    }

    /// Every in-edge of every node, sorted, by head.
    fn listed(graph: &impl InEdges) -> Vec<Vec<(usize, u64, u64)>> {
        (0..graph.nodes())
            .map(|v| {
                let mut edges = Vec::new();
                graph.in_edges(v, |u, time, tokens| edges.push((u, time, tokens)));
                edges.sort_unstable();
                edges
            })
            .collect()
    }

    #[test]
    fn the_expansion_is_that_of_the_expanded_capacities_within_reach() {
        let (g, a) = chain_with_a_loop();
        let reps = g.repetition_vector().unwrap();
        let capacities: Vec<_> = g.channels().map(|(_, c)| c.capacity).collect();
        let implicit = Expansion::reaching(&g, &capacities, &reps, a).unwrap();
        // `x` cannot reach `a`; the others are the first nodes, in order.
        let inside = expand(&g.expand_capacities()).unwrap();
        let kept = inside.nodes.iter().filter(|n| n.actor.index() < 3).count();
        assert_eq!(implicit.nodes(), kept);
        let rows = listed(&Rows::new(&inside));
        let only_inside = |edges: &Vec<(usize, u64, u64)>| {
            edges
                .iter()
                .copied()
                .filter(|&(u, _, _)| u < kept)
                .collect::<Vec<_>>()
        };
        let expected: Vec<_> = rows[..kept].iter().map(only_inside).collect();
        assert_eq!(listed(&implicit), expected);
    }
}
