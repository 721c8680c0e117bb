//! The per-`map` spec table: everything steps 1, 2 and 4 need that depends
//! on the application alone, derived once per mapping call instead of once
//! per candidate.
//!
//! A [`SpecTable`] borrows one [`ApplicationSpec`] for the duration of one
//! `map` call and holds
//!
//! * the topological order of the stream processes (the paper's tie-break
//!   and scan order),
//! * each process's stream channels in port order — inputs then outputs in
//!   one row, which is also the incidence list step 2 rescans per
//!   candidate,
//! * the `(process, implementation) → TileClaim` table, filled **on first
//!   use**: a fast step-1 reject touches a handful of slots and pays for
//!   no more.
//!
//! Nothing here outlives the call. The spec's fields are public and callers
//! mutate them between maps, so a memo inside `ApplicationSpec` would need
//! invalidation; a table rebuilt per call needs none.

use crate::claims::claim_for;
use rtsm_app::{ApplicationSpec, Endpoint, Implementation, KpnChannel, KpnChannelId, ProcessId};
use rtsm_platform::TileClaim;
use std::cell::Cell;

/// Where process `p`'s rows start: `ports[port_start..port_split]` are its
/// inputs, `ports[port_split..next.port_start]` its outputs, and
/// `claims[claim_start + impl_index]` its claim slots.
#[derive(Debug, Clone, Copy)]
struct Row {
    port_start: u32,
    port_split: u32,
    claim_start: u32,
}

/// See the [module docs](self).
#[derive(Debug)]
pub struct SpecTable<'a> {
    spec: &'a ApplicationSpec,
    order: Vec<ProcessId>,
    /// One row per process plus a closing sentinel.
    rows: Vec<Row>,
    ports: Vec<KpnChannelId>,
    claims: Vec<Cell<Option<TileClaim>>>,
}

impl<'a> SpecTable<'a> {
    /// Builds the table of `spec` around its topological `order` (what
    /// [`ApplicationSpec::validated_order`] returned for this spec).
    pub fn new(spec: &'a ApplicationSpec, order: Vec<ProcessId>) -> Self {
        let n = spec.graph.n_processes();
        let mut rows = Vec::with_capacity(n + 1);
        let mut ports = Vec::with_capacity(2 * spec.graph.n_channels());
        let mut n_claims = 0usize;
        for (pid, _) in spec.graph.processes() {
            let port_start = ports.len() as u32;
            let side = |end: fn(&KpnChannel) -> Endpoint| {
                spec.graph
                    .stream_channels()
                    .filter(move |(_, c)| end(c) == Endpoint::Process(pid))
                    .map(|(id, _)| id)
            };
            ports.extend(side(|c| c.dst));
            let port_split = ports.len() as u32;
            ports.extend(side(|c| c.src));
            rows.push(Row {
                port_start,
                port_split,
                claim_start: n_claims as u32,
            });
            n_claims += spec.library.impls_for(pid).len();
        }
        let end = ports.len() as u32;
        rows.push(Row {
            port_start: end,
            port_split: end,
            claim_start: n_claims as u32,
        });
        SpecTable {
            spec,
            order,
            rows,
            ports,
            claims: vec![Cell::new(None); n_claims],
        }
    }

    /// The table of a spec that already passed
    /// [`ApplicationSpec::validate`] — what the spec-taking step functions
    /// build for themselves.
    ///
    /// # Panics
    ///
    /// Panics if the spec's stream graph is cyclic.
    pub fn for_validated(spec: &'a ApplicationSpec) -> Self {
        let order = spec
            .graph
            .topological_order()
            .expect("validated specs are acyclic");
        SpecTable::new(spec, order)
    }

    /// The specification this table was built from.
    pub fn spec(&self) -> &'a ApplicationSpec {
        self.spec
    }

    /// Topological order of the stream processes.
    pub fn order(&self) -> &[ProcessId] {
        &self.order
    }

    /// Stream input channels of `process`, in port order.
    pub fn inputs(&self, process: ProcessId) -> &[KpnChannelId] {
        let row = self.rows[process.index()];
        &self.ports[row.port_start as usize..row.port_split as usize]
    }

    /// Stream output channels of `process`, in port order.
    pub fn outputs(&self, process: ProcessId) -> &[KpnChannelId] {
        let row = self.rows[process.index()];
        let end = self.rows[process.index() + 1].port_start;
        &self.ports[row.port_split as usize..end as usize]
    }

    /// Every stream channel touching `process`: inputs, then outputs. A
    /// validated spec has no self-loops, so no channel appears twice.
    pub fn incident(&self, process: ProcessId) -> &[KpnChannelId] {
        let row = self.rows[process.index()];
        let end = self.rows[process.index() + 1].port_start;
        &self.ports[row.port_start as usize..end as usize]
    }

    /// The `impl_index`-th implementation of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `impl_index` is out of range.
    pub fn implementation(&self, process: ProcessId, impl_index: usize) -> &'a Implementation {
        &self.spec.library.impls_for(process)[impl_index]
    }

    /// Dense index of (`process`, `impl_index`) in `0..n_slots()`, for
    /// per-attempt side tables laid out like the claim table.
    pub fn slot(&self, process: ProcessId, impl_index: usize) -> usize {
        debug_assert!(impl_index < self.spec.library.impls_for(process).len());
        self.rows[process.index()].claim_start as usize + impl_index
    }

    /// Number of (process, implementation) pairs.
    pub fn n_slots(&self) -> usize {
        self.claims.len()
    }

    /// [`claim_for`] of (`process`, `impl_index`), computed on first use.
    pub fn claim(&self, process: ProcessId, impl_index: usize) -> TileClaim {
        let slot = &self.claims[self.slot(process, impl_index)];
        if let Some(claim) = slot.get() {
            return claim;
        }
        let claim = claim_for(self.spec, process, self.implementation(process, impl_index));
        slot.set(Some(claim));
        claim
    }

    /// [`ApplicationSpec::cycles_per_period`] of (`process`, `impl_index`),
    /// read off the port lists.
    pub fn cycles_per_period(&self, process: ProcessId, impl_index: usize) -> u64 {
        let tokens = |ports: &[KpnChannelId]| {
            ports
                .first()
                .map(|ch| self.spec.graph.channel(*ch).tokens_per_period)
        };
        self.implementation(process, impl_index)
            .cycles_per_period(tokens(self.inputs(process)), tokens(self.outputs(process)))
    }
}
