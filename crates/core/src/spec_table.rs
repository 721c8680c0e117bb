//! What steps 1, 2 and 4 need that depends on the application alone, in two
//! parts: the compiled spec a thread keeps, and the per-`map` view of it.
//!
//! A [`CompiledSpec`] is derived once from a spec that passed validation:
//!
//! * the topological order of the stream processes (the paper's tie-break
//!   and scan order),
//! * each process's stream channels in port order — inputs then outputs in
//!   one row, which is also step 2's neighbour row of the process,
//! * where each process's (process, implementation) slots start.
//!
//! It is built in one pass over the spec's incidence list
//! ([`ApplicationSpec::validated_ports`]) and packed as 16-bit indices in
//! one boxed slice (32-bit when a count does not fit), so a catalog spec's
//! entry is under 100 bytes. The thread's store keeps it under the spec's
//! [`structural_digest`](ApplicationSpec::structural_digest), and
//! [`SpatialMapper::map`](crate::SpatialMapper::map) looks it up instead of
//! validating and deriving the spec again. The spec's fields are public and
//! callers mutate them between maps; the digest mixes all four, so a mutated
//! spec is another key, never a stale entry. An entry whose process, channel
//! or implementation count differs from the spec's (two specs sharing a
//! 64-bit digest) is a miss, and only a spec that validates is stored, so an
//! invalid one is refused with the same error on every call.
//!
//! A [`SpecTable`] borrows the spec for the duration of one `map` call. It
//! copies the compiled entry's rows into one 32-bit slice — a copy, not a
//! derivation: the steps then iterate plain slices instead of decoding the
//! packed units value by value — and fills the `(process, implementation)
//! → TileClaim` table when it is built: each process's traffic is summed
//! once over its port rows, then each of its implementations gets the
//! claim [`claim_for`](crate::claims::claim_for) would compute. No claim is
//! kept between calls.

use crate::claims::claim_of;
use crate::store;
use rtsm_app::{AppModelError, ApplicationSpec, Implementation, KpnChannelId, ProcessId};
use rtsm_platform::TileClaim;

/// Values before the order: process, channel and implementation counts,
/// then the order's length.
const HEADER: usize = 4;

/// A validated spec's order and port rows (see the [module docs](self)).
///
/// One boxed slice of 16-bit units: unit 0 is the width of a value in
/// units (1, or 2 when some value needs 32 bits), then the values — the
/// `HEADER`, the order, each process's port bounds (`2p`: first input,
/// `2p + 1`: first output, `2p + 2`: end), each process's first slot plus
/// the slot count, and the port rows as channel indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSpec {
    units: Box<[u16]>,
}

impl CompiledSpec {
    /// Validates `spec` and compiles it, without consulting the thread's
    /// store.
    ///
    /// # Errors
    ///
    /// The first rule [`ApplicationSpec::validate`] finds violated.
    pub fn compile(spec: &ApplicationSpec) -> Result<Self, AppModelError> {
        let (order, ports) = spec.validated_ports()?;
        let n = spec.graph.n_processes();
        let pids = || (0..n).map(ProcessId::from_index);
        let n_ports: usize = pids()
            .map(|p| ports.inputs(p).len() + ports.outputs(p).len())
            .sum();
        let mut values = Vec::with_capacity(HEADER + order.len() + 3 * n + 2 + n_ports);
        values.extend([n, spec.graph.n_channels(), spec.library.len(), order.len()]);
        values.extend(order.iter().map(ProcessId::index));
        let mut end = 0;
        values.push(end);
        for p in pids() {
            for side in [ports.inputs(p), ports.outputs(p)] {
                end += side.len();
                values.push(end);
            }
        }
        let mut slots = 0;
        values.push(slots);
        for p in pids() {
            slots += spec.library.impls_for(p).len();
            values.push(slots);
        }
        for p in pids() {
            values.extend(ports.inputs(p).iter().map(KpnChannelId::index));
            values.extend(ports.outputs(p).iter().map(KpnChannelId::index));
        }
        let narrow = values.iter().all(|&v| v <= usize::from(u16::MAX));
        let units = if narrow {
            std::iter::once(1)
                .chain(values.iter().map(|&v| v as u16))
                .collect()
        } else {
            let wide = |v: usize| u32::try_from(v).expect("a spec's counts fit 32 bits");
            std::iter::once(2)
                .chain(values.iter().flat_map(|&v| {
                    let v = wide(v);
                    [v as u16, (v >> 16) as u16]
                }))
                .collect()
        };
        Ok(CompiledSpec { units })
    }

    /// Whether some value takes two units.
    #[cfg(test)]
    pub(crate) fn is_wide(&self) -> bool {
        self.units[0] == 2
    }

    /// The values from the `from`-th on, 32 bits each.
    fn values(&self, from: usize) -> Box<[u32]> {
        if self.units[0] == 1 {
            self.units[1 + from..]
                .iter()
                .map(|&unit| u32::from(unit))
                .collect()
        } else {
            self.units[1 + 2 * from..]
                .chunks_exact(2)
                .map(|pair| u32::from(pair[0]) | u32::from(pair[1]) << 16)
                .collect()
        }
    }

    /// The `i`-th value.
    fn value(&self, i: usize) -> usize {
        if self.units[0] == 1 {
            usize::from(self.units[1 + i])
        } else {
            usize::from(self.units[1 + 2 * i]) | usize::from(self.units[2 + 2 * i]) << 16
        }
    }

    /// Whether this entry's process, channel and implementation counts are
    /// `spec`'s — the guard of a lookup by digest.
    pub(crate) fn counts_match(&self, spec: &ApplicationSpec) -> bool {
        self.value(0) == spec.graph.n_processes()
            && self.value(1) == spec.graph.n_channels()
            && self.value(2) == spec.library.len()
    }

    /// Bytes the entry's slice occupies.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.units)
    }
}

/// See the [module docs](self).
#[derive(Debug)]
pub struct SpecTable<'a> {
    spec: &'a ApplicationSpec,
    /// The compiled spec's values past the [`HEADER`], 32 bits each: the
    /// order, then the port bounds from `bounds_at`, the slot starts from
    /// `slots_at` and the port rows from `ports_at`.
    rows: Box<[u32]>,
    bounds_at: usize,
    slots_at: usize,
    ports_at: usize,
    /// [`SpecTable::claim`] of every slot, in slot order.
    claims: Box<[TileClaim]>,
}

impl<'a> SpecTable<'a> {
    /// The table of `spec` over `compiled`, which must have been compiled
    /// from it.
    pub fn new(spec: &'a ApplicationSpec, compiled: &CompiledSpec) -> Self {
        debug_assert!(compiled.counts_match(spec));
        let n = compiled.value(0);
        let bounds_at = compiled.value(3);
        let slots_at = bounds_at + 2 * n + 1;
        let ports_at = slots_at + n + 1;
        let rows = compiled.values(HEADER);
        let mut claims = Vec::with_capacity(rows[ports_at - 1] as usize);
        let mut table = SpecTable {
            spec,
            rows,
            bounds_at,
            slots_at,
            ports_at,
            claims: Box::default(),
        };
        // Slots run in process order, a process's in implementation order.
        for process in (0..n).map(ProcessId::from_index) {
            let (first_in, ejection) = table.traffic(table.inputs(process));
            let (first_out, injection) = table.traffic(table.outputs(process));
            for implementation in spec.library.impls_for(process) {
                let (tokens, words) = ((first_in, first_out), (injection, ejection));
                claims.push(claim_of(spec, implementation, tokens, words));
            }
        }
        table.claims = claims.into_boxed_slice();
        table
    }

    /// The table of a spec that already passed
    /// [`ApplicationSpec::validate`], compiled through the thread's store —
    /// what the spec-taking step functions build for themselves.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate.
    pub fn for_validated(spec: &'a ApplicationSpec) -> Self {
        store::table(spec).expect("the spec validates")
    }

    /// The specification this table was built from.
    pub fn spec(&self) -> &'a ApplicationSpec {
        self.spec
    }

    /// Port rows between segment bounds `from` and `to` (`2p` is process
    /// `p`'s first input, `2p + 1` its first output).
    fn ports(
        &self,
        from: usize,
        to: usize,
    ) -> impl ExactSizeIterator<Item = KpnChannelId> + Clone + '_ {
        let bound = |segment: usize| self.ports_at + self.rows[self.bounds_at + segment] as usize;
        self.rows[bound(from)..bound(to)]
            .iter()
            .map(|&ch| KpnChannelId::from_index(ch as usize))
    }

    /// Topological order of the stream processes.
    pub fn order(&self) -> impl ExactSizeIterator<Item = ProcessId> + Clone + '_ {
        self.rows[..self.bounds_at]
            .iter()
            .map(|&p| ProcessId::from_index(p as usize))
    }

    /// Stream input channels of `process`, in port order.
    pub fn inputs(
        &self,
        process: ProcessId,
    ) -> impl ExactSizeIterator<Item = KpnChannelId> + Clone + '_ {
        let p = process.index();
        self.ports(2 * p, 2 * p + 1)
    }

    /// Stream output channels of `process`, in port order.
    pub fn outputs(
        &self,
        process: ProcessId,
    ) -> impl ExactSizeIterator<Item = KpnChannelId> + Clone + '_ {
        let p = process.index();
        self.ports(2 * p + 1, 2 * p + 2)
    }

    /// Every stream channel touching `process`: inputs, then outputs. A
    /// validated spec has no self-loops, so no channel appears twice.
    pub fn incident(
        &self,
        process: ProcessId,
    ) -> impl ExactSizeIterator<Item = KpnChannelId> + Clone + '_ {
        let p = process.index();
        self.ports(2 * p, 2 * p + 2)
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
        self.rows[self.slots_at + process.index()] as usize + impl_index
    }

    /// Number of (process, implementation) pairs.
    pub fn n_slots(&self) -> usize {
        self.claims.len()
    }

    /// Tokens per period of `ports`' first channel, and the words per
    /// second all of them carry.
    fn traffic(&self, ports: impl Iterator<Item = KpnChannelId>) -> (Option<u64>, u64) {
        let (mut first, mut words) = (None, 0u64);
        for ch in ports {
            let tokens = self.spec.graph.channel(ch).tokens_per_period;
            first.get_or_insert(tokens);
            words += self.spec.qos.words_per_second(tokens);
        }
        (first, words)
    }

    /// Tokens per period of `ports`' first channel.
    fn first_tokens(&self, mut ports: impl Iterator<Item = KpnChannelId>) -> Option<u64> {
        ports
            .next()
            .map(|ch| self.spec.graph.channel(ch).tokens_per_period)
    }

    /// [`claim_for`](crate::claims::claim_for) of (`process`,
    /// `impl_index`).
    pub fn claim(&self, process: ProcessId, impl_index: usize) -> TileClaim {
        self.claims[self.slot(process, impl_index)]
    }

    /// [`ApplicationSpec::cycles_per_period`] of (`process`, `impl_index`),
    /// read off the port rows.
    pub fn cycles_per_period(&self, process: ProcessId, impl_index: usize) -> u64 {
        self.implementation(process, impl_index).cycles_per_period(
            self.first_tokens(self.inputs(process)),
            self.first_tokens(self.outputs(process)),
        )
    }
}
