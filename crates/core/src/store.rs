//! The thread's store of what the mapper derives from an application alone:
//! compiled specs by [`structural_digest`](ApplicationSpec::structural_digest)
//! (see [`spec_table`](crate::spec_table)) and step 4's analyses by mapping
//! signature (see [`step4`](crate::step4)).
//!
//! Thread-local, so the experiment harness's workers and the benchmark's
//! repeats never share state and a fresh thread starts cold. Each half is
//! bounded and cleared whole when full — a deterministic flush, unlike LRU
//! tie-breaking on hash order. Every stored answer is a pure function of
//! its key, so what the store holds changes timings, never a decision.

use crate::spec_table::{CompiledSpec, SpecTable};
use crate::step4::Analysis;
use rtsm_app::{AppModelError, ApplicationSpec};
use std::cell::RefCell;
use std::collections::HashMap;

/// Entry bound of the compiled specs: a catalog's worth, several times over.
pub(crate) const SPEC_CAP: usize = 64;

/// Entry bound of step 4's analyses.
pub(crate) const ANALYSIS_CAP: usize = 512;

/// See the [module docs](self).
#[derive(Default)]
pub(crate) struct Store {
    /// By digest, in insertion order: a catalog's few specs are found by a
    /// scan sooner than a hash of the key is computed.
    pub(crate) specs: Vec<(u64, CompiledSpec)>,
    pub(crate) analyses: HashMap<u128, Analysis>,
}

thread_local! {
    static STORE: RefCell<Store> = RefCell::new(Store::default());
}

/// `f` over this thread's store.
pub(crate) fn with<T>(f: impl FnOnce(&mut Store) -> T) -> T {
    STORE.with(|store| f(&mut store.borrow_mut()))
}

/// The table of `spec` over its compiled entry: the stored one when its
/// counts match the spec's, otherwise compiled now and stored if it
/// validates.
///
/// # Errors
///
/// The first rule [`ApplicationSpec::validate`] finds violated, on every
/// call: nothing is stored for an invalid spec.
pub(crate) fn table(spec: &ApplicationSpec) -> Result<SpecTable<'_>, AppModelError> {
    let key = spec.structural_digest();
    let stored = with(|store| {
        let (_, compiled) = store.specs.iter().find(|(k, _)| *k == key)?;
        compiled
            .counts_match(spec)
            .then(|| SpecTable::new(spec, compiled))
    });
    if let Some(table) = stored {
        return Ok(table);
    }
    let compiled = CompiledSpec::compile(spec)?;
    let table = SpecTable::new(spec, &compiled);
    with(|store| {
        store.specs.retain(|(k, _)| *k != key);
        if store.specs.len() >= SPEC_CAP {
            store.specs.clear();
        }
        store.specs.push((key, compiled));
    });
    Ok(table)
}

/// Stores step 4's `analysis` of the mappings with `signature`.
pub(crate) fn remember(signature: u128, analysis: Analysis) {
    with(|store| {
        if store.analyses.len() >= ANALYSIS_CAP {
            store.analyses.clear();
        }
        store.analyses.insert(signature, analysis);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapperConfig, SpatialMapper, SpecTable};
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_app::{Endpoint, Implementation, ImplementationLibrary, ProcessGraph, QosSpec};
    use rtsm_dataflow::PhaseVec;
    use rtsm_platform::paper::paper_platform;
    use rtsm_platform::TileKind;
    use rtsm_workloads::apps::{dvbt_rx, jpeg_encoder, mp3_decoder, wlan_tx};

    fn specs() -> usize {
        with(|store| store.specs.len())
    }

    #[test]
    fn an_entry_whose_counts_differ_from_the_spec_is_a_miss() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let other = wlan_tx();
        let planted = CompiledSpec::compile(&other).unwrap();
        assert!(!planted.counts_match(&spec));
        // What another spec sharing this one's digest would have left.
        let key = spec.structural_digest();
        with(|store| store.specs.push((key, planted)));
        let order: Vec<_> = table(&spec).unwrap().order().collect();
        assert_eq!(order, spec.validated_order().unwrap());
        let kept = with(|store| store.specs.clone());
        let compiled = CompiledSpec::compile(&spec).unwrap();
        assert_eq!(
            kept,
            [(key, compiled)],
            "the compiled spec replaces the entry"
        );
    }

    #[test]
    fn more_specs_than_the_cap_change_no_answer_and_stay_bounded() {
        let platform = paper_platform();
        let empty = platform.initial_state();
        let mapper = SpatialMapper::new(MapperConfig::default().without_capture());
        let base = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let expected = mapper.map(&base, &platform, &empty).unwrap();
        // Renamed copies: one digest each, the same mapping. Twice round,
        // so names come back after the flushes evicted them.
        for round in 0..2 {
            for i in 0..SPEC_CAP + SPEC_CAP / 2 {
                let mut spec = base.clone();
                spec.name = format!("copy {i}");
                assert_eq!(mapper.map(&spec, &platform, &empty).unwrap(), expected);
                assert!(specs() <= SPEC_CAP, "round {round}, copy {i}");
            }
        }
        // Every map compiled: 2 · 96 + 1 entries made, the store flushed
        // whole before each 65th.
        let made = 2 * (SPEC_CAP + SPEC_CAP / 2) + 1;
        assert_eq!(specs(), (made - 1) % SPEC_CAP + 1);
    }

    #[test]
    fn an_invalid_spec_is_not_stored() {
        let mut spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        spec.library = ImplementationLibrary::new();
        let before = specs();
        for _ in 0..2 {
            assert!(matches!(
                table(&spec),
                Err(AppModelError::NoImplementation { .. })
            ));
        }
        assert_eq!(specs(), before);
    }

    /// A catalog spec's entry stays under 100 bytes (68 for HIPERLAN/2, 86
    /// for the largest `mixed` spec): the store keeps one per spec a thread
    /// has mapped.
    #[test]
    fn catalog_entries_are_packed() {
        let catalog = Hiperlan2Mode::ALL
            .iter()
            .map(|&mode| hiperlan2_receiver(mode))
            .chain([wlan_tx(), jpeg_encoder(), mp3_decoder(), dvbt_rx()]);
        for spec in catalog {
            let bytes = CompiledSpec::compile(&spec).unwrap().heap_bytes();
            assert!(bytes < 100, "`{}`: {bytes} bytes", spec.name);
        }
    }

    /// A channel index past `u16::MAX` widens every value to 32 bits, and
    /// the table reads the same rows.
    #[test]
    fn a_spec_too_large_for_16_bits_compiles_wide() {
        let mut graph = ProcessGraph::new();
        let ctrl = graph.add_control_process("ctrl");
        let work = graph.add_process("work");
        for _ in 0..70_000 {
            graph
                .add_control_channel(Endpoint::Process(ctrl), Endpoint::Process(work), 1)
                .unwrap();
        }
        let input = graph
            .add_channel(Endpoint::StreamInput, Endpoint::Process(work), 8)
            .unwrap();
        let output = graph
            .add_channel(Endpoint::Process(work), Endpoint::StreamOutput, 8)
            .unwrap();
        let mut library = ImplementationLibrary::new();
        library.register(
            work,
            Implementation::simple(
                "work @ ARM",
                TileKind::Arm,
                PhaseVec::single(10),
                PhaseVec::single(2),
                PhaseVec::single(2),
                1000,
                64,
            ),
        );
        let spec = ApplicationSpec {
            name: "wide".into(),
            graph,
            qos: QosSpec::with_period(1_000_000),
            library,
        };
        let compiled = CompiledSpec::compile(&spec).unwrap();
        assert!(compiled.is_wide());
        let table = SpecTable::new(&spec, &compiled);
        assert_eq!(table.order().collect::<Vec<_>>(), [work]);
        assert_eq!(table.inputs(work).collect::<Vec<_>>(), [input]);
        assert_eq!(table.outputs(work).collect::<Vec<_>>(), [output]);
        assert_eq!(table.inputs(ctrl).len() + table.outputs(ctrl).len(), 0);
        assert_eq!((table.slot(work, 0), table.n_slots()), (0, 1));
        assert_eq!(
            table.claim(work, 0),
            crate::claims::claim_for(&spec, work, spec.library.impls_for(work).first().unwrap())
        );
    }
}
