//! Resource claims derived from an implementation choice.

use rtsm_app::{ApplicationSpec, Endpoint, Implementation, ProcessId};
use rtsm_platform::TileClaim;

/// The tile resources a process claims when `implementation` serves it:
/// one compute slot, the implementation's memory, its WCET as a share of
/// the tile's cycle budget, and NI bandwidth for its channel traffic.
///
/// One pass over the stream channels and no allocation: besides the
/// mapper's [`SpecTable`](crate::spec_table::SpecTable), it serves
/// [`MappingOutcome::stage_commit`](crate::MappingOutcome::stage_commit)
/// and `stage_release` called directly, the manager's
/// [`Demand`](crate::runtime::Demand) (worked out once per specification,
/// and what the manager stages and releases with), template learning and
/// the baselines.
pub fn claim_for(
    spec: &ApplicationSpec,
    process: ProcessId,
    implementation: &Implementation,
) -> TileClaim {
    let here = Endpoint::Process(process);
    // Traffic of the first input and output channel (port 0 of each side),
    // from which the phase-cycles per period derive.
    let (mut first_in, mut first_out) = (None, None);
    let (mut ejection, mut injection) = (0u64, 0u64);
    for (_, ch) in spec.graph.stream_channels() {
        if ch.dst == here {
            first_in.get_or_insert(ch.tokens_per_period);
            ejection += spec.qos.words_per_second(ch.tokens_per_period);
        }
        if ch.src == here {
            first_out.get_or_insert(ch.tokens_per_period);
            injection += spec.qos.words_per_second(ch.tokens_per_period);
        }
    }
    claim_of(
        spec,
        implementation,
        (first_in, first_out),
        (injection, ejection),
    )
}

/// The claim of `implementation` given the tokens per period of its first
/// input and output port and its total injection and ejection in words per
/// second — what [`claim_for`] gathers in a scan of the channels and the
/// [`SpecTable`](crate::spec_table::SpecTable) reads off its port rows.
pub(crate) fn claim_of(
    spec: &ApplicationSpec,
    implementation: &Implementation,
    (first_in, first_out): (Option<u64>, Option<u64>),
    (injection, ejection): (u64, u64),
) -> TileClaim {
    let wcet =
        implementation.wcet_per_period(implementation.cycles_per_period(first_in, first_out));
    // cycles/period ÷ period_ps × 1e12 ps/s = cycles/second.
    let cycles_per_second =
        (wcet as u128 * 1_000_000_000_000u128 / spec.qos.period_ps as u128) as u64;
    TileClaim {
        slots: 1,
        memory_bytes: implementation.memory_bytes,
        cycles_per_second,
        injection,
        ejection,
    }
}

/// The part of a claim that is *reserved* when a process is assigned to a
/// tile in steps 1–2: slot, memory and cycles. The NI fields of
/// [`claim_for`] are a **filter** ("tiles … that have sufficient
/// communication resources … at least, locally", §3.2); actual NI bandwidth
/// is reserved per channel by step 3's route allocation, so reserving it
/// here too would double-count.
pub fn reservation_of(claim: &TileClaim) -> TileClaim {
    TileClaim {
        injection: 0,
        ejection: 0,
        ..*claim
    }
}

/// The [`reservation_of`] a [`claim_for`] of `memory_bytes` and
/// `cycles_per_second`: one compute slot, those two, and no NI bandwidth —
/// what the manager's demand and a template's shape keep of a claim.
pub(crate) fn hard_reservation(memory_bytes: u64, cycles_per_second: u64) -> TileClaim {
    TileClaim {
        slots: 1,
        memory_bytes,
        cycles_per_second,
        injection: 0,
        ejection: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::TileKind;

    #[test]
    fn prefix_removal_arm_claim() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let pfx = spec.graph.process_by_name("Prefix removal").unwrap();
        let arm = spec.library.impl_for(pfx, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, pfx, arm);
        // 324 cycles per 4 µs = 81e6 cycles/s.
        assert_eq!(claim.cycles_per_second, 81_000_000);
        // Input 80 tokens/4 µs = 20M words/s; output 64 → 16M words/s.
        assert_eq!(claim.ejection, 20_000_000);
        assert_eq!(claim.injection, 16_000_000);
        assert_eq!(claim.slots, 1);
    }

    #[test]
    fn frq_arm_claim_accounts_for_eight_cycles() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
        let arm = spec.library.impl_for(frq, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, frq, arm);
        // 8 firing-cycles × 68 cycles per 4 µs = 136e6 cycles/s.
        assert_eq!(claim.cycles_per_second, 136_000_000);
    }

    #[test]
    fn iofdm_arm_exceeds_200mhz_budget() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let iofdm = spec.graph.process_by_name("Inverse OFDM").unwrap();
        let arm = spec.library.impl_for(iofdm, TileKind::Arm).unwrap();
        let claim = claim_for(&spec, iofdm, arm);
        // 4370 cycles per 4 µs = 1.0925e9 cycles/s > 200e6: infeasible on
        // the paper platform's 200 MHz tiles.
        assert!(claim.cycles_per_second > 200_000_000);
    }
}
