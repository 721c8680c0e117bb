//! The paper's case study: a HIPERLAN/2 receiver (Figure 1 + Table 1).
//!
//! The receiver decomposes into four data-stream processes — *Prefix
//! removal*, *Frequency offset correction*, *Inverse OFDM* and *Remainder*
//! (the paper groups equalization, phase-offset correction and demapping
//! into one process) — plus a control process that selects the demapping
//! mode at frame starts and is "not part of the data stream".
//!
//! One OFDM symbol (80 complex 32-bit samples) arrives every 4 µs; the
//! demapped output size `b` depends on the receiver mode: the standard's
//! seven modes span 12 bytes (3 words, BPSK) to 384 bytes (96 words, QAM64)
//! per symbol (§4.1).
//!
//! # Model notes (documented substitutions)
//!
//! * The ARM Inverse-OFDM output is normalised from Table 1's 64 tokens to
//!   the 52 useful carriers, matching Figure 1's edge label (the 12 extra
//!   tokens are padding the grouped Remainder discards; the paper's
//!   walk-through maps Inverse OFDM on a MONTIUM, so Table 2 / Figure 3 are
//!   unaffected).
//! * The ARM Remainder's third input phase reads the mode word from CTRL,
//!   not stream data; its data port is ⟨52,0,0⟩.
//! * The MONTIUM Remainder WCET phase `73−b` is clamped at 1 cycle
//!   (only QAM64's `b = 96` exceeds 72).

use crate::als::ApplicationSpec;
use crate::implementation::Implementation;
use crate::kpn::{Endpoint, ProcessGraph};
use crate::library::ImplementationLibrary;
use crate::qos::QosSpec;
use rtsm_dataflow::PhaseVec;
use rtsm_platform::TileKind;
use serde::{Deserialize, Serialize};

/// One OFDM symbol every 4 µs (§4.1), in picoseconds.
pub const SYMBOL_PERIOD_PS: u64 = 4_000_000;

/// Samples per OFDM symbol entering the receiver (80 complex numbers).
pub const SAMPLES_PER_SYMBOL: u64 = 80;

/// The seven HIPERLAN/2 receiver modes, which "only differ with regards to
/// the demapping" (§4.1).
///
/// `b`, the demapped 32-bit words per OFDM symbol, spans the paper's range:
/// 12 bytes (3 words) for BPSK½ up to 384 bytes (96 words) for 64-QAM¾.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Hiperlan2Mode {
    /// BPSK, rate ½ — `b = 3` words (the paper's 12-byte minimum).
    Bpsk12,
    /// BPSK, rate ¾ — `b = 6` words.
    Bpsk34,
    /// QPSK, rate ½ — `b = 12` words.
    Qpsk12,
    /// QPSK, rate ¾ — `b = 24` words.
    Qpsk34,
    /// 16-QAM, rate 9/16 — `b = 48` words.
    Qam16R916,
    /// 16-QAM, rate ¾ — `b = 72` words.
    Qam16R34,
    /// 64-QAM, rate ¾ — `b = 96` words (the paper's 384-byte maximum).
    Qam64R34,
}

impl Hiperlan2Mode {
    /// All seven modes, in increasing `b`.
    pub const ALL: [Hiperlan2Mode; 7] = [
        Hiperlan2Mode::Bpsk12,
        Hiperlan2Mode::Bpsk34,
        Hiperlan2Mode::Qpsk12,
        Hiperlan2Mode::Qpsk34,
        Hiperlan2Mode::Qam16R916,
        Hiperlan2Mode::Qam16R34,
        Hiperlan2Mode::Qam64R34,
    ];

    /// `b`: demapped 32-bit words per OFDM symbol.
    pub fn demapped_words(&self) -> u64 {
        match self {
            Hiperlan2Mode::Bpsk12 => 3,
            Hiperlan2Mode::Bpsk34 => 6,
            Hiperlan2Mode::Qpsk12 => 12,
            Hiperlan2Mode::Qpsk34 => 24,
            Hiperlan2Mode::Qam16R916 => 48,
            Hiperlan2Mode::Qam16R34 => 72,
            Hiperlan2Mode::Qam64R34 => 96,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Hiperlan2Mode::Bpsk12 => "BPSK 1/2",
            Hiperlan2Mode::Bpsk34 => "BPSK 3/4",
            Hiperlan2Mode::Qpsk12 => "QPSK 1/2",
            Hiperlan2Mode::Qpsk34 => "QPSK 3/4",
            Hiperlan2Mode::Qam16R916 => "16-QAM 9/16",
            Hiperlan2Mode::Qam16R34 => "16-QAM 3/4",
            Hiperlan2Mode::Qam64R34 => "64-QAM 3/4",
        }
    }
}

/// Data memory footprint of an ARM implementation, in bytes (model
/// parameter; the paper does not tabulate memory).
pub const ARM_IMPL_MEMORY: u64 = 8 * 1024;

/// Data memory footprint of a MONTIUM implementation, in bytes (model
/// parameter).
pub const MONTIUM_IMPL_MEMORY: u64 = 2 * 1024;

/// Builds the HIPERLAN/2 receiver ALS for `mode` — Figure 1's KPN, the QoS
/// constraint of one symbol per 4 µs, and Table 1's implementation library.
///
/// The returned specification always passes [`ApplicationSpec::validate`]
/// (covered by tests for all seven modes).
pub fn hiperlan2_receiver(mode: Hiperlan2Mode) -> ApplicationSpec {
    let b = mode.demapped_words();
    let mut graph = ProcessGraph::new();
    let pfx = graph.add_process_abbrev("Prefix removal", "Pfx.rem.");
    let frq = graph.add_process_abbrev("Freq. off. correction", "Frq.off.");
    let iofdm = graph.add_process_abbrev("Inverse OFDM", "Inv.OFDM");
    let rem = graph.add_process_abbrev("Remainder", "Rem.");
    let ctrl = graph.add_control_process("CTRL");

    graph
        .add_channel(Endpoint::StreamInput, Endpoint::Process(pfx), 80)
        .expect("valid endpoints");
    graph
        .add_channel(Endpoint::Process(pfx), Endpoint::Process(frq), 64)
        .expect("valid endpoints");
    graph
        .add_channel(Endpoint::Process(frq), Endpoint::Process(iofdm), 64)
        .expect("valid endpoints");
    graph
        .add_channel(Endpoint::Process(iofdm), Endpoint::Process(rem), 52)
        .expect("valid endpoints");
    graph
        .add_channel(Endpoint::Process(rem), Endpoint::StreamOutput, b)
        .expect("valid endpoints");
    // Demapping-mode selection, once per MAC frame (500 symbols).
    graph
        .add_control_channel(Endpoint::Process(ctrl), Endpoint::Process(rem), 1)
        .expect("valid endpoints");

    let mut library = ImplementationLibrary::new();

    // Prefix removal (Table 1).
    library.register(
        pfx,
        Implementation::simple(
            "Prefix removal @ ARM",
            TileKind::Arm,
            PhaseVec::uniform(18, 18),
            PhaseVec::uniform(8, 2).concat(&PhaseVec::repeat_pattern(&[8, 0], 8)),
            PhaseVec::uniform(0, 2).concat(&PhaseVec::repeat_pattern(&[0, 8], 8)),
            60_000,
            ARM_IMPL_MEMORY,
        ),
    );
    library.register(
        pfx,
        Implementation::simple(
            "Prefix removal @ MONTIUM",
            TileKind::Montium,
            PhaseVec::uniform(1, 81),
            PhaseVec::uniform(1, 80).concat(&PhaseVec::single(0)),
            PhaseVec::uniform(0, 17).concat(&PhaseVec::uniform(1, 64)),
            32_000,
            MONTIUM_IMPL_MEMORY,
        ),
    );

    // Frequency offset correction.
    library.register(
        frq,
        Implementation::simple(
            "Freq. off. correction @ ARM",
            TileKind::Arm,
            PhaseVec::from_slice(&[18, 32, 18]),
            PhaseVec::from_slice(&[8, 0, 0]),
            PhaseVec::from_slice(&[0, 0, 8]),
            62_000,
            ARM_IMPL_MEMORY,
        ),
    );
    library.register(
        frq,
        Implementation::simple(
            "Freq. off. correction @ MONTIUM",
            TileKind::Montium,
            PhaseVec::uniform(1, 66),
            PhaseVec::uniform(1, 64).concat(&PhaseVec::uniform(0, 2)),
            PhaseVec::uniform(0, 2).concat(&PhaseVec::uniform(1, 64)),
            33_000,
            MONTIUM_IMPL_MEMORY,
        ),
    );

    // Inverse OFDM.
    library.register(
        iofdm,
        Implementation::simple(
            "Inverse OFDM @ ARM",
            TileKind::Arm,
            PhaseVec::from_slice(&[66, 4250, 54]),
            PhaseVec::from_slice(&[64, 0, 0]),
            // Normalised to the 52 useful carriers (see module docs).
            PhaseVec::from_slice(&[0, 0, 52]),
            275_000,
            ARM_IMPL_MEMORY,
        ),
    );
    library.register(
        iofdm,
        Implementation::simple(
            "Inverse OFDM @ MONTIUM",
            TileKind::Montium,
            PhaseVec::uniform(1, 64)
                .concat(&PhaseVec::single(170))
                .concat(&PhaseVec::uniform(1, 52)),
            PhaseVec::uniform(1, 64).concat(&PhaseVec::uniform(0, 53)),
            PhaseVec::uniform(0, 65).concat(&PhaseVec::uniform(1, 52)),
            143_000,
            MONTIUM_IMPL_MEMORY,
        ),
    );

    // Remainder (equalization + phase-offset correction + demapping).
    library.register(
        rem,
        Implementation::simple(
            "Remainder @ ARM",
            TileKind::Arm,
            PhaseVec::from_slice(&[54, 2250, b + 2]),
            PhaseVec::from_slice(&[52, 0, 0]),
            PhaseVec::from_slice(&[0, 0, b]),
            140_000,
            ARM_IMPL_MEMORY,
        ),
    );
    let montium_mid_wcet = 73u64.saturating_sub(b).max(1);
    library.register(
        rem,
        Implementation::simple(
            "Remainder @ MONTIUM",
            TileKind::Montium,
            PhaseVec::uniform(1, 52)
                .concat(&PhaseVec::single(montium_mid_wcet))
                .concat(&PhaseVec::uniform(1, b as u32)),
            PhaseVec::uniform(1, 52).concat(&PhaseVec::uniform(0, b as u32 + 1)),
            PhaseVec::uniform(0, 53).concat(&PhaseVec::uniform(1, b as u32)),
            76_000,
            MONTIUM_IMPL_MEMORY,
        ),
    );

    ApplicationSpec {
        name: format!("HIPERLAN/2 receiver ({})", mode.name()),
        graph,
        qos: QosSpec::with_period(SYMBOL_PERIOD_PS),
        library,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_validate() {
        for mode in Hiperlan2Mode::ALL {
            let spec = hiperlan2_receiver(mode);
            assert_eq!(spec.validate(), Ok(()), "mode {}", mode.name());
        }
    }

    #[test]
    fn mode_range_matches_paper() {
        // "the minimum output is 12 bytes and the maximum is 384 bytes".
        assert_eq!(Hiperlan2Mode::Bpsk12.demapped_words() * 4, 12);
        assert_eq!(Hiperlan2Mode::Qam64R34.demapped_words() * 4, 384);
        let words: Vec<u64> = Hiperlan2Mode::ALL
            .iter()
            .map(|m| m.demapped_words())
            .collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]), "modes monotone in b");
    }

    #[test]
    fn table1_energy_column() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let energy = |process: &str, kind: TileKind| {
            let p = spec.graph.process_by_name(process).unwrap();
            spec.library.impl_for(p, kind).unwrap().energy_pj_per_period / 1000
        };
        assert_eq!(energy("Prefix removal", TileKind::Arm), 60);
        assert_eq!(energy("Prefix removal", TileKind::Montium), 32);
        assert_eq!(energy("Freq. off. correction", TileKind::Arm), 62);
        assert_eq!(energy("Freq. off. correction", TileKind::Montium), 33);
        assert_eq!(energy("Inverse OFDM", TileKind::Arm), 275);
        assert_eq!(energy("Inverse OFDM", TileKind::Montium), 143);
        assert_eq!(energy("Remainder", TileKind::Arm), 140);
        assert_eq!(energy("Remainder", TileKind::Montium), 76);
    }

    #[test]
    fn table1_wcet_totals() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34); // b = 24
        let wcet = |process: &str, kind: TileKind| {
            let p = spec.graph.process_by_name(process).unwrap();
            spec.library.impl_for(p, kind).unwrap().cycle_wcet()
        };
        assert_eq!(wcet("Prefix removal", TileKind::Arm), 324); // 18·18
        assert_eq!(wcet("Prefix removal", TileKind::Montium), 81);
        assert_eq!(wcet("Freq. off. correction", TileKind::Arm), 68);
        assert_eq!(wcet("Freq. off. correction", TileKind::Montium), 66);
        assert_eq!(wcet("Inverse OFDM", TileKind::Arm), 4370);
        assert_eq!(wcet("Inverse OFDM", TileKind::Montium), 286); // 64+170+52
        assert_eq!(wcet("Remainder", TileKind::Arm), 54 + 2250 + 26);
        assert_eq!(wcet("Remainder", TileKind::Montium), 52 + 49 + 24);
    }

    #[test]
    fn frq_arm_runs_eight_cycles_per_symbol() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let frq = spec.graph.process_by_name("Freq. off. correction").unwrap();
        let arm = spec.library.impl_for(frq, TileKind::Arm).unwrap();
        assert_eq!(spec.cycles_per_period(frq, arm), 8);
        let montium = spec.library.impl_for(frq, TileKind::Montium).unwrap();
        assert_eq!(spec.cycles_per_period(frq, montium), 1);
    }

    #[test]
    fn montium_remainder_wcet_clamped_for_qam64() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qam64R34); // b = 96 > 72
        let rem = spec.graph.process_by_name("Remainder").unwrap();
        let montium = spec.library.impl_for(rem, TileKind::Montium).unwrap();
        // 52·1 + max(73−96, 1) + 96·1 = 149.
        assert_eq!(montium.cycle_wcet(), 149);
    }

    #[test]
    fn stream_structure_matches_figure1() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Bpsk12);
        let traffic: Vec<u64> = spec
            .graph
            .stream_channels()
            .map(|(_, c)| c.tokens_per_period)
            .collect();
        assert_eq!(traffic, vec![80, 64, 64, 52, 3]);
        assert_eq!(spec.graph.stream_processes().count(), 4);
        assert_eq!(spec.graph.processes().count(), 5); // + CTRL
    }

    #[test]
    fn arm_cycle_budget_structure() {
        // At 200 MHz (800 cycles / 4 µs), the ARM implementations of
        // Inverse OFDM and Remainder are throughput-infeasible while
        // everything else fits — the structure the paper's step 1 relies on.
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let budget = 800u64;
        let per_period = |process: &str, kind: TileKind| {
            let p = spec.graph.process_by_name(process).unwrap();
            let i = spec.library.impl_for(p, kind).unwrap();
            i.wcet_per_period(spec.cycles_per_period(p, i))
        };
        assert!(per_period("Prefix removal", TileKind::Arm) <= budget);
        assert!(per_period("Freq. off. correction", TileKind::Arm) <= budget);
        assert!(per_period("Inverse OFDM", TileKind::Arm) > budget);
        assert!(per_period("Remainder", TileKind::Arm) > budget);
        for process in [
            "Prefix removal",
            "Freq. off. correction",
            "Inverse OFDM",
            "Remainder",
        ] {
            assert!(
                per_period(process, TileKind::Montium) <= budget,
                "{process}"
            );
        }
    }
}
