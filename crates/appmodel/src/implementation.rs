//! Concrete process implementations: CSDF actors bound to tile types.

use rtsm_dataflow::PhaseVec;
use rtsm_platform::TileKind;
use serde::{Deserialize, Serialize};

/// One implementation of a KPN process for one tile type — a row of the
/// paper's Table 1.
///
/// The CSDF description (per-phase WCETs and per-port token rates) is what
/// step 4 composes into the whole-application CSDF graph of Figure 3; the
/// energy figure is what steps 1–2 optimise; the resource requirements are
/// what adherence checks against.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Implementation {
    /// Display name, e.g. `Inverse OFDM @ MONTIUM`.
    pub name: String,
    /// Tile type this implementation runs on.
    pub tile_kind: TileKind,
    /// Worst-case execution time per phase, in tile clock cycles.
    pub wcet: PhaseVec,
    /// Token consumption per phase, one vector per input port (the port
    /// order is the process's input-channel order in the KPN).
    pub inputs: Vec<PhaseVec>,
    /// Token production per phase, one vector per output port.
    pub outputs: Vec<PhaseVec>,
    /// Average energy per application period, in picojoules (Table 1's
    /// nJ/symbol column × 1000).
    pub energy_pj_per_period: u64,
    /// Data memory required on the tile, in bytes.
    pub memory_bytes: u64,
}

impl Implementation {
    /// Number of phases of the CSDF actor.
    pub fn n_phases(&self) -> usize {
        self.wcet.len()
    }

    /// Total WCET of one phase-cycle, in cycles.
    pub fn cycle_wcet(&self) -> u64 {
        self.wcet.total()
    }

    /// Tokens consumed per phase-cycle on input port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn tokens_in_per_cycle(&self, port: usize) -> u64 {
        self.inputs[port].total()
    }

    /// Tokens produced per phase-cycle on output port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn tokens_out_per_cycle(&self, port: usize) -> u64 {
        self.outputs[port].total()
    }

    /// Checks that all rate vectors have the actor's phase count.
    pub fn phases_consistent(&self) -> bool {
        self.inputs
            .iter()
            .chain(self.outputs.iter())
            .all(|r| r.len() == self.n_phases())
    }

    /// Phase-cycles this implementation must complete per application
    /// period to keep up with a channel carrying `tokens_per_period` on
    /// `port` (input side); `None` if the rate does not divide evenly.
    pub fn cycles_per_period_in(&self, port: usize, tokens_per_period: u64) -> Option<u64> {
        let per_cycle = self.tokens_in_per_cycle(port);
        if per_cycle == 0 || !tokens_per_period.is_multiple_of(per_cycle) {
            return None;
        }
        Some(tokens_per_period / per_cycle)
    }

    /// Phase-cycles per application period when the process's first input
    /// channel carries `first_input` tokens per period and its first output
    /// channel `first_output` (`None`: no such channel). Derived from the
    /// first port that divides evenly (validation guarantees all ports
    /// agree); 1 for a process without data channels.
    ///
    /// # Panics
    ///
    /// Panics if a channel is given for a side on which this implementation
    /// has no port (validated specs match port counts).
    pub fn cycles_per_period(&self, first_input: Option<u64>, first_output: Option<u64>) -> u64 {
        if let Some(c) = first_input.and_then(|tokens| self.cycles_per_period_in(0, tokens)) {
            return c;
        }
        if let Some(tokens) = first_output {
            let per_cycle = self.tokens_out_per_cycle(0);
            if per_cycle > 0 && tokens.is_multiple_of(per_cycle) {
                return tokens / per_cycle;
            }
        }
        1
    }

    /// WCET cycles consumed per application period, given the number of
    /// phase-cycles per period.
    pub fn wcet_per_period(&self, cycles_per_period: u64) -> u64 {
        self.cycle_wcet() * cycles_per_period
    }
}

/// Builder-style constructor helpers.
impl Implementation {
    /// Creates a single-input single-output implementation (the common case
    /// in the paper's Table 1).
    pub fn simple(
        name: impl Into<String>,
        tile_kind: TileKind,
        wcet: PhaseVec,
        input: PhaseVec,
        output: PhaseVec,
        energy_pj_per_period: u64,
        memory_bytes: u64,
    ) -> Self {
        Implementation {
            name: name.into(),
            tile_kind,
            wcet,
            inputs: vec![input],
            outputs: vec![output],
            energy_pj_per_period,
            memory_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx_arm() -> Implementation {
        // Table 1, Prefix removal on ARM: in ⟨8²,(8,0)⁸⟩ out ⟨0²,(0,8)⁸⟩
        // wcet ⟨18¹⁸⟩, 60 nJ/symbol.
        Implementation::simple(
            "Prefix removal @ ARM",
            TileKind::Arm,
            PhaseVec::uniform(18, 18),
            PhaseVec::uniform(8, 2).concat(&PhaseVec::repeat_pattern(&[8, 0], 8)),
            PhaseVec::uniform(0, 2).concat(&PhaseVec::repeat_pattern(&[0, 8], 8)),
            60_000,
            4096,
        )
    }

    #[test]
    fn table1_prefix_removal_arm_totals() {
        let i = pfx_arm();
        assert_eq!(i.n_phases(), 18);
        assert_eq!(i.cycle_wcet(), 324);
        assert_eq!(i.tokens_in_per_cycle(0), 80);
        assert_eq!(i.tokens_out_per_cycle(0), 64);
        assert!(i.phases_consistent());
    }

    #[test]
    fn cycles_per_period_divides() {
        let i = pfx_arm();
        // 80 tokens/symbol ÷ 80 tokens/cycle = 1 cycle/symbol.
        assert_eq!(i.cycles_per_period_in(0, 80), Some(1));
        assert_eq!(i.cycles_per_period_in(0, 83), None);
        assert_eq!(i.wcet_per_period(1), 324);
    }

    #[test]
    fn inconsistent_phases_detected() {
        let mut i = pfx_arm();
        i.inputs[0] = PhaseVec::single(80);
        assert!(!i.phases_consistent());
    }
}
