//! Energy accounting: processing + NoC communication.
//!
//! The paper's objective is "to minimize the energy consumption of the
//! entire application: processing (including memory requirements thereof)
//! as well as interprocess communication" (§1.3). Processing energy comes
//! from the implementation library (Table 1's nJ/symbol column); this module
//! supplies the communication side: energy per token per hop, plus a
//! per-router traversal overhead. There is one platform characterisation,
//! so its two figures are constants — representative 90 nm NoC figures
//! (documented model parameters, not paper values — the paper does not
//! quantify NoC energy).

/// Energy to move one 32-bit token across one link, in picojoules.
pub const LINK_PJ_PER_TOKEN: u64 = 30;

/// Energy to traverse one router (buffering + arbitration), in picojoules
/// per token.
pub const ROUTER_PJ_PER_TOKEN: u64 = 20;

/// Communication energy for `tokens` tokens taking a path with `hops`
/// router-to-router links, in picojoules.
///
/// A path with `h` hops traverses `h + 1` routers (Figure 3 draws a router
/// actor per traversed router).
pub fn channel_energy_pj(tokens: u64, hops: u32) -> u64 {
    if hops == 0 {
        // Same-tile communication: through local memory, modelled free.
        return 0;
    }
    let link = LINK_PJ_PER_TOKEN * u64::from(hops) * tokens;
    let router = ROUTER_PJ_PER_TOKEN * (u64::from(hops) + 1) * tokens;
    link + router
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hops_is_free() {
        assert_eq!(channel_energy_pj(1000, 0), 0);
    }

    #[test]
    fn energy_scales_linearly_in_tokens_and_hops() {
        // h hops: 30·h + 20·(h+1) pJ per token.
        for h in 1..8u32 {
            let per_token = 30 * u64::from(h) + 20 * (u64::from(h) + 1);
            assert_eq!(channel_energy_pj(1, h), per_token);
            assert_eq!(channel_energy_pj(7, h), 7 * per_token);
        }
        // 1 hop: 30 + 40 = 70 pJ per token; 2 hops: 60 + 60 = 120.
        assert_eq!(channel_energy_pj(3, 1), 210);
        assert_eq!(channel_energy_pj(1, 2), 120);
    }

    #[test]
    fn more_hops_never_cheaper() {
        for h in 0..8u32 {
            assert!(channel_energy_pj(10, h) <= channel_energy_pj(10, h + 1));
        }
    }
}
