//! Seeded bias-elitist genetic mapper (after Quan & Pimentel,
//! arXiv:1406.7539).
//!
//! A genome is one `(implementation, tile)` gene per process. The initial
//! population is *seeded* with the greedy first-fit and spiral
//! region-growing solutions (the paper's key trick for fast convergence on
//! a run-time budget); the rest is sampled uniformly from each process's
//! viable options. Selection is *biased towards feasibility*: individuals
//! are compared lexicographically by (capacity violations, cost), so any
//! claim-feasible individual beats every infeasible one regardless of
//! cost, and an elite carries over unchanged each generation.
//!
//! Fitness stays cheap on purpose — capacity replay plus the decomposed
//! [`CostModel::assignment_cost`], no routing — so a whole run costs about
//! as much as one annealing run. Only the final ranked candidates go
//! through the shared step-3/step-4 back-end ([`finalize_assignment`]),
//! which is what makes the returned outcome committable and comparable.

use crate::common::{finalize_assignment, no_feasible_mapping, viable_options};
use crate::spiral::spiral_assignment;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtsm_app::{ApplicationSpec, ProcessId};
use rtsm_core::claims::{claim_for, reservation_of};
use rtsm_core::constraints::MappingConstraints;
use rtsm_core::cost::CostModel;
use rtsm_core::step1::assign_implementations;
use rtsm_core::{feedback, MapError, Mapping, MappingAlgorithm, MappingOutcome};
use rtsm_platform::{Platform, PlatformState, TileId};

/// One `(impl_index, tile)` gene per process, in topological order.
type Genome = Vec<(usize, TileId)>;

/// RNG seed — runs are reproducible.
const SEED: u64 = 0x6E0_2008;

/// Individuals per generation (including the greedy/spiral seeds).
const POPULATION: usize = 16;

/// Generations evolved before the best candidates are finalized.
const GENERATIONS: u32 = 24;

/// Individuals carried over unchanged each generation.
const ELITE: usize = 4;

/// Per-gene mutation probability, permille.
const MUTATION_PERMILLE: u64 = 150;

/// Seeded bias-elitist genetic mapper; its fitness minimises
/// [`CostModel::Energy`].
#[derive(Debug, Clone, Default)]
pub struct GeneticMapper;

/// Capacity violations and cost of one genome: genes are replayed onto a
/// scratch state in order; a gene that no longer fits counts as a
/// violation and claims nothing. `(0, cost)` means claim-feasible.
fn fitness(
    spec: &ApplicationSpec,
    platform: &Platform,
    base: &PlatformState,
    processes: &[ProcessId],
    genome: &Genome,
) -> (u32, u64) {
    let mut working = base.clone();
    let mut violations = 0u32;
    let mut mapping = Mapping::for_spec(spec);
    for (&process, &(impl_index, tile)) in processes.iter().zip(genome) {
        let implementation = &spec.library.impls_for(process)[impl_index];
        let claim = claim_for(spec, process, implementation);
        if working.fits_tile(platform, tile, &claim) {
            working
                .claim_tile(platform, tile, &reservation_of(&claim))
                .expect("fits_tile just checked");
        } else {
            violations += 1;
        }
        mapping.assign(process, impl_index, tile);
    }
    (
        violations,
        CostModel::Energy.assignment_cost(&mapping, spec, platform),
    )
}

impl GeneticMapper {
    /// The deterministic greedy (step-1) and spiral seed genomes, when
    /// those heuristics produce an assignment under `constraints`.
    fn seed_genomes(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
        processes: &[ProcessId],
    ) -> Vec<Genome> {
        let to_genome = |mapping: &Mapping| -> Option<Genome> {
            processes
                .iter()
                .map(|&p| mapping.assignment(p).map(|a| (a.impl_index, a.tile)))
                .collect()
        };
        let mut seeds = Vec::new();
        if let Ok(out) = assign_implementations(
            spec,
            platform,
            base,
            &feedback::Constraints::with_external(constraints.clone()),
        ) {
            seeds.extend(to_genome(&out.mapping));
        }
        let mut working = base.clone();
        if let Some((mapping, _)) = spiral_assignment(spec, platform, &mut working, constraints) {
            seeds.extend(to_genome(&mapping));
        }
        seeds
    }
}

impl MappingAlgorithm for GeneticMapper {
    fn name(&self) -> &str {
        "bias-elitist genetic"
    }

    fn map_constrained(
        &self,
        spec: &ApplicationSpec,
        platform: &Platform,
        base: &PlatformState,
        constraints: &MappingConstraints,
    ) -> Result<MappingOutcome, MapError> {
        let processes = spec
            .graph
            .topological_order()
            .map_err(|_| no_feasible_mapping(0))?;
        // Options are enumerated against the *empty-claim* base once; the
        // fitness replay accounts for intra-genome capacity interactions.
        let options: Vec<Vec<(usize, TileId)>> = processes
            .iter()
            .map(|&p| viable_options(spec, platform, base, p, constraints))
            .collect();
        if options.iter().any(Vec::is_empty) {
            return Err(no_feasible_mapping(0));
        }

        let mut rng = StdRng::seed_from_u64(SEED);
        let mut evaluated = 0u64;
        let score = |genome: &Genome, evaluated: &mut u64| {
            *evaluated += 1;
            fitness(spec, platform, base, &processes, genome)
        };

        // Population: deterministic seeds first, random fill after.
        let mut population: Vec<(Genome, (u32, u64))> = Vec::with_capacity(POPULATION);
        for genome in self.seed_genomes(spec, platform, base, constraints, &processes) {
            let fit = score(&genome, &mut evaluated);
            population.push((genome, fit));
        }
        while population.len() < POPULATION {
            let genome: Genome = options
                .iter()
                .map(|opts| opts[rng.random_range(0..opts.len())])
                .collect();
            let fit = score(&genome, &mut evaluated);
            population.push((genome, fit));
        }

        for _ in 0..GENERATIONS {
            // Bias-elitist ranking: feasibility first, cost second. The
            // sort is stable, so equal individuals keep their order and
            // the evolution stays deterministic.
            population.sort_by_key(|(_, fit)| *fit);
            let mut next: Vec<(Genome, (u32, u64))> = population[..ELITE].to_vec();
            while next.len() < POPULATION {
                // Binary tournaments with the same feasibility bias.
                let pick = |rng: &mut StdRng| {
                    let a = rng.random_range(0..population.len());
                    let b = rng.random_range(0..population.len());
                    if population[a].1 <= population[b].1 {
                        &population[a].0
                    } else {
                        &population[b].0
                    }
                };
                let mother = pick(&mut rng).clone();
                let father = pick(&mut rng).clone();
                // Uniform crossover + per-gene mutation from the options.
                let child: Genome = mother
                    .iter()
                    .zip(&father)
                    .zip(&options)
                    .map(|((&m, &f), opts)| {
                        if u64::from(rng.random_range(0..1000u32)) < MUTATION_PERMILLE {
                            opts[rng.random_range(0..opts.len())]
                        } else if rng.random_range(0..2u32) == 0 {
                            m
                        } else {
                            f
                        }
                    })
                    .collect();
                let fit = score(&child, &mut evaluated);
                next.push((child, fit));
            }
            population = next;
        }

        // Finalize the claim-feasible candidates best-first; routing or
        // dataflow may still reject some, so walk the ranking.
        population.sort_by_key(|(_, fit)| *fit);
        for (genome, (violations, _)) in &population {
            if *violations > 0 {
                break;
            }
            let mut mapping = Mapping::for_spec(spec);
            for (&p, &(impl_index, tile)) in processes.iter().zip(genome) {
                mapping.assign(p, impl_index, tile);
            }
            if let Some(outcome) = finalize_assignment(spec, platform, base, mapping, evaluated) {
                return Ok(outcome);
            }
        }
        Err(no_feasible_mapping(evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsm_app::hiperlan2::{hiperlan2_receiver, Hiperlan2Mode};
    use rtsm_platform::paper::paper_platform;

    #[test]
    fn genetic_finds_a_feasible_mapping_on_the_paper_case() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let result = GeneticMapper
            .map(&spec, &platform, &platform.initial_state())
            .expect("the GA maps the paper case");
        assert!(result.feasible);
        assert!(result.evaluated > 0);
    }

    #[test]
    fn genetic_is_deterministic_per_seed() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let a = GeneticMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let b = GeneticMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.energy_pj, b.energy_pj);
    }

    #[test]
    fn seeding_keeps_the_ga_at_least_as_good_as_greedy() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let ga = GeneticMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        let greedy = crate::GreedyMapper
            .map(&spec, &platform, &platform.initial_state())
            .unwrap();
        // The greedy solution is in the initial population and elitism
        // never loses it, so the GA can only match or improve its energy.
        assert!(ga.energy_pj <= greedy.energy_pj);
    }

    #[test]
    fn genetic_honours_pinning_constraints() {
        let spec = hiperlan2_receiver(Hiperlan2Mode::Qpsk34);
        let platform = paper_platform();
        let p = spec.graph.process_by_name("Prefix removal").unwrap();
        let tile = platform.tile_by_name("ARM1").unwrap();
        let constraints = MappingConstraints::none().pin(p, tile);
        let result = GeneticMapper
            .map_constrained(&spec, &platform, &platform.initial_state(), &constraints)
            .expect("pinned paper case stays mappable");
        assert_eq!(result.mapping.assignment(p).unwrap().tile, tile);
        assert!(constraints.satisfied_by(&result.mapping));
    }
}
