//! The traced composites must be the production programs: each one,
//! built from the crates' public functions, ends in the production
//! result bit for bit.

use mmds_coupled::parallel::run_coupled_parallel;
use mmds_kmc::parallel::run_parallel_kmc;
use mmds_md::domain::Loopback;
use mmds_md::force::GatherPlan;
use mmds_perfbench::coupled::{coupled_params, mirror_coupled, same_coupled};
use mmds_perfbench::kmc::{kmc_params, mirror_kmc, same_kmc, seeded_vacancies, BlockTracer};
use mmds_perfbench::md_host::{composite_step, state_bits, HostCase};
use mmds_perfbench::trace::Trace;
use mmds_swmpi::World;

/// 7³ cells hold 686 atoms, more than one 256-site chunk of the host
/// passes, so the composite crosses chunk boundaries as production does.
#[test]
fn composite_md_step_matches_md_simulation_step() {
    let mut case = HostCase::new(3, 7);
    assert!(case.n_atoms > 2 * mmds_md::force::PAR_CHUNK_SITES);
    let steps = 12;
    for _ in 0..steps {
        case.sim.step(&mut Loopback);
    }
    let production = state_bits(&case.sim.lnl);
    let production_runaways = case.sim.lnl.n_runaways();

    case.restart();
    let (mut plan, mut trace) = (GatherPlan::default(), Trace::new());
    for _ in 0..steps {
        composite_step(&mut case.sim, &mut plan, &mut trace, None);
    }
    assert_eq!(state_bits(&case.sim.lnl), production);
    assert_eq!(case.sim.lnl.n_runaways(), production_runaways);
    assert_eq!(case.sim.n_atoms(), case.n_atoms);
    assert_eq!(trace.count("md.step"), steps);
    assert!(trace.coverage("md.step") > 0.9);
}

#[test]
fn restarted_windows_repeat_bitwise() {
    let mut case = HostCase::new(5, 6);
    let mut ends = Vec::new();
    for _ in 0..2 {
        case.restart();
        case.sim.run(&mut Loopback, 6);
        ends.push(state_bits(&case.sim.lnl));
    }
    assert_eq!(ends[0], ends[1]);
}

#[test]
fn composite_kmc_cycle_matches_run_parallel_kmc() {
    let world = World::default_world();
    let p = kmc_params(7, 12, 4);
    let production = run_parallel_kmc(&world, 2, &p);
    let timed = mirror_kmc(&world, &p, None);
    let blocks = BlockTracer::install();
    let traced = mirror_kmc(&world, &p, Some(&blocks));
    blocks.uninstall();
    for ((prod, t), c) in production.iter().zip(&timed).zip(&traced) {
        assert!(
            same_kmc(&prod.result, &t.result.summary),
            "timed mirror differs"
        );
        assert!(
            same_kmc(&prod.result, &c.result.summary),
            "composite differs"
        );
        assert_eq!(prod.stats.msgs_sent, c.stats.msgs_sent);
        assert_eq!(prod.clock.to_bits(), c.clock.to_bits());
        let layers = c.result.layers.as_ref().expect("traced run carries layers");
        assert_eq!(layers.counts.cycles, 4);
        assert_eq!(layers.counts.events, prod.result.events);
    }
    let total: usize = traced.iter().map(|r| r.result.summary.vacancies).sum();
    assert_eq!(total, seeded_vacancies(&p));
}

#[test]
fn composite_coupled_run_matches_run_coupled_parallel() {
    let world = World::default_world();
    let p = coupled_params(11, 12, 2, 4);
    let production = run_coupled_parallel(&world, 2, &p);
    let timed = mirror_coupled(&world, &p, None);
    let blocks = BlockTracer::install();
    let traced = mirror_coupled(&world, &p, Some(&blocks));
    blocks.uninstall();
    for ((prod, t), c) in production.iter().zip(&timed).zip(&traced) {
        assert!(
            same_coupled(&prod.result, &t.result.summary),
            "timed mirror differs"
        );
        assert!(
            same_coupled(&prod.result, &c.result.summary),
            "composite differs"
        );
        assert_eq!(prod.clock.to_bits(), c.clock.to_bits());
        let layers = c.result.layers.as_ref().expect("traced run carries layers");
        assert_eq!(layers.sunway.steps, 2);
        assert!(layers.sunway.cpe.dma_bytes() > 0);
    }
    let handed: usize = traced.iter().map(|r| r.result.handoff_vacancies).sum();
    let fin: usize = traced
        .iter()
        .map(|r| r.result.summary.final_vacancies)
        .sum();
    assert_eq!(handed, fin);
}

/// `BENCHMARK.json` declares exactly the catalogue's metrics.
#[test]
fn benchmark_json_declares_the_catalogue() {
    use mmds_perfbench::report::{END_TO_END, PER_LAYER};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
