//! `coupled_sunway_2rank`: the Fig. 16 coupled pipeline on 2 ranks —
//! MD on the simulated Sunway CPE cluster, the handoff, then KMC.
//!
//! The production run function is `run_coupled_parallel`; its wall is the
//! time to solution. Per-step latencies come from a mirror of it that
//! calls the same public functions in the same order and reads a clock
//! around each `offload_step` and `KmcSimulation::cycle`. The traced
//! run composes the MD step from the offload path's public pieces and
//! the KMC cycle as in [`crate::kmc`]. Both must reproduce the
//! production rank summaries bit for bit.

use std::time::Instant;

use mmds_coupled::handoff::{md_vacancy_cells, place_vacancies};
use mmds_coupled::parallel::{run_coupled_parallel, CoupledRankSummary, ParallelCoupledParams};
use mmds_kmc::comm::CommK;
use mmds_kmc::parallel::kmc_rank_grid;
use mmds_kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds_md::domain::{exchange_ghosts, migrate_runaways, CommTransport, GhostPhase};
use mmds_md::integrate::{drift, kick, kinetic_energy, temperature};
use mmds_md::offload::{offload_compute_forces, OffloadConfig};
use mmds_md::parallel::{offload_step, rank_grid, MPE_PER_ATOM_SECONDS};
use mmds_md::runaway::apply_transitions;
use mmds_md::sim::StepSample;
use mmds_md::thermostat::berendsen;
use mmds_md::{MdConfig, MdSimulation};
use mmds_sunway::{CpeCluster, CpeCounters, SwModel};
use mmds_swmpi::topology::CartGrid;
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::{Comm, CommStats, World};

use crate::kmc::{drive_cycles, report_kmc_layers, swmpi_per_cycle, BlockTracer, KmcLayers};
use crate::report::{median, mix, slowest_rank, tail, Report};
use crate::trace::Trace;
use crate::RANKS;

/// Global box edge in BCC unit cells.
pub const CELLS: usize = 16;
/// MD steps per run.
pub const MD_STEPS: usize = 10;
/// KMC cycles per run.
pub const KMC_CYCLES: usize = 20;

/// The Fig. 16 set-up at 16³ cells: optimized CPE offload, no PKA,
/// 2·10⁻³ seeded vacancies, one-sided on-demand KMC exchange; MD and
/// KMC seeds drawn from the benchmark seed.
pub fn coupled_params(
    seed: u64,
    cells: usize,
    md_steps: usize,
    kmc_cycles: usize,
) -> ParallelCoupledParams {
    ParallelCoupledParams {
        md: MdConfig {
            temperature: 600.0,
            seed: mix(seed),
            ..Default::default()
        },
        kmc: KmcConfig {
            seed: mix(seed ^ 0x4B4D),
            ..Default::default()
        },
        offload: OffloadConfig::optimized(),
        global_cells: [cells; 3],
        md_steps,
        kmc_cycles,
        pka_energy: None,
        seed_concentration: 2.0e-3,
        strategy: ExchangeStrategy::OnDemand(OnDemandMode::OneSided),
    }
}

/// CPE work of the composed MD steps on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct SunwayCounts {
    /// Steps run.
    pub steps: u64,
    /// CPE counters of both passes, summed over steps.
    pub cpe: CpeCounters,
    /// Largest local-store high water of any pass (bytes).
    pub ldm_high_water: usize,
    /// Modelled CPE kernel seconds, summed over steps.
    pub kernel_s: f64,
}

/// One `offload_step` composed from the offload path's public pieces,
/// with a span around each call.
pub fn composite_offload_step(
    sim: &mut MdSimulation,
    comm: &Comm,
    transport: &mut CommTransport<'_>,
    cluster: &CpeCluster,
    ocfg: &OffloadConfig,
    tr: &mut Trace,
    acc: &mut SunwayCounts,
) -> StepSample {
    tr.span("md.step", |tr| {
        let dt = sim.cfg.dt;
        let n_atoms = sim.n_atoms();
        tr.span("md.integrate", |_| {
            kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
            drift(&mut sim.lnl, &sim.interior, dt);
        });
        let st = tr.span("md.transitions", |_| {
            apply_transitions(&mut sim.lnl, &sim.cfg, &sim.interior)
        });
        sim.transitions = sim.transitions.merge(&st);
        tr.span("md.ghost", |_| {
            migrate_runaways(&mut sim.lnl, transport);
            exchange_ghosts(&mut sim.lnl, transport, GhostPhase::Positions);
        });
        let interior = std::mem::take(&mut sim.interior);
        let outcome = tr.span("sunway.offload", |tr| {
            offload_compute_forces(&mut sim.lnl, &sim.pot, cluster, ocfg, &interior, |l| {
                tr.span("md.ghost", |_| {
                    exchange_ghosts(l, transport, GhostPhase::Fp)
                })
            })
        });
        sim.interior = interior;
        comm.tick_compute(outcome.kernel_time() + n_atoms as f64 * MPE_PER_ATOM_SECONDS);
        tr.span("md.integrate", |_| {
            kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
            if let Some(tau) = sim.cfg.thermostat_tau {
                berendsen(
                    &mut sim.lnl,
                    &sim.interior,
                    sim.mass,
                    sim.cfg.temperature,
                    dt,
                    tau,
                );
            }
        });
        sim.time_ps += dt;
        acc.steps += 1;
        acc.cpe = acc
            .cpe
            .merge(&outcome.density.counters.merge(&outcome.force.counters));
        acc.ldm_high_water = acc
            .ldm_high_water
            .max(outcome.density.ldm_high_water)
            .max(outcome.force.ldm_high_water);
        acc.kernel_s += outcome.kernel_time();
        tr.span("md.observe", |_| StepSample {
            pair: outcome.pair_energy,
            embed: outcome.embed_energy,
            kinetic: kinetic_energy(&sim.lnl, &sim.interior, sim.mass),
            temperature: temperature(&sim.lnl, &sim.interior, sim.mass),
        })
    })
}

/// A rank's counts from the composed run.
#[derive(Debug, Default)]
pub struct CoupledLayers {
    /// CPE work.
    pub sunway: SunwayCounts,
    /// The KMC phase's cycles.
    pub kmc: KmcLayers,
    /// The rank's comm accounting when the MD phase ended.
    pub md_stats: CommStats,
}

/// What one rank of the mirrored run returns.
#[derive(Debug)]
pub struct CoupledRank {
    /// The production run's per-rank summary.
    pub summary: CoupledRankSummary,
    /// Set-up wall: world launch, MD tables, lattice and CPE cluster,
    /// then KMC tables, lattice, vacancies and initial ghost fill (s).
    pub setup_s: f64,
    /// Wall of each MD step (s).
    pub step_s: Vec<f64>,
    /// Wall of each KMC cycle (s).
    pub cycle_s: Vec<f64>,
    /// Vacancies in the rank's KMC lattice right after the handoff.
    pub handoff_vacancies: usize,
    /// Phase spans of the run (both modes).
    pub trace: Trace,
    /// Spans and counts (traced runs only).
    pub layers: Option<CoupledLayers>,
}

/// `run_coupled_parallel`, mirrored call for call, with a clock around
/// each step and cycle, or the composed step and cycle (with spans)
/// when `blocks` is given. The phase spans are recorded either way.
pub fn mirror_coupled(
    world: &World,
    p: &ParallelCoupledParams,
    blocks: Option<&BlockTracer>,
) -> Vec<RankOutput<CoupledRank>> {
    assert!(
        p.pka_energy.is_none(),
        "the workload seeds vacancies, no PKA"
    );
    let grid3 = CartGrid::for_ranks(RANKS);
    let launch = Instant::now();
    world.run(RANKS, |comm| {
        let mut layers = blocks.map(|_| CoupledLayers::default());
        let mut tr = Trace::new();
        let mut setup_s = 0.0;
        let mut step_s = Vec::with_capacity(p.md_steps);
        let (summary, cycle_s, handoff_vacancies) = tr.span("coupled.run", |tr| {
            let (mut sim, cluster) = tr.span("coupled.setup", |_| {
                let mut md_cfg = p.md;
                md_cfg.seed = p.md.rank_seed(comm.rank());
                let grid = rank_grid(&md_cfg, p.global_cells, grid3, comm.rank());
                let mut sim = MdSimulation::from_grid(md_cfg, grid);
                sim.table_form = p.offload.form;
                sim.init_velocities();
                let cluster = CpeCluster::new(SwModel::sw26010());
                comm.reset_accounting();
                (sim, cluster)
            });
            setup_s += launch.elapsed().as_secs_f64();

            tr.span("coupled.md_phase", |tr| {
                let mut transport = CommTransport::new(comm, grid3);
                for _ in 0..p.md_steps {
                    let c = Instant::now();
                    match layers.as_mut() {
                        None => {
                            offload_step(&mut sim, comm, &mut transport, &cluster, &p.offload);
                        }
                        Some(l) => {
                            composite_offload_step(
                                &mut sim,
                                comm,
                                &mut transport,
                                &cluster,
                                &p.offload,
                                tr,
                                &mut l.sunway,
                            );
                        }
                    }
                    step_s.push(c.elapsed().as_secs_f64());
                }
                comm.barrier();
            });
            let md_time = comm.clock();
            let md_stats = comm.stats();

            let (md_vacancies, mut kmc) = tr.span("coupled.handoff", |_| {
                let t = Instant::now();
                let vac_cells = md_vacancy_cells(&sim.lnl);
                let mut kmc_cfg = p.kmc;
                kmc_cfg.seed = p.kmc.rank_seed(comm.rank());
                let kgrid = kmc_rank_grid(&kmc_cfg, p.global_cells, grid3, comm.rank());
                let mut kmc = KmcSimulation::new(kmc_cfg, kgrid);
                place_vacancies(&mut kmc.lat, &vac_cells);
                let n = (p.seed_concentration * kmc.lat.n_owned() as f64).round() as usize;
                kmc.lat.seed_vacancies(n, kmc_cfg.seed ^ 0xACE1);
                setup_s += t.elapsed().as_secs_f64();
                (vac_cells.len(), kmc)
            });
            let handoff_vacancies = kmc.lat.n_vacancies();

            let (kmc_events, cycle_s) = tr.span("coupled.kmc_phase", |_| {
                let mut t = CommK::new(comm, grid3);
                let c = Instant::now();
                kmc.initialize(&mut t);
                setup_s += c.elapsed().as_secs_f64();
                let kl = layers.as_mut().map(|l| &mut l.kmc);
                drive_cycles(&mut kmc, p.strategy, &mut t, p.kmc_cycles, kl.zip(blocks))
            });
            tr.span("coupled.barrier", |_| comm.barrier());
            let kmc_time = comm.clock() - md_time;
            if let Some(l) = layers.as_mut() {
                l.md_stats = md_stats;
            }
            let summary = CoupledRankSummary {
                md_vacancies,
                kmc_events,
                final_vacancies: kmc.lat.n_vacancies(),
                md_time,
                kmc_time,
            };
            (summary, cycle_s, handoff_vacancies)
        });
        CoupledRank {
            summary,
            setup_s,
            step_s,
            cycle_s,
            handoff_vacancies,
            trace: tr,
            layers,
        }
    })
}

/// True when two per-rank coupled summaries agree bit for bit.
pub fn same_coupled(a: &CoupledRankSummary, b: &CoupledRankSummary) -> bool {
    a.md_vacancies == b.md_vacancies
        && a.kmc_events == b.kmc_events
        && a.final_vacancies == b.final_vacancies
        && a.md_time.to_bits() == b.md_time.to_bits()
        && a.kmc_time.to_bits() == b.kmc_time.to_bits()
}

fn check_against(
    rep: &mut Report,
    what: &str,
    reference: &[RankOutput<CoupledRankSummary>],
    got: &[RankOutput<CoupledRank>],
) {
    let same = reference.len() == got.len()
        && reference.iter().zip(got).all(|(r, g)| {
            same_coupled(&r.result, &g.result.summary) && r.clock.to_bits() == g.clock.to_bits()
        });
    rep.check(
        same,
        &format!("coupled_sunway_2rank: {what} matches run_coupled_parallel bitwise"),
    );
}

fn check_conserved(rep: &mut Report, out: &[RankOutput<CoupledRank>], what: &str) {
    // KMC only moves vacancies: the world total at the end equals the
    // total the handoff put into the KMC lattices.
    let start: usize = out.iter().map(|r| r.result.handoff_vacancies).sum();
    let end: usize = out.iter().map(|r| r.result.summary.final_vacancies).sum();
    rep.check(
        start == end,
        &format!(
            "coupled_sunway_2rank: {what} conserves the global KMC vacancy count \
             ({start} handed off, {end} final)"
        ),
    );
}

fn slowest(out: &[RankOutput<CoupledRank>], f: impl Fn(&CoupledRank) -> &[f64]) -> Vec<f64> {
    slowest_rank(out.iter().map(|r| f(&r.result)))
}

/// The untraced run: after one untimed warm-up call, production
/// `run_coupled_parallel` calls (time to solution) alternate with the
/// mirror (MD-step latencies) until `seconds` have passed.
pub fn run_untraced(seed: u64, seconds: f64, rep: &mut Report) {
    let p = coupled_params(seed, CELLS, MD_STEPS, KMC_CYCLES);
    let world = World::default_world();
    run_coupled_parallel(&world, RANKS, &p);
    let atoms = 2 * p.global_cells.iter().product::<usize>();
    let (mut run_walls, mut setups, mut step_ms, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t_run = Instant::now();
    let mut episode = 0;
    while episode < 2 || t_run.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let prod = run_coupled_parallel(&world, RANKS, &p);
        run_walls.push(t.elapsed().as_secs_f64());
        let mirror = mirror_coupled(&world, &p, None);
        check_against(rep, "timed mirror", &prod, &mirror);
        check_conserved(rep, &mirror, "timed mirror");
        setups.push(mirror.iter().map(|r| r.result.setup_s).fold(0.0, f64::max));
        let walls = slowest(&mirror, |r| &r.step_s[..]);
        rates.push((atoms * walls.len()) as f64 / walls.iter().sum::<f64>());
        step_ms.extend(walls.iter().map(|w| w * 1e3));
        episode += 1;
    }
    let (q, p90) = tail(&step_ms);
    rep.metric("step_ms_p50", median(&step_ms));
    rep.metric("step_ms_p90", p90);
    rep.metric("site_steps_per_s", median(&rates));
    rep.metric("run_wall_s", median(&run_walls));
    rep.metric("setup_s", median(&setups));
    println!(
        "coupled_sunway_2rank: {RANKS} ranks x 1 worker, {CELLS}^3 cells ({atoms} atoms), \
         {MD_STEPS} MD steps + {KMC_CYCLES} KMC cycles x {episode} runs; {} MD-step samples, \
         tail percentile p{:.0}",
        step_ms.len(),
        q * 100.0
    );
}

/// The traced run: per round, the production run (reference and
/// overhead base) and the composed, traced run, which must match it
/// bitwise.
pub fn run_traced(seed: u64, seconds: f64, rep: &mut Report) {
    let p = coupled_params(seed, CELLS, MD_STEPS, KMC_CYCLES);
    let world = World::default_world();
    let (mut prod_s, mut traced_s, mut cycle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced;
    let t_run = Instant::now();
    let mut round = 0;
    loop {
        let t = Instant::now();
        let prod = run_coupled_parallel(&world, RANKS, &p);
        prod_s.push(t.elapsed().as_secs_f64());
        let mirror = mirror_coupled(&world, &p, None);
        check_against(rep, "timed mirror", &prod, &mirror);
        cycle_ms.extend(slowest(&mirror, |r| &r.cycle_s[..]).iter().map(|w| w * 1e3));
        let blocks = BlockTracer::install();
        let t = Instant::now();
        traced = mirror_coupled(&world, &p, Some(&blocks));
        traced_s.push(t.elapsed().as_secs_f64());
        blocks.uninstall();
        check_against(rep, "traced composite run", &prod, &traced);
        check_conserved(rep, &traced, "traced composite run");
        round += 1;
        let round_s = t_run.elapsed().as_secs_f64() / round as f64;
        if t_run.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }

    let ranks = RANKS as f64;
    let layers: Vec<&CoupledLayers> = traced
        .iter()
        .map(|r| r.result.layers.as_ref().expect("traced ranks carry layers"))
        .collect();
    let traces: Vec<&Trace> = traced.iter().map(|r| &r.result.trace).collect();
    traces[0].print_table("coupled_sunway_2rank spans of rank 0, last round:");
    layers[0].kmc.trace.print_table("  and of its KMC cycles:");
    let steps = MD_STEPS as f64;
    let avg_ms = |name: &str| traces.iter().map(|t| t.total_ms(name)).sum::<f64>() / ranks;
    let per_step = |name: &str| avg_ms(name) / steps;
    rep.metric("md.ghost_ms_per_step", per_step("md.ghost"));
    rep.metric("md.integrate_ms_per_step", per_step("md.integrate"));
    rep.metric("md.transitions_ms_per_step", per_step("md.transitions"));
    rep.metric("sunway.offload_ms_per_step", per_step("sunway.offload"));
    let cpe = layers
        .iter()
        .fold(CpeCounters::default(), |a, l| a.merge(&l.sunway.cpe));
    rep.metric("sunway.dma_bytes_per_step", cpe.dma_bytes() as f64 / steps);
    rep.metric("sunway.dma_ops_per_step", cpe.dma_ops() as f64 / steps);
    rep.metric("sunway.flops_per_step", cpe.flops as f64 / steps);
    rep.metric(
        "sunway.ldm_high_water_bytes",
        layers
            .iter()
            .map(|l| l.sunway.ldm_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    rep.metric(
        "sunway.virtual_kernel_s_per_step",
        layers.iter().map(|l| l.sunway.kernel_s).sum::<f64>() / ranks / steps,
    );
    let md_stats: Vec<CommStats> = layers.iter().map(|l| l.md_stats).collect();
    rep.metric(
        "md.ghost_bytes_per_step",
        md_stats
            .iter()
            .map(|s| s.bytes_sent + s.bytes_put)
            .sum::<u64>() as f64
            / steps,
    );
    let kmc_layers: Vec<&KmcLayers> = layers.iter().map(|l| &l.kmc).collect();
    report_kmc_layers(rep, &kmc_layers);
    // The KMC phase's comm accounting: the run's totals less what the
    // MD phase had accounted when it ended.
    let kmc_stats: Vec<CommStats> = traced
        .iter()
        .zip(&md_stats)
        .map(|(r, md)| CommStats {
            msgs_sent: r.stats.msgs_sent - md.msgs_sent,
            bytes_sent: r.stats.bytes_sent - md.bytes_sent,
            puts: r.stats.puts - md.puts,
            bytes_put: r.stats.bytes_put - md.bytes_put,
            collectives: r.stats.collectives - md.collectives,
            ..Default::default()
        })
        .collect();
    swmpi_per_cycle(rep, &kmc_stats, KMC_CYCLES as f64);
    rep.metric("kmc.cycle_ms_p50", median(&cycle_ms));
    rep.metric("coupled.md_phase_s", avg_ms("coupled.md_phase") * 1e-3);
    rep.metric("coupled.handoff_ms", avg_ms("coupled.handoff"));
    rep.metric("coupled.kmc_phase_s", avg_ms("coupled.kmc_phase") * 1e-3);
    rep.metric(
        "coupled.handoff_vacancies",
        traced
            .iter()
            .map(|r| r.result.handoff_vacancies)
            .sum::<usize>() as f64,
    );
    rep.metric("trace.overhead_ratio", median(&traced_s) / median(&prod_s));
    rep.metric(
        "trace.step_coverage",
        traces.iter().map(|t| t.coverage("md.step")).sum::<f64>() / ranks,
    );
    rep.metric(
        "trace.run_coverage",
        traces
            .iter()
            .map(|t| t.coverage("coupled.run"))
            .sum::<f64>()
            / ranks,
    );
    println!(
        "coupled_sunway_2rank traced: {round} rounds; spans cover {:.1}% of the MD step, \
         {:.1}% of the KMC cycle, {:.1}% of the run",
        100.0 * rep.get("trace.step_coverage").unwrap_or(0.0),
        100.0 * rep.get("trace.cycle_coverage").unwrap_or(0.0),
        100.0 * rep.get("trace.run_coverage").unwrap_or(0.0),
    );
}
