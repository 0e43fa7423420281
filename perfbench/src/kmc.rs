//! `kmc_2rank`: domain-decomposed KMC on a 2-rank swmpi world.
//!
//! The production run function is `run_parallel_kmc`. Step latencies come
//! from a mirror of it that calls the same public functions in the
//! same order and reads a clock around each `KmcSimulation::cycle`; the
//! traced run replaces that call by the cycle composed from
//! `compute_dt` / `pre_sector` / `run_sector` / `post_sector`. Both
//! must end in the production result bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mmds_kmc::comm::{CommK, KmcTransport};
use mmds_kmc::exchange::{post_sector, pre_sector};
use mmds_kmc::parallel::{kmc_rank_grid, run_parallel_kmc, KmcRankSummary, ParallelKmcParams};
use mmds_kmc::solver::{run_sector, sectors};
use mmds_kmc::sublattice::SITE_EVAL_SECONDS;
use mmds_kmc::{ExchangeStrategy, KmcConfig, KmcSimulation, OnDemandMode};
use mmds_swmpi::trace::{clear_tracer, install_tracer, CommEvent, CommTracer};
use mmds_swmpi::world::RankOutput;
use mmds_swmpi::{topology::CartGrid, CommStats, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, mix, slowest_rank, tail, Report};
use crate::trace::Trace;
use crate::RANKS;

/// Global box edge in BCC unit cells.
pub const CELLS: usize = 32;
/// Synchronisation cycles per run.
pub const CYCLES: usize = 20;
/// Seeded vacancy concentration.
pub const VACANCY_CONCENTRATION: f64 = 2.0e-3;

/// The workload's parameters: 32³ cells, 2·10⁻³ vacancies placed from
/// the seed, on-demand two-sided exchange.
pub fn kmc_params(seed: u64, cells: usize, cycles: usize) -> ParallelKmcParams {
    ParallelKmcParams {
        kmc: KmcConfig {
            seed: mix(seed),
            ..Default::default()
        },
        global_cells: [cells; 3],
        vacancy_concentration: VACANCY_CONCENTRATION,
        cycles,
        strategy: ExchangeStrategy::OnDemand(OnDemandMode::TwoSided),
        charge_compute: true,
    }
}

/// Vacancies `run_parallel_kmc` seeds for `p`.
pub fn seeded_vacancies(p: &ParallelKmcParams) -> usize {
    let sites = 2 * p.global_cells.iter().product::<usize>();
    (p.vacancy_concentration * sites as f64).round() as usize
}

/// Exact per-layer work of the composed cycles on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct KmcCounts {
    /// Cycles run.
    pub cycles: u64,
    /// Events executed.
    pub events: u64,
    /// Patch-site energy evaluations.
    pub site_evals: u64,
    /// Ghost payload bytes sent by the exchange hooks.
    pub ghost_bytes: u64,
    /// Dirty sites shipped.
    pub dirty_sites: u64,
    /// Sites a full-ghost put would have shipped.
    pub candidate_sites: u64,
}

/// A rank's spans and counts from the composed cycles.
#[derive(Debug, Default)]
pub struct KmcLayers {
    /// Spans around each call.
    pub trace: Trace,
    /// Work counts.
    pub counts: KmcCounts,
    /// Nanoseconds this rank's comm operations blocked during the
    /// cycles (swmpi tracer).
    pub block_ns: u64,
}

/// Sums, per rank, the wall time swmpi operations blocked.
pub struct BlockTracer {
    ns: Vec<AtomicU64>,
}

impl BlockTracer {
    /// Installs a tracer for a world of [`RANKS`] ranks.
    pub fn install() -> Arc<Self> {
        let t = Arc::new(Self {
            ns: (0..RANKS).map(|_| AtomicU64::new(0)).collect(),
        });
        install_tracer(t.clone());
        t
    }

    /// Blocked nanoseconds so far on `rank`.
    pub fn blocked_ns(&self, rank: usize) -> u64 {
        self.ns[rank].load(Ordering::Relaxed)
    }

    /// Removes the process-global tracer.
    pub fn uninstall(&self) {
        clear_tracer();
    }
}

impl CommTracer for BlockTracer {
    fn on_comm(&self, ev: &CommEvent) {
        // A statistic read after the world joins: no ordering needed.
        // The tracer is process-global; events of other worlds' ranks
        // beyond this world's size are ignored.
        if let Some(ns) = self.ns.get(ev.rank) {
            ns.fetch_add(ev.wall_ns, Ordering::Relaxed);
        }
    }
}

/// One `KmcSimulation::cycle` composed from the crates' public
/// functions, with a span around each call. `rng` must be the
/// simulation's own stream: seeded from `sim.cfg.seed` and used by
/// nothing else.
pub fn composite_cycle(
    sim: &mut KmcSimulation,
    rng: &mut StdRng,
    strategy: ExchangeStrategy,
    t: &mut impl KmcTransport,
    tr: &mut Trace,
    counts: &mut KmcCounts,
) -> u64 {
    tr.span("kmc.cycle", |tr| {
        let dt = tr.span("kmc.sync_dt", |_| sim.compute_dt(t));
        if dt <= 0.0 {
            sim.time = sim.cfg.t_threshold;
            return 0;
        }
        let evals_before = sim.stats.rate.site_evals;
        let mut events = 0;
        for sec in sectors() {
            counts.ghost_bytes += tr.span("kmc.exchange", |_| {
                pre_sector(strategy, &mut sim.lat, sec, t)
            });
            let out = tr.span("kmc.sector", |_| {
                run_sector(&mut sim.lat, &sim.model, sec, dt, rng, &mut sim.stats.rate)
            });
            events += out.events;
            let x = tr.span("kmc.exchange", |_| {
                post_sector(strategy, &mut sim.lat, sec, &out.dirty, t)
            });
            counts.ghost_bytes += x.bytes;
            counts.dirty_sites += x.dirty_sites;
            counts.candidate_sites += x.candidate_sites;
        }
        tr.span("kmc.account", |_| {
            sim.stats.events += events;
            sim.stats.cycles += 1;
            sim.time += dt;
            let evals = sim.stats.rate.site_evals - evals_before;
            t.tick_compute(evals as f64 * SITE_EVAL_SECONDS);
            counts.site_evals += evals;
        });
        counts.events += events;
        counts.cycles += 1;
        events
    })
}

/// Runs `cycles` cycles: production `KmcSimulation::cycle` calls timed
/// one by one, or, with `layers`, the composed cycle. Returns the
/// events and the per-cycle wall times (s).
pub fn drive_cycles(
    sim: &mut KmcSimulation,
    strategy: ExchangeStrategy,
    t: &mut impl KmcTransport,
    cycles: usize,
    layers: Option<(&mut KmcLayers, &BlockTracer)>,
) -> (u64, Vec<f64>) {
    let mut walls = Vec::with_capacity(cycles);
    let mut events = 0;
    match layers {
        None => {
            for _ in 0..cycles {
                let c = Instant::now();
                events += sim.cycle(strategy, t);
                walls.push(c.elapsed().as_secs_f64());
            }
        }
        Some((l, blocks)) => {
            let rank = t.rank();
            let blocked0 = blocks.blocked_ns(rank);
            let mut rng = StdRng::seed_from_u64(sim.cfg.seed);
            for _ in 0..cycles {
                let c = Instant::now();
                events += composite_cycle(sim, &mut rng, strategy, t, &mut l.trace, &mut l.counts);
                walls.push(c.elapsed().as_secs_f64());
            }
            l.block_ns += blocks.blocked_ns(rank) - blocked0;
        }
    }
    (events, walls)
}

/// What one rank of the mirrored run returns.
#[derive(Debug)]
pub struct KmcRank {
    /// The production run's per-rank summary.
    pub summary: KmcRankSummary,
    /// Set-up wall: world launch, tables, lattice, vacancies, initial
    /// ghost fill (s).
    pub setup_s: f64,
    /// Wall of each cycle (s).
    pub cycle_s: Vec<f64>,
    /// Spans and counts (traced runs only).
    pub layers: Option<KmcLayers>,
}

/// `run_parallel_kmc`, mirrored call for call, with a clock around each
/// cycle, or the composed cycle when `blocks` is given.
pub fn mirror_kmc(
    world: &World,
    p: &ParallelKmcParams,
    blocks: Option<&BlockTracer>,
) -> Vec<RankOutput<KmcRank>> {
    let grid3 = CartGrid::for_ranks(RANKS);
    let launch = Instant::now();
    world.run(RANKS, |comm| {
        let mut cfg = p.kmc;
        cfg.seed = p.kmc.rank_seed(comm.rank());
        let grid = kmc_rank_grid(&cfg, p.global_cells, grid3, comm.rank());
        let mut sim = KmcSimulation::new(cfg, grid);
        sim.lat
            .seed_vacancies_global(seeded_vacancies(p), p.kmc.seed ^ 0xACE1);
        let mut t = if p.charge_compute {
            CommK::new(comm, grid3)
        } else {
            CommK::without_compute_charge(comm, grid3)
        };
        sim.initialize(&mut t);
        comm.reset_accounting();
        let setup_s = launch.elapsed().as_secs_f64();
        let mut layers = blocks.map(|_| KmcLayers::default());
        let (events, cycle_s) = drive_cycles(
            &mut sim,
            p.strategy,
            &mut t,
            p.cycles,
            layers.as_mut().zip(blocks),
        );
        comm.barrier();
        let vacancy_cells = sim
            .lat
            .vacancies()
            .map(|s| {
                let (g, b) = sim.lat.local_to_global(s);
                ([g[0] as u32, g[1] as u32, g[2] as u32], b as u8)
            })
            .collect();
        KmcRank {
            summary: KmcRankSummary {
                events,
                vacancies: sim.lat.n_vacancies(),
                sites: sim.lat.n_owned(),
                time: sim.time,
                vacancy_cells,
            },
            setup_s,
            cycle_s,
            layers,
        }
    })
}

/// True when two per-rank KMC summaries agree bit for bit.
pub fn same_kmc(a: &KmcRankSummary, b: &KmcRankSummary) -> bool {
    a.events == b.events
        && a.vacancies == b.vacancies
        && a.sites == b.sites
        && a.time.to_bits() == b.time.to_bits()
        && a.vacancy_cells == b.vacancy_cells
}

fn check_against(
    rep: &mut Report,
    what: &str,
    reference: &[RankOutput<KmcRankSummary>],
    got: &[RankOutput<KmcRank>],
) {
    let same = reference.len() == got.len()
        && reference.iter().zip(got).all(|(r, g)| {
            same_kmc(&r.result, &g.result.summary) && r.clock.to_bits() == g.clock.to_bits()
        });
    rep.check(
        same,
        &format!("kmc_2rank: {what} matches run_parallel_kmc bitwise"),
    );
}

fn check_conserved(rep: &mut Report, seeded: usize, total: usize, what: &str) {
    rep.check(
        total == seeded,
        &format!(
            "kmc_2rank: {what} conserves the global vacancy count ({seeded} seeded, {total} final)"
        ),
    );
}

/// Per-cycle wall of a mirrored world run: the slowest rank's cycle.
pub fn cycle_walls(out: &[RankOutput<KmcRank>]) -> Vec<f64> {
    slowest_rank(out.iter().map(|r| r.result.cycle_s.as_slice()))
}

/// Vacancy configurations a run cycles through: the KMC work per cycle
/// depends on where the vacancies sit, so one run averages several
/// configurations drawn from its seed.
pub const CONFIGS: u64 = 4;

/// The parameters of configuration `k` of the run seeded `seed`.
pub fn config_params(seed: u64, k: u64) -> ParallelKmcParams {
    kmc_params(
        seed.wrapping_mul(CONFIGS).wrapping_add(k % CONFIGS),
        CELLS,
        CYCLES,
    )
}

/// The untraced run: production `run_parallel_kmc` calls (time to
/// solution) alternate with the mirror (per-cycle latencies) until
/// `seconds` have passed and every one of the [`CONFIGS`] vacancy
/// configurations ran equally often, after one untimed warm-up call.
pub fn run_untraced(seed: u64, seconds: f64, rep: &mut Report) {
    let world = World::default_world();
    run_parallel_kmc(&world, RANKS, &config_params(seed, 0));
    let (mut run_walls, mut setups, mut cycle_ms, mut rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let sites = 2 * CELLS.pow(3);
    let t_run = Instant::now();
    let mut episode = 0;
    // Whole rounds of configurations, so each weighs the same.
    while episode % CONFIGS != 0 || episode == 0 || t_run.elapsed().as_secs_f64() < seconds {
        let p = config_params(seed, episode);
        let seeded = seeded_vacancies(&p);
        let t = Instant::now();
        let prod = run_parallel_kmc(&world, RANKS, &p);
        run_walls.push(t.elapsed().as_secs_f64());
        check_conserved(
            rep,
            seeded,
            prod.iter().map(|r| r.result.vacancies).sum(),
            "run_parallel_kmc",
        );
        let mirror = mirror_kmc(&world, &p, None);
        check_against(rep, "timed mirror", &prod, &mirror);
        setups.push(mirror.iter().map(|r| r.result.setup_s).fold(0.0, f64::max));
        let walls = cycle_walls(&mirror);
        rates.push((sites * walls.len()) as f64 / walls.iter().sum::<f64>());
        cycle_ms.extend(walls.iter().map(|w| w * 1e3));
        episode += 1;
    }
    let (q, p90) = tail(&cycle_ms);
    rep.metric("step_ms_p50", median(&cycle_ms));
    rep.metric("step_ms_p90", p90);
    rep.metric("site_steps_per_s", median(&rates));
    rep.metric("run_wall_s", median(&run_walls));
    rep.metric("setup_s", median(&setups));
    println!(
        "kmc_2rank: {RANKS} ranks x 1 worker, {CELLS}^3 cells ({sites} sites), {CONFIGS} vacancy \
         configurations, {CYCLES} cycles x {episode} runs; {} cycle samples, tail percentile p{:.0}",
        cycle_ms.len(),
        q * 100.0
    );
}

/// Per-cycle swmpi accounting, summed over ranks.
pub fn swmpi_per_cycle(rep: &mut Report, stats: &[CommStats], cycles: f64) {
    let sum = |f: &dyn Fn(&CommStats) -> u64| stats.iter().map(f).sum::<u64>() as f64 / cycles;
    rep.metric("swmpi.msgs_per_cycle", sum(&|s| s.msgs_sent));
    rep.metric(
        "swmpi.bytes_per_cycle",
        sum(&|s| s.bytes_sent + s.bytes_put),
    );
    rep.metric("swmpi.puts_per_cycle", sum(&|s| s.puts));
    rep.metric("swmpi.collectives_per_cycle", sum(&|s| s.collectives));
}

/// Reports the KMC-layer metrics of the composed cycles of all ranks.
/// Times are rank averages per cycle; counts are world totals per cycle.
pub fn report_kmc_layers(rep: &mut Report, layers: &[&KmcLayers]) {
    let ranks = layers.len() as f64;
    let cycles = layers[0].counts.cycles as f64;
    let ms =
        |name: &str| layers.iter().map(|l| l.trace.total_ms(name)).sum::<f64>() / ranks / cycles;
    let total =
        |f: &dyn Fn(&KmcCounts) -> u64| layers.iter().map(|l| f(&l.counts)).sum::<u64>() as f64;
    let evals = total(&|c| c.site_evals);
    let sector_ns: f64 = layers
        .iter()
        .map(|l| l.trace.total_ms("kmc.sector") * 1e6)
        .sum();
    rep.metric("kmc.sync_dt_ms_per_cycle", ms("kmc.sync_dt"));
    rep.metric("kmc.sector_ms_per_cycle", ms("kmc.sector"));
    rep.metric("kmc.exchange_ms_per_cycle", ms("kmc.exchange"));
    rep.metric("kmc.site_evals_per_cycle", evals / cycles);
    rep.metric("kmc.events_per_cycle", total(&|c| c.events) / cycles);
    rep.metric("kmc.rate_ns_per_site_eval", sector_ns / evals);
    rep.metric(
        "kmc.ghost_bytes_per_cycle",
        total(&|c| c.ghost_bytes) / cycles,
    );
    rep.metric(
        "kmc.dirty_fraction",
        total(&|c| c.dirty_sites) / total(&|c| c.candidate_sites),
    );
    rep.metric(
        "swmpi.block_ms_per_cycle",
        layers.iter().map(|l| l.block_ns as f64).sum::<f64>() * 1e-6 / cycles,
    );
    rep.metric(
        "trace.cycle_coverage",
        layers
            .iter()
            .map(|l| l.trace.coverage("kmc.cycle"))
            .sum::<f64>()
            / ranks,
    );
}

/// The traced run, on configuration 0: per round, the production run
/// (reference), the untraced mirror (the overhead base) and the
/// composed, traced cycles, which must match the production result
/// bitwise.
pub fn run_traced(seed: u64, seconds: f64, rep: &mut Report) {
    let p = config_params(seed, 0);
    let seeded = seeded_vacancies(&p);
    let world = World::default_world();
    let (mut untraced_s, mut traced_s, mut cycle_ms) = (0.0, 0.0, Vec::new());
    let mut traced;
    let t_run = Instant::now();
    let mut round = 0;
    loop {
        let prod = run_parallel_kmc(&world, RANKS, &p);
        let mirror = mirror_kmc(&world, &p, None);
        check_against(rep, "timed mirror", &prod, &mirror);
        for w in cycle_walls(&mirror) {
            untraced_s += w;
            cycle_ms.push(w * 1e3);
        }
        let blocks = BlockTracer::install();
        traced = mirror_kmc(&world, &p, Some(&blocks));
        blocks.uninstall();
        check_against(rep, "traced composite cycle", &prod, &traced);
        check_conserved(
            rep,
            seeded,
            traced.iter().map(|r| r.result.summary.vacancies).sum(),
            "traced composite",
        );
        traced_s += cycle_walls(&traced).iter().sum::<f64>();
        round += 1;
        let round_s = t_run.elapsed().as_secs_f64() / round as f64;
        if t_run.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }
    let layers: Vec<&KmcLayers> = traced
        .iter()
        .map(|r| r.result.layers.as_ref().expect("traced ranks carry layers"))
        .collect();
    report_kmc_layers(rep, &layers);
    layers[0]
        .trace
        .print_table("kmc_2rank spans of rank 0, last round:");
    let stats: Vec<CommStats> = traced.iter().map(|r| r.stats).collect();
    swmpi_per_cycle(rep, &stats, CYCLES as f64);
    rep.metric("kmc.cycle_ms_p50", median(&cycle_ms));
    rep.metric("trace.overhead_ratio", traced_s / untraced_s);
    println!(
        "kmc_2rank traced: {round} rounds; spans cover {:.1}% of the cycle",
        100.0 * rep.get("trace.cycle_coverage").unwrap_or(0.0)
    );
}
