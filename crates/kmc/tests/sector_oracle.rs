//! `run_sector`'s incremental rate catalogue against the full-rebuild
//! BKL loop it replaces.
//!
//! The oracle below re-evaluates every hop of every active vacancy
//! after every event. The production sweep caches hop rates and
//! re-evaluates only the vacancies within `dep_reach` cells of a swap;
//! the contract is that events, dirty sites, site states and the RNG
//! stream stay bitwise those of the oracle, and that only the
//! evaluation counters fall.

use mmds_kmc::comm::LoopbackK;
use mmds_kmc::exchange::full_exchange;
use mmds_kmc::model::RateStats;
use mmds_kmc::parallel::{run_parallel_kmc, KmcRankSummary, ParallelKmcParams};
use mmds_kmc::solver::{dep_reach, in_sector, run_sector, sectors, SectorOutcome};
use mmds_kmc::{
    EnergyModel, ExchangeStrategy, KmcConfig, KmcLattice, KmcSimulation, OnDemandMode, SiteState,
};
use mmds_lattice::{BccGeometry, LocalGrid};
use mmds_swmpi::{MachineModel, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full-rebuild sector loop (test-only oracle).
fn oracle_sector(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    sec: [usize; 3],
    dt: f64,
    rng: &mut impl Rng,
    stats: &mut RateStats,
) -> SectorOutcome {
    let mut out = SectorOutcome::default();
    let mut t_local = 0.0;
    loop {
        // Active vacancies: owned, inside the sector.
        let active: Vec<usize> = lat
            .vacancies()
            .filter(|&v| in_sector(lat, v, sec))
            .collect();
        if active.is_empty() {
            break;
        }
        // Enumerate events (vacancy, 1NN atom partner) with rates.
        let mut events: Vec<(usize, usize, f64)> = Vec::with_capacity(active.len() * 8);
        let mut total = 0.0;
        for &v in &active {
            let partners: Vec<usize> = lat.nn1(v).collect();
            for n in partners {
                if lat.state[n].is_atom() {
                    let k = model.rate(lat, v, n, stats);
                    total += k;
                    events.push((v, n, k));
                }
            }
        }
        if total <= 0.0 {
            break;
        }
        // Advance the clock first; if we overshoot the quantum, the
        // event does not happen in this cycle.
        let u: f64 = rng.random::<f64>().max(1e-300);
        t_local += -u.ln() / total;
        if t_local > dt {
            break;
        }
        // Select the event proportionally to rate.
        let mut pick = rng.random::<f64>() * total;
        let mut chosen = events.len() - 1;
        for (i, &(_, _, k)) in events.iter().enumerate() {
            pick -= k;
            if pick <= 0.0 {
                chosen = i;
                break;
            }
        }
        let (v, n, _) = events[chosen];
        let atom = lat.state[n];
        lat.set_state(v, atom);
        lat.set_state(n, SiteState::Vacancy);
        out.dirty.push(v);
        out.dirty.push(n);
        out.events += 1;
    }
    out
}

fn cfg() -> KmcConfig {
    KmcConfig {
        table_knots: 600,
        ..Default::default()
    }
}

/// A whole-box lattice of `cells`³ cells with ghosts filled.
fn whole_box(cells: usize, build: impl FnOnce(&mut KmcLattice)) -> (KmcLattice, EnergyModel) {
    let c = cfg();
    let ghost = mmds_kmc::lattice::required_ghost(c.a0, c.rate_cutoff);
    let grid = LocalGrid::whole(BccGeometry::fe_cube(cells), ghost);
    let mut sim = KmcSimulation::new(c, grid);
    build(&mut sim.lat);
    full_exchange(&mut sim.lat, &mut LoopbackK);
    (sim.lat, sim.model)
}

/// Owned site at *interior* cell coordinates `c` (0-based), basis `b`.
fn site(lat: &KmcLattice, c: [usize; 3], b: usize) -> usize {
    let g = lat.grid.ghost;
    lat.grid.site_id(c[0] + g, c[1] + g, c[2] + g, b)
}

/// A vacancy at `s` plus `extra` of its 1NN partners.
fn cluster(lat: &mut KmcLattice, s: usize, extra: usize) {
    let partners: Vec<usize> = lat.nn1(s).take(extra).collect();
    lat.set_state(s, SiteState::Vacancy);
    for p in partners {
        if lat.is_owned(p) {
            lat.set_state(p, SiteState::Vacancy);
        }
    }
}

/// Divacancies and 4-/5-vacancy clusters at a few interior spots.
fn clusters(lat: &mut KmcLattice) {
    let n = lat.grid.len[0];
    for (c, extra) in [
        ([1, 1, 1], 1),
        ([n / 2 - 2, 2, 3], 3),
        ([2, n - 3, n / 2], 4),
    ] {
        let s = site(lat, c, 0);
        cluster(lat, s, extra);
    }
}

/// Vacancies on every sector face and against the ghost shell.
fn faces(lat: &mut KmcLattice) {
    let n = lat.grid.len[0];
    let h = n / 2;
    let ring = [0, h - 1, h, n - 1];
    for (a, &x) in ring.iter().enumerate() {
        for (b, &y) in ring.iter().enumerate() {
            let z = ring[(a + 2 * b) % 4];
            let s = site(lat, [x, y, z], (a + b) & 1);
            lat.set_state(s, SiteState::Vacancy);
        }
    }
    // A divacancy straddling the (0,0,0)/(1,0,0) face and one straddling
    // the low ghost face.
    let s = site(lat, [h, 1, 1], 0);
    cluster(lat, s, 1);
    let s = site(lat, [0, h + 1, 1], 0);
    cluster(lat, s, 2);
}

struct Tally {
    events: u64,
    oracle: RateStats,
    incremental: RateStats,
}

/// Runs `cycles` rounds of all 8 sectors on two clones of `lat`, one
/// through the oracle and one through `run_sector`, and asserts they
/// agree bitwise after every sector.
fn compare(
    name: &str,
    lat: KmcLattice,
    model: &EnergyModel,
    hops_per_cycle: f64,
    cycles: usize,
    seed: u64,
) -> Tally {
    let dt = hops_per_cycle / cfg().reference_rate();
    let (mut lat_o, mut lat_i) = (lat.clone(), lat);
    let mut rng_o = StdRng::seed_from_u64(seed);
    let mut rng_i = rng_o.clone();
    let (mut st_o, mut st_i) = (RateStats::default(), RateStats::default());
    let mut events = 0;
    for cycle in 0..cycles {
        for sec in sectors() {
            let before_o = st_o;
            let before_i = st_i;
            let o = oracle_sector(&mut lat_o, model, sec, dt, &mut rng_o, &mut st_o);
            let i = run_sector(&mut lat_i, model, sec, dt, &mut rng_i, &mut st_i);
            let at = format!("{name}: cycle {cycle} sector {sec:?}");
            assert_eq!(o.events, i.events, "{at}: events");
            assert_eq!(o.dirty, i.dirty, "{at}: dirty");
            assert!(lat_o.state == lat_i.state, "{at}: site states");
            assert_eq!(
                lat_o.vacancies().collect::<Vec<_>>(),
                lat_i.vacancies().collect::<Vec<_>>(),
                "{at}: vacancy index"
            );
            let mut peek_o = rng_o.clone();
            let mut peek_i = rng_i.clone();
            assert_eq!(
                peek_o.random::<u64>(),
                peek_i.random::<u64>(),
                "{at}: RNG stream"
            );
            assert!(
                st_o.site_evals - before_o.site_evals >= st_i.site_evals - before_i.site_evals,
                "{at}: incremental evaluated more sites than the full rebuild"
            );
            assert!(
                st_o.rate_evals - before_o.rate_evals >= st_i.rate_evals - before_i.rate_evals,
                "{at}: incremental evaluated more rates than the full rebuild"
            );
            events += o.events;
            full_exchange(&mut lat_o, &mut LoopbackK);
            full_exchange(&mut lat_i, &mut LoopbackK);
        }
    }
    Tally {
        events,
        oracle: st_o,
        incremental: st_i,
    }
}

fn check(name: &str, cells: usize, cycles: usize, build: impl FnOnce(&mut KmcLattice)) -> Tally {
    let (lat, model) = whole_box(cells, build);
    assert!(lat.n_vacancies() > 0, "{name}: no vacancies seeded");
    let t = compare(name, lat, &model, 2.0, cycles, 0x5EC7 ^ cells as u64);
    assert!(t.events > 0, "{name}: no events fired");
    t
}

/// `(partner, rate bits)` of every hop of vacancy `v`.
fn hop_rates(lat: &mut KmcLattice, model: &EnergyModel, v: usize) -> Vec<(usize, u64)> {
    let partners: Vec<usize> = lat.nn1(v).filter(|&n| lat.state[n].is_atom()).collect();
    let mut st = RateStats::default();
    partners
        .into_iter()
        .map(|n| (n, model.rate(lat, v, n, &mut st).to_bits()))
        .collect()
}

/// `dep_reach` is sound (no state change beyond it moves a hop rate by
/// one bit) and tight (some change exactly at it does).
#[test]
fn dep_reach_is_sound_and_tight() {
    let (mut lat, model) = whole_box(12, |_| {});
    let reach = dep_reach(&lat);
    // Default 3.0 Å cutoff: 1NN and 2NN both reach one cell.
    assert_eq!(reach, 3);
    let g = lat.grid.ghost;
    let c = 6 + g;
    for b in 0..2 {
        let v = lat.grid.site_id(c, c, c, b);
        lat.set_state(v, SiteState::Vacancy);
        let base = hop_rates(&mut lat, &model, v);
        let mut moved_at_reach = false;
        let r = reach as isize + 1;
        for dk in -r..=r {
            for dj in -r..=r {
                for di in -r..=r {
                    let at = |d: isize| (c as isize + d) as usize;
                    for xb in 0..2 {
                        let x = lat.grid.site_id(at(di), at(dj), at(dk), xb);
                        if x == v {
                            continue;
                        }
                        let dist = di.abs().max(dj.abs()).max(dk.abs()) as usize;
                        lat.state[x] = SiteState::Cu;
                        let moved = hop_rates(&mut lat, &model, v) != base;
                        lat.state[x] = SiteState::Fe;
                        if dist > reach {
                            assert!(!moved, "site {dist} cells away moved a rate");
                        }
                        moved_at_reach |= moved && dist == reach;
                    }
                }
            }
        }
        assert!(moved_at_reach, "basis {b}: no site at dep_reach matters");
        lat.set_state(v, SiteState::Fe);
    }
}

#[test]
fn matches_full_rebuild_at_each_concentration() {
    for (conc, cells, cycles) in [(2e-3, 16, 2), (2e-2, 16, 1), (5e-2, 12, 1)] {
        let name = format!("c = {conc:e}");
        let t = check(&name, cells, cycles, |lat| {
            let n = (conc * lat.n_owned() as f64).round() as usize;
            lat.seed_vacancies_global(n.max(1), 0xC0 + cells as u64);
            clusters(lat);
        });
        assert!(
            t.incremental.site_evals < t.oracle.site_evals,
            "{name}: the cache saved nothing ({} events)",
            t.events
        );
    }
}

#[test]
fn matches_full_rebuild_with_cu_solutes() {
    let t = check("Cu", 12, 2, |lat| {
        lat.seed_solutes_global(lat.n_owned() / 8, 0xC7);
        lat.seed_vacancies_global(lat.n_owned() / 50, 0xC8);
        clusters(lat);
    });
    assert!(t.incremental.site_evals < t.oracle.site_evals);
}

#[test]
fn matches_full_rebuild_on_sector_faces_and_ghost_shell() {
    for cells in [8, 12] {
        check("faces", cells, 2, |lat| {
            faces(lat);
            lat.seed_solutes_global(lat.n_owned() / 20, 0xFACE);
        });
    }
}

/// A single vacancy inside each sector in turn: the whole sweep happens
/// in that sector, which exercises every sector index on its own.
#[test]
fn matches_full_rebuild_in_every_sector() {
    for sec in sectors() {
        let (lat, model) = whole_box(8, |lat| {
            let base = [2 + 4 * sec[0], 2 + 4 * sec[1], 2 + 4 * sec[2]];
            let s = site(lat, base, 0);
            cluster(lat, s, 2);
            let far = site(lat, [base[0] - 1, base[1], base[2] - 1], 1);
            lat.set_state(far, SiteState::Vacancy);
        });
        let t = compare(&format!("sector {sec:?}"), lat, &model, 4.0, 2, 11);
        assert!(t.events > 0, "sector {sec:?}: no events fired");
    }
}

/// Events, vacancies, sites, time bits and sorted vacancy cells.
type SummaryKey = (u64, usize, usize, u64, Vec<([u32; 3], u8)>);

fn summary_key(r: &KmcRankSummary) -> SummaryKey {
    let mut cells = r.vacancy_cells.clone();
    cells.sort();
    (r.events, r.vacancies, r.sites, r.time.to_bits(), cells)
}

#[test]
fn parallel_runs_agree_across_strategies() {
    let world = World::new(WorldConfig {
        model: MachineModel::free(),
        ..Default::default()
    });
    for ranks in [2, 8] {
        let run = |strategy| {
            let p = ParallelKmcParams {
                kmc: KmcConfig {
                    table_knots: 600,
                    events_per_cycle: 2.0,
                    ..Default::default()
                },
                global_cells: [12; 3],
                vacancy_concentration: 2e-2,
                cycles: 4,
                strategy,
                charge_compute: true,
            };
            run_parallel_kmc(&world, ranks, &p)
                .iter()
                .map(|r| summary_key(&r.result))
                .collect::<Vec<_>>()
        };
        let trad = run(ExchangeStrategy::Traditional);
        let two = run(ExchangeStrategy::OnDemand(OnDemandMode::TwoSided));
        let one = run(ExchangeStrategy::OnDemand(OnDemandMode::OneSided));
        assert!(
            trad.iter().map(|k| k.0).sum::<u64>() > 0,
            "{ranks} ranks: no events"
        );
        assert_eq!(
            trad, two,
            "{ranks} ranks: two-sided differs from traditional"
        );
        assert_eq!(
            trad, one,
            "{ranks} ranks: one-sided differs from traditional"
        );
    }
}
