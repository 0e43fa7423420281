//! Rejection-free (BKL) event execution within one sector.
//!
//! Paper Fig. 7, boxes #4–#5: compute the rates of every possible event
//! in the sector, select one proportionally to rate, advance the local
//! clock by an exponential deviate, repeat until the synchronisation
//! quantum `dt` is exhausted.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use rand::Rng;

use crate::lattice::{KmcLattice, SiteState};
use crate::model::{EnergyModel, RateStats};

/// What one sector sweep produced.
#[derive(Debug, Clone, Default)]
pub struct SectorOutcome {
    /// Events executed.
    pub events: u64,
    /// Sites whose state changed (each swap dirties two).
    pub dirty: Vec<usize>,
}

/// Sector half-extent check: is owned site `s` inside sector
/// `sec` (each component 0 = low half, 1 = high half)?
pub fn in_sector(lat: &KmcLattice, s: usize, sec: [usize; 3]) -> bool {
    let g = lat.grid.ghost;
    let len = lat.grid.len;
    let (i, j, k, _) = lat.grid.decode(s);
    let c = [i, j, k];
    (0..3).all(|ax| {
        let half = len[ax] / 2;
        let lo = g + sec[ax] * half;
        // The high sector absorbs the odd cell when len is odd.
        let hi = if sec[ax] == 0 { lo + half } else { g + len[ax] };
        (lo..hi).contains(&c[ax])
    })
}

/// The 8 sectors in processing order.
pub fn sectors() -> [[usize; 3]; 8] {
    [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ]
}

/// Cell reach (per axis, in stored-cell coordinates) within which a
/// swap can change a hop rate. The rate of hop `w → m` reads every site
/// within one rate cutoff of a patch site, and the patch is `w`, its 1NN
/// partner `m` and every site within one rate cutoff of either; so a
/// state change further than one 1NN reach plus two rate-cutoff reaches
/// from `w` (along some axis) leaves all of `w`'s hop rates bitwise
/// unchanged. 3 cells with the default 3.0 Å cutoff.
pub fn dep_reach(lat: &KmcLattice) -> usize {
    let nn1_reach = (0..2)
        .flat_map(|b| lat.offsets.first_shell(b))
        .flat_map(|o| [o.di.abs(), o.dj.abs(), o.dk.abs()])
        .max()
        .unwrap_or(0) as usize;
    nn1_reach + 2 * lat.offsets.max_cell_reach()
}

/// Hops of one vacancy: `(partner, rate)` for its atom partners, in
/// `nn1` order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hops {
    len: usize,
    hops: [(usize, f64); 8],
}

impl Hops {
    fn eval(lat: &mut KmcLattice, model: &EnergyModel, v: usize, stats: &mut RateStats) -> Self {
        let mut h = Hops {
            len: 0,
            hops: [(0, 0.0); 8],
        };
        for i in 0..lat.nn1_deltas[v & 1].len() {
            let n = (v as isize + lat.nn1_deltas[v & 1][i]) as usize;
            if lat.state[n].is_atom() {
                h.hops[h.len] = (n, model.rate(lat, v, n, stats));
                h.len += 1;
            }
        }
        h
    }

    fn as_slice(&self) -> &[(usize, f64)] {
        &self.hops[..self.len]
    }
}

/// Per-vacancy hop rates, valid while no swap lands within `reach`
/// cells of the vacancy.
struct RateCache {
    reach: usize,
    hops: BTreeMap<usize, Hops>,
}

impl RateCache {
    fn new(lat: &KmcLattice) -> Self {
        Self {
            reach: dep_reach(lat),
            hops: BTreeMap::new(),
        }
    }

    /// Vacancy `v`'s hops, evaluated only if not cached.
    fn get(
        &mut self,
        lat: &mut KmcLattice,
        model: &EnergyModel,
        v: usize,
        stats: &mut RateStats,
    ) -> &Hops {
        match self.hops.entry(v) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Hops::eval(lat, model, v, stats)),
        }
    }

    /// Drops every entry a swap of sites `v` and `n` can have changed.
    fn swapped(&mut self, lat: &KmcLattice, v: usize, n: usize) {
        let (cv, cn) = (cell(lat, v), cell(lat, n));
        let near =
            |a: [usize; 3], b: [usize; 3]| (0..3).all(|ax| a[ax].abs_diff(b[ax]) <= self.reach);
        self.hops.retain(|&w, _| {
            let cw = cell(lat, w);
            !near(cw, cv) && !near(cw, cn)
        });
    }
}

/// Stored-cell coordinates of site `s`.
fn cell(lat: &KmcLattice, s: usize) -> [usize; 3] {
    let (i, j, k, _) = lat.grid.decode(s);
    [i, j, k]
}

/// Runs BKL dynamics in one sector for a time quantum `dt` (in KMC
/// seconds). Vacancies may hop onto ghost sites (the sublattice method
/// guarantees the owner is not concurrently active there).
///
/// The rate catalogue is incremental: each vacancy's hops are cached
/// for the duration of the call and re-evaluated only after a swap
/// within [`dep_reach`] cells of it. The catalogue is still enumerated
/// in full every iteration (active vacancies in sorted order, hops in
/// `nn1` order) and its total re-summed from zero in that order, so
/// events, states, the RNG stream and the clock are bitwise those of a
/// full rebuild; only `stats` counts fewer evaluations.
pub fn run_sector(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    sec: [usize; 3],
    dt: f64,
    rng: &mut impl Rng,
    stats: &mut RateStats,
) -> SectorOutcome {
    let _span = mmds_telemetry::span!("kmc.sector");
    let mut out = SectorOutcome::default();
    let mut t_local = 0.0;
    let mut cache = RateCache::new(lat);
    let mut active: Vec<usize> = Vec::new();
    let mut events: Vec<(usize, usize, f64)> = Vec::new();
    loop {
        // Active vacancies: owned, inside the sector.
        active.clear();
        active.extend(lat.vacancies().filter(|&v| in_sector(lat, v, sec)));
        if active.is_empty() {
            break;
        }
        // Enumerate events (vacancy, 1NN atom partner) with rates.
        events.clear();
        let mut total = 0.0;
        for &v in &active {
            for &(n, k) in cache.get(lat, model, v, stats).as_slice() {
                total += k;
                events.push((v, n, k));
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
        cache.swapped(lat, v, n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KmcConfig;
    use mmds_lattice::{BccGeometry, LocalGrid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (KmcLattice, EnergyModel) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(8), 3);
        let lat = KmcLattice::all_fe(grid, 3.0);
        let cfg = KmcConfig {
            table_knots: 800,
            ..Default::default()
        };
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model)
    }

    #[test]
    fn sector_membership_partitions_interior() {
        let (lat, _) = setup();
        for s in lat.grid.interior_ids() {
            let n = sectors()
                .iter()
                .filter(|&&sec| in_sector(&lat, s, sec))
                .count();
            assert_eq!(n, 1, "site {s} must be in exactly one sector");
        }
    }

    #[test]
    fn empty_sector_does_nothing() {
        let (mut lat, model) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0, &mut rng, &mut stats);
        assert_eq!(out.events, 0);
        assert!(out.dirty.is_empty());
        assert_eq!(stats.rate_evals, 0);
    }

    #[test]
    fn events_fire_with_generous_quantum() {
        let (mut lat, model) = setup();
        // A vacancy deep inside sector (0,0,0): cells [2,6) → pick (3,3,3).
        let v = lat.grid.site_id(3, 3, 3, 0);
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stats = RateStats::default();
        // Reference rate ≈ 3e7/s ⇒ dt of 1e-5 s guarantees many hops.
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0e-5, &mut rng, &mut stats);
        // The vacancy random-walks until it leaves the sector, so at
        // least one hop must fire with this generous quantum.
        assert!(out.events >= 1, "events = {}", out.events);
        assert_eq!(out.dirty.len() as u64, 2 * out.events);
        // Exactly one vacancy still exists (it moved around).
        assert_eq!(
            lat.state
                .iter()
                .filter(|&&s| s == SiteState::Vacancy)
                .count(),
            1
        );
    }

    #[test]
    fn tiny_quantum_blocks_events() {
        let (mut lat, model) = setup();
        let v = lat.grid.site_id(3, 3, 3, 0);
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0e-12, &mut rng, &mut stats);
        assert_eq!(out.events, 0, "quantum far below 1/rate");
    }

    #[test]
    fn vacancy_outside_sector_is_inactive() {
        let (mut lat, model) = setup();
        let v = lat.grid.site_id(7, 7, 7, 0); // sector (1,1,1)
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0, &mut rng, &mut stats);
        assert_eq!(out.events, 0);
    }

    #[test]
    fn cached_hops_stay_exact_across_swaps() {
        // After every swap, each entry the cache keeps must equal a
        // fresh evaluation bitwise.
        use rand::Rng;
        let grid = LocalGrid::whole(BccGeometry::fe_cube(10), 3);
        let mut lat = KmcLattice::all_fe(grid, 3.0);
        let model = EnergyModel::new(
            &KmcConfig {
                table_knots: 600,
                ..Default::default()
            },
            &lat,
        );
        lat.seed_solutes_global(lat.n_owned() / 10, 8);
        lat.seed_vacancies(lat.n_owned() / 20, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut cache = RateCache::new(&lat);
        let mut stats = RateStats::default();
        let mut kept = 0;
        for _ in 0..100 {
            let vacancies: Vec<usize> = lat.vacancies().collect();
            for &w in &vacancies {
                cache.get(&mut lat, &model, w, &mut stats);
            }
            let v = vacancies[rng.random_range(0..vacancies.len())];
            let partners: Vec<usize> = lat.nn1(v).filter(|&n| lat.state[n].is_atom()).collect();
            let n = partners[rng.random_range(0..partners.len())];
            let atom = lat.state[n];
            lat.set_state(v, atom);
            lat.set_state(n, SiteState::Vacancy);
            cache.swapped(&lat, v, n);
            for (&w, cached) in &cache.hops {
                assert_eq!(
                    *cached,
                    Hops::eval(&mut lat, &model, w, &mut stats),
                    "vacancy {w}"
                );
                kept += 1;
            }
        }
        assert!(kept > 3000, "only {kept} entries survived swaps");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let (mut lat, model) = setup();
            lat.seed_vacancies(5, 99);
            let mut rng = StdRng::seed_from_u64(5);
            let mut stats = RateStats::default();
            let out = run_sector(&mut lat, &model, [0, 0, 0], 3.0e-8, &mut rng, &mut stats);
            (out.events, out.dirty, lat.state)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
}
