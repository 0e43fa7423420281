//! `md_host`: single-rank NVE molecular dynamics on the host EAM path.
//!
//! One window is `STEPS` velocity-Verlet steps of a 16³-cell box
//! (8192 atoms) started from the perfect lattice with 600 K
//! Maxwell–Boltzmann velocities drawn from the seed. Every window of a
//! run restarts from the same snapshot, so every window is the same
//! trajectory and repeats bit for bit.

use std::hint::black_box;
use std::time::Instant;

use mmds_lattice::LatticeNeighborList;
use mmds_md::domain::{exchange_ghosts, migrate_runaways, GhostPhase, Loopback};
use mmds_md::force::{
    chunked_map, density_pass_plan, embedding_pass_with, for_each_partner_sq, force_pass_plan,
    Central, GatherPlan, PassConfig, BATCH_GATHER_CAP,
};
use mmds_md::integrate::{drift, kick, kinetic_energy, temperature};
use mmds_md::runaway::apply_transitions;
use mmds_md::sim::StepSample;
use mmds_md::thermostat::berendsen;
use mmds_md::{MdConfig, MdSimulation};
use mmds_telemetry::Mode;

use crate::report::{median, mix, tail, Report};
use crate::trace::Trace;

/// Box edge in BCC unit cells.
pub const CELLS: usize = 16;
/// Steps in one window.
pub const STEPS: usize = 80;
/// Host worker threads for the EAM passes.
pub const WORKERS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Force errors below this are reported as this floor (eV/Å): the
/// resolution of the comparison, so a bitwise match reads as a number.
pub const FORCE_ERR_FLOOR: f64 = 1e-12;

/// The run's MD configuration: NVE from 600 K, the paper's 5000-knot
/// tables, velocities drawn from the seed.
pub fn md_config(seed: u64) -> MdConfig {
    MdConfig {
        temperature: 600.0,
        thermostat_tau: None,
        seed: mix(seed),
        ..Default::default()
    }
}

/// Sets the worker-thread count of the host passes.
pub fn set_workers(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// A set-up md_host case: the production simulation at the start of
/// the window and the snapshot every window restarts from.
pub struct HostCase {
    /// The production simulation (`PassConfig::default()`).
    pub sim: MdSimulation,
    /// Neighbour-list state at the start of the window, forces current.
    pub start: LatticeNeighborList,
    /// Total energy at the start of the window (eV).
    pub e0: f64,
    /// Atoms in the box.
    pub n_atoms: usize,
}

impl HostCase {
    /// Builds tables and lattice, draws velocities and computes the
    /// starting forces with the production passes.
    pub fn new(seed: u64, cells: usize) -> Self {
        let mut sim = MdSimulation::single_box(md_config(seed), cells);
        sim.init_velocities();
        let pe = sim.compute_forces(&mut Loopback);
        let e0 = pe.total() + kinetic_energy(&sim.lnl, &sim.interior, sim.mass);
        Self {
            n_atoms: sim.n_atoms(),
            start: sim.lnl.clone(),
            sim,
            e0,
        }
    }

    /// Puts the simulation back at the start of the window. The
    /// snapshot carries the starting forces, so the next `step` does
    /// not recompute them (as after [`HostCase::new`]).
    pub fn restart(&mut self) {
        self.sim.lnl = self.start.clone();
        self.sim.time_ps = 0.0;
        self.sim.steps_done = 0;
        self.sim.transitions = Default::default();
    }
}

/// Every bit of the dynamic state: site ids, positions and velocities,
/// and the live run-aways with their anchors.
pub fn state_bits(l: &LatticeNeighborList) -> Vec<u64> {
    let mut out = Vec::with_capacity(7 * l.n_sites());
    for s in 0..l.n_sites() {
        out.push(l.id[s] as u64);
        out.extend(l.pos[s].iter().chain(&l.vel[s]).map(|x| x.to_bits()));
    }
    for i in l.live_runaways() {
        let r = l.runaway(i);
        out.extend([r.id as u64, r.home as u64]);
        out.extend(r.pos.iter().chain(&r.vel).map(|x| x.to_bits()));
    }
    out
}

/// Per-step counts and times of the lattice-traversal and table probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Partners visited.
    pub partners: u64,
    /// Traversal probe time (ns).
    pub traverse_ns: f64,
    /// Lanes evaluated by the batch table kernel.
    pub lanes: u64,
    /// Table probe time (ns).
    pub table_ns: f64,
}

fn centrals(l: &LatticeNeighborList, interior: &[usize]) -> Vec<Central> {
    interior
        .iter()
        .filter(|&&s| l.id[s] >= 0)
        .map(|&s| Central::Site(s))
        .chain(l.live_runaways().into_iter().map(Central::Runaway))
        .collect()
}

/// Times, at the production worker count and chunking, (1) the partner
/// traversal alone and (2) the fused batch table kernel over the same
/// partners' distances, in [`BATCH_GATHER_CAP`] groups per central as
/// the production density pass evaluates them. Read-only.
fn probe(sim: &MdSimulation, acc: &mut Probes) {
    let l = &sim.lnl;
    let cutoff = sim.pot.cutoff();
    let parallel = sim.pass_config.parallel;
    let cs = centrals(l, &sim.interior);
    let t = Instant::now();
    let counts = chunked_map(&cs, parallel, |c| {
        let mut n = 0u64;
        let mut r2 = 0.0;
        for_each_partner_sq(l, c, cutoff, |p| {
            n += 1;
            r2 += p.r2;
        });
        black_box(r2);
        n
    });
    acc.traverse_ns += t.elapsed().as_nanos() as f64;
    acc.partners += counts.iter().sum::<u64>();

    let rs: Vec<Vec<f64>> = cs
        .iter()
        .map(|&c| {
            let mut r = Vec::new();
            for_each_partner_sq(l, c, cutoff, |p| r.push(p.r2.sqrt()));
            r
        })
        .collect();
    let idx: Vec<usize> = (0..rs.len()).collect();
    let (pot, form) = (&sim.pot, sim.table_form);
    let t = Instant::now();
    let lanes = chunked_map(&idx, parallel, |c| {
        let mut out = [[0.0; BATCH_GATHER_CAP]; 4];
        let mut sum = 0.0;
        for g in rs[c].chunks(BATCH_GATHER_CAP) {
            let n = g.len();
            let [phi, dphi, f, df] = &mut out;
            pot.pair_density_batch(
                form,
                g,
                &mut phi[..n],
                &mut dphi[..n],
                &mut f[..n],
                &mut df[..n],
            );
            sum += phi[0] + f[n - 1];
        }
        black_box(sum);
        rs[c].len() as u64
    });
    acc.table_ns += t.elapsed().as_nanos() as f64;
    acc.lanes += lanes.iter().sum::<u64>();
}

/// One velocity-Verlet step of [`MdSimulation::step`] composed from the
/// crates' public functions, with a span around each call. Assumes the
/// forces are current (true after [`HostCase::new`] / `restart`).
/// With `probes`, the two read-only probes run right after the density
/// pass, on the state that pass saw.
pub fn composite_step(
    sim: &mut MdSimulation,
    plan: &mut GatherPlan,
    tr: &mut Trace,
    probes: Option<&mut Probes>,
) -> StepSample {
    tr.span("md.step", |tr| {
        let dt = sim.cfg.dt;
        tr.span("md.integrate", |_| {
            kick(&mut sim.lnl, &sim.interior, 0.5 * dt, sim.mass);
            drift(&mut sim.lnl, &sim.interior, dt);
        });
        let st = tr.span("md.transitions", |_| {
            let st = apply_transitions(&mut sim.lnl, &sim.cfg, &sim.interior);
            migrate_runaways(&mut sim.lnl, &mut Loopback);
            st
        });
        sim.transitions = sim.transitions.merge(&st);
        tr.span("md.ghost", |_| {
            exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Positions)
        });
        tr.span("md.density_pass", |_| {
            density_pass_plan(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
                plan,
            )
        });
        if let Some(acc) = probes {
            tr.span("probe.md", |_| probe(sim, acc));
        }
        let embed = tr.span("md.embed", |_| {
            embedding_pass_with(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
            )
        });
        tr.span("md.ghost", |_| {
            exchange_ghosts(&mut sim.lnl, &mut Loopback, GhostPhase::Fp)
        });
        let pair = tr.span("md.force_pass", |_| {
            force_pass_plan(
                &mut sim.lnl,
                &sim.pot,
                sim.table_form,
                &sim.interior,
                sim.pass_config,
                plan,
            )
        });
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
        sim.steps_done += 1;
        tr.span("md.observe", |_| StepSample {
            pair,
            embed,
            kinetic: kinetic_energy(&sim.lnl, &sim.interior, sim.mass),
            temperature: temperature(&sim.lnl, &sim.interior, sim.mass),
        })
    })
}

/// Production forces against the `PassConfig::seed_serial()` oracle on
/// clones of one state.
pub struct Oracle {
    prod: MdSimulation,
    oracle: MdSimulation,
}

/// One force comparison.
#[derive(Debug, Clone, Copy)]
pub struct ForceCheck {
    /// max over atoms of |F_production − F_oracle| (eV/Å), floored at
    /// [`FORCE_ERR_FLOOR`].
    pub err: f64,
    /// max over atoms of |F_oracle| (eV/Å).
    pub oracle_max: f64,
}

impl Oracle {
    /// Two simulations of the run's configuration, one per pass config.
    pub fn new(seed: u64, cells: usize) -> Self {
        let prod = MdSimulation::single_box(md_config(seed), cells);
        let mut oracle = MdSimulation::single_box(md_config(seed), cells);
        oracle.pass_config = PassConfig::seed_serial();
        Self { prod, oracle }
    }

    /// Computes the forces of state `l` both ways and compares them.
    pub fn compare(&mut self, l: &LatticeNeighborList) -> ForceCheck {
        self.prod.lnl = l.clone();
        self.oracle.lnl = l.clone();
        self.prod.compute_forces(&mut Loopback);
        self.oracle.compute_forces(&mut Loopback);
        let (p, o) = (&self.prod.lnl, &self.oracle.lnl);
        let norm = |a: [f64; 3]| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        let diff = |a: [f64; 3], b: [f64; 3]| norm([a[0] - b[0], a[1] - b[1], a[2] - b[2]]);
        let mut err: f64 = 0.0;
        let mut oracle_max: f64 = 0.0;
        for &s in self.prod.interior.iter().filter(|&&s| p.id[s] >= 0) {
            err = err.max(diff(p.force[s], o.force[s]));
            oracle_max = oracle_max.max(norm(o.force[s]));
        }
        for i in p.live_runaways() {
            err = err.max(diff(p.runaway(i).force, o.runaway(i).force));
            oracle_max = oracle_max.max(norm(o.runaway(i).force));
        }
        ForceCheck {
            err: err.max(FORCE_ERR_FLOOR),
            oracle_max,
        }
    }
}

fn drift_of(e0: f64, last: &StepSample) -> f64 {
    (last.total() - e0).abs() / e0.abs()
}

/// The untraced run: after one untimed warm-up window, alternates
/// windows stepped one `MdSimulation::step` at a time (step latencies)
/// with whole `MdSimulation::run` windows (time to solution) until
/// `seconds` have passed.
pub fn run_untraced(seed: u64, seconds: f64, rep: &mut Report) {
    set_workers(WORKERS);
    mmds_telemetry::set_mode(Mode::Off);
    let mut setups = Vec::new();
    let mut case = None;
    for _ in 0..SETUPS {
        drop(case.take());
        let t = Instant::now();
        case = Some(HostCase::new(seed, CELLS));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut case = case.expect("at least one set-up");
    let n0 = case.n_atoms;
    // One untimed window first, so no timed window pays for cold caches
    // and first-touch allocations.
    case.sim.run(&mut Loopback, STEPS);
    let mut reference: Option<Vec<u64>> = None;
    let (mut step_ms, mut rates) = (Vec::new(), Vec::new());
    let mut run_walls = Vec::new();
    let mut last = StepSample::default();
    let mut end_state = None;
    let t_run = Instant::now();
    let mut window = 0;
    while window < 2 || t_run.elapsed().as_secs_f64() < seconds {
        case.restart();
        if window % 2 == 0 {
            let mut stepped_s = 0.0;
            for _ in 0..STEPS {
                let t = Instant::now();
                last = case.sim.step(&mut Loopback);
                let dt = t.elapsed().as_secs_f64();
                stepped_s += dt;
                step_ms.push(dt * 1e3);
            }
            rates.push((n0 * STEPS) as f64 / stepped_s);
        } else {
            let t = Instant::now();
            let r = case.sim.run(&mut Loopback, STEPS);
            let wall = t.elapsed().as_secs_f64();
            run_walls.push(wall);
            rates.push((n0 * STEPS) as f64 / wall);
            black_box(r);
        }
        rep.check(
            case.sim.n_atoms() == n0,
            &format!("md_host window {window}: atom count conserved"),
        );
        let bits = state_bits(&case.sim.lnl);
        match &reference {
            None => {
                end_state = Some(case.sim.lnl.clone());
                reference = Some(bits);
            }
            Some(r) => rep.check(
                *r == bits,
                &format!("md_host window {window}: same trajectory bits as window 0"),
            ),
        }
        window += 1;
    }
    let (q, p90) = tail(&step_ms);
    rep.metric("step_ms_p50", median(&step_ms));
    rep.metric("step_ms_p90", p90);
    rep.metric("site_steps_per_s", median(&rates));
    rep.metric("run_wall_s", median(&run_walls));
    rep.metric("setup_s", median(&setups));
    println!(
        "md_host: {} atoms, {STEPS}-step NVE window x {window}, {WORKERS} workers; \
         {} step samples, tail percentile p{:.0}",
        n0,
        step_ms.len(),
        q * 100.0
    );

    // Accuracy of the production passes, printed beside the oracle.
    let mut oracle = Oracle::new(seed, CELLS);
    let start = oracle.compare(&case.start);
    let end = oracle.compare(end_state.as_ref().expect("one window ran"));
    print_accuracy(start, end, drift_of(case.e0, &last), None);
}

fn print_accuracy(start: ForceCheck, end: ForceCheck, drift: f64, oracle_drift: Option<f64>) {
    println!(
        "md_host accuracy (not gated): max |F_prod - F_oracle| = {:.6e} eV/A at window start \
         (oracle max |F| = {:.3e}), {:.6e} eV/A at window end (oracle max |F| = {:.3e})",
        start.err, start.oracle_max, end.err, end.oracle_max
    );
    match oracle_drift {
        Some(o) => println!(
            "md_host energy drift |E_end - E_0|/|E_0| over the window: production {drift:.6e}, \
             oracle {o:.6e}"
        ),
        None => println!(
            "md_host energy drift |E_end - E_0|/|E_0| over the window: production {drift:.6e}"
        ),
    }
}

/// Energy drift of the same window under the `PassConfig::seed_serial()`
/// oracle, from the oracle's own starting forces.
fn oracle_window_drift(case: &mut HostCase) -> f64 {
    case.restart();
    case.sim.pass_config = PassConfig::seed_serial();
    let pe = case.sim.compute_forces(&mut Loopback);
    let e0 = pe.total() + kinetic_energy(&case.sim.lnl, &case.sim.interior, case.sim.mass);
    let r = case.sim.run(&mut Loopback, STEPS);
    case.sim.pass_config = PassConfig::default();
    r.samples.last().map_or(0.0, |s| drift_of(e0, s))
}

/// Accumulated composite-window measurements.
#[derive(Default)]
struct Composite {
    trace: Trace,
    probes: Probes,
    steps: usize,
}

fn composite_window(case: &mut HostCase, acc: &mut Composite, with_probes: bool) -> StepSample {
    case.restart();
    let mut plan = GatherPlan::default();
    let mut last = StepSample::default();
    for _ in 0..STEPS {
        let p = with_probes.then_some(&mut acc.probes);
        last = composite_step(&mut case.sim, &mut plan, &mut acc.trace, p);
        acc.steps += 1;
    }
    last
}

/// The traced run. Each round runs the same window five ways and checks
/// that all five end in the same bits: `MdSimulation::run` under
/// `Mode::Off` and under `Mode::Summary`, the composite step at 2
/// workers (with probes) and at 1 worker, and, in the first round, the
/// oracle pass configuration for its energy drift (not compared).
pub fn run_traced(seed: u64, seconds: f64, rep: &mut Report) {
    set_workers(WORKERS);
    mmds_telemetry::set_mode(Mode::Off);
    let mut case = HostCase::new(seed, CELLS);
    // One untimed window first, so no timed window pays for cold caches
    // and first-touch allocations.
    case.sim.run(&mut Loopback, STEPS);
    let (mut off_s, mut summary_s) = (Vec::new(), Vec::new());
    let mut two = Composite::default();
    let mut one = Composite::default();
    let mut runaways_end;
    let mut oracle_drift = None;
    let mut last;
    let mut end_state;
    let t_run = Instant::now();
    let mut round = 0;
    loop {
        case.restart();
        let t = Instant::now();
        case.sim.run(&mut Loopback, STEPS);
        off_s.push(t.elapsed().as_secs_f64());
        let reference = state_bits(&case.sim.lnl);
        runaways_end = case.sim.lnl.n_runaways();
        end_state = case.sim.lnl.clone();

        case.restart();
        mmds_telemetry::set_mode(Mode::Summary);
        let t = Instant::now();
        case.sim.run(&mut Loopback, STEPS);
        summary_s.push(t.elapsed().as_secs_f64());
        mmds_telemetry::set_mode(Mode::Off);
        mmds_telemetry::global().reset();
        rep.check(
            state_bits(&case.sim.lnl) == reference,
            "md_host: Mode::Summary run matches Mode::Off bitwise",
        );

        last = composite_window(&mut case, &mut two, true);
        rep.check(
            state_bits(&case.sim.lnl) == reference,
            "md_host: traced composite step matches MdSimulation::step bitwise",
        );

        set_workers(1);
        composite_window(&mut case, &mut one, false);
        set_workers(WORKERS);
        rep.check(
            state_bits(&case.sim.lnl) == reference,
            "md_host: 1-worker trajectory matches 2-worker trajectory bitwise",
        );
        rep.check(
            case.sim.n_atoms() == case.n_atoms,
            "md_host: atom count conserved",
        );

        if round == 0 {
            oracle_drift = Some(oracle_window_drift(&mut case));
        }
        round += 1;
        let round_s = t_run.elapsed().as_secs_f64() / round as f64;
        if t_run.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }

    let tr = &two.trace;
    let per_step = |name: &str| tr.total_ms(name) / two.steps as f64;
    let density = per_step("md.density_pass");
    let pb = two.probes;
    let traverse_ms = pb.traverse_ns * 1e-6 / two.steps as f64;
    let table_ms = pb.table_ns * 1e-6 / two.steps as f64;
    rep.metric("md.density_pass_ms_per_step", density);
    rep.metric("md.embed_ms_per_step", per_step("md.embed"));
    rep.metric("md.force_pass_ms_per_step", per_step("md.force_pass"));
    rep.metric("md.ghost_ms_per_step", per_step("md.ghost"));
    rep.metric("md.integrate_ms_per_step", per_step("md.integrate"));
    rep.metric("md.transitions_ms_per_step", per_step("md.transitions"));
    rep.metric("md.stage_ms_per_step", density - traverse_ms - table_ms);
    rep.metric(
        "md.partners_per_step",
        pb.partners as f64 / two.steps as f64,
    );
    rep.metric("md.runaways_end", runaways_end as f64);
    let passes = |c: &Composite| {
        ["md.density_pass", "md.embed", "md.force_pass"]
            .iter()
            .map(|n| c.trace.total_ms(n))
            .sum::<f64>()
            / c.steps as f64
    };
    rep.metric("md.thread_speedup_2v1", passes(&one) / passes(&two));
    rep.metric(
        "lattice.traverse_ns_per_partner",
        pb.traverse_ns / pb.partners as f64,
    );
    rep.metric("eam.table_ns_per_lane", pb.table_ns / pb.lanes as f64);
    rep.metric("eam.lanes_per_step", pb.lanes as f64 / two.steps as f64);
    let windows = off_s.len() as f64;
    rep.metric(
        "trace.overhead_ratio",
        tr.window_ms("md.step") * 1e-3 / windows / median(&off_s),
    );
    rep.metric("trace.step_coverage", tr.coverage("md.step"));
    rep.metric(
        "telemetry.summary_overhead_ratio",
        median(&summary_s) / median(&off_s),
    );

    let mut oracle = Oracle::new(seed, CELLS);
    let start = oracle.compare(&case.start);
    let end = oracle.compare(&end_state);
    let drift = drift_of(case.e0, &last);
    rep.metric("md.force_err_vs_oracle", start.err.max(end.err));
    rep.metric("md.energy_drift", drift);
    print_accuracy(start, end, drift, oracle_drift);
    tr.print_table("md_host spans of the 2-worker composite windows:");
    println!(
        "md_host traced: {round} rounds of {STEPS} steps; spans cover {:.1}% of the step",
        100.0 * tr.coverage("md.step")
    );
}
