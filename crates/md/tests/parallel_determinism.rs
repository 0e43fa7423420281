//! The production EAM passes must be bitwise deterministic: identical
//! ρ/force/energy at any worker-thread count, and identical to the
//! seed's serial scalar sweeps (the oracle).
//!
//! The sweeps rely on fixed-size chunking (independent of the thread
//! count) plus ordered write-back on the calling thread, the fused
//! `pair_density` lookup replays the exact operation order of the two
//! separate lookups, and the batched SoA lane kernels replay the
//! scalar op sequence per lane with partner-ordered accumulation — so
//! every comparison below is `assert_eq`, not a tolerance.

use mmds_md::domain::Loopback;
use mmds_md::force::{PassConfig, PAR_CHUNK_SITES};
use mmds_md::{MdConfig, MdSimulation};

/// A full bitwise state snapshot after a few MD steps.
struct Snapshot {
    rho: Vec<f64>,
    force: Vec<[f64; 3]>,
    pos: Vec<[f64; 3]>,
    /// ρ, force and position of every live run-away.
    runaways: Vec<(f64, [f64; 3], [f64; 3])>,
    pair: f64,
    embed: f64,
}

/// Steps a `cells`³ box with one displaced atom and `n_runaways` atoms
/// (every third site) promoted to run-aways 0.88 Å off their vacant
/// sites, outside the capture radius.
fn run(pass_config: PassConfig, cells: usize, n_runaways: usize, steps: usize) -> Snapshot {
    let cfg = MdConfig {
        temperature: 700.0,
        table_knots: 2000,
        ..Default::default()
    };
    let mut sim = MdSimulation::single_box(cfg, cells);
    sim.pass_config = pass_config;
    sim.init_velocities();
    // A displaced atom makes the force field strongly anisotropic.
    let a = sim.lnl.grid.site_id(3, 3, 3, 0);
    sim.lnl.pos[a][0] += 0.3;
    let promoted: Vec<usize> = sim
        .interior
        .iter()
        .copied()
        .filter(|&s| s != a)
        .step_by(3)
        .take(n_runaways)
        .collect();
    for s in promoted {
        let (p, v) = (sim.lnl.pos[s], sim.lnl.vel[s]);
        let id = sim.lnl.make_vacancy(s);
        sim.lnl
            .add_runaway(s, id, [p[0] + 0.85, p[1] + 0.2, p[2] + 0.1], v);
    }
    assert_eq!(sim.lnl.n_runaways(), n_runaways);
    let mut last = None;
    for _ in 0..steps {
        last = Some(sim.step(&mut Loopback));
    }
    let s = last.expect("at least one step");
    let l = &sim.lnl;
    Snapshot {
        rho: l.rho.clone(),
        force: l.force.clone(),
        pos: l.pos.clone(),
        runaways: l
            .live_runaways()
            .into_iter()
            .map(|i| (l.runaway(i).rho, l.runaway(i).force, l.runaway(i).pos))
            .collect(),
        pair: s.pair,
        embed: s.embed,
    }
}

fn assert_bitwise(a: &Snapshot, b: &Snapshot, what: &str) {
    assert_eq!(a.rho, b.rho, "{what}: rho");
    assert_eq!(a.force, b.force, "{what}: force");
    assert_eq!(a.pos, b.pos, "{what}: positions");
    assert_eq!(a.runaways, b.runaways, "{what}: run-aways");
    assert_eq!(a.pair.to_bits(), b.pair.to_bits(), "{what}: pair energy");
    assert_eq!(a.embed.to_bits(), b.embed.to_bits(), "{what}: embed energy");
}

/// One test (not several) so the `RAYON_NUM_THREADS` sweep cannot race
/// against itself under the parallel test harness. A 6-cell box holds
/// 432 sites and the second case 300 live run-aways, so both write-backs
/// cross a 256-central work chunk.
#[test]
fn passes_are_bitwise_deterministic_across_thread_counts() {
    let steps = 3;
    for (cells, n_runaways) in [(6, 0), (8, 300)] {
        assert!(2 * cells * cells * cells > PAR_CHUNK_SITES);
        let what = |s: &str| format!("{s}, {cells} cells, {n_runaways} run-aways");
        let oracle = run(PassConfig::seed_serial(), cells, n_runaways, steps);
        assert!(oracle.runaways.len() > PAR_CHUNK_SITES || n_runaways == 0);
        // Thread-count sweep: the shim honours RAYON_NUM_THREADS, so
        // this exercises 1, 2, and 8 workers even on a single-core host.
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let production = run(PassConfig::default(), cells, n_runaways, steps);
            let parallel_oracle = run(
                PassConfig {
                    parallel: true,
                    oracle: true,
                },
                cells,
                n_runaways,
                steps,
            );
            std::env::remove_var("RAYON_NUM_THREADS");
            assert_bitwise(
                &oracle,
                &production,
                &what(&format!("production, {threads} threads")),
            );
            assert_bitwise(
                &oracle,
                &parallel_oracle,
                &what(&format!("parallel oracle, {threads} threads")),
            );
        }
        let serial = run(
            PassConfig {
                parallel: false,
                oracle: false,
            },
            cells,
            n_runaways,
            steps,
        );
        assert_bitwise(&oracle, &serial, &what("serial production"));
    }
}
