//! Two-pass EAM evaluation over the lattice neighbor list.
//!
//! Pass 1 accumulates the electron density ρ_i (Eq. 3); the embedding
//! pass evaluates F(ρ_i) and its derivative; after the caller refreshes
//! ghost F' values, pass 2 accumulates forces from
//!
//! ```text
//! f_i = − Σ_j [ φ'(r_ij) + (F'(ρ_i) + F'(ρ_j)) · f'(r_ij) ] · r̂_ij
//! ```
//!
//! Every pass visits, for each central atom, the regular atoms at the
//! static neighbour offsets **and** the run-away atoms linked to those
//! lattice points (paper §2.1.1); a run-away central uses the offset
//! list of its anchor site, exactly as the paper specifies.
//!
//! Each pass has two implementations: the production **gather plan**
//! ([`density_pass_plan`] stages every partner once, [`force_pass_plan`]
//! replays it with no traversal or table evaluation) and the seed
//! scalar sweep, kept as the reference oracle
//! ([`PassConfig::seed_serial`]). Production equals the oracle bit for
//! bit at every box size and run-away count and at any thread count.

use mmds_eam::{EamPotential, TableForm};
use mmds_lattice::lnl::LatticeNeighborList;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Sites per parallel work unit. Chunking is fixed (not derived from
/// the worker count), so the sweep decomposition — and therefore every
/// result bit — is identical at any thread count.
pub const PAR_CHUNK_SITES: usize = 256;

/// Partners per table-kernel call of the plan-building density pass —
/// four [`mmds_eam::BATCH_LANES`]-wide lane groups, small enough for
/// the per-call φ and f scratch to live on the stack. A BCC central
/// within the paper's 5 Å cutoff sees ~58 partners. The CPE offload
/// kernel sizes its local-store lane buffers with the same constant
/// (see `md::offload`).
pub const BATCH_GATHER_CAP: usize = 4 * mmds_eam::BATCH_LANES;

/// How the host-side EAM passes execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassConfig {
    /// Run the per-site sweeps as chunked multi-thread maps over the
    /// neighbor list, with ordered write-back. Results are bitwise
    /// deterministic across thread counts: chunk boundaries are fixed,
    /// per-site work reads shared state only, and write-back and
    /// energy reduction happen in site order on the calling thread.
    pub parallel: bool,
    /// Run the seed scalar sweeps (one neighbour traversal per pass,
    /// separate [`EamPotential::pair`] and [`EamPotential::density`]
    /// lookups per partner) instead of the production gather plan.
    /// This is the reference oracle the production path must match
    /// bit for bit.
    pub oracle: bool,
}

impl Default for PassConfig {
    /// The production path: the parallel gather plan.
    fn default() -> Self {
        Self {
            parallel: true,
            oracle: false,
        }
    }
}

impl PassConfig {
    /// The reference oracle: the seed's serial scalar sweeps.
    pub fn seed_serial() -> Self {
        Self {
            parallel: false,
            oracle: true,
        }
    }
}

/// Per-pass statistics of the gather plan, summed in site order on the
/// calling thread and emitted as the `md.batch.*` counter family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BatchStats {
    /// Full [`mmds_eam::BATCH_LANES`]-wide lane groups evaluated.
    batches: u64,
    /// Elements handled by the scalar tail loops.
    tail_elems: u64,
    /// Bytes staged into (or replayed from) the plan's SoA arrays.
    gather_bytes: u64,
}

impl BatchStats {
    /// Accounts one central's `elems` partners, each staging or reading
    /// `bytes_per_elem` bytes of SoA data.
    fn charge(&mut self, elems: usize, bytes_per_elem: usize) {
        self.batches += (elems / mmds_eam::BATCH_LANES) as u64;
        self.tail_elems += (elems % mmds_eam::BATCH_LANES) as u64;
        self.gather_bytes += (elems * bytes_per_elem) as u64;
    }

    fn absorb(&mut self, o: BatchStats) {
        self.batches += o.batches;
        self.tail_elems += o.tail_elems;
        self.gather_bytes += o.gather_bytes;
    }

    fn emit(&self) {
        mmds_telemetry::add_counter("md.batch.batches", self.batches as f64);
        mmds_telemetry::add_counter("md.batch.tail_elems", self.tail_elems as f64);
        mmds_telemetry::add_counter("md.batch.gather_bytes", self.gather_bytes as f64);
    }
}

/// The one chunk decomposition of every host sweep: `items` split into
/// fixed [`PAR_CHUNK_SITES`]-sized chunks, each paired with the next
/// element of `state` (a chunk's staging buffers, or `()`), and mapped
/// by `f` serially or across the thread pool. Chunk boundaries do not
/// depend on the worker count and results come back in chunk order, so
/// every result bit is identical at any thread count.
fn map_chunks<'a, T, S, R>(
    items: &'a [T],
    state: impl IntoIterator<Item = S>,
    parallel: bool,
    f: impl Fn(&'a [T], S) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
{
    let units = items.chunks(PAR_CHUNK_SITES).zip(state);
    if !parallel || items.len() <= PAR_CHUNK_SITES {
        return units.map(|(c, s)| f(c, s)).collect();
    }
    let units: Vec<_> = units.collect();
    units.into_par_iter().map(|(c, s)| f(c, s)).collect()
}

/// Maps `f` over `items` through [`map_chunks`]' decomposition. The
/// output order always matches `items`, and each call of `f` is
/// independent, so serial and parallel runs produce identical bits.
/// Public because read-only observability sweeps (the defect census in
/// [`crate::census`]) reuse the exact decomposition of the force passes.
pub fn chunked_map<T, R, F>(items: &[T], parallel: bool, f: F) -> Vec<R>
where
    T: Copy + Send + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_chunks(items, std::iter::repeat(()), parallel, |c, ()| {
        c.iter().map(|&t| f(t)).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Identifies the atom at the centre of a neighbour sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Central {
    /// A regular (on-lattice) atom stored at this site.
    Site(usize),
    /// A run-away atom by pool index.
    Runaway(u32),
}

/// One interaction partner seen from a central atom.
#[derive(Debug, Clone, Copy)]
pub struct Partner {
    /// `central_pos − partner_pos`.
    pub dx: [f64; 3],
    /// Distance (Å), guaranteed `0 < r ≤ cutoff`.
    pub r: f64,
    /// Partner's embedding derivative F'(ρ_j) (valid in the force pass).
    pub fp: f64,
    /// Storage site the partner lives at (its own site for regular
    /// atoms, the anchor site for run-aways). Used by the CPE offload
    /// kernel to decide whether the partner's data is local-store
    /// resident.
    pub site: usize,
    /// True if the partner is a run-away record.
    pub is_runaway: bool,
}

/// Pair and embedding energies of one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergySample {
    /// ½ Σ φ over owned centrals (eV).
    pub pair: f64,
    /// Σ F(ρ) over owned centrals (eV).
    pub embed: f64,
}

impl EnergySample {
    /// Total potential energy (eV).
    pub fn total(&self) -> f64 {
        self.pair + self.embed
    }
}

/// One interaction partner as seen *before* the distance square root —
/// what the gather plan stages, so the `sqrt` itself runs as a
/// vectorizable lane loop before the batch lookup instead of one scalar
/// root per partner. `r2.sqrt()` is correctly rounded, so computing it
/// in the lane loop produces the identical bits the scalar
/// [`for_each_partner`] sweep sees.
#[derive(Debug, Clone, Copy)]
pub struct PartnerSq {
    /// `central_pos − partner_pos`.
    pub dx: [f64; 3],
    /// Squared distance (Å²), guaranteed `0 < r² ≤ cutoff²`.
    pub r2: f64,
    /// Partner's embedding derivative F'(ρ_j) (valid in the force pass).
    pub fp: f64,
    /// Storage site the partner lives at.
    pub site: usize,
    /// True if the partner is a run-away record.
    pub is_runaway: bool,
    /// Run-away pool index when `is_runaway` (`u32::MAX` otherwise).
    /// Lets the gather plan re-fetch the partner's F' in the force pass
    /// without re-walking the chain.
    pub ra_index: u32,
}

/// Visits every interaction partner of `central` within `cutoff`,
/// before the distance square root ([`PartnerSq`]).
pub fn for_each_partner_sq(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    f: impl FnMut(PartnerSq),
) {
    partner_sweep::<true>(l, central, cutoff, f);
}

/// The partner sweep, monomorphized over whether the partners' F'
/// values are read. The plan-building density pass runs with
/// `NEED_FP = false`: F' isn't valid until after the embedding pass, so
/// skipping the load keeps a whole per-site array out of the sweep's
/// cache footprint (`PartnerSq::fp` is 0 in that mode).
fn partner_sweep<const NEED_FP: bool>(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    mut f: impl FnMut(PartnerSq),
) {
    let (anchor, cpos, skip) = match central {
        Central::Site(s) => {
            debug_assert!(l.id[s] >= 0, "central site {s} is a vacancy");
            (s, l.pos[s], None)
        }
        Central::Runaway(i) => {
            let r = l.runaway(i);
            (r.home as usize, r.pos, Some(i))
        }
    };
    let cut2 = cutoff * cutoff;
    let mut emit = |ppos: [f64; 3], pfp: f64, site: usize, ra_index: u32| {
        let dx = [cpos[0] - ppos[0], cpos[1] - ppos[1], cpos[2] - ppos[2]];
        let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
        if r2 > 1e-12 && r2 <= cut2 {
            f(PartnerSq {
                dx,
                r2,
                fp: pfp,
                site,
                is_runaway: ra_index != u32::MAX,
                ra_index,
            });
        }
    };
    let site_fp = |s: usize| if NEED_FP { l.fp[s] } else { 0.0 };
    // The regular atom at the anchor site itself (relevant for run-away
    // centrals: interstitial/dumbbell configurations).
    if matches!(central, Central::Runaway(_)) && l.id[anchor] >= 0 {
        emit(l.pos[anchor], site_fp(anchor), anchor, u32::MAX);
    }
    // Run-aways linked to the anchor.
    for (idx, rec) in l.chain(anchor) {
        if Some(idx) != skip {
            emit(rec.pos, if NEED_FP { rec.fp } else { 0.0 }, anchor, idx);
        }
    }
    // Static offsets: regular atoms and their linked run-aways.
    for &d in l.neighbor_deltas(anchor) {
        let nid = (anchor as isize + d) as usize;
        if l.id[nid] >= 0 {
            emit(l.pos[nid], site_fp(nid), nid, u32::MAX);
        }
        for (idx, rec) in l.chain(nid) {
            emit(rec.pos, if NEED_FP { rec.fp } else { 0.0 }, nid, idx);
        }
    }
}

/// Visits every interaction partner of `central` within `cutoff`.
pub fn for_each_partner(
    l: &LatticeNeighborList,
    central: Central,
    cutoff: f64,
    mut f: impl FnMut(Partner),
) {
    for_each_partner_sq(l, central, cutoff, |p| {
        f(Partner {
            dx: p.dx,
            r: p.r2.sqrt(),
            fp: p.fp,
            site: p.site,
            is_runaway: p.is_runaway,
        })
    });
}

/// The per-step SoA gather plan: the density pass runs each central's
/// neighbour sweep through the **fused** batch lookup and stages
/// everything the force pass will need — partner displacements, r,
/// φ'(r), f'(r), a partner reference for the deferred F' fetch, and the
/// per-central ½Σφ — so the force pass does **no neighbour traversal
/// and no table evaluation at all**.
///
/// The plan holds one staged chunk per [`PAR_CHUNK_SITES`] interior
/// sites, then one per [`PAR_CHUNK_SITES`] live run-aways: the work
/// units of [`map_chunks`]. Each chunk is staged in place by the worker
/// that sweeps it, and its buffers keep their capacity across steps.
///
/// Validity: between the two passes only the embedding pass and the F'
/// ghost exchange run ([`crate::MdSimulation::compute_forces`]) —
/// positions, site occupancy, and run-away chains are structurally
/// frozen (`domain::unpack_slab` asserts the ghost chains don't drift
/// between phases), so the partner set, its traversal order, and every
/// staged value are exactly what a fresh force sweep would produce.
/// Only the partners' F' values change between the passes, which is why
/// the plan stores a partner *reference* (`pref`) instead of F' itself.
///
/// Bitwise identity: φ, φ', f, f' are pure functions of r, and the
/// fused lookup replays the op sequence of the separate lookups, so
/// evaluating them during the density pass produces exactly the bits
/// the scalar force sweep would compute; the per-central ρ and ½Σφ and
/// the force accumulation replay the scalar accumulation order.
#[derive(Debug, Clone, Default)]
pub struct GatherPlan {
    sites: Vec<PlanChunk>,
    runaways: Vec<PlanChunk>,
}

/// One work chunk of the [`GatherPlan`]: its centrals' staged partners
/// in SoA layout, plus their ρ and ½Σφ. Vacant sites hold an empty
/// partner range and zero ρ and ½Σφ.
#[derive(Debug, Clone, Default)]
struct PlanChunk {
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    /// Partner distance r (the density pass's lane square roots).
    r: Vec<f64>,
    /// φ'(r) from the fused batch lookup.
    dphi: Vec<f64>,
    /// f'(r) from the fused batch lookup.
    df: Vec<f64>,
    /// Partner reference for the deferred F' fetch: the storage site as
    /// a non-negative value for regular atoms, `-(pool_index + 1)` for
    /// run-away records.
    pref: Vec<i64>,
    /// Per-central ρ, accumulated in partner order.
    rho: Vec<f64>,
    /// Per-central ½Σφ, accumulated in partner order.
    pair_e: Vec<f64>,
    /// `offsets[c]..offsets[c + 1]` is central `c`'s partner range.
    offsets: Vec<u32>,
    /// Staging statistics of the density pass.
    stats: BatchStats,
}

impl PlanChunk {
    /// Stages the centrals of `items` in place, replacing the previous
    /// step's contents (capacity is retained). Partners are pushed
    /// straight into the SoA arrays, then each central's range goes
    /// through the lane square roots and the **fused** batch lookup in
    /// [`BATCH_GATHER_CAP`] groups. φ' and f' stay in the arrays for
    /// the force pass to replay; φ and f are folded into ½Σφ and ρ on
    /// the spot, in partner order.
    fn stage<T: Copy>(
        &mut self,
        l: &LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        items: &[T],
        as_central: impl Fn(T) -> Option<Central>,
    ) {
        for v in [
            &mut self.dx,
            &mut self.dy,
            &mut self.dz,
            &mut self.r,
            &mut self.dphi,
            &mut self.df,
            &mut self.rho,
            &mut self.pair_e,
        ] {
            v.clear();
        }
        self.pref.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.stats = BatchStats::default();
        let cutoff = pot.cutoff();
        let mut phi = [0.0; BATCH_GATHER_CAP];
        let mut fval = [0.0; BATCH_GATHER_CAP];
        for &item in items {
            let start = self.r.len();
            if let Some(central) = as_central(item) {
                partner_sweep::<false>(l, central, cutoff, |p| {
                    // `r` temporarily holds r²; the lane loop below
                    // replaces it with the square root.
                    self.r.push(p.r2);
                    self.dx.push(p.dx[0]);
                    self.dy.push(p.dx[1]);
                    self.dz.push(p.dx[2]);
                    self.pref.push(if p.is_runaway {
                        -(p.ra_index as i64) - 1
                    } else {
                        p.site as i64
                    });
                });
            }
            let end = self.r.len();
            self.dphi.resize(end, 0.0);
            self.df.resize(end, 0.0);
            let mut rho = 0.0;
            let mut pair_e = 0.0;
            for at in (start..end).step_by(BATCH_GATHER_CAP) {
                let g = at..(at + BATCH_GATHER_CAP).min(end);
                let len = g.len();
                // The deferred square roots, as one vectorizable lane loop.
                for r in self.r[g.clone()].iter_mut() {
                    *r = r.sqrt();
                }
                pot.pair_density_batch(
                    form,
                    &self.r[g.clone()],
                    &mut phi[..len],
                    &mut self.dphi[g.clone()],
                    &mut fval[..len],
                    &mut self.df[g],
                );
                for k in 0..len {
                    rho += fval[k];
                    pair_e += 0.5 * phi[k];
                }
            }
            self.rho.push(rho);
            self.pair_e.push(pair_e);
            self.offsets.push(end as u32);
            // The plan stages the three displacement components, r, φ',
            // f' and the partner reference: 56 B per partner.
            self.stats.charge(end - start, 56);
        }
    }

    /// Central `c`'s partner range.
    fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.offsets[c] as usize..self.offsets[c + 1] as usize
    }

    /// Number of centrals staged.
    fn centrals(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Force on central `c`, replaying its staged partner range. Only
    /// the partners' F' values are fetched fresh (8 B per partner); r,
    /// the displacements, φ' and f' come straight from the SoA arrays.
    /// The per-partner scale expression and the accumulation order are
    /// exactly those of [`force_on_central`], so the bits match the
    /// scalar sweep.
    fn force(&self, l: &LatticeNeighborList, c: usize, fp_c: f64) -> [f64; 3] {
        let mut fv = [0.0; 3];
        for k in self.range(c) {
            let pr = self.pref[k];
            let fp = if pr >= 0 {
                l.fp[pr as usize]
            } else {
                l.runaway((-pr - 1) as u32).fp
            };
            let scale = -(self.dphi[k] + (fp_c + fp) * self.df[k]) / self.r[k];
            fv[0] += scale * self.dx[k];
            fv[1] += scale * self.dy[k];
            fv[2] += scale * self.dz[k];
        }
        fv
    }
}

/// Resizes `chunks` to one per [`PAR_CHUNK_SITES`] of `n` centrals,
/// keeping the surviving chunks' buffers.
fn fit_chunks(chunks: &mut Vec<PlanChunk>, n: usize) {
    chunks.resize_with(n.div_ceil(PAR_CHUNK_SITES), PlanChunk::default);
}

/// Centrals staged across `chunks`.
fn staged(chunks: &[PlanChunk]) -> usize {
    chunks.iter().map(PlanChunk::centrals).sum()
}

/// ρ of one central by the oracle's scalar sweep.
fn density_on_central(
    l: &LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    central: Central,
) -> f64 {
    let mut rho = 0.0;
    for_each_partner(l, central, pot.cutoff(), |p| {
        rho += pot.density(form, p.r).0;
    });
    rho
}

/// Pass 1 of the oracle: a read-only scalar sweep computing each
/// central's ρ, then an ordered write-back.
fn density_pass_oracle(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    parallel: bool,
) {
    let site_rho = chunked_map(interior, parallel, |s| {
        if l.id[s] < 0 {
            return 0.0;
        }
        density_on_central(l, pot, form, Central::Site(s))
    });
    for (&s, rho) in interior.iter().zip(site_rho) {
        l.rho[s] = rho;
    }
    let runaways = l.live_runaways();
    let ra_rho = chunked_map(&runaways, parallel, |i| {
        density_on_central(l, pot, form, Central::Runaway(i))
    });
    for (&i, rho) in runaways.iter().zip(ra_rho) {
        l.runaway_mut(i).rho = rho;
    }
}

/// Pass 1: electron densities for owned atoms and owned run-aways. In
/// production, each work chunk's centrals are staged in place into
/// `plan` (see [`GatherPlan`]) and their ρ written back in site order;
/// the oracle ([`PassConfig::oracle`]) runs the scalar sweep and leaves
/// `plan` untouched.
pub fn density_pass_plan(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
    plan: &mut GatherPlan,
) {
    let _span = mmds_telemetry::span!("md.density");
    if cfg.oracle {
        return density_pass_oracle(l, pot, form, interior, cfg.parallel);
    }
    fit_chunks(&mut plan.sites, interior.len());
    map_chunks(interior, &mut plan.sites, cfg.parallel, |sites, c| {
        c.stage(l, pot, form, sites, |s| {
            (l.id[s] >= 0).then_some(Central::Site(s))
        })
    });
    let mut stats = BatchStats::default();
    for (sites, c) in interior.chunks(PAR_CHUNK_SITES).zip(&plan.sites) {
        for (&s, &rho) in sites.iter().zip(&c.rho) {
            l.rho[s] = rho;
        }
        stats.absorb(c.stats);
    }
    let runaways = l.live_runaways();
    fit_chunks(&mut plan.runaways, runaways.len());
    map_chunks(&runaways, &mut plan.runaways, cfg.parallel, |ras, c| {
        c.stage(l, pot, form, ras, |i| Some(Central::Runaway(i)))
    });
    for (ras, c) in runaways.chunks(PAR_CHUNK_SITES).zip(&plan.runaways) {
        for (&i, &rho) in ras.iter().zip(&c.rho) {
            l.runaway_mut(i).rho = rho;
        }
        stats.absorb(c.stats);
    }
    stats.emit();
}

/// Embedding pass: F'(ρ) for owned atoms/run-aways, returning Σ F(ρ).
/// Runs in parallel.
pub fn embedding_pass(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
) -> f64 {
    embedding_pass_with(l, pot, form, interior, PassConfig::default())
}

/// Embedding pass with an explicit execution strategy (production and
/// oracle share it; only [`PassConfig::parallel`] matters). The Σ F(ρ)
/// reduction runs in site order on the calling thread, so the energy is
/// identical at any thread count.
pub fn embedding_pass_with(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
) -> f64 {
    let _span = mmds_telemetry::span!("md.embed");
    let site_embed = chunked_map(interior, cfg.parallel, |s| {
        if l.id[s] < 0 {
            return (0.0, 0.0);
        }
        pot.embed(form, l.rho[s])
    });
    let mut e = 0.0;
    for (&s, (f_val, f_der)) in interior.iter().zip(site_embed) {
        e += f_val;
        l.fp[s] = f_der;
    }
    let runaways = l.live_runaways();
    let ra_embed = chunked_map(&runaways, cfg.parallel, |i| {
        pot.embed(form, l.runaway(i).rho)
    });
    for (&i, (f_val, f_der)) in runaways.iter().zip(ra_embed) {
        e += f_val;
        l.runaway_mut(i).fp = f_der;
    }
    e
}

/// One central's force and pair-energy contribution by the oracle's
/// scalar sweep, with separate pair and density lookups.
fn force_on_central(
    l: &LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    central: Central,
    fp_c: f64,
) -> ([f64; 3], f64) {
    let mut fv = [0.0; 3];
    let mut pair_e = 0.0;
    for_each_partner(l, central, pot.cutoff(), |p| {
        let (phi, dphi) = pot.pair(form, p.r);
        let (_, df) = pot.density(form, p.r);
        pair_e += 0.5 * phi;
        let scale = -(dphi + (fp_c + p.fp) * df) / p.r;
        for ax in 0..3 {
            fv[ax] += scale * p.dx[ax];
        }
    });
    (fv, pair_e)
}

/// Pass 2 of the oracle: each central's force and pair-energy
/// contribution in a read-only scalar sweep; the write-back and the
/// ½Σφ reduction run in site order on the calling thread.
fn force_pass_oracle(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    parallel: bool,
) -> f64 {
    let site_force = chunked_map(interior, parallel, |s| {
        if l.id[s] < 0 {
            return ([0.0; 3], 0.0);
        }
        force_on_central(l, pot, form, Central::Site(s), l.fp[s])
    });
    let mut pair_energy = 0.0;
    for (&s, (fv, pe)) in interior.iter().zip(site_force) {
        l.force[s] = fv;
        pair_energy += pe;
    }
    let runaways = l.live_runaways();
    let ra_force = chunked_map(&runaways, parallel, |i| {
        force_on_central(l, pot, form, Central::Runaway(i), l.runaway(i).fp)
    });
    for (&i, (fv, pe)) in runaways.iter().zip(ra_force) {
        l.runaway_mut(i).force = fv;
        pair_energy += pe;
    }
    pair_energy
}

/// Pass 2: forces on owned atoms/run-aways, returning the pair energy.
/// Ghost F' values must be current (exchange between the passes). In
/// production the force pass replays, chunk by chunk, the
/// [`GatherPlan`] that [`density_pass_plan`] staged in the same step,
/// with only the partners' F' fetched fresh; the oracle runs the scalar
/// sweep. Panics in production if the plan's central count does not
/// match the current interior + run-away population (a stale plan).
pub fn force_pass_plan(
    l: &mut LatticeNeighborList,
    pot: &EamPotential,
    form: TableForm,
    interior: &[usize],
    cfg: PassConfig,
    plan: &GatherPlan,
) -> f64 {
    let _span = mmds_telemetry::span!("md.pair");
    if cfg.oracle {
        return force_pass_oracle(l, pot, form, interior, cfg.parallel);
    }
    let runaways = l.live_runaways();
    assert!(
        staged(&plan.sites) == interior.len() && staged(&plan.runaways) == runaways.len(),
        "gather plan is stale: central population changed since the density pass"
    );
    let site_force = map_chunks(interior, &plan.sites, cfg.parallel, |sites, c| {
        (0..sites.len())
            .map(|k| c.force(l, k, l.fp[sites[k]]))
            .collect::<Vec<_>>()
    });
    let ra_force = map_chunks(&runaways, &plan.runaways, cfg.parallel, |ras, c| {
        (0..ras.len())
            .map(|k| c.force(l, k, l.runaway(ras[k]).fp))
            .collect::<Vec<_>>()
    });
    let mut pair_energy = 0.0;
    let mut stats = BatchStats::default();
    for ((sites, c), forces) in interior
        .chunks(PAR_CHUNK_SITES)
        .zip(&plan.sites)
        .zip(site_force)
    {
        for (k, (&s, fv)) in sites.iter().zip(forces).enumerate() {
            l.force[s] = fv;
            pair_energy += c.pair_e[k];
            stats.charge(c.range(k).len(), 8);
        }
    }
    for ((ras, c), forces) in runaways
        .chunks(PAR_CHUNK_SITES)
        .zip(&plan.runaways)
        .zip(ra_force)
    {
        for (k, (&i, fv)) in ras.iter().zip(forces).enumerate() {
            l.runaway_mut(i).force = fv;
            pair_energy += c.pair_e[k];
            stats.charge(c.range(k).len(), 8);
        }
    }
    stats.emit();
    pair_energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{exchange_ghosts, fill_periodic_ghosts, GhostPhase, Loopback};
    use mmds_eam::analytic::Species;
    use mmds_lattice::{BccGeometry, LocalGrid};

    fn setup(n_cells: usize) -> (LatticeNeighborList, EamPotential, Vec<usize>) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(n_cells), 2);
        let l = LatticeNeighborList::perfect(grid, 5.6);
        let pot = EamPotential::new(Species::Fe, 1500);
        let interior: Vec<usize> = l.grid.interior_ids().collect();
        (l, pot, interior)
    }

    /// Both passes through the public entry points under `cfg`, with
    /// the ghost refreshes of [`crate::MdSimulation::compute_forces`]:
    /// between the passes only F' is exchanged, so the run-away chains
    /// the plan refers to stay as staged.
    fn eval_with(
        l: &mut LatticeNeighborList,
        pot: &EamPotential,
        form: TableForm,
        interior: &[usize],
        cfg: PassConfig,
    ) -> EnergySample {
        let mut plan = GatherPlan::default();
        fill_periodic_ghosts(l);
        density_pass_plan(l, pot, form, interior, cfg, &mut plan);
        let embed = embedding_pass_with(l, pot, form, interior, cfg);
        exchange_ghosts(l, &mut Loopback, GhostPhase::Fp);
        let pair = force_pass_plan(l, pot, form, interior, cfg, &plan);
        EnergySample { pair, embed }
    }

    /// Both passes on the production path.
    fn eval(l: &mut LatticeNeighborList, pot: &EamPotential, interior: &[usize]) -> EnergySample {
        eval_with(
            l,
            pot,
            TableForm::Compacted,
            interior,
            PassConfig::default(),
        )
    }

    #[test]
    fn perfect_lattice_forces_vanish() {
        let (mut l, pot, interior) = setup(5);
        let e = eval(&mut l, &pot, &interior);
        for &s in &interior {
            for ax in 0..3 {
                assert!(
                    l.force[s][ax].abs() < 1e-6,
                    "site {s} axis {ax}: {}",
                    l.force[s][ax]
                );
            }
        }
        // Cohesive energy per atom should be negative and of eV order.
        let per_atom = e.total() / interior.len() as f64;
        assert!(per_atom < -0.5 && per_atom > -20.0, "E/atom = {per_atom}");
    }

    #[test]
    fn displaced_atom_is_pulled_back() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.pos[s][0] += 0.25;
        eval(&mut l, &pot, &interior);
        assert!(
            l.force[s][0] < -0.05,
            "restoring force expected, got {}",
            l.force[s][0]
        );
        // And the other components stay symmetric (≈ 0).
        assert!(l.force[s][1].abs() < 1e-6);
        assert!(l.force[s][2].abs() < 1e-6);
    }

    #[test]
    fn newtons_third_law_on_dimer_displacement() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.pos[s] = [l.pos[s][0] + 0.15, l.pos[s][1] - 0.1, l.pos[s][2] + 0.05];
        eval(&mut l, &pot, &interior);
        // Total force over all atoms must vanish (translational invariance).
        let mut tot = [0.0; 3];
        for &x in &interior {
            for ax in 0..3 {
                tot[ax] += l.force[x][ax];
            }
        }
        for ax in 0..3 {
            assert!(tot[ax].abs() < 1e-6, "net force axis {ax}: {}", tot[ax]);
        }
    }

    #[test]
    fn force_matches_energy_gradient() {
        let (mut l, pot, interior) = setup(4);
        let s = l.grid.site_id(3, 3, 3, 1);
        l.pos[s][0] += 0.2;
        let h = 1e-5;
        l.pos[s][0] += h;
        let e_plus = eval(&mut l, &pot, &interior).total();
        l.pos[s][0] -= 2.0 * h;
        let e_minus = eval(&mut l, &pot, &interior).total();
        l.pos[s][0] += h;
        eval(&mut l, &pot, &interior);
        let numeric = -(e_plus - e_minus) / (2.0 * h);
        assert!(
            (l.force[s][0] - numeric).abs() < 1e-4,
            "analytic {} vs numeric {numeric}",
            l.force[s][0]
        );
    }

    #[test]
    fn runaway_participates_in_forces() {
        let (mut l, pot, interior) = setup(5);
        // Promote one atom to a run-away sitting between sites.
        let s = l.grid.site_id(4, 4, 4, 0);
        let id = l.make_vacancy(s);
        let lp = l.grid.site_position(4, 4, 4, 0);
        let idx = l.add_runaway(s, id, [lp[0] + 1.3, lp[1], lp[2]], [0.0; 3]);
        eval(&mut l, &pot, &interior);
        let f = l.runaway(idx).force;
        assert!(
            f.iter().any(|c| c.abs() > 1e-3),
            "run-away must feel a force: {f:?}"
        );
        // Its neighbours feel it too: the atom nearest to the run-away
        // gets pushed, breaking the perfect-lattice zero.
        let near = l.grid.site_id(4, 4, 4, 1);
        assert!(l.force[near].iter().any(|c| c.abs() > 1e-3));
    }

    #[test]
    fn vacancy_contributes_nothing() {
        let (mut l, pot, interior) = setup(5);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.make_vacancy(s);
        eval(&mut l, &pot, &interior);
        assert_eq!(l.force[s], [0.0; 3]);
        assert_eq!(l.rho[s], 0.0);
        // Neighbours of the vacancy feel a net pull toward it... or push,
        // but in any case a nonzero force along the 1NN direction.
        let n = l.grid.site_id(4, 4, 4, 1);
        let fnorm: f64 = l.force[n].iter().map(|c| c * c).sum::<f64>().sqrt();
        assert!(fnorm > 1e-3, "|f| = {fnorm}");
    }

    /// Every bit the passes produce: site ρ and forces, each live
    /// run-away's ρ and force, and both energies.
    type Bits = (Vec<f64>, Vec<[f64; 3]>, Vec<(f64, [f64; 3])>, u64, u64);

    /// A `cells`³ box with one displaced atom and `n_runaways` atoms
    /// (every third interior site) promoted to run-aways 0.88 Å off
    /// their vacant sites, outside the capture radius.
    fn passes(cells: usize, n_runaways: usize, cfg: PassConfig) -> Bits {
        let (mut l, pot, interior) = setup(cells);
        let s = l.grid.site_id(4, 4, 4, 0);
        l.pos[s] = [l.pos[s][0] + 0.21, l.pos[s][1] - 0.13, l.pos[s][2] + 0.07];
        let promoted: Vec<usize> = interior
            .iter()
            .copied()
            .filter(|&v| v != s)
            .step_by(3)
            .take(n_runaways)
            .collect();
        assert_eq!(promoted.len(), n_runaways);
        for v in promoted {
            let p = l.pos[v];
            let id = l.make_vacancy(v);
            l.add_runaway(v, id, [p[0] + 0.85, p[1] + 0.2, p[2] + 0.1], [0.0; 3]);
        }
        let e = eval_with(&mut l, &pot, TableForm::Compacted, &interior, cfg);
        let ras = l.live_runaways();
        assert_eq!(ras.len(), n_runaways);
        let ras = ras
            .into_iter()
            .map(|i| (l.runaway(i).rho, l.runaway(i).force))
            .collect();
        (l.rho, l.force, ras, e.embed.to_bits(), e.pair.to_bits())
    }

    /// The gather plan must reproduce the oracle exactly, across
    /// work-chunk boundaries of both the sites (a 6-cell box holds 432)
    /// and the run-aways (300 of them), serially, in parallel, and at
    /// 1, 2 and 8 worker threads. The oracle run in parallel must match
    /// its serial self too.
    #[test]
    fn plan_passes_agree_bitwise_with_scalar() {
        for (cells, n_runaways) in [(6usize, 1), (8, 300)] {
            assert!(2 * cells.pow(3) > PAR_CHUNK_SITES);
            let oracle = passes(cells, n_runaways, PassConfig::seed_serial());
            let check = |got: Bits, what: &str| {
                let what = format!("{what}, {cells} cells, {n_runaways} run-aways");
                assert_eq!(oracle.0, got.0, "rho arrays differ ({what})");
                assert_eq!(oracle.1, got.1, "force arrays differ ({what})");
                assert_eq!(oracle.2, got.2, "run-aways differ ({what})");
                assert_eq!(oracle.3, got.3, "embedding energy differs ({what})");
                assert_eq!(oracle.4, got.4, "pair energy differs ({what})");
            };
            let serial = PassConfig {
                parallel: false,
                oracle: false,
            };
            check(passes(cells, n_runaways, serial), "serial production");
            let parallel_oracle = PassConfig {
                parallel: true,
                oracle: true,
            };
            check(
                passes(cells, n_runaways, parallel_oracle),
                "parallel oracle",
            );
            for threads in ["1", "2", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let got = passes(cells, n_runaways, PassConfig::default());
                std::env::remove_var("RAYON_NUM_THREADS");
                check(got, &format!("production at {threads} threads"));
            }
        }
    }

    #[test]
    fn table_forms_agree() {
        let (mut l, pot, interior) = setup(4);
        let s = l.grid.site_id(3, 3, 3, 0);
        l.pos[s][0] += 0.2;
        let cfg = PassConfig::default();
        eval_with(&mut l, &pot, TableForm::Compacted, &interior, cfg);
        let rho_c = l.rho[s];
        eval_with(&mut l, &pot, TableForm::Traditional, &interior, cfg);
        let rho_t = l.rho[s];
        assert!((rho_c - rho_t).abs() < 1e-6, "{rho_c} vs {rho_t}");
    }
}
