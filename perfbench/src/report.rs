//! The metric catalogue, sample statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: every untraced run of every workload reports
/// each of them (name, unit). Their bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("site_steps_per_s", "1/s"),
    ("run_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them. A layer a
/// workload does not run reports 0 (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("md.density_pass_ms_per_step", "ms"),
    ("md.embed_ms_per_step", "ms"),
    ("md.force_pass_ms_per_step", "ms"),
    ("md.ghost_ms_per_step", "ms"),
    ("md.integrate_ms_per_step", "ms"),
    ("md.transitions_ms_per_step", "ms"),
    ("md.stage_ms_per_step", "ms"),
    ("md.partners_per_step", "count"),
    ("md.runaways_end", "count"),
    ("md.thread_speedup_2v1", "ratio"),
    ("md.force_err_vs_oracle", "eV/A"),
    ("md.energy_drift", "ratio"),
    ("lattice.traverse_ns_per_partner", "ns"),
    ("eam.table_ns_per_lane", "ns"),
    ("eam.lanes_per_step", "count"),
    ("sunway.offload_ms_per_step", "ms"),
    ("sunway.dma_bytes_per_step", "B"),
    ("sunway.dma_ops_per_step", "count"),
    ("sunway.flops_per_step", "count"),
    ("sunway.ldm_high_water_bytes", "B"),
    ("sunway.virtual_kernel_s_per_step", "s"),
    ("swmpi.msgs_per_cycle", "count"),
    ("swmpi.bytes_per_cycle", "B"),
    ("swmpi.puts_per_cycle", "count"),
    ("swmpi.collectives_per_cycle", "count"),
    ("swmpi.block_ms_per_cycle", "ms"),
    ("md.ghost_bytes_per_step", "B"),
    ("kmc.cycle_ms_p50", "ms"),
    ("kmc.sync_dt_ms_per_cycle", "ms"),
    ("kmc.sector_ms_per_cycle", "ms"),
    ("kmc.exchange_ms_per_cycle", "ms"),
    ("kmc.site_evals_per_cycle", "count"),
    ("kmc.events_per_cycle", "count"),
    ("kmc.rate_ns_per_site_eval", "ns"),
    ("kmc.ghost_bytes_per_cycle", "B"),
    ("kmc.dirty_fraction", "ratio"),
    ("coupled.md_phase_s", "s"),
    ("coupled.handoff_ms", "ms"),
    ("coupled.kmc_phase_s", "s"),
    ("coupled.handoff_vacancies", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.step_coverage", "ratio"),
    ("trace.cycle_coverage", "ratio"),
    ("trace.run_coverage", "ratio"),
    ("telemetry.summary_overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric from the catalogue.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Counts one gated output check; a failure is printed to stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result line for the metrics of `catalogue`. A metric the run
    /// did not record is 0 (a layer the workload does not run); a
    /// non-finite value fails the run.
    pub fn json_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut body = String::new();
        let mut finite = true;
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        self.check(finite, "every metric is a finite number");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|m| m.1)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail percentile of `xs`: the 90th, or lower when there are too
/// few samples, so that at least ten samples lie beyond it. Returns the
/// percentile used (as a fraction) and its nearest-rank value.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.9);
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (q, v[idx])
}

/// Per-index maximum over ranks of per-rank sample series: the wall of
/// each lock-stepped step is its slowest rank's.
pub fn slowest_rank<'a>(per_rank: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for series in per_rank {
        out.resize(out.len().max(series.len()), 0.0);
        for (o, &x) in out.iter_mut().zip(series) {
            *o = o.max(x);
        }
    }
    out
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A seed mixer (splitmix64), so neighbouring `--seed` values give
/// unrelated program seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (0.9, 180.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (q, v) = tail(&xs);
        assert!((q - 0.75).abs() < 1e-12);
        assert_eq!(v, 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut r = Report::default();
        r.metric("setup_s", 0.25);
        r.check(true, "ok");
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
