//! In-memory spans recorded by the benchmark around calls into the
//! workspace's public functions.
//!
//! The program's own telemetry stays `Mode::Off` in every run; these
//! spans live only in the benchmark, so the per-layer split costs
//! nothing in the untraced runs that give the end-to-end numbers.

use std::time::Instant;

/// Spans whose name starts with this prefix are measurement probes run
/// inside a window. They are not part of the work the window times, so
/// they are taken out of the window's wall and of its coverage.
pub const PROBE_PREFIX: &str = "probe.";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer name, e.g. `md.density_pass`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-6)
            .sum()
    }

    /// Per-name totals in order of first appearance: name, calls and
    /// milliseconds.
    pub fn table(&self) -> Vec<(&'static str, usize, f64)> {
        let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
        for s in &self.spans {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.ns() as f64 * 1e-6;
                }
                None => rows.push((s.name, 1, s.ns() as f64 * 1e-6)),
            }
        }
        rows
    }

    /// Prints [`Trace::table`] under a heading.
    pub fn print_table(&self, heading: &str) {
        println!("{heading}");
        for (name, calls, ms) in self.table() {
            println!("  {name:<20} {calls:>7} calls {ms:>12.3} ms");
        }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Wall (ms) of the windows named `window`, less the probes run
    /// inside them.
    pub fn window_ms(&self, window: &str) -> f64 {
        self.coverage_parts(window).1 as f64 * 1e-6
    }

    /// Share of the wall of the windows named `window` that their
    /// direct child spans cover (probes excluded from both sides).
    pub fn coverage(&self, window: &str) -> f64 {
        let (covered, wall) = self.coverage_parts(window);
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    fn coverage_parts(&self, window: &str) -> (u64, u64) {
        let mut covered = 0;
        let mut wall = 0;
        for (i, w) in self.spans.iter().enumerate() {
            if w.name != window {
                continue;
            }
            wall += w.ns();
            for c in self.spans[i + 1..]
                .iter()
                .take_while(|c| c.start_ns < w.end_ns)
                .filter(|c| c.parent == Some(i))
            {
                if c.name.starts_with(PROBE_PREFIX) {
                    wall -= c.ns();
                } else {
                    covered += c.ns();
                }
            }
        }
        (covered, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_their_window() {
        let mut t = Trace::new();
        for _ in 0..3 {
            t.span("w", |t| {
                t.span("a", |_| std::hint::black_box((0..1000).sum::<u64>()));
                t.span("probe.x", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.span("b", |t| t.span("a", |_| ()));
            });
        }
        assert_eq!(t.count("w"), 3);
        assert_eq!(t.count("a"), 6);
        let cov = t.coverage("w");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
        // The probe's sleep is taken out of the window.
        assert!(t.window_ms("w") < t.total_ms("w") - 5.0);
    }
}
