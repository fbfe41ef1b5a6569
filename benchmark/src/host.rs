//! How fast the host is running, read beside the measurements.
//!
//! The sandbox is two cores of a shared machine, and what the neighbours do
//! slows those cores by anything from nothing to a factor of two, for seconds
//! to hours at a time (`README.md`, "Steadiness").  A tick is a fixed piece of
//! arithmetic over 32 KiB, timed between the measured calls.  How much longer
//! the window's median tick took than a tick takes on the quiet host is the
//! window's slow-down, and the timing metrics are divided by it: they estimate
//! what the wall clock would have read had the host been quiet.  The wall-clock
//! values and the slow-down are reported beside them.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// One tick of each kind on this sandbox when nothing disturbs it: the lowest
/// of 20 000 ticks, which a sample of a few hundred reaches to within 0.5 %
/// whenever the host has a quiet moment.  On another machine they only rescale
/// the corrected metrics.
pub const QUIET_LIGHT_NS: f64 = 148_300.0;
pub const QUIET_HEAVY_NS: f64 = 79_650.0;

/// 32 KiB of `f32`: a tick works from the first-level cache.
const FLOATS: usize = 8 * 1024;

/// `LANES` running sums over a small array, which the compiler turns into
/// vector multiplies and adds.
fn sweep<const LANES: usize>(sweeps: usize) -> u64 {
    thread_local! {
        static DATA: Vec<f32> = (0..FLOATS).map(|i| (i as f32 * 0.37).sin()).collect();
    }
    DATA.with(|data| {
        let begin = Instant::now();
        let mut sums = [0f32; LANES];
        for sweep in 0..sweeps {
            let weight = 0.5 + sweep as f32 * 0.001;
            for chunk in black_box(data.as_slice()).chunks_exact(LANES) {
                for (sum, value) in sums.iter_mut().zip(chunk) {
                    *sum = *sum * 0.999 + value * weight;
                }
            }
        }
        black_box(sums);
        begin.elapsed().as_nanos() as u64
    })
}

/// Four vector sums: each waits for its own last result, so the core's units
/// are mostly idle and a neighbour on the same core slows it little.
pub fn light_tick() -> u64 {
    sweep::<16>(200)
}

/// Eight vector sums: enough independent work to keep the units busy, so a
/// neighbour slows it as it slows the model's matrix multiplies.
pub fn heavy_tick() -> u64 {
    sweep::<32>(150)
}

/// The ticks of one window.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    light_ns: Vec<f64>,
    heavy_ns: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn probe(&mut self) {
        self.light_ns.push(light_tick() as f64);
        self.heavy_ns.push(heavy_tick() as f64);
    }

    pub fn burst(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.probe();
        }
    }

    pub fn absorb(&mut self, other: HostSpeed) {
        self.light_ns.extend(other.light_ns);
        self.heavy_ns.extend(other.heavy_ns);
    }

    pub fn count(&self) -> usize {
        self.light_ns.len()
    }

    pub fn light_slowdown(&self) -> f64 {
        slowdown(&self.light_ns, QUIET_LIGHT_NS)
    }

    pub fn heavy_slowdown(&self) -> f64 {
        slowdown(&self.heavy_ns, QUIET_HEAVY_NS)
    }

    /// The store's work lies between the two kinds of tick: their geometric
    /// mean.
    pub fn slowdown(&self) -> f64 {
        (self.light_slowdown() * self.heavy_slowdown()).sqrt()
    }
}

/// Median tick of the window ÷ the quiet tick; 1 when nothing was probed.
fn slowdown(ticks_ns: &[f64], quiet_ns: f64) -> f64 {
    if ticks_ns.is_empty() {
        return 1.0;
    }
    median(&mut ticks_ns.to_vec()) / quiet_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_without_ticks_is_not_corrected() {
        assert_eq!(HostSpeed::new().slowdown(), 1.0);
    }

    #[test]
    fn the_slowdown_is_the_median_tick_over_the_quiet_tick() {
        let mut host = HostSpeed {
            light_ns: [2.0, 9.0, 1.0].map(|x| x * QUIET_LIGHT_NS).to_vec(),
            heavy_ns: [8.0, 1.0, 30.0].map(|x| x * QUIET_HEAVY_NS).to_vec(),
        };
        assert_eq!(host.light_slowdown(), 2.0);
        assert_eq!(host.heavy_slowdown(), 8.0);
        assert_eq!(host.slowdown(), 4.0);
        host.probe();
        assert_eq!(host.count(), 4);
    }
}
