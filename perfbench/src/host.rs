//! The host's speed over one run, and host times reported at a fixed
//! reference speed.
//!
//! A shared host's speed drifts by tens of percent over seconds to
//! minutes, per vCPU, with the load of its other tenants, and a run's
//! median follows that drift. Between timed iterations (never inside one)
//! a run probes the host: its vCPUs each run short chunks of fixed work
//! owned by the benchmark, and the probe reads the median chunk's time.
//! [`HostSpeed::scaled`] rescales a sample by `REF_NOMINAL_MS` over the
//! median of the probes around it, which reports it at the reference
//! speed. A change to the program moves the samples and not the probes,
//! so it still shows in full.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use util::WorkerPool;

use crate::{ms, stats};

/// A probe's median chunk time at the reference speed (ms): its typical
/// value on the shared 2-vCPU VM the figures in `NOTES.md` come from.
pub const REF_NOMINAL_MS: f64 = 0.018;

/// Probes on either side of a sample that set its host-speed factor.
const REF_WINDOW: usize = 5;

/// Chunks in one probe, handed out one at a time to its threads.
const REF_CHUNKS: usize = 64;

/// One chunk: a dependent chain of pseudo-random loads and stores over a
/// 32 KiB table.
fn chunk(table: &mut [f64; 4096], acc: &mut f64) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..10_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 52) as usize;
        *acc += table[i] * 1.000_001;
        table[i] = *acc * 1e-9 + 0.5;
    }
}

/// One probe: `REF_CHUNKS` chunks pulled by as many freshly spawned
/// threads as the program's default pool width, each chunk timed on its
/// own. Returns the median chunk's wall time in ms: the speed of a vCPU
/// while it runs, which a thread of the program's that is still runnable
/// (it takes time slices, not speed) or a cold cache (the first chunks)
/// leaves alone. The tables live on the threads' stacks, so a probe does
/// not allocate while it is timed.
fn reference_probe() -> f64 {
    let next = AtomicUsize::new(0);
    let width = WorkerPool::default_threads();
    let chunks_ms: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut table = [1.0f64; 4096];
                    let mut acc = 0.0;
                    let mut times = Vec::with_capacity(REF_CHUNKS);
                    loop {
                        let t = Instant::now();
                        if next.fetch_add(1, Ordering::Relaxed) >= REF_CHUNKS {
                            break;
                        }
                        chunk(&mut table, &mut acc);
                        times.push(ms(t));
                    }
                    std::hint::black_box(acc);
                    times
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_default())
            .collect()
    });
    stats::median(&chunks_ms)
}

/// A host-time figure and the point among the run's probes at which it
/// was taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    pub value: f64,
    mark: usize,
}

/// The run's probes.
#[derive(Debug, Default)]
pub(crate) struct HostSpeed {
    probes_ms: Vec<f64>,
}

impl HostSpeed {
    /// Probes the host once.
    pub fn probe(&mut self) {
        self.probes_ms.push(reference_probe());
    }

    /// A sample taken now.
    pub fn sample(&self, value: f64) -> Sample {
        Sample {
            value,
            mark: self.probes_ms.len(),
        }
    }

    /// `s` at the reference speed; unscaled when the run has no probes.
    pub fn scaled(&self, s: Sample) -> f64 {
        let lo = s.mark.saturating_sub(REF_WINDOW + 1);
        let hi = (s.mark + REF_WINDOW).min(self.probes_ms.len());
        if lo >= hi {
            return s.value;
        }
        s.value * REF_NOMINAL_MS / stats::median(&self.probes_ms[lo..hi])
    }

    /// `xs` at the reference speed, and as taken.
    pub fn scale_all(&self, xs: &[Sample]) -> (Vec<f64>, Vec<f64>) {
        xs.iter().map(|&s| (self.scaled(s), s.value)).unzip()
    }

    /// Median of the run's probes (ms); `NaN` without any.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.probes_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_scaled_by_the_probes_around_it() {
        let mut host = HostSpeed {
            probes_ms: vec![REF_NOMINAL_MS; 20],
        };
        let early = host.sample(10.0);
        host.probes_ms.extend([2.0 * REF_NOMINAL_MS; 20]);
        let late = host.sample(10.0);
        // Six probes before `early` ran at the reference speed, five after
        // it at half of it: their median is the reference speed.
        assert!((host.scaled(early) - 10.0).abs() < 1e-9);
        assert!((host.scaled(late) - 5.0).abs() < 1e-9);
        assert_eq!(HostSpeed::default().scaled(early), 10.0);
    }
}
