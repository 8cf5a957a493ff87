//! The host the benchmark runs on: descriptor, calibration and memory.

use std::hint::black_box;
use std::time::Instant;

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The calibration time of the reference host, in milliseconds: host
/// times are reported as if one calibration round took this long.
pub const REF_CALIB_MS: f64 = 5.0;

/// Ways of the calibration kernel's cache model.
const CAL_WAYS: usize = 8;
/// Lines of the model (1 MiB of tags, 512 KiB of LRU stamps).
const CAL_LINES: usize = 1 << 17;
/// Accesses per round.
const CAL_ACCESSES: u64 = 150_000;
/// Distinct addresses accessed, more than the model holds.
const CAL_FOOTPRINT: u64 = 300_000;

/// A fixed reference kernel timed between the passes of a run.
///
/// One round runs a set-associative LRU cache model over a megabyte of
/// tags on a fixed address stream: data-dependent branches and loads
/// that miss the host's L1, like the simulator's own hot loops. It does
/// the same work on every round and shares no code with the program, so
/// the change in its time is host drift (contention for shared caches
/// and memory, clock frequency), never a change in the program. A
/// dependent pure-ALU loop barely sees the contention that slows the
/// simulator by up to 2x; this kernel tracks it.
#[derive(Debug)]
pub struct Calibrator {
    tags: Vec<u64>,
    lru: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with no rounds timed yet.
    #[must_use]
    pub fn new() -> Self {
        Calibrator {
            tags: vec![u64::MAX; CAL_LINES],
            lru: vec![0; CAL_LINES],
            samples: Vec::new(),
        }
    }

    /// Times `rounds` rounds of the kernel.
    pub fn sample(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.tags.fill(u64::MAX);
            self.lru.fill(0);
            let t = Instant::now();
            black_box(cache_model(&mut self.tags, &mut self.lru));
            self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Rounds timed so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.samples.len()
    }

    /// The fastest round, in milliseconds: the host at its quietest in
    /// this run, the counterpart of the items' fastest times.
    #[must_use]
    pub fn fastest_ms(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The median round, in milliseconds: the host as it typically ran,
    /// the counterpart of a median over passes.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        crate::median(&mut self.samples.clone())
    }
}

/// One round of the calibration kernel; returns the hit count.
fn cache_model(tags: &mut [u64], lru: &mut [u32]) -> u64 {
    let sets = tags.len() / CAL_WAYS;
    let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
    let mut clock = 0u32;
    let mut hits = 0u64;
    for _ in 0..black_box(CAL_ACCESSES) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = x % CAL_FOOTPRINT;
        let base = (addr as usize % sets) * CAL_WAYS;
        clock += 1;
        let mut victim = base;
        let mut hit = false;
        for w in base..base + CAL_WAYS {
            if tags[w] == addr {
                lru[w] = clock;
                hit = true;
                break;
            }
            if lru[w] < lru[victim] {
                victim = w;
            }
        }
        if hit {
            hits += 1;
        } else {
            tags[victim] = addr;
            lru[victim] = clock;
        }
    }
    hits
}

/// Peak resident-set size of this process in MB, or 0 where the OS
/// does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    sbrp_harness::perf::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_calibration_round_does_the_same_work() {
        let mut cal = Calibrator::new();
        let hits: Vec<u64> = (0..3)
            .map(|_| {
                cal.tags.fill(u64::MAX);
                cal.lru.fill(0);
                cache_model(&mut cal.tags, &mut cal.lru)
            })
            .collect();
        assert!(hits[0] > 0 && hits[0] < CAL_ACCESSES, "{hits:?}");
        assert!(hits.iter().all(|&h| h == hits[0]), "{hits:?}");

        cal.sample(3);
        assert_eq!(cal.rounds(), 3);
        assert!(cal.fastest_ms() > 0.0 && cal.fastest_ms() <= cal.median_ms());
    }
}
