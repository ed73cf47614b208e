//! The host-speed probe. On a shared 2-vCPU Xeon VM the host's speed
//! drifts by 15–25 % over minutes (other tenants of the machine), which
//! swamps any bound a regression gate can use on raw wall time. So every
//! timed sample is followed by a fixed memory walk owned by the
//! benchmark, on as many threads as the sample used, and the host-time
//! end-to-end metrics are reported at a nominal host speed: the median
//! over samples of value × (nominal ÷ probe). The walk does not depend on
//! the program under test, so a faster program still reads faster; the
//! raw medians are printed too.

use crate::report::median;
use std::time::Instant;

/// The probe time the host-time metrics are normalized to: roughly one
/// walk on a 2-vCPU Xeon VM.
pub const NOMINAL_PROBE_S: f64 = 0.080;
/// Per-thread table: 32 MiB, larger than a core's private caches.
const TABLE_WORDS: usize = 1 << 22;
/// Dependent steps per walk.
const STEPS: usize = 400_000;

pub struct Probe {
    tables: Vec<Vec<u64>>,
}

impl Probe {
    /// Allocates and touches one table per thread. Made before any
    /// workload work, so the tables stay resident for the whole run.
    pub fn new(threads: usize) -> Self {
        let tables = (0..threads.max(1))
            .map(|t| {
                let mut x = 0x1234_5678 + t as u64;
                (0..TABLE_WORDS)
                    .map(|_| {
                        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z ^ (z >> 27)
                    })
                    .collect()
            })
            .collect();
        Probe { tables }
    }

    /// Resident bytes of the tables.
    pub fn bytes(&self) -> usize {
        self.tables.len() * TABLE_WORDS * std::mem::size_of::<u64>()
    }

    /// Seconds for one walk on each of `threads` tables at once.
    pub fn time(&mut self, threads: usize) -> f64 {
        let t = Instant::now();
        let threads = threads.clamp(1, self.tables.len());
        match &mut self.tables[..threads] {
            [one] => {
                std::hint::black_box(walk(one));
            }
            many => std::thread::scope(|s| {
                for table in many {
                    s.spawn(move || std::hint::black_box(walk(table)));
                }
            }),
        }
        t.elapsed().as_secs_f64()
    }
}

/// A pseudo-random read-modify-write walk whose every step depends on
/// the previous one.
fn walk(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..STEPS {
        let v = table[i];
        acc = acc.wrapping_add(v).rotate_left(7) ^ v.wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = acc;
        i = (v ^ acc) as usize & mask;
    }
    acc
}

/// Median rate at the nominal host speed, from `(rate, probe_s)` pairs.
pub fn rate_at_nominal(samples: &[(f64, f64)]) -> f64 {
    median(&samples.iter().map(|(r, p)| r * p / NOMINAL_PROBE_S).collect::<Vec<_>>())
}

/// Median duration at the nominal host speed, from `(seconds, probe_s)`
/// pairs.
pub fn time_at_nominal(samples: &[(f64, f64)]) -> f64 {
    median(&samples.iter().map(|(t, p)| t / p * NOMINAL_PROBE_S).collect::<Vec<_>>())
}
