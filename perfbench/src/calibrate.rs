//! Host-speed calibration: a fixed reference computation timed between
//! passes, so that timings can be scaled to a nominal host speed.
//!
//! The benchmark runs on a few virtual CPUs of a shared host.  The same pass
//! of the same input can take half again as long a minute later when
//! neighbours load the host's memory system or the hypervisor takes the CPU
//! away, and a median over one run cannot remove a slowdown that lasts the
//! whole run.  The reference computation shares that slowdown but none of the
//! program's code: arithmetic, random reads over a table larger than the
//! private caches, and a burst of small allocations, timed as one piece.
//! A pass timed between two calibrations is scaled by
//! `REFERENCE_S / (mean of the two)`.  A change to the program moves the
//! scaled time as it moves the raw time; a change of host speed moves the
//! calibration with it and cancels.

use std::hint::black_box;
use std::time::Instant;

/// The calibration time scaled timings are expressed against: a scaled
/// time is what the pass would take on a host that runs one calibration in
/// this many seconds.
pub const REFERENCE_S: f64 = 0.05;

/// Entries in the random-read table (16 MiB of `u64`).
const TABLE_LEN: usize = 1 << 21;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_LEN as u64).map(mix).collect(),
        }
    }

    /// Seconds one run of the reference computation takes now.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        let mut z = 1u64;
        for i in 0..2_000_000u64 {
            z = mix(z ^ i);
        }

        let mask = self.table.len() - 1;
        let mut acc = 0u64;
        for _ in 0..200_000u64 {
            z = mix(z);
            acc = acc.wrapping_add(self.table[(z as usize ^ acc as usize) & mask]);
        }
        black_box(acc);

        let mut held: Vec<Vec<u64>> = Vec::with_capacity(50_000);
        for i in 0..50_000u64 {
            held.push(vec![i; (i % 13) as usize]);
        }
        black_box(&held);
        drop(held);
        start.elapsed().as_secs_f64()
    }
}
