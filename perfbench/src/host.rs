//! The host-speed reference: a fixed kernel of the benchmark's own,
//! timed around every round, that tells how fast the shared host ran
//! while the round ran.
//!
//! On a 2-vCPU share of a host whose neighbours come and go, the same
//! code reads up to a fifth slower from one minute to the next (a fixed
//! memory scan as much as a request). The timed metrics are therefore
//! reported at a fixed reference speed: each round's times are
//! multiplied, and its rates divided, by `NOMINAL_MS / ref_ms`, where
//! `ref_ms` is the median time of one reference pass around that round.
//! The kernel calls no code of the repository, so a change to the
//! program under test moves the scaled metrics by as much as the raw
//! ones, while host drift moves the reference with them.

use std::hint::black_box;
use std::time::Instant;

/// Reference-pass time that the scaled metrics assume, in ms: about
/// one pass on an unloaded 2-vCPU Xeon virtual machine.
pub const NOMINAL_MS: f64 = 1.0;
/// Rows of the reference scan: 4 MiB of 64-bit rows, about the size of
/// a 10^5-query session log.
const ROWS: usize = 1 << 19;
/// Subset masks one pass tests every row against.
const MASKS: usize = 4;
/// Passes timed on each side of a round.
const PASSES: usize = 25;

/// The reference kernel's fixed input.
pub struct Reference {
    rows: Vec<u64>,
    masks: [u64; MASKS],
}

impl Reference {
    pub fn new() -> Reference {
        // SplitMix64, so that not even the table comes from the
        // repository's code.
        let mut state = 0x5EED_4057u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rows = (0..ROWS).map(|_| next() & next()).collect();
        let masks = std::array::from_fn(|_| next() | next());
        Reference { rows, masks }
    }

    /// Times [`PASSES`] passes on each of two threads at once, as the
    /// workloads keep both vCPUs busy: milliseconds of every pass, each
    /// pass counting the rows that are subsets of every mask.
    pub fn passes(&self) -> Vec<f64> {
        std::thread::scope(|s| {
            let other = s.spawn(|| self.thread_passes());
            let mut times = self.thread_passes();
            times.extend(other.join().expect("reference thread panicked"));
            times
        })
    }

    fn thread_passes(&self) -> Vec<f64> {
        (0..PASSES)
            .map(|_| {
                let t0 = Instant::now();
                let mut count = 0u64;
                for &mask in &self.masks {
                    for &row in black_box(&self.rows) {
                        count += u64::from(row & !mask == 0);
                    }
                }
                black_box(count);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }
}
