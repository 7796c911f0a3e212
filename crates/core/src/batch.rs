//! Batch solving: score many candidate tuples against one query log.
//! This is the deployment shape of a seller-side recommendation
//! service — one workload, a stream of new listings — and the shape the
//! paper's experiments take (averages over 100 randomly selected cars).

use soc_data::{QueryLog, Tuple};
use soc_obs::sketch;

use crate::{SocAlgorithm, SocInstance, Solution};

/// Solves one instance per tuple, in input order, on the calling thread.
///
/// Each solve's latency is recorded in the `serving.instance_us` sketch
/// when metrics are enabled. Use [`crate::SharedMfi`] to share the MFI
/// preprocessing cache across the batch.
pub fn solve_batch<A>(algorithm: &A, log: &QueryLog, tuples: &[Tuple], m: usize) -> Vec<Solution>
where
    A: SocAlgorithm + ?Sized,
{
    if tuples.is_empty() {
        return Vec::new();
    }
    let _span = soc_obs::span("solve_batch");
    tuples
        .iter()
        .map(|tuple| {
            let t0 = soc_obs::metrics_then_now();
            let solution = algorithm.solve(&SocInstance::new(log, tuple, m));
            if let Some(t0) = t0 {
                // Tail latencies (p99/p999) are read off within ~1%
                // relative error (see soc_obs::QuantileSketch).
                sketch!("serving.instance_us").record(soc_obs::clock::elapsed_us(t0));
            }
            solution
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForce, ConsumeAttr, MfiSolver, SharedMfi};
    use soc_data::{AttrSet, QueryLog};

    fn setup() -> (QueryLog, Vec<Tuple>) {
        let log = QueryLog::from_bitstrings(&[
            "110000", "100100", "010100", "000101", "001010", "110100",
        ])
        .unwrap();
        let tuples = (0..12u32)
            .map(|i| {
                Tuple::new(AttrSet::from_indices(
                    6,
                    (0..6).filter(move |&j| (i >> (j % 4)) & 1 == 1 || j == (i as usize % 6)),
                ))
            })
            .collect();
        (log, tuples)
    }

    #[test]
    fn batch_matches_sequential_slot_by_slot() {
        // Deterministic solutions (BruteForce) let us compare retained
        // sets slot by slot: every result sits in the slot of the tuple
        // that produced it.
        let (log, tuples) = setup();
        let batch = solve_batch(&BruteForce, &log, &tuples, 3);
        assert_eq!(batch.len(), tuples.len());
        for (i, (tuple, sol)) in tuples.iter().zip(&batch).enumerate() {
            let seq = BruteForce.solve(&SocInstance::new(&log, tuple, 3));
            assert_eq!(sol.retained, seq.retained, "slot {i}");
            assert_eq!(sol.satisfied, seq.satisfied, "slot {i}");
        }
    }

    #[test]
    fn shared_mfi_cache_is_safe_and_exact() {
        let (log, tuples) = setup();
        let shared = SharedMfi::new(MfiSolver::default());
        shared.prime(&log);
        let batch = solve_batch(&shared, &log, &tuples, 3);
        for (tuple, sol) in tuples.iter().zip(&batch) {
            let want = BruteForce.solve(&SocInstance::new(&log, tuple, 3));
            assert_eq!(sol.satisfied, want.satisfied);
        }
        assert!(shared.cached_thresholds() >= 1);
    }

    #[test]
    fn greedy_batch() {
        let (log, tuples) = setup();
        let batch = solve_batch(&ConsumeAttr, &log, &tuples, 2);
        for sol in &batch {
            assert!(sol.retained.count() <= 2);
        }
    }

    #[test]
    fn empty_input() {
        let (log, _) = setup();
        assert!(solve_batch(&BruteForce, &log, &[], 3).is_empty());
    }
}
