//! Output checks: every answer the server gave is verified against the
//! benchmark's own mirror of the session log.

use std::collections::HashMap;

use soc_core::{MfiSolver, Projected, SocAlgorithm, SocInstance};
use soc_data::{AttrSet, Tuple};

use crate::client::Timed;
use crate::workload::{Inputs, Kind, M};

/// Frames sent and frames that failed (error reply, no reply, or a
/// wrong answer), with the first few failures described.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Adds another round's counts and notes to this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks every answer of a run.
pub fn check(inputs: &Inputs, timed: &Timed) -> Verdict {
    // A frame lost to a failed connection was attempted and failed.
    let mut v = Verdict {
        attempted: timed.lost,
        failed: timed.lost,
        notes: timed.errors.iter().take(5).cloned().collect(),
    };
    // Satisfied weight of `retained` on the ingested rows 0..k, as a
    // prefix sum per distinct retained set (ingest_mix only).
    let mut ingest_prefix: HashMap<String, Vec<usize>> = HashMap::new();
    let rows_sent = timed
        .solves
        .iter()
        .map(|s| s.sent_before_reply)
        .max()
        .unwrap_or(0);
    let ingested = &inputs.ingest_rows[..rows_sent.min(inputs.ingest_rows.len())];
    for s in &timed.solves {
        v.attempted += 1;
        let Some((retained, satisfied)) = &s.answer else {
            v.fail(format!(
                "solve {}: {}",
                s.tuple,
                clip(s.bad_reply.as_deref())
            ));
            continue;
        };
        let r = match shape(&s.tuple, retained) {
            Ok(r) => r,
            Err(e) => {
                v.fail(e);
                continue;
            }
        };
        let base = inputs.mirror.satisfied_count(&Tuple::new(r.clone()));
        let (lo, hi) = if inputs.kind == Kind::IngestMix {
            let prefix = ingest_prefix.entry(retained.clone()).or_insert_with(|| {
                let mut total = 0;
                let mut acc = vec![0];
                for row in ingested {
                    total += usize::from(row.is_subset(&r));
                    acc.push(total);
                }
                acc
            });
            let hi = s.sent_before_reply.min(prefix.len() - 1);
            (base + prefix[s.acked_before.min(hi)], base + prefix[hi])
        } else {
            (base, base)
        };
        let got = *satisfied as usize;
        if got < lo || got > hi {
            v.fail(format!(
                "solve {} -> {retained}: satisfied {got}, mirror says {lo}..={hi}",
                s.tuple
            ));
        }
    }
    for i in &timed.ingests {
        v.attempted += 1;
        if !i.ok {
            v.fail("ingest answered with something other than the next log version".into());
        }
    }
    if inputs.kind == Kind::BatchExact {
        check_batches(inputs, timed, &mut v);
    }
    v
}

/// Batch answers must match the mirror's count and, after the timed
/// phase, the optimum of an independent exact method: deterministic MFI
/// on the tuple projection, which preserves every objective value.
fn check_batches(inputs: &Inputs, timed: &Timed, v: &mut Verdict) {
    let mut optimum: HashMap<(usize, usize), usize> = HashMap::new();
    let mfi = Projected(MfiSolver::deterministic());
    for b in &timed.batches {
        v.attempted += 1;
        if let Some(bad) = &b.bad_reply {
            v.fail(format!("batch {}: {}", b.batch, clip(Some(bad))));
            continue;
        }
        // A batch frame fails once, at its first wrong answer.
        let wrong = b.answers.iter().enumerate().find_map(|(i, answer)| {
            let tuple = &inputs.batches[b.batch][i];
            let Some((retained, satisfied)) = answer else {
                return Some(format!("batch {} tuple {i}: no solve_result", b.batch));
            };
            let r = match shape(tuple, retained) {
                Ok(r) => r,
                Err(e) => return Some(e),
            };
            let count = inputs.mirror.satisfied_count(&Tuple::new(r));
            let best = *optimum.entry((b.batch, i)).or_insert_with(|| {
                let t = Tuple::from_bitstring(tuple).expect("generated tuple");
                mfi.solve(&SocInstance::new(&inputs.mirror, &t, M)).satisfied
            });
            let got = *satisfied as usize;
            (got != count || got != best).then(|| {
                format!(
                    "batch {} tuple {tuple} -> {retained}: satisfied {got}, mirror count {count}, exact optimum {best}",
                    b.batch
                )
            })
        });
        if let Some(note) = wrong {
            v.fail(note);
        }
    }
}

/// `retained` parsed, a subset of `tuple`, with at most `m` attributes.
fn shape(tuple: &str, retained: &str) -> Result<AttrSet, String> {
    let t = AttrSet::from_bitstring(tuple).expect("generated tuple");
    match AttrSet::from_bitstring(retained) {
        Some(r) if r.universe() == t.universe() && r.is_subset(&t) && r.count() <= M => Ok(r),
        _ => Err(format!(
            "retained {retained:?} is not a subset of {tuple} with at most {M} attributes"
        )),
    }
}

fn clip(s: Option<&str>) -> String {
    s.unwrap_or("no reply").chars().take(200).collect()
}
