//! The three workloads: their seeded inputs and the frames that carry
//! them. The program under test only ever sees the frames built here.

use std::sync::Arc;

use soc_data::{AttrSet, Query, QueryLog, Schema};
use soc_rng::StdRng;
use soc_workload::{
    generate_real_workload, generate_synthetic_workload, RealWorkloadConfig, SyntheticConfig,
};

/// Session name every workload loads into.
pub const SESSION: &str = "bench";
/// Attribute budget of every solve.
pub const M: usize = 5;
/// Width of the synthetic logs and of every tuple.
pub const ATTRS: usize = 32;
/// Rows of the synthetic session logs: the largest log one `load` frame
/// carries under the server's 4 MiB line limit.
pub const LOG_ROWS: usize = 100_000;
/// `ingest_mix` pacing: one-row ingests per second.
pub const INGEST_PER_S: u64 = 50;
/// Ingest rows generated up front; enough for a 60 s timed phase plus
/// the traced replay at 50 per second.
const INGEST_ROWS: usize = 8_000;
/// Tuples per `solve_batch` frame.
pub const BATCH: usize = 32;
/// Distinct batches in the fixed `batch_exact` sequence.
pub const BATCH_SEQ: usize = 48;
/// Seed of the fixed `batch_exact` tuple sequence. Single ILP tuples
/// cost up to 100x the median, so the sequence does not follow the run
/// seed; the run seed only rotates where the cycle starts.
const BATCH_SEQ_SEED: u64 = 0xBA7C_4E5A;

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, 2 connections, projected ConsumeAttrCumul solves on a
    /// uniform 10^5-row log.
    SolveProjected,
    /// Closed-loop full-log solves beside paced one-row ingests on a
    /// Zipf-1.0 10^5-row log.
    IngestMix,
    /// Closed loop, 1 connection, 32-tuple projected ILP batches on the
    /// 185-query real-like log.
    BatchExact,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "solve_projected" => Some(Kind::SolveProjected),
            "ingest_mix" => Some(Kind::IngestMix),
            "batch_exact" => Some(Kind::BatchExact),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SolveProjected => "solve_projected",
            Kind::IngestMix => "ingest_mix",
            Kind::BatchExact => "batch_exact",
        }
    }

    /// Solver the workload's solve frames ask for.
    pub fn algo(self) -> &'static str {
        match self {
            Kind::SolveProjected | Kind::IngestMix => "cumul",
            Kind::BatchExact => "ilp",
        }
    }

    /// Whether the workload's solves run on the tuple projection.
    pub fn project(self) -> bool {
        !matches!(self, Kind::IngestMix)
    }
}

/// Everything one run sends, derived from the workload and the seed.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// The session log in the text format, as the `load` frame carries it.
    pub log_text: String,
    /// The benchmark's own copy of the session log, built from the
    /// generated queries (not by parsing `log_text`).
    pub mirror: QueryLog,
    /// One-row ingest payloads in send order (`ingest_mix` only).
    pub ingest_rows: Vec<AttrSet>,
    /// The fixed batch sequence (`batch_exact` only).
    pub batches: Vec<Vec<String>>,
}

impl Inputs {
    /// Generates a workload's inputs.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::SolveProjected | Kind::IngestMix => {
                let skew = if kind == Kind::IngestMix { 1.0 } else { 0.0 };
                let rows = if kind == Kind::IngestMix {
                    LOG_ROWS + INGEST_ROWS
                } else {
                    LOG_ROWS
                };
                let log = generate_synthetic_workload(&SyntheticConfig {
                    num_queries: rows,
                    num_attrs: ATTRS,
                    popularity_skew: skew,
                    seed,
                    ..SyntheticConfig::default()
                });
                let queries = log.queries();
                let base: Vec<Query> = queries[..LOG_ROWS].to_vec();
                let ingest_rows = queries[LOG_ROWS..]
                    .iter()
                    .map(|q| q.attrs().clone())
                    .collect();
                let mut log_text = String::with_capacity(LOG_ROWS * (ATTRS + 1));
                for q in &base {
                    log_text.push_str(&q.attrs().to_bitstring());
                    log_text.push('\n');
                }
                Inputs {
                    kind,
                    seed,
                    log_text,
                    mirror: QueryLog::new(Arc::new(Schema::anonymous(ATTRS)), base),
                    ingest_rows,
                    batches: Vec::new(),
                }
            }
            Kind::BatchExact => {
                let log = generate_real_workload(&RealWorkloadConfig::default());
                let mut rng = StdRng::seed_from_u64(BATCH_SEQ_SEED);
                let mut batches: Vec<Vec<String>> = (0..BATCH_SEQ)
                    .map(|_| (0..BATCH).map(|_| random_tuple(&mut rng)).collect())
                    .collect();
                batches.rotate_left((seed % BATCH_SEQ as u64) as usize);
                Inputs {
                    kind,
                    seed,
                    log_text: soc_data::io::write_query_log(&log),
                    mirror: log,
                    ingest_rows: Vec::new(),
                    batches,
                }
            }
        }
    }

    /// The fresh-tuple stream of closed-loop connection `conn`: the same
    /// seed and connection always give the same sequence.
    pub fn tuple_stream(&self, conn: u64) -> impl FnMut() -> String {
        let mut rng = StdRng::stream(self.seed, conn + 1);
        move || random_tuple(&mut rng)
    }

    /// The `load` frame.
    pub fn load_frame(&self) -> String {
        format!(
            "{{\"type\":\"load\",\"session\":\"{SESSION}\",\"data\":{}}}\n",
            json_str(&self.log_text)
        )
    }

    /// A `solve` frame for `tuple`.
    pub fn solve_frame(&self, id: u64, tuple: &str) -> String {
        format!(
            "{{\"type\":\"solve\",\"session\":\"{SESSION}\",\"tuple\":\"{tuple}\",\"m\":{M},\"algo\":\"{}\",\"project\":{},\"id\":{id}}}\n",
            self.kind.algo(),
            self.kind.project()
        )
    }

    /// A `solve_batch` frame for `tuples`.
    pub fn batch_frame(&self, id: u64, tuples: &[String]) -> String {
        let list: Vec<String> = tuples.iter().map(|t| format!("\"{t}\"")).collect();
        format!(
            "{{\"type\":\"solve_batch\",\"session\":\"{SESSION}\",\"tuples\":[{}],\"m\":{M},\"algo\":\"{}\",\"project\":{},\"id\":{id}}}\n",
            list.join(","),
            self.kind.algo(),
            self.kind.project()
        )
    }

    /// The `ingest` frame carrying ingest row `k`.
    pub fn ingest_frame(&self, k: usize) -> String {
        format!(
            "{{\"type\":\"ingest\",\"session\":\"{SESSION}\",\"data\":\"{}\\n\",\"id\":{k}}}\n",
            self.ingest_rows[k].to_bitstring()
        )
    }
}

/// The `hello` frame.
pub const HELLO: &str = "{\"type\":\"hello\",\"version\":1}\n";

/// A 32-attribute tuple with each attribute present with probability
/// 1/2 (about 16 attributes, so `m = 5` is a real choice).
fn random_tuple(rng: &mut StdRng) -> String {
    let bits = rng.next_u64();
    (0..ATTRS)
        .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
        .collect()
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 16 + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
