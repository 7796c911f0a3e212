//! # soc-core
//!
//! Algorithms for *"Standing Out in a Crowd: Selecting Attributes for
//! Maximum Visibility"* (ICDE 2008): given a query log `Q`, a new tuple
//! `t`, and a budget `m`, retain the `m` attributes of `t` that maximize
//! the number of queries retrieving the compressed tuple (problem
//! **SOC-CB-QL**, NP-complete by reduction from Clique).
//!
//! Exact algorithms:
//! - [`BruteForce`] — enumerate all `C(|t|, m)` compressions (§IV.A);
//! - [`IlpSolver`] — the integer linear program of §IV.B, solved by the
//!   from-scratch branch-and-bound in [`soc_solver`];
//! - [`MfiSolver`] — the maximal-frequent-itemset algorithm of §IV.C,
//!   built on the random-walk miner in [`soc_itemsets`], with
//!   preprocessing support ([`MfiPreprocessed`]).
//!
//! Greedy heuristics (§IV.D): [`ConsumeAttr`], [`ConsumeAttrCumul`],
//! [`ConsumeQueries`].
//!
//! Variants (§II.B, §V) live in [`variants`]: per-attribute objective,
//! SOC-CB-D domination, SOC-Topk with global scoring, disjunctive
//! retrieval, and categorical / numeric reductions.
//!
//! ```
//! use soc_core::{BruteForce, SocAlgorithm, SocInstance};
//! use soc_data::{QueryLog, Tuple};
//!
//! // The paper's Fig 1 example.
//! let log = QueryLog::from_bitstrings(&[
//!     "110000", "100100", "010100", "000101", "001010",
//! ]).unwrap();
//! let t = Tuple::from_bitstring("110111").unwrap();
//! let sol = BruteForce.solve(&SocInstance::new(&log, &t, 3));
//! assert_eq!(sol.satisfied, 3); // AC, FourDoor, PowerDoors
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod batch;
mod brute_force;
mod greedy;
mod ilp;
mod local_search;
mod mfi;
mod problem;
mod reduce;
mod sketch;
pub mod variants;

pub use batch::solve_batch;
pub use brute_force::BruteForce;
pub use greedy::{ConsumeAttr, ConsumeAttrCumul, ConsumeQueries};
pub use ilp::IlpSolver;
pub use local_search::LocalSearch;
pub use mfi::{MfiPreprocessed, MfiSolver, MinerKind, SharedMfi};
pub use problem::{SocAlgorithm, SocInstance, Solution};
pub use reduce::{Projected, ReducedInstance};
pub use sketch::{default_clusters, SketchOutcome, SketchSolver};
pub use soc_solver::SolveStats;
