//! # soc-cli
//!
//! Command-line front-end for the `standout` workspace. The command
//! logic lives in this library (with file access injected) so that every
//! path is unit-testable; `src/main.rs` is a thin binary shim.
//!
//! ```text
//! soc solve    --log FILE --tuple BITS -m N [--algo NAME] [--dedup] [--project]
//!              [--sketch] [--clusters K] [--stats] [--metrics[=table|json]] [--trace-out PATH]
//! soc dominate --db FILE  --tuple BITS -m N [--algo NAME]
//! soc per-attr --log FILE --tuple BITS [--algo NAME]
//! soc stats    --log FILE
//! soc generate real|synthetic|cars [--queries N] [--attrs M] [--cars N] [--seed S]
//!              [--skew Z] [--topics N [--topic-width W] [--topic-noise F]]
//! soc serve    [--port N] [--host H] [--threads N] [--max-conns N] [--slow-ms N]
//! ```
//!
//! Query logs and databases use the text format of [`soc_data::io`].

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt;

use soc_core::variants::data_variant::solve_soc_cb_d;
use soc_core::variants::per_attribute::solve_per_attribute;
use soc_core::{default_clusters, IlpSolver, Projected, SketchSolver, SocAlgorithm, SocInstance};
use soc_data::{io as socio, AttrId, QueryLog, Schema, Tuple};
use soc_workload::{
    generate_cars, generate_real_workload, generate_synthetic_workload, CarsConfig,
    RealWorkloadConfig, SyntheticConfig, TopicStructure,
};

/// A CLI failure: human-readable message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Message for stderr.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime).
    pub code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn usage(message: impl Into<String>) -> CliError {
    CliError {
        message: format!("{}\n\n{USAGE}", message.into()),
        code: 2,
    }
}

fn runtime(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage:
  soc solve    --log FILE --tuple BITS -m N [--algo NAME] [--dedup] [--project]
               [--sketch] [--clusters K] [--stats] [--metrics[=table|json]] [--trace-out PATH]
  soc dominate --db FILE  --tuple BITS -m N [--algo NAME]
  soc per-attr --log FILE --tuple BITS [--algo NAME]
  soc stats    --log FILE
  soc generate real|synthetic|cars [--queries N] [--attrs M] [--cars N] [--seed S]
               [--skew Z] [--topics N [--topic-width W] [--topic-noise F]]
  soc serve    [--port N] [--host H] [--threads N] [--max-conns N] [--slow-ms N]

algorithms: brute ilp mfi mfi-det attr cumul queries local (default: mfi)
--project solves on the tuple-projected instance; --stats prints
branch-and-bound counters (nodes, LP pivots, warm-start hit rate — ilp
only); --metrics prints the process metric registry after solving (any
algorithm); --trace-out writes tracing spans as JSON lines to PATH

--sketch solves through cluster-compressed sketch-and-refine: similar
queries are clustered, the sketch instance is solved with the chosen
algorithm (default mfi), and the answer is refined inside the touched
clusters; the output adds the cluster count and a verified
[lower, upper] objective bracket. --clusters K overrides the derived
cluster count (1 <= K <= #queries)

serve runs the JSON-lines TCP service (see PROTOCOL.md); --port 0 (the
default) binds an ephemeral port, announced on stdout; --threads defaults
to the host's available parallelism; --slow-ms N captures a
flight-recorder postmortem for any frame slower than N ms (0 = every
frame; retrieve with a dump_flight frame)";

/// Abstraction over the filesystem so tests can inject content.
pub trait FileSource {
    /// Reads the entire file as UTF-8 text.
    fn read(&self, path: &str) -> Result<String, String>;
}

/// Reads from the real filesystem.
pub struct FsSource;

impl FileSource for FsSource {
    fn read(&self, path: &str) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// Simple flag/value argument cursor.
struct Args<'a> {
    items: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(items: &'a [String]) -> Self {
        Self {
            used: vec![false; items.len()],
            items,
        }
    }

    /// The value following `flag`, if present.
    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, CliError> {
        for i in 0..self.items.len() {
            if self.items[i] == flag {
                self.used[i] = true;
                let v = self
                    .items
                    .get(i + 1)
                    .ok_or_else(|| usage(format!("{flag} needs a value")))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn required(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.value(flag)?
            .ok_or_else(|| usage(format!("missing required {flag}")))
    }

    /// A flag with an optional inline value: `None` when absent,
    /// `Some(None)` for the bare `--flag` form, `Some(Some(v))` for
    /// `--flag=v`.
    fn flag_opt_value(&mut self, flag: &str) -> Option<Option<&'a str>> {
        for i in 0..self.items.len() {
            let item = &self.items[i];
            if item == flag {
                self.used[i] = true;
                return Some(None);
            }
            if let Some(v) = item.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                self.used[i] = true;
                return Some(Some(v));
            }
        }
        None
    }

    /// A bare boolean flag.
    fn flag(&mut self, flag: &str) -> bool {
        for i in 0..self.items.len() {
            if self.items[i] == flag {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Errors if any argument was never consumed.
    fn finish(self) -> Result<(), CliError> {
        for (item, used) in self.items.iter().zip(&self.used) {
            if !used {
                return Err(usage(format!("unrecognized argument {item:?}")));
            }
        }
        Ok(())
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|_| usage(format!("{what} must be an integer, got {s:?}")))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, CliError> {
    s.parse()
        .map_err(|_| usage(format!("{what} must be a number, got {s:?}")))
}

/// Builds a named algorithm from the protocol's table, so the CLI and
/// `soc serve` accept the same names. Sketch-and-refine wraps another
/// algorithm, so it is reached through `--sketch`, not `--algo`.
fn algorithm(name: &str) -> Result<Box<dyn SocAlgorithm>, CliError> {
    match soc_serve::Algo::parse(name) {
        Some(soc_serve::Algo::Sketch) => Err(usage(
            "sketch is not an --algo; pass --sketch (--algo then picks the sketch's solver)",
        )),
        Some(algo) => Ok(algo.build()),
        None => Err(usage(format!("unknown algorithm {name:?}"))),
    }
}

fn parse_tuple(bits: &str, schema: &Schema) -> Result<Tuple, CliError> {
    let t = Tuple::from_bitstring(bits)
        .ok_or_else(|| usage(format!("--tuple must be a 0/1 string, got {bits:?}")))?;
    if t.universe() != schema.len() {
        return Err(runtime(format!(
            "tuple width {} does not match the {}-attribute schema",
            t.universe(),
            schema.len()
        )));
    }
    Ok(t)
}

fn describe(retained: &soc_data::AttrSet, schema: &Schema) -> String {
    retained
        .iter()
        .map(|i| {
            schema
                .name(AttrId(
                    u32::try_from(i).expect("attr index exceeds u32::MAX"),
                ))
                .to_string()
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Executes a CLI invocation; returns stdout text.
pub fn run(args: &[String], files: &dyn FileSource) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage("no command given"));
    };
    match command.as_str() {
        "solve" => cmd_solve(rest, files),
        "dominate" => cmd_dominate(rest, files),
        "per-attr" => cmd_per_attr(rest, files),
        "stats" => cmd_stats(rest, files),
        "generate" => cmd_generate(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

fn load_log(args: &mut Args<'_>, files: &dyn FileSource) -> Result<QueryLog, CliError> {
    let path = args.required("--log")?;
    let text = files.read(path).map_err(runtime)?;
    socio::parse_query_log(&text).map_err(|e| runtime(format!("{path}: {e}")))
}

fn cmd_solve(rest: &[String], files: &dyn FileSource) -> Result<String, CliError> {
    let mut args = Args::new(rest);
    let mut log = load_log(&mut args, files)?;
    let tuple_bits = args.required("--tuple")?;
    let m = parse_usize(args.required("-m")?, "-m")?;
    let sketch = args.flag("--sketch");
    let clusters = args
        .value("--clusters")?
        .map(|s| parse_usize(s, "--clusters"))
        .transpose()?;
    let algo_name = args.value("--algo")?.unwrap_or("mfi");
    let algo = algorithm(algo_name)?;
    if args.flag("--dedup") {
        log = log.deduplicate();
    }
    let project = args.flag("--project");
    let want_stats = args.flag("--stats");
    let metrics_mode = match args.flag_opt_value("--metrics") {
        None => None,
        Some(None) | Some(Some("table")) => Some(MetricsMode::Table),
        Some(Some("json")) => Some(MetricsMode::Json),
        Some(Some(other)) => {
            return Err(usage(format!(
                "--metrics accepts table or json, got {other:?}"
            )))
        }
    };
    let trace_out = args.value("--trace-out")?;
    args.finish()?;
    if want_stats && algo_name != "ilp" {
        return Err(usage(format!(
            "--stats only applies to the ilp algorithm, not {algo_name:?}"
        )));
    }
    if want_stats && project {
        return Err(usage("--stats cannot be combined with --project"));
    }
    if clusters.is_some() && !sketch {
        return Err(usage("--clusters only applies with --sketch"));
    }
    if sketch {
        if clusters == Some(0) {
            return Err(usage("--clusters must be at least 1"));
        }
        if want_stats {
            return Err(usage("--stats cannot be combined with --sketch"));
        }
        if project {
            return Err(usage(
                "--project is redundant with --sketch (the sketch projects internally)",
            ));
        }
        if let Some(k) = clusters {
            if k > log.len() {
                return Err(runtime(format!(
                    "--clusters {k} exceeds the {} queries in the log",
                    log.len()
                )));
            }
        }
    }

    let tuple = parse_tuple(tuple_bits, log.schema())?;
    if metrics_mode.is_some() {
        soc_obs::enable_metrics();
        soc_obs::reset_metrics();
    }
    if trace_out.is_some() {
        soc_obs::enable_tracing();
        let _ = soc_obs::drain_spans(); // discard spans from before this run
    }
    let inst = SocInstance::new(&log, &tuple, m);
    let mut sketch_out = None;
    let (sol, stats) = if want_stats {
        let (sol, stats) = IlpSolver::default().solve_with_stats(&inst);
        (sol, Some(stats))
    } else if sketch {
        let k = clusters.unwrap_or_else(|| default_clusters(log.len()));
        let outcome = SketchSolver::with_inner(k, algo.as_ref()).solve_bracketed(&inst);
        let sol = outcome.solution.clone();
        sketch_out = Some(outcome);
        (sol, None)
    } else if project {
        (Projected(algo.as_ref()).solve(&inst), None)
    } else {
        (algo.solve(&inst), None)
    };
    let algo_label = if sketch {
        format!("SketchRefine({})", algo.name())
    } else {
        algo.name().to_string()
    };
    let mut out = format!(
        "algorithm: {}\nretained:  {}\nbits:      {}\nsatisfied: {} of {} (weight)\n",
        algo_label,
        describe(&sol.retained, log.schema()),
        sol.retained.to_bitstring(),
        sol.satisfied,
        log.total_weight(),
    );
    if let Some(o) = &sketch_out {
        out.push_str(&format!(
            "clusters:  {}\nbounds:    [{}, {}] (gap {:.1}%)\nrefined:   {} queries\n",
            o.clusters,
            o.lower,
            o.upper,
            o.gap() * 100.0,
            o.refine_queries,
        ));
    }
    if let Some(s) = stats {
        // Rendered through the shared soc-obs table formatter so --stats
        // and --metrics read identically; the rows come from this solve's
        // SolveStats (exact even when other threads touch the registry).
        out.push_str(&soc_obs::format_rows(&solver_stat_rows(&s)));
    }
    if let Some(mode) = metrics_mode {
        out.push_str(match mode {
            MetricsMode::Table => "\nmetrics:\n",
            MetricsMode::Json => "\n",
        });
        out.push_str(&match mode {
            MetricsMode::Table => soc_obs::metrics_table(),
            MetricsMode::Json => soc_obs::metrics_json(),
        });
        soc_obs::disable_metrics();
    }
    if let Some(path) = trace_out {
        let spans = soc_obs::drain_spans();
        soc_obs::disable_tracing();
        std::fs::write(path, soc_obs::spans_to_json_lines(&spans))
            .map_err(|e| runtime(format!("{path}: {e}")))?;
        out.push_str(&format!("trace:     {} spans -> {path}\n", spans.len()));
    }
    Ok(out)
}

/// `--metrics` output format.
#[derive(Clone, Copy)]
enum MetricsMode {
    Table,
    Json,
}

/// One row per branch-and-bound counter, named like the registry's
/// `solver.*` metrics, plus the derived ratios the old formatter showed.
fn solver_stat_rows(s: &soc_core::SolveStats) -> Vec<soc_obs::MetricRow> {
    use soc_obs::{MetricRow, MetricValue};
    let row = |name: &str, value: MetricValue| MetricRow {
        name: name.to_string(),
        value,
    };
    vec![
        row("solver.nodes", MetricValue::Counter(s.nodes as u64)),
        row(
            "solver.pre_bound_pruned",
            MetricValue::Counter(s.pre_bound_pruned as u64),
        ),
        row(
            "solver.presolved_vars",
            MetricValue::Counter(s.presolved_vars as u64),
        ),
        row("solver.lp_pivots", MetricValue::Counter(s.lp_pivots as u64)),
        row(
            "solver.dual_pivots",
            MetricValue::Counter(s.dual_pivots as u64),
        ),
        row(
            "solver.pivots_per_node",
            MetricValue::Float(s.pivots_per_node()),
        ),
        row(
            "solver.warm_solves",
            MetricValue::Counter(s.warm_solves as u64),
        ),
        row(
            "solver.cold_solves",
            MetricValue::Counter(s.cold_solves as u64),
        ),
        row(
            "solver.warm_failures",
            MetricValue::Counter(s.warm_failures as u64),
        ),
        row(
            "solver.warm_hit_rate",
            MetricValue::Float(s.warm_hit_rate()),
        ),
    ]
}

fn cmd_dominate(rest: &[String], files: &dyn FileSource) -> Result<String, CliError> {
    let mut args = Args::new(rest);
    let path = args.required("--db")?;
    let text = files.read(path).map_err(runtime)?;
    let db = socio::parse_database(&text).map_err(|e| runtime(format!("{path}: {e}")))?;
    let tuple_bits = args.required("--tuple")?;
    let m = parse_usize(args.required("-m")?, "-m")?;
    let algo = algorithm(args.value("--algo")?.unwrap_or("mfi"))?;
    args.finish()?;

    let tuple = parse_tuple(tuple_bits, db.schema())?;
    let r = solve_soc_cb_d(algo.as_ref(), &db, &tuple, m);
    Ok(format!(
        "algorithm: {}\nretained:  {}\nbits:      {}\ndominated: {} of {} tuples\n",
        algo.name(),
        describe(&r.solution.retained, db.schema()),
        r.solution.retained.to_bitstring(),
        r.dominated,
        db.len(),
    ))
}

fn cmd_per_attr(rest: &[String], files: &dyn FileSource) -> Result<String, CliError> {
    let mut args = Args::new(rest);
    let log = load_log(&mut args, files)?;
    let tuple_bits = args.required("--tuple")?;
    let algo = algorithm(args.value("--algo")?.unwrap_or("mfi"))?;
    args.finish()?;

    let tuple = parse_tuple(tuple_bits, log.schema())?;
    let best = solve_per_attribute(algo.as_ref(), &log, &tuple);
    Ok(format!(
        "algorithm: {}\nretained:  {}\nbits:      {}\nsatisfied: {} (weight)\nper-attr:  {:.3} satisfied weight per retained attribute\n",
        algo.name(),
        describe(&best.solution.retained, log.schema()),
        best.solution.retained.to_bitstring(),
        best.solution.satisfied,
        best.ratio,
    ))
}

fn cmd_stats(rest: &[String], files: &dyn FileSource) -> Result<String, CliError> {
    let mut args = Args::new(rest);
    let log = load_log(&mut args, files)?;
    args.finish()?;
    let s = log.stats();
    let dedup = log.deduplicate();
    let freq = log.attribute_frequencies();
    let mut top: Vec<(usize, usize)> = freq.iter().copied().enumerate().collect();
    top.sort_by_key(|&(i, f)| (std::cmp::Reverse(f), i));
    let mut out = format!(
        "queries:        {} ({} distinct, total weight {})\nattributes:     {}\nquery length:   min {} / mean {:.2} / max {}\ntop attributes:\n",
        log.len(),
        dedup.len(),
        log.total_weight(),
        s.num_attrs,
        s.min_query_len,
        s.mean_query_len,
        s.max_query_len,
    );
    for &(i, f) in top.iter().take(5) {
        out.push_str(&format!(
            "  {:<20} {}\n",
            log.schema().name(AttrId(
                u32::try_from(i).expect("attr index exceeds u32::MAX")
            )),
            f
        ));
    }
    Ok(out)
}

fn cmd_generate(rest: &[String]) -> Result<String, CliError> {
    let Some((kind, rest)) = rest.split_first() else {
        return Err(usage("generate needs a kind: real, synthetic, or cars"));
    };
    let mut args = Args::new(rest);
    let seed = args
        .value("--seed")?
        .map(|s| parse_usize(s, "--seed"))
        .transpose()?;
    match kind.as_str() {
        "real" => {
            let mut cfg = RealWorkloadConfig::default();
            if let Some(n) = args.value("--queries")? {
                cfg.num_queries = parse_usize(n, "--queries")?;
            }
            if let Some(s) = seed {
                cfg.seed = s as u64;
            }
            args.finish()?;
            Ok(socio::write_query_log(&generate_real_workload(&cfg)))
        }
        "synthetic" => {
            let mut cfg = SyntheticConfig::default();
            if let Some(n) = args.value("--queries")? {
                cfg.num_queries = parse_usize(n, "--queries")?;
            }
            if let Some(n) = args.value("--attrs")? {
                cfg.num_attrs = parse_usize(n, "--attrs")?;
            }
            if let Some(n) = args.value("--skew")? {
                cfg.popularity_skew = parse_f64(n, "--skew")?;
            }
            let topics = args
                .value("--topics")?
                .map(|n| parse_usize(n, "--topics"))
                .transpose()?;
            let width = args
                .value("--topic-width")?
                .map(|n| parse_usize(n, "--topic-width"))
                .transpose()?;
            let noise = args
                .value("--topic-noise")?
                .map(|n| parse_f64(n, "--topic-noise"))
                .transpose()?;
            if let Some(count) = topics {
                cfg.topics = Some(TopicStructure {
                    count,
                    width: width.unwrap_or(12),
                    noise: noise.unwrap_or(0.05),
                });
            } else if width.is_some() || noise.is_some() {
                return Err(usage("--topic-width/--topic-noise require --topics"));
            }
            if let Some(s) = seed {
                cfg.seed = s as u64;
            }
            args.finish()?;
            Ok(socio::write_query_log(&generate_synthetic_workload(&cfg)))
        }
        "cars" => {
            let mut cfg = CarsConfig {
                num_cars: 1000,
                ..Default::default()
            };
            if let Some(n) = args.value("--cars")? {
                cfg.num_cars = parse_usize(n, "--cars")?;
            }
            if let Some(s) = seed {
                cfg.seed = s as u64;
            }
            args.finish()?;
            Ok(socio::write_database(&generate_cars(&cfg).db))
        }
        other => Err(usage(format!("unknown generate kind {other:?}"))),
    }
}

fn cmd_serve(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::new(rest);
    let port = match args.value("--port")? {
        Some(s) => s
            .parse::<u16>()
            .map_err(|_| usage(format!("--port must be 0..=65535, got {s:?}")))?,
        None => 0,
    };
    let host = args.value("--host")?.unwrap_or("127.0.0.1").to_string();
    let threads = args
        .value("--threads")?
        .map(|s| parse_usize(s, "--threads"))
        .transpose()?
        .unwrap_or_else(|| soc_serve::ServerConfig::default().threads);
    if threads == 0 {
        return Err(usage("--threads must be at least 1"));
    }
    let max_conns = args
        .value("--max-conns")?
        .map(|s| parse_usize(s, "--max-conns"))
        .transpose()?
        .unwrap_or(32);
    if max_conns == 0 {
        return Err(usage("--max-conns must be at least 1"));
    }
    let slow_ms = args
        .value("--slow-ms")?
        .map(|s| {
            s.parse::<u64>().map_err(|_| {
                usage(format!(
                    "--slow-ms must be a non-negative integer, got {s:?}"
                ))
            })
        })
        .transpose()?;
    args.finish()?;

    let cfg = soc_serve::ServerConfig {
        host,
        port,
        threads,
        max_conns,
        slow_ms,
        ..soc_serve::ServerConfig::default()
    };
    let server = soc_serve::Server::bind(cfg).map_err(|e| runtime(format!("bind: {e}")))?;
    // serve() blocks until shutdown and run() only returns output at the
    // end, so the bound address (essential with --port 0) must be
    // announced eagerly.
    println!("soc-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = server.serve().map_err(|e| runtime(format!("serve: {e}")))?;
    Ok(format!(
        "served {} connections ({} rejected at capacity), {} frames\n",
        report.conns_accepted, report.conns_rejected, report.requests
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct MemFiles(HashMap<&'static str, &'static str>);

    impl FileSource for MemFiles {
        fn read(&self, path: &str) -> Result<String, String> {
            self.0
                .get(path)
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{path}: not found"))
        }
    }

    const FIG1_LOG: &str = "\
attrs = ac, four_door, turbo, power_doors, auto_trans, power_brakes
110000
100100
010100
000101
001010
";

    const FIG1_DB: &str = "\
attrs = ac, four_door, turbo, power_doors, auto_trans, power_brakes
010100
011000
100111
110101
110000
010100
001100
";

    fn files() -> MemFiles {
        MemFiles(HashMap::from([("log.txt", FIG1_LOG), ("db.txt", FIG1_DB)]))
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &files()).expect("command should succeed")
    }

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &files()).expect_err("command should fail")
    }

    #[test]
    fn solve_fig1() {
        for algo in [
            "brute", "ilp", "mfi", "mfi-det", "attr", "cumul", "queries", "local",
        ] {
            let out = run_ok(&[
                "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", algo,
            ]);
            assert!(out.contains("satisfied: 3 of 5"), "{algo}: {out}");
        }
        // Default algorithm retains the known optimum.
        let out = run_ok(&["solve", "--log", "log.txt", "--tuple", "110111", "-m", "3"]);
        assert!(out.contains("ac, four_door, power_doors"), "{out}");
        assert!(out.contains("bits:      110100"), "{out}");
    }

    #[test]
    fn solve_with_dedup_flag() {
        let out = run_ok(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--dedup",
        ]);
        assert!(out.contains("satisfied: 3 of 5"));
    }

    #[test]
    fn solve_with_projection_matches_direct() {
        for algo in ["brute", "ilp", "mfi", "attr", "cumul"] {
            let out = run_ok(&[
                "solve",
                "--log",
                "log.txt",
                "--tuple",
                "110111",
                "-m",
                "3",
                "--algo",
                algo,
                "--project",
            ]);
            assert!(out.contains("satisfied: 3 of 5"), "{algo}: {out}");
        }
    }

    #[test]
    fn solve_with_stats_reports_solver_counters() {
        let out = run_ok(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", "ilp", "--stats",
        ]);
        assert!(out.contains("satisfied: 3 of 5"), "{out}");
        // --stats renders through the shared metrics table formatter.
        assert!(out.contains("metric"), "{out}");
        assert!(out.contains("solver.nodes"), "{out}");
        assert!(out.contains("solver.lp_pivots"), "{out}");
        assert!(out.contains("solver.warm_hit_rate"), "{out}");
    }

    // The metrics/tracing flags toggle process-global state; tests that
    // use them serialize here so parallel test threads cannot observe
    // each other's registry resets or span drains.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn solve_with_metrics_table_and_json() {
        let _guard = OBS_LOCK.lock().unwrap();
        let out = run_ok(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--algo",
            "ilp",
            "--metrics",
        ]);
        assert!(out.contains("satisfied: 3 of 5"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("solver.nodes"), "{out}");

        let out = run_ok(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--algo",
            "ilp",
            "--metrics=json",
        ]);
        let json = &out[out.find("{\n").expect("json object in output")..];
        assert!(json.contains("\"solver.nodes\":"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--metrics=xml",
        ]);
        assert_eq!(err.code, 2);
    }

    #[test]
    fn solve_with_trace_out_writes_span_file() {
        let _guard = OBS_LOCK.lock().unwrap();
        let path = std::env::temp_dir().join("soc_cli_trace_test.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run_ok(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--algo",
            "ilp",
            "--trace-out",
            path_str,
        ]);
        assert!(out.contains("trace:"), "{out}");
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        assert!(!trace.trim().is_empty(), "trace file is empty");
        assert!(trace.contains("\"name\": \"solve_mip\""), "{trace}");
        for line in trace.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn stats_flag_is_ilp_only() {
        let err = run_err(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", "mfi", "--stats",
        ]);
        assert_eq!(err.code, 2);
        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--algo",
            "ilp",
            "--stats",
            "--project",
        ]);
        assert_eq!(err.code, 2);
    }

    #[test]
    fn removed_worker_flag_is_a_leftover_argument() {
        // Mining is serial; the old worker-count flag is now just an
        // argument nobody consumes.
        let flag = ["--", "workers"].concat();
        let err = run_err(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", "mfi", &flag,
            "2",
        ]);
        assert_eq!(err.code, 2);
        assert!(
            err.message
                .starts_with(&format!("unrecognized argument {flag:?}")),
            "{}",
            err.message
        );
    }

    #[test]
    fn sketch_and_unknown_algo_names_are_rejected() {
        // The protocol's name table includes `sketch`; the CLI keeps it
        // behind --sketch, which wraps another algorithm.
        let err = run_err(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", "sketch",
        ]);
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--sketch"), "{}", err.message);
        let err = run_err(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--algo", "quantum",
        ]);
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown algorithm"), "{}", err.message);
    }

    #[test]
    fn solve_with_sketch_is_exact_on_fig1() {
        // Default cluster count >= #queries here, so the clustering is
        // the identity and the exact inner solver gives a tight bracket.
        let out = run_ok(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--sketch",
        ]);
        assert!(out.contains("algorithm: SketchRefine("), "{out}");
        assert!(out.contains("satisfied: 3 of 5"), "{out}");
        assert!(out.contains("bounds:    [3, 3]"), "{out}");
        assert!(out.contains("clusters:"), "{out}");
    }

    #[test]
    fn solve_with_sketch_and_explicit_clusters() {
        let out = run_ok(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--sketch",
            "--clusters",
            "2",
        ]);
        assert!(out.contains("clusters:  2"), "{out}");
        assert!(out.contains("bounds:    ["), "{out}");
        assert!(out.contains("refined:"), "{out}");
        // An explicit inner algorithm rides along.
        let out = run_ok(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--sketch",
            "--clusters",
            "5",
            "--algo",
            "brute",
        ]);
        assert!(out.contains("algorithm: SketchRefine(BruteForce)"), "{out}");
        assert!(out.contains("satisfied: 3 of 5"), "{out}");
    }

    #[test]
    fn sketch_flag_validation() {
        // --clusters without --sketch is a usage error.
        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--clusters",
            "4",
        ]);
        assert_eq!(err.code, 2);
        // Zero clusters is a usage error.
        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--sketch",
            "--clusters",
            "0",
        ]);
        assert_eq!(err.code, 2);
        // More clusters than queries is a runtime error.
        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--sketch",
            "--clusters",
            "6",
        ]);
        assert_eq!(err.code, 1);
        assert!(err.message.contains("exceeds"), "{}", err.message);
        // --sketch is incompatible with --project and --stats.
        let err = run_err(&[
            "solve",
            "--log",
            "log.txt",
            "--tuple",
            "110111",
            "-m",
            "3",
            "--sketch",
            "--project",
        ]);
        assert_eq!(err.code, 2);
        let err = run_err(&[
            "solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--sketch", "--algo",
            "ilp", "--stats",
        ]);
        assert_eq!(err.code, 2);
    }

    #[test]
    fn dominate_fig1() {
        let out = run_ok(&[
            "dominate", "--db", "db.txt", "--tuple", "110111", "-m", "4", "--algo", "brute",
        ]);
        assert!(out.contains("dominated: 4 of 7"), "{out}");
        assert!(out.contains("bits:      110101"), "{out}");
    }

    #[test]
    fn per_attr_reports_ratio() {
        let out = run_ok(&["per-attr", "--log", "log.txt", "--tuple", "110111"]);
        assert!(out.contains("per-attr:"), "{out}");
    }

    #[test]
    fn stats_summary() {
        let out = run_ok(&["stats", "--log", "log.txt"]);
        assert!(
            out.contains("queries:        5 (5 distinct, total weight 5)"),
            "{out}"
        );
        assert!(out.contains("power_doors"), "{out}");
    }

    #[test]
    fn generate_roundtrips_through_parser() {
        let out = run_ok(&["generate", "synthetic", "--queries", "25", "--attrs", "10"]);
        let log = socio::parse_query_log(&out).unwrap();
        assert_eq!(log.len(), 25);
        assert_eq!(log.num_attrs(), 10);

        let out = run_ok(&["generate", "cars", "--cars", "12"]);
        let db = socio::parse_database(&out).unwrap();
        assert_eq!(db.len(), 12);
        assert_eq!(db.num_attrs(), 32);

        let out = run_ok(&["generate", "real", "--queries", "30", "--seed", "9"]);
        let log = socio::parse_query_log(&out).unwrap();
        assert_eq!(log.len(), 30);
    }

    #[test]
    fn usage_errors() {
        assert_eq!(run_err(&[]).code, 2);
        assert_eq!(run_err(&["frobnicate"]).code, 2);
        assert_eq!(run_err(&["solve", "--log", "log.txt"]).code, 2); // missing --tuple
        assert_eq!(
            run_err(&["solve", "--log", "log.txt", "--tuple", "110111", "-m", "x"]).code,
            2
        );
        assert_eq!(
            run_err(&["solve", "--log", "log.txt", "--tuple", "110111", "-m", "3", "--bogus"]).code,
            2
        );
        // Runtime errors: missing file, width mismatch.
        assert_eq!(
            run_err(&["solve", "--log", "nope.txt", "--tuple", "1", "-m", "1"]).code,
            1
        );
        assert_eq!(
            run_err(&["solve", "--log", "log.txt", "--tuple", "11", "-m", "1"]).code,
            1
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = run_ok(&["help"]);
        assert!(out.contains("usage:"));
        assert!(out.contains("serve"));
    }

    #[test]
    fn serve_argument_errors() {
        // All validation happens before any socket is bound, so these
        // fail fast even in a sandboxed test environment.
        assert_eq!(run_err(&["serve", "--port", "banana"]).code, 2);
        assert_eq!(run_err(&["serve", "--port", "70000"]).code, 2);
        assert_eq!(run_err(&["serve", "--port", "-1"]).code, 2);
        assert_eq!(run_err(&["serve", "--threads", "0"]).code, 2);
        assert_eq!(run_err(&["serve", "--threads", "x"]).code, 2);
        assert_eq!(run_err(&["serve", "--max-conns", "0"]).code, 2);
        assert_eq!(run_err(&["serve", "--slow-ms", "x"]).code, 2);
        assert_eq!(run_err(&["serve", "--slow-ms", "-1"]).code, 2);
        assert_eq!(run_err(&["serve", "--bogus"]).code, 2);
        assert_eq!(run_err(&["serve", "--port"]).code, 2); // missing value
    }
}
