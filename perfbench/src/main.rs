//! The repository benchmark: one command runs a workload against the
//! library or the server, checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload pairs|lake|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is a human-readable report: the workload's
//! parameters, counts and every metric by name, unit and sample count.
//! The last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced run. See
//! `perfbench/README.md` for the metric definitions.

mod lake;
mod pairs;
mod serve;
mod stats;
mod trace;

use stats::Metric;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// `op_ms` is the headline op's latency at the percentile that repeats
/// across runs for that workload (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("op_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer the workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.build_maps_ms", "ms"),
    ("core.match_ms", "ms"),
    ("core.probe_ms", "ms"),
    ("core.complete_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.delta_apply_ms", "ms"),
    ("core.delta_rescore_ms", "ms"),
    ("core.repair_ops_per_delta", "count"),
    ("core.tuples_indexed_full", "count"),
    ("core.exhaustive_match_share", "ratio"),
    ("pool.tasks_per_compare", "count"),
    ("pool.steals_per_compare", "count"),
    ("pool.idle_ms_per_compare", "ms"),
    ("pool.idle_share", "ratio"),
    ("index.sync_ms", "ms"),
    ("index.sync_added", "count"),
    ("index.topk_ms", "ms"),
    ("index.prefilter_ms", "ms"),
    ("index.compared_frac", "ratio"),
    ("index.hit_yield", "ratio"),
    ("index.apply_delta_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.outside_exec_us_p50", "us"),
    ("serve.outside_exec_us_p99", "us"),
    ("serve.sigcache_hit_rate", "ratio"),
    ("serve.sigcache_invalidations", "count"),
    ("serve.coalesced_frames_per_resp", "ratio"),
    ("serve.label_wall_us.compare", "us"),
    ("serve.label_wall_us.search", "us"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("store.recover_ms", "ms"),
    ("store.apply_ms_p50", "ms"),
    ("store.wal_bytes_per_patch", "bytes"),
    ("obs.trace_overhead_pct", "%"),
    ("split.core_ms", "ms"),
    ("split.pool_ms", "ms"),
    ("split.index_ms", "ms"),
    ("split.serve_ms", "ms"),
    ("split.store_ms", "ms"),
    ("split.obs_ms", "ms"),
    ("split.residual_ms", "ms"),
    ("split.wall_ms", "ms"),
    ("split.ops", "count"),
    ("trace.spans", "count"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (failed includes refused,
    /// timed-out and wrong results).
    pub attempted: u64,
    pub failed: u64,
    /// Results that disagreed with their reference.
    pub wrong: u64,
    /// Generator parameters and counts, printed as `key = value`.
    pub params: Vec<(String, String)>,
    /// Every metric the run measured, by the workload's own names; the
    /// ones `END_TO_END` (or, traced, `PER_LAYER`) lists must be among
    /// them.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    if map.len() != 4 {
        return Err("expected exactly --workload --seed --seconds --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "pairs" => pairs::run(&args),
        "lake" => lake::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?} (pairs, lake, serve)");
            return ExitCode::from(2);
        }
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload = {}  seed = {}  seconds = {}  trace = {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in &out.params {
        println!("  {k} = {v}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  attempted = {}  failed = {}  wrong = {}  failed_frac = {failed_frac}",
        out.attempted, out.failed, out.wrong
    );
    for m in &out.metrics {
        match m.samples {
            Some(n) => println!("  {} = {} {}  (n = {n})", m.name, m.value, m.unit),
            None => println!("  {} = {} {}", m.name, m.value, m.unit),
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        let value = match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) => m.value,
            None if args.trace => 0.0,
            None => {
                missing.push(*name);
                continue;
            }
        };
        if !value.is_finite() {
            missing.push(*name);
            continue;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.wrong == 0 && missing.is_empty() && out.attempted > 0;
    if !missing.is_empty() {
        eprintln!("error: metrics not measured: {missing:?}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Worker threads the machine offers (the generator and pool ceiling).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits a run's measuring time between phases.
pub fn share(args: &Args, frac: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * frac)
}
