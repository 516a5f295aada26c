//! `ledger`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <path>]
//! ledger --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process runs one workload: set-up, then one closed-loop client
//! issuing ops back to back for `--seconds`, then untimed output checks. It
//! prints every metric by name with its unit, then one JSON object as the
//! last line of standard output: the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. It exits nonzero when any op failed
//! or an output check did not hold. See README.md for the workloads, the
//! metrics and how they relate.

mod arena;
mod compare;
mod fig5;
mod grid;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Run;

const USAGE: &str = "usage: ledger --workload <fig5_sweep|fig5_pruned|arena|grid_cold|grid_warm> \
                     --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <path>]\n       \
                     ledger --compare <a.jsonl> <b.jsonl>";

/// Default-seed output digests, one `<workload> <seed> <digest>` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// The timing quantile reported end to end. On a host whose cores are shared
/// with other machines, every op can run up to twice as slow for seconds at
/// a time, so medians and means move with the neighbours' load. The fast
/// tail moves far less and still tracks the cost of an op: latency at this
/// quantile, and the per-op simulation rate at its complement.
const FAST_QUANTILE: f64 = 0.1;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms_p10", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Where a per-layer value comes from.
enum Source {
    /// Self time of these spans as a share of timed-op time.
    Op(&'static [&'static str]),
    /// Self time of this span as a share of set-up time.
    Setup(&'static str),
    /// Quantile of the traced op latencies.
    OpLatency(f64),
    /// Counted or computed by the workload (0 when it bypasses the layer).
    Workload,
}

const STATIC_CELLS: &[&str] =
    &["channel.l1", "channel.sync", "channel.parallel-sfu", "channel.atomic", "channel.nvlink"];

/// Per-layer metrics: name, unit, source.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("trace.op_ms_p10", "ms", Source::OpLatency(0.1)),
    ("trace.op_ms_p50", "ms", Source::OpLatency(0.5)),
    ("trace.op_ms_p90", "ms", Source::OpLatency(0.9)),
    ("sim.run_share", "ratio", Source::Op(&["sim.run"])),
    ("sim.launch_share", "ratio", Source::Op(&["sim.launch"])),
    ("sim.cycles_stepped", "count", Source::Workload),
    ("sim.cycles_fast_forwarded", "count", Source::Workload),
    ("sim.sm_steps", "count", Source::Workload),
    ("sim.sm_steps_skipped", "count", Source::Workload),
    ("sim.placement_runs", "count", Source::Workload),
    ("sim.placement_runs_skipped", "count", Source::Workload),
    ("sim.blocks_placed", "count", Source::Workload),
    ("sim.kernels_launched", "count", Source::Workload),
    ("mem.cross_domain_evictions", "count", Source::Workload),
    ("mem.eviction_alternations", "count", Source::Workload),
    ("isa.build_share", "ratio", Source::Op(&["isa.build"])),
    ("isa.programs_built", "count", Source::Workload),
    ("pool.acquire_share", "ratio", Source::Op(&["pool.acquire"])),
    ("core.readback_share", "ratio", Source::Op(&["core.readback"])),
    ("core.channel_self_share", "ratio", Source::Op(&["channel.transmit"])),
    ("channel.static_share", "ratio", Source::Op(STATIC_CELLS)),
    ("channel.l1_share", "ratio", Source::Op(&["channel.l1"])),
    ("channel.sync_share", "ratio", Source::Op(&["channel.sync"])),
    ("channel.parallel-sfu_share", "ratio", Source::Op(&["channel.parallel-sfu"])),
    ("channel.atomic_share", "ratio", Source::Op(&["channel.atomic"])),
    ("channel.nvlink_share", "ratio", Source::Op(&["channel.nvlink"])),
    ("ladder.adaptive_share", "ratio", Source::Op(&["ladder.adaptive"])),
    ("ladder.delivered_ratio", "ratio", Source::Workload),
    ("ladder.recalibrate_rungs", "count", Source::Workload),
    ("ladder.stretch_rungs", "count", Source::Workload),
    ("ladder.fallback_rungs", "count", Source::Workload),
    ("ladder.abort_rungs", "count", Source::Workload),
    ("framing.arq_rounds", "count", Source::Workload),
    ("framing.frames_sent", "count", Source::Workload),
    ("framing.retransmissions", "count", Source::Workload),
    ("framing.backoffs", "count", Source::Workload),
    ("analytic.characterize_share", "ratio", Source::Setup("analytic.characterize")),
    ("analytic.predict_share", "ratio", Source::Op(&["analytic.predict"])),
    ("analytic.cells_simulated_ratio", "ratio", Source::Workload),
    ("analytic.max_ber_err", "ratio", Source::Workload),
    ("spec.parse_share", "ratio", Source::Op(&["spec.parse"])),
    ("serve.new_share", "ratio", Source::Op(&["serve.new"])),
    ("serve.run_share", "ratio", Source::Op(&["serve.run"])),
    ("serve.digest_share", "ratio", Source::Op(&["serve.digest"])),
    ("serve.cache_load_share", "ratio", Source::Workload),
    ("serve.cache_store_share", "ratio", Source::Workload),
    ("serve.journal_append_share", "ratio", Source::Workload),
    ("serve.hit_ratio", "ratio", Source::Workload),
    ("serve.computed", "count", Source::Workload),
    ("serve.retries", "count", Source::Workload),
    ("serve.failed", "count", Source::Workload),
    ("serve.quarantined", "count", Source::Workload),
    ("serve.sim_cycles", "count", Source::Workload),
    ("harness.worker_idle_share", "ratio", Source::Workload),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(String, String),
}

fn parse_args(raw: &[String]) -> Result<Mode, String> {
    if raw.first().map(String::as_str) == Some("--compare") {
        return match raw {
            [_, a, b] => Ok(Mode::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes two files".into()),
        };
    }
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, spans: None };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("invalid seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("invalid seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Mode::Run(args))
}

/// A scratch directory in the working directory, removed on every exit
/// path that unwinds.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        let hit = f.next() == Some(workload) && f.next()?.parse::<u64>().ok()? == seed;
        let digest = f.next()?.strip_prefix("0x")?;
        hit.then(|| u64::from_str_radix(digest, 16).ok()).flatten()
    })
}

fn metrics(
    run: &Run,
    args: &Args,
    t: &Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if !args.trace {
        // Per-op simulation rate: the op's simulated cycles over its latency.
        let rates: Vec<f64> = run
            .finish
            .op_cycles
            .iter()
            .filter_map(|(&i, &cycles)| {
                Some(cycles as f64 / run.latencies_ms.get(i as usize - 1)? / 1e3)
            })
            .collect();
        let values = [
            workload::quantile(&run.setup_s, 0.5),
            workload::quantile(&run.latencies_ms, FAST_QUANTILE),
            workload::quantile(&rates, 1.0 - FAST_QUANTILE),
            peak_rss_mb()?,
        ];
        return Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect());
    }
    let (op_shares, setup_shares) = t.shares();
    Ok(PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let v = match source {
                Source::Op(spans) => {
                    spans.iter().filter_map(|s| op_shares.get(s)).fold(0.0, |a, b| a + b)
                }
                Source::Setup(span) => setup_shares.get(span).copied().unwrap_or(0.0),
                Source::OpLatency(q) => workload::quantile(&run.latencies_ms, *q),
                Source::Workload => run.finish.layer.get(name).copied().unwrap_or(0.0),
            };
            (*name, v, *unit)
        })
        .collect())
}

fn execute(args: &Args, start: Instant) -> Result<bool, String> {
    // The seed is the only input: pin the library's environment switches
    // (trial workers for its internal runners, device pooling, engine).
    std::env::set_var("GPGPU_TRIAL_WORKERS", "1");
    std::env::remove_var("GPGPU_POOL_DISABLE");
    std::env::remove_var("GPGPU_ENGINE");
    let scratch = Scratch(PathBuf::from(format!(".ledger-scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let t = Tracer::new(args.trace);
    let (seed, budget) = (args.seed, Duration::from_secs_f64(args.seconds));
    let run = match args.workload.as_str() {
        "fig5_sweep" => workload::run(&mut fig5::Fig5::new(false, seed), &t, budget, start),
        "fig5_pruned" => workload::run(&mut fig5::Fig5::new(true, seed), &t, budget, start),
        "arena" => workload::run(&mut arena::Arena::new(seed), &t, budget, start),
        "grid_cold" => {
            workload::run(&mut grid::Grid::new(false, seed, scratch.0.clone()), &t, budget, start)
        }
        "grid_warm" => {
            workload::run(&mut grid::Grid::new(true, seed, scratch.0.clone()), &t, budget, start)
        }
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    let mut failed: BTreeMap<u64, String> = run.finish.failed.clone();
    let expected = golden(&args.workload, seed);
    if expected.is_some_and(|g| g != run.finish.digest) {
        failed.entry(0).or_insert_with(|| "the op-0 digest differs from golden.txt".into());
    }
    for (i, why) in &failed {
        eprintln!("op {i} failed: {why}");
    }
    let metrics = metrics(&run, args, &t)?;
    if let Some(path) = &args.spans {
        t.write_jsonl(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let attempted = run.latencies_ms.len() + 1;
    println!(
        "workload {} seed {seed} seconds {} trace {}",
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    let verdict = match expected {
        None => "no golden entry for this seed",
        Some(g) if g == run.finish.digest => "matches golden.txt",
        Some(_) => "DIFFERS from golden.txt",
    };
    println!("digest {:#018x} ({verdict})", run.finish.digest);
    println!("ops attempted {attempted} failed {}", failed.len());
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value} {unit}");
    }
    let mut json = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = failed.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.len(),
        json.join(", ")
    );
    Ok(correct)
}

fn main() {
    let start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&raw) {
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            2
        }
        Ok(Mode::Compare(a, b)) => match compare::compare(&a, &b) {
            Ok(agree) => i32::from(!agree),
            Err(e) => {
                eprintln!("ledger: {e}");
                2
            }
        },
        Ok(Mode::Run(args)) => match execute(&args, start) {
            Ok(correct) => i32::from(!correct),
            Err(e) => {
                eprintln!("ledger: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}
