//! The workload interface and the closed loop every workload runs under:
//! repeated set-up, a timed phase of back-to-back ops, then untimed checks.

use crate::trace::{self, Tracer};
use gpgpu_covert::bits::Message;
use gpgpu_sim::SimStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Every `REFERENCE_EVERY`-th op is re-run on a reference path after timing.
pub const REFERENCE_EVERY: u64 = 10;

/// Per-layer values a workload measured (counts, ratios).
pub type Layer = BTreeMap<&'static str, f64>;

/// Adds `v` to the count `key`.
pub fn count(layer: &mut Layer, key: &'static str, v: u64) {
    *layer.entry(key).or_default() += v as f64;
}

/// Adds one run's engine counters to the `sim.*` counts.
pub fn count_sim(layer: &mut Layer, s: &SimStats) {
    for (key, v) in [
        ("sim.cycles_stepped", s.cycles_stepped),
        ("sim.cycles_fast_forwarded", s.cycles_fast_forwarded),
        ("sim.sm_steps", s.sm_steps),
        ("sim.sm_steps_skipped", s.sm_steps_skipped),
        ("sim.placement_runs", s.placement_runs),
        ("sim.placement_runs_skipped", s.placement_runs_skipped),
        ("sim.blocks_placed", s.blocks_placed),
        ("sim.kernels_launched", s.kernels_launched),
    ] {
        count(layer, key, v);
    }
}

/// What a workload reports after its untimed checks.
#[derive(Default)]
pub struct Finish {
    /// Simulated device cycles in the results of each timed op that passed
    /// its checks.
    pub op_cycles: BTreeMap<u64, u64>,
    /// Failed ops and why.
    pub failed: BTreeMap<u64, String>,
    /// Semantic digest of op 0, the warm-up op (checked against `golden.txt`).
    pub digest: u64,
    /// Per-layer counts and ratios.
    pub layer: Layer,
}

/// One workload. Op 0 is the warm-up op each set-up runs; timed ops are
/// numbered from 1. Op inputs are a pure function of the run seed and the
/// op number.
pub trait Workload {
    /// Ops a traced run completes at least, so its counts cover a fixed
    /// amount of work.
    fn count_ops(&self) -> u64;
    type Out;
    /// Inputs, presets, the warm-up op and any characterization or cache
    /// population. Runs [`SETUP_REPS`] times; each must start cold.
    fn setup(&mut self, t: &Tracer) -> Result<(), String>;
    /// One timed op.
    fn op(&mut self, i: u64, t: &Tracer) -> Result<Self::Out, String>;
    /// Keeps what the checks need of op `i`, outside the op's timing.
    fn record(&mut self, i: u64, out: Self::Out, t: &Tracer) -> Result<(), String>;
    /// The untimed checks, after the timed phase.
    fn finish(&mut self, t: &Tracer) -> Finish;
}

/// Everything one run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Latency of op `i` at index `i - 1`.
    pub latencies_ms: Vec<f64>,
    pub finish: Finish,
}

/// Runs `w`: set-up [`SETUP_REPS`] times (the first measured from
/// `process_start`), then ops back to back until `budget` has passed (and,
/// when tracing, at least [`Workload::count_ops`] ops), then the checks.
///
/// # Errors
///
/// A failed set-up: the run has no warm-up op to measure from.
pub fn run<W: Workload>(
    w: &mut W,
    t: &Tracer,
    budget: Duration,
    process_start: Instant,
) -> Result<Run, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        t.set_op(0);
        t.span(trace::SETUP, || w.setup(t))?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let min_ops = if t.on() { w.count_ops() } else { 1 };
    let mut latencies_ms = Vec::new();
    let mut failed = BTreeMap::new();
    let start = Instant::now();
    let mut i = 1;
    loop {
        t.set_op(i);
        let op_start = Instant::now();
        let out = t.span(trace::OP, || w.op(i, t));
        latencies_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = out.and_then(|out| w.record(i, out, t)) {
            failed.insert(i, e);
        }
        if i >= min_ops && start.elapsed() >= budget {
            break;
        }
        i += 1;
    }
    let mut finish = w.finish(t);
    finish.failed.extend(failed);
    Ok(Run { setup_s, latencies_ms, finish })
}

/// Derives the input seed of stream `tag`, op `i`, from the run seed
/// (SplitMix64 finalizer over the three mixed together).
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The message seed of op `i` in stream `tag`: the first seed derived from
/// `(seed, tag, i)` whose `bits`-bit [`Message::pseudo_random`] message has
/// exactly `bits / 2` ones. The cost of every channel depends on how many
/// ones it sends; fixing the weight keeps that from varying with the seed.
pub fn balanced_seed(seed: u64, tag: u64, i: u64, bits: usize) -> u64 {
    let base = derive(seed, tag, i);
    (0..)
        .map(|k| derive(base, 0xB17, k))
        .find(|&s| {
            Message::pseudo_random(bits, s).bits().iter().filter(|&&b| b).count() == bits / 2
        })
        .expect("an endless seed stream reaches a balanced message")
}

/// Linear-interpolation quantile `q` in `[0, 1]` of `values` (sorted or
/// not); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a-64 of `lines` joined by newlines: the semantic output digest.
pub fn digest<S: AsRef<str>>(lines: &[S]) -> u64 {
    let text: Vec<&str> = lines.iter().map(AsRef::as_ref).collect();
    gpgpu_serve::fnv1a64(text.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_seeds_give_half_ones() {
        for i in 0..20 {
            let s = balanced_seed(7, 3, i, 24);
            assert_eq!(Message::pseudo_random(24, s).bits().iter().filter(|&&b| b).count(), 12);
        }
        assert_ne!(balanced_seed(7, 3, 0, 24), balanced_seed(7, 3, 1, 24));
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_op() {
        assert_ne!(derive(0, 1, 0), derive(0, 1, 1));
        assert_ne!(derive(0, 1, 0), derive(0, 2, 0));
        assert_eq!(derive(5, 1, 2), derive(5, 1, 2));
    }
}
