//! `fig5_sweep` and `fig5_pruned`: the paper's Figure-5 iteration sweep of
//! the Kepler L1 channel, simulated in full or pruned by the analytical
//! model.
//!
//! Each op sweeps a fresh 64-bit message with exactly 32 ones. Besides
//! steadying the cost, the fixed weight keeps the model's pruning mask,
//! which depends on the share of ones, the same for every op, so op
//! latencies are not a seed-dependent mixture of two- and four-cell sweeps.

use crate::trace::Tracer;
use crate::workload::{self, Finish, Layer, Workload, REFERENCE_EVERY};
use gpgpu_covert::analytic::AnalyticalModel;
use gpgpu_covert::bits::Message;
use gpgpu_covert::cache_channel::{CacheChannel, L1Channel};
use gpgpu_covert::harness::TrialRunner;
use gpgpu_covert::kernels::{
    emit_fill, emit_idle_spin, emit_probe_count_misses, miss_threshold, SetRef,
};
use gpgpu_covert::{pool, ChannelOutcome};
use gpgpu_isa::{ProgramBuilder, Reg};
use gpgpu_sim::{DeviceTuning, EngineMode, KernelSpec};
use gpgpu_spec::{presets, DeviceSpec, LaunchConfig};
use std::collections::BTreeMap;

/// The Figure-5 symbol-time axis, densest first.
pub const ITERS: [u64; 6] = [20, 12, 8, 4, 2, 1];
const BITS: usize = 64;
const SEED_TAG: u64 = 0xF165;
/// `CacheChannel`'s per-bit watchdog budget when none is set.
const BIT_BUDGET: u64 = 60_000_000;

/// One op's sweep: a `(bandwidth_kbps, ber)` point and a simulated flag per
/// grid cell, plus the outcome of every simulated cell in grid order.
pub struct Sweep {
    points: Vec<(f64, f64)>,
    mask: Vec<bool>,
    sims: Vec<ChannelOutcome>,
    /// Programs built and `(cross_domain_evictions, eviction_alternations)`
    /// in a traced replay.
    programs: u64,
    contention: (u64, u64),
}

pub struct Fig5 {
    pruned: bool,
    seed: u64,
    channel: Option<CacheChannel>,
    model: Option<AnalyticalModel>,
    runs: BTreeMap<u64, Sweep>,
}

impl Fig5 {
    pub fn new(pruned: bool, seed: u64) -> Self {
        Fig5 { pruned, seed, channel: None, model: None, runs: BTreeMap::new() }
    }

    fn message(&self, i: u64) -> Message {
        Message::pseudo_random(BITS, workload::balanced_seed(self.seed, SEED_TAG, i, BITS))
    }

    fn channel(&self) -> &CacheChannel {
        self.channel.as_ref().expect("set-up builds the channel")
    }

    fn model(&self) -> &AnalyticalModel {
        self.model.as_ref().expect("set-up characterizes the model")
    }

    /// Simulates the cells `mask` flags with `CacheChannel::transmit`.
    fn simulate(
        &self,
        msg: &Message,
        mask: &[bool],
        ch: &CacheChannel,
    ) -> Result<Vec<ChannelOutcome>, String> {
        ITERS
            .iter()
            .zip(mask)
            .filter(|(_, &sim)| sim)
            .map(|(&n, _)| ch.clone().with_iterations(n).transmit(msg).map_err(|e| e.to_string()))
            .collect()
    }

    /// The untimed checks of op `i`; fills `sims` for untraced pruned ops.
    fn check(&self, i: u64, run: &mut Sweep, traced: bool) -> Result<(), String> {
        let msg = self.message(i);
        let ch = self.channel();
        if run.sims.len() != run.mask.iter().filter(|&&m| m).count() {
            run.sims = self.simulate(&msg, &run.mask, ch)?;
            let simulated = run.points.iter().zip(&run.mask).filter(|(_, &m)| m).map(|(p, _)| *p);
            if !simulated.zip(&run.sims).all(|(p, o)| same_point(p, (o.bandwidth_kbps, o.ber))) {
                return Err("a pruned-sweep point differs from its transmission".into());
            }
        }
        if !i.is_multiple_of(REFERENCE_EVERY) {
            return Ok(());
        }
        if traced {
            // The replay must reproduce `transmit` exactly, engine counters
            // included, and the pruned replay the library's pruned sweep.
            if self.simulate(&msg, &run.mask, ch)? != run.sims {
                return Err("the traced replay diverged from CacheChannel::transmit".into());
            }
            if self.pruned {
                let (points, mask) = self
                    .model()
                    .pruned_error_rate_sweep(&TrialRunner::sequential(), ch, "l1", &msg, &ITERS)
                    .map_err(|e| e.to_string())?;
                let same = mask == run.mask
                    && points.iter().zip(&run.points).all(|(&a, &b)| same_point(a, b));
                if !same {
                    return Err("the traced replay diverged from the pruned sweep".into());
                }
            }
        }
        // Reference path: the dense engine on freshly built devices.
        let dense = ch.clone().with_tuning(DeviceTuning { engine: EngineMode::Dense, ..ch.tuning });
        pool::set_disabled(true);
        let reference = self.simulate(&msg, &run.mask, &dense);
        pool::set_disabled(false);
        let observable = |o: &ChannelOutcome| {
            (
                o.sent.clone(),
                o.received.clone(),
                o.cycles,
                o.bandwidth_kbps.to_bits(),
                o.ber.to_bits(),
            )
        };
        if !reference?.iter().map(observable).eq(run.sims.iter().map(observable)) {
            return Err("the dense unpooled reference disagrees".into());
        }
        Ok(())
    }

    fn layer(&self, layer: &mut Layer) -> Result<(), String> {
        let counted = self.runs.range(1..=self.count_ops());
        let (mut cells, mut simulated) = (0usize, 0usize);
        for (_, run) in counted.clone() {
            cells += run.mask.len();
            simulated += run.sims.len();
            workload::count(layer, "isa.programs_built", run.programs);
            workload::count(layer, "mem.cross_domain_evictions", run.contention.0);
            workload::count(layer, "mem.eviction_alternations", run.contention.1);
            for o in &run.sims {
                workload::count_sim(layer, &o.stats);
            }
        }
        if !self.pruned {
            return Ok(());
        }
        layer.insert("analytic.cells_simulated_ratio", simulated as f64 / cells.max(1) as f64);
        // Model error on the cells it filled, against simulating them.
        let mut max_err = 0.0f64;
        for (&i, run) in counted {
            let filled: Vec<bool> = run.mask.iter().map(|m| !m).collect();
            let sims = self.simulate(&self.message(i), &filled, self.channel())?;
            let predicted = run.points.iter().zip(&filled).filter(|(_, &f)| f).map(|(p, _)| p.1);
            for (ber, o) in predicted.zip(&sims) {
                max_err = max_err.max((ber - o.ber).abs());
            }
        }
        layer.insert("analytic.max_ber_err", max_err);
        Ok(())
    }
}

impl Workload for Fig5 {
    fn count_ops(&self) -> u64 {
        10
    }

    type Out = Sweep;

    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        pool::clear();
        let spec = presets::by_name("kepler").ok_or("no kepler preset")?;
        if self.pruned {
            let model = t.span("analytic.characterize", || {
                AnalyticalModel::characterize_families(&spec, &["l1"])
            });
            self.model = Some(model.map_err(|e| e.to_string())?);
        }
        self.channel = Some(L1Channel::new(spec));
        let warm = self.op(0, t)?;
        self.record(0, warm, t)
    }

    fn op(&mut self, i: u64, t: &Tracer) -> Result<Sweep, String> {
        let msg = self.message(i);
        let ch = self.channel();
        let mut sweep = Sweep {
            points: Vec::new(),
            mask: Vec::new(),
            sims: Vec::new(),
            programs: 0,
            contention: (0, 0),
        };
        if !t.on() {
            if self.pruned {
                let (points, mask) = self
                    .model()
                    .pruned_error_rate_sweep(&TrialRunner::sequential(), ch, "l1", &msg, &ITERS)
                    .map_err(|e| e.to_string())?;
                return Ok(Sweep { points, mask, ..sweep });
            }
            // The calls `error_rate_sweep_on` makes on a sequential runner.
            for &n in &ITERS {
                let o = ch.clone().with_iterations(n).transmit(&msg).map_err(|e| e.to_string())?;
                sweep.points.push((o.bandwidth_kbps, o.ber));
                sweep.mask.push(true);
                sweep.sims.push(o);
            }
            return Ok(sweep);
        }
        let knobs: Vec<f64> = ITERS.iter().map(|&n| n as f64).collect();
        sweep.mask = if self.pruned {
            t.span("analytic.predict", || self.model().prune_grid("l1", &knobs, &msg))
                .map_err(|e| e.to_string())?
        } else {
            vec![true; ITERS.len()]
        };
        for (k, &n) in ITERS.iter().enumerate() {
            if sweep.mask[k] {
                let o = t.span("channel.transmit", || {
                    replay(&ch.clone().with_iterations(n), &msg, t, &mut sweep)
                })?;
                sweep.points.push((o.bandwidth_kbps, o.ber));
                sweep.sims.push(o);
            } else {
                let p = t.span("analytic.predict", || self.model().predict("l1", n as f64, &msg));
                let p = p.map_err(|e| e.to_string())?;
                sweep.points.push((p.bandwidth_kbps, p.ber));
            }
        }
        Ok(sweep)
    }

    fn record(&mut self, i: u64, out: Sweep, _t: &Tracer) -> Result<(), String> {
        self.runs.insert(i, out);
        Ok(())
    }

    fn finish(&mut self, t: &Tracer) -> Finish {
        let mut finish = Finish::default();
        let mut runs = std::mem::take(&mut self.runs);
        for (&i, run) in runs.iter_mut() {
            match self.check(i, run, t.on()) {
                Ok(()) if i >= 1 => {
                    finish.op_cycles.insert(i, run.sims.iter().map(|o| o.cycles).sum());
                }
                Ok(()) => {}
                Err(e) => {
                    finish.failed.insert(i, e);
                }
            }
        }
        self.runs = runs;
        if let Some(run) = self.runs.get(&0) {
            finish.digest = workload::digest(&sweep_lines(run));
        }
        if t.on() {
            if let Err(e) = self.layer(&mut finish.layer) {
                finish.failed.insert(1, e);
            }
        }
        finish
    }
}

/// Replays `CacheChannel::transmit` of the L1 channel through public calls,
/// one span per layer: device pool, device set-up, program construction,
/// kernel launch, the cycle engine, and the spy's result readback.
fn replay(
    ch: &CacheChannel,
    msg: &Message,
    t: &Tracer,
    sweep: &mut Sweep,
) -> Result<ChannelOutcome, String> {
    let spec: &DeviceSpec = ch.spec();
    let geom = spec.const_l1.geometry;
    let spy_set = SetRef::new(&geom, 0, ch.target_set);
    let trojan_set = SetRef::new(&geom, geom.same_set_stride() * geom.ways(), ch.target_set);
    let threshold = miss_threshold(spec.const_l1.hit_latency, spec.const_l2.hit_latency);
    let launch = LaunchConfig::new(spec.num_sms, 32);
    let iterations = ch.iterations;
    let cal = ch.static_calibration();
    let mut dev = t.span("pool.acquire", || pool::acquire(spec, ch.tuning));
    t.span("sim.launch", || {
        if let Some((max, seed)) = ch.jitter {
            dev.set_launch_jitter(max, seed);
        }
        dev.alloc_constant(geom.size_bytes());
        dev.alloc_constant(geom.size_bytes());
    });
    let mut received = Vec::with_capacity(msg.len());
    for &bit in msg.bits() {
        let (spy, trojan) = t.span("isa.build", || {
            let mut b = ProgramBuilder::new();
            emit_fill(&mut b, &spy_set);
            b.repeat(Reg(20), iterations, |b| {
                emit_probe_count_misses(b, &spy_set, threshold, Reg(21));
                b.push_result(Reg(21));
            });
            let spy = b.build();
            let mut b = ProgramBuilder::new();
            if bit {
                b.repeat(Reg(20), iterations, |b| emit_fill(b, &trojan_set));
            } else {
                emit_idle_spin(&mut b, iterations * 64, Reg(20));
            }
            (spy, b.build())
        });
        let (spy, trojan) = (spy.map_err(|e| e.to_string())?, trojan.map_err(|e| e.to_string())?);
        sweep.programs += 2;
        let spy_id = t.span("sim.launch", || {
            let id = dev.launch(0, KernelSpec::new("spy", spy, launch))?;
            dev.launch(1, KernelSpec::new("trojan", trojan, launch)).map(|_| id)
        });
        let spy_id = spy_id.map_err(|e| e.to_string())?;
        t.span("sim.run", || dev.run_until_idle(ch.bit_budget.unwrap_or(BIT_BUDGET)))
            .map_err(|e| e.to_string())?;
        let decoded = t.span("core.readback", || {
            let records = dev.block_records(spy_id).map_err(|e| e.to_string())?;
            let samples = records
                .iter()
                .find(|b| b.block_id == 0)
                .and_then(|b| b.warp_results.first())
                .ok_or("the spy's block 0 / warp 0 has no results")?;
            cal.decode(samples).map_err(|e| e.to_string())
        })?;
        received.push(decoded);
    }
    let contention = dev.cache_contention_counters();
    sweep.contention.0 += contention.0;
    sweep.contention.1 += contention.1;
    if dev.now() == 0 {
        return Err("zero-cycle transmission".into());
    }
    Ok(ChannelOutcome::from_run(spec, msg.clone(), Message::from_bits(received), dev.now())
        .with_stats(*dev.stats()))
}

fn same_point(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
}

/// Per grid cell: knob, simulated flag, bandwidth and BER bit patterns, and
/// for simulated cells the device cycles and received bits.
fn sweep_lines(run: &Sweep) -> Vec<String> {
    let mut sims = run.sims.iter();
    ITERS
        .iter()
        .zip(&run.points)
        .zip(&run.mask)
        .map(|((n, p), &sim)| {
            let mut line = format!(
                "iters={n} sim={sim} bw={:#018x} ber={:#018x}",
                p.0.to_bits(),
                p.1.to_bits()
            );
            if let Some(o) = if sim { sims.next() } else { None } {
                let rx: String =
                    o.received.bits().iter().map(|&b| if b { '1' } else { '0' }).collect();
                line.push_str(&format!(" cycles={} rx={rx}", o.cycles));
            }
            line
        })
        .collect()
}
