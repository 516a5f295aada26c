//! `arena`: the defense arena on Kepler then Ampere.
//!
//! One op runs `run_arena` on both devices with an 8-bit message: every
//! static channel family and the adaptive ladder, undefended and under
//! `fuzz=1024` (6 attackers x 2 columns x 2 devices = 24 cells). The fuzz
//! column makes the ladder walk static -> recalibrate -> stretch ->
//! fallback on both devices within an op of about a second; the arena's
//! default columns add `fuzz=4096` and partitioning, under which one Kepler
//! ladder cell alone runs for seconds, too few ops for a steady per-run
//! statistic. Each op gets its own arena seed, so its message differs; every
//! message has four ones.
//!
//! `run_arena` does not report simulated cycles, so after the timed phase
//! every op is replayed cell by cell through the same public calls it
//! makes; the replay yields the cycles and must agree with the op's matrix.

use crate::trace::Tracer;
use crate::workload::{self, Finish, Layer, Workload, REFERENCE_EVERY};
use gpgpu_covert::arena::{run_arena, ArenaCell, ArenaConfig, ArenaReport, Attacker};
use gpgpu_covert::bits::Message;
use gpgpu_covert::linkmon::{AdaptiveLink, LadderStage, LinkEnvironment};
use gpgpu_covert::mitigations::{evaluate_against_family, ChannelFamily};
use gpgpu_covert::pool;
use gpgpu_spec::{presets, DefenseSpec, DeviceSpec};
use std::collections::BTreeMap;

const SEED_TAG: u64 = 0xA12E;
const DEFENSE: &str = "fuzz=1024";
/// One frame's payload: the ladder's cost barely depends on message
/// length, the static cells' cost is proportional to it.
const BITS: usize = 8;

/// One op's semantic cell lines, with the simulated cycles and counters when
/// they come from a replay.
pub struct ArenaRun {
    lines: Vec<String>,
    replayed: Option<(u64, Layer)>,
}

pub struct Arena {
    seed: u64,
    specs: Vec<DeviceSpec>,
    defenses: Vec<DefenseSpec>,
    runs: BTreeMap<u64, ArenaRun>,
}

impl Arena {
    pub fn new(seed: u64) -> Self {
        Arena { seed, specs: Vec::new(), defenses: Vec::new(), runs: BTreeMap::new() }
    }

    fn configs(&self, i: u64) -> Vec<ArenaConfig> {
        self.specs
            .iter()
            .map(|spec| {
                let mut config = ArenaConfig::new(spec.clone())
                    .with_defenses(self.defenses.clone())
                    .with_bits(BITS);
                config.seed = workload::balanced_seed(self.seed, SEED_TAG, i, BITS);
                config
            })
            .collect()
    }

    /// The cell lines of `run_arena` for op `i`, on every device.
    fn arena_lines(&self, i: u64) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        for config in self.configs(i) {
            lines.extend(report_lines(&run_arena(&config).map_err(|e| e.to_string())?));
        }
        Ok(lines)
    }

    /// Op `i` replayed cell by cell: the cell lines, the simulated cycles of
    /// every transmission whose outcome is reported, and the layer counters.
    fn replay(&self, i: u64, t: &Tracer) -> (Vec<String>, u64, Layer) {
        let mut lines = Vec::new();
        let mut cycles = 0;
        let mut layer = Layer::new();
        for config in self.configs(i) {
            let cells = replay_arena(&config, t, &mut cycles, &mut layer);
            lines.extend(
                cells.iter().map(|(attacker, cell)| line(&config.spec.name, attacker, cell)),
            );
        }
        (lines, cycles, layer)
    }
}

impl Workload for Arena {
    fn count_ops(&self) -> u64 {
        2
    }

    type Out = ArenaRun;

    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        pool::clear();
        self.specs = ["kepler", "ampere"]
            .iter()
            .map(|name| presets::by_name(name).ok_or(format!("no {name} preset")))
            .collect::<Result<_, _>>()?;
        self.defenses = vec![DefenseSpec::from_spec(DEFENSE).map_err(|e| e.to_string())?];
        let warm = self.op(0, t)?;
        self.record(0, warm, t)
    }

    fn op(&mut self, i: u64, t: &Tracer) -> Result<ArenaRun, String> {
        if t.on() {
            let (lines, cycles, layer) = self.replay(i, t);
            return Ok(ArenaRun { lines, replayed: Some((cycles, layer)) });
        }
        Ok(ArenaRun { lines: self.arena_lines(i)?, replayed: None })
    }

    fn record(&mut self, i: u64, out: ArenaRun, _t: &Tracer) -> Result<(), String> {
        let unevaluable = out.lines.iter().any(|l| l.ends_with("evaluable=false"));
        self.runs.insert(i, out);
        if unevaluable {
            return Err("an arena cell was not evaluable".into());
        }
        Ok(())
    }

    fn finish(&mut self, t: &Tracer) -> Finish {
        let mut finish = Finish::default();
        let off = Tracer::new(false);
        for (&i, run) in &self.runs {
            // The timed op is one side of the comparison and a replay (or,
            // for every 10th traced op, `run_arena` itself) the other.
            let (other, cycles, layer) = match &run.replayed {
                None => {
                    let (lines, cycles, layer) = self.replay(i, &off);
                    (Some(lines), cycles, layer)
                }
                Some((cycles, layer)) => {
                    let reference = i
                        .is_multiple_of(REFERENCE_EVERY)
                        .then(|| self.arena_lines(i).unwrap_or_else(|e| vec![e]));
                    (reference, *cycles, layer.clone())
                }
            };
            if other.is_some_and(|other| other != run.lines) {
                finish.failed.insert(i, "the cell-by-cell replay disagrees with run_arena".into());
            } else if i >= 1 {
                finish.op_cycles.insert(i, cycles);
            }
            if t.on() && (1..=self.count_ops()).contains(&i) {
                for (k, v) in layer {
                    *finish.layer.entry(k).or_default() += v;
                }
            }
        }
        if let Some(run) = self.runs.get(&0) {
            finish.digest = workload::digest(&run.lines);
        }
        if t.on() {
            let adaptive = finish.layer.remove("ladder.adaptive_cells").unwrap_or(0.0);
            let delivered = finish.layer.remove("ladder.delivered_cells").unwrap_or(0.0);
            finish.layer.insert("ladder.delivered_ratio", delivered / adaptive.max(1.0));
        }
        finish
    }
}

/// The span around one static cell, per family.
fn family_span(family: ChannelFamily) -> &'static str {
    match family {
        ChannelFamily::L1 => "channel.l1",
        ChannelFamily::Sync => "channel.sync",
        ChannelFamily::ParallelSfu => "channel.parallel-sfu",
        ChannelFamily::Atomic => "channel.atomic",
        ChannelFamily::Nvlink => "channel.nvlink",
    }
}

/// Every cell of `run_arena(config)`, produced by the public calls it makes:
/// `evaluate_against_family` for the static attackers and
/// `AdaptiveLink::transmit` for the ladder, with the config's topology.
fn replay_arena(
    config: &ArenaConfig,
    t: &Tracer,
    cycles: &mut u64,
    layer: &mut Layer,
) -> Vec<(Attacker, ArenaCell)> {
    let msg = Message::pseudo_random(config.bits, config.seed);
    let mut defenses = vec![DefenseSpec::none()];
    for d in &config.defenses {
        if !defenses.contains(d) {
            defenses.push(d.clone());
        }
    }
    let mut cells = Vec::new();
    for attacker in Attacker::ALL {
        for defense in &defenses {
            let cell = match attacker {
                Attacker::Static(family) => {
                    let report = t.span(family_span(family), || {
                        evaluate_against_family(
                            &config.spec,
                            family,
                            defense,
                            &msg,
                            config.topology.as_ref(),
                        )
                    });
                    match report {
                        Ok(report) => {
                            *cycles += report.baseline.cycles + report.mitigated.cycles;
                            workload::count_sim(layer, &report.baseline.stats);
                            workload::count_sim(layer, &report.mitigated.stats);
                            let residual = report.residual_bandwidth_kbps(config.min_ber);
                            ArenaCell {
                                defense: defense.clone(),
                                ber: report.mitigated.ber,
                                residual_bandwidth_kbps: residual,
                                delivered: residual > 0.0,
                                verdict: Some(report.verdict(config.min_ber)),
                                final_family: None,
                                fallback_escape: false,
                                escalation: Vec::new(),
                                error: None,
                            }
                        }
                        Err(e) => not_evaluable(defense, e.to_string()),
                    }
                }
                Attacker::Adaptive => {
                    let mut env = LinkEnvironment::clean().with_defense(defense);
                    if let Some(topology) = &config.topology {
                        env = env.with_topology(topology.clone());
                    }
                    let link = AdaptiveLink::new(config.spec.clone()).with_env(env);
                    match t.span("ladder.adaptive", || link.transmit(&msg)) {
                        Ok(out) => {
                            *cycles += out.report.cycles;
                            let delivered = out.diagnostic.delivered;
                            workload::count(layer, "ladder.adaptive_cells", 1);
                            workload::count(layer, "ladder.delivered_cells", u64::from(delivered));
                            for (stage, name) in [
                                (LadderStage::Recalibrate, "ladder.recalibrate_rungs"),
                                (LadderStage::Stretch, "ladder.stretch_rungs"),
                                (LadderStage::Fallback, "ladder.fallback_rungs"),
                                (LadderStage::Abort, "ladder.abort_rungs"),
                            ] {
                                let fired = out
                                    .diagnostic
                                    .stages
                                    .iter()
                                    .filter(|s| s.stage == stage)
                                    .count();
                                workload::count(layer, name, fired as u64);
                            }
                            workload::count(layer, "framing.arq_rounds", out.report.rounds as u64);
                            workload::count(
                                layer,
                                "framing.frames_sent",
                                out.report.frames_sent as u64,
                            );
                            workload::count(
                                layer,
                                "framing.retransmissions",
                                out.report.retransmissions as u64,
                            );
                            workload::count(layer, "framing.backoffs", out.report.backoffs as u64);
                            let residual = if delivered && out.report.cycles > 0 {
                                config.spec.bandwidth_kbps(msg.len() as u64, out.report.cycles)
                            } else {
                                0.0
                            };
                            ArenaCell {
                                defense: defense.clone(),
                                ber: out.diagnostic.ber,
                                residual_bandwidth_kbps: residual,
                                delivered,
                                verdict: None,
                                final_family: Some(out.diagnostic.final_family.label().to_string()),
                                fallback_escape: delivered
                                    && out
                                        .diagnostic
                                        .stages
                                        .iter()
                                        .any(|s| s.stage == LadderStage::Fallback),
                                escalation: Vec::new(),
                                error: None,
                            }
                        }
                        Err(e) => not_evaluable(defense, e.to_string()),
                    }
                }
            };
            cells.push((attacker, cell));
        }
    }
    cells
}

fn not_evaluable(defense: &DefenseSpec, error: String) -> ArenaCell {
    ArenaCell {
        defense: defense.clone(),
        ber: 1.0,
        residual_bandwidth_kbps: 0.0,
        delivered: false,
        verdict: None,
        final_family: None,
        fallback_escape: false,
        escalation: Vec::new(),
        error: Some(error),
    }
}

fn report_lines(report: &ArenaReport) -> Vec<String> {
    report
        .rows
        .iter()
        .flat_map(|row| row.cells.iter().map(|cell| line(&report.device, &row.attacker, cell)))
        .collect()
}

/// The semantic fields of one cell. Escalation prose and error text are
/// left out: they describe how a result was reached, not the result.
fn line(device: &str, attacker: &Attacker, c: &ArenaCell) -> String {
    format!(
        "{device}|{}|{}|ber={:#018x}|residual={:#018x}|delivered={}|verdict={}|final={}|escape={}|evaluable={}",
        attacker.label(),
        c.defense.to_spec(),
        c.ber.to_bits(),
        c.residual_bandwidth_kbps.to_bits(),
        c.delivered,
        c.verdict.map_or_else(|| "-".to_string(), |v| v.to_string()),
        c.final_family.as_deref().unwrap_or("-"),
        c.fallback_escape,
        c.error.is_none(),
    )
}
