//! Mitigation evaluation (paper Section 9).
//!
//! The paper sketches three mitigation families and leaves their evaluation
//! to future work; the simulator implements all three (see
//! [`gpgpu_sim::DeviceTuning`]) and this module measures what each does to
//! the channels:
//!
//! * **spatial cache partitioning** — kernels get disjoint cache-set
//!   regions, so prime+probe eviction signalling is impossible;
//! * **randomized warp scheduling** — warps land on schedulers by keyed
//!   hash, destroying the per-scheduler bit lanes of the Table-3 channel;
//! * **clock fuzzing** (TimeWarp) — quantized `clock()` reads hide the
//!   hit/miss latency difference every cache channel decodes with.
//!
//! Defenses are evaluated as composable [`DefenseSpec`]s: one spec may stack
//! several mitigation classes, and [`evaluate_against_family`] runs any spec
//! against any of the five channel families with a single code path.

use crate::atomic_channel::{AtomicChannel, AtomicScenario};
use crate::bits::Message;
use crate::cache_channel::L1Channel;
use crate::channel::ChannelOutcome;
use crate::nvlink_channel::NvlinkChannel;
use crate::parallel::ParallelSfuChannel;
use crate::sync_channel::SyncChannel;
use crate::CovertError;
use gpgpu_sim::DeviceTuning;
use gpgpu_spec::{DefenseSpec, DeviceSpec, LaunchConfig, TopologySpec};
use std::fmt;

/// The five covert-channel families the simulator can pit a defense
/// against — the evaluation axis of the Section-9 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelFamily {
    /// Unsynchronized L1 constant-cache prime+probe.
    L1,
    /// Synchronized (handshaked) L1 constant-cache channel.
    Sync,
    /// Per-warp-scheduler parallel SFU contention lanes.
    ParallelSfu,
    /// Atomic-unit contention on global memory.
    Atomic,
    /// Cross-device NvLink congestion (needs a multi-GPU topology).
    Nvlink,
}

impl ChannelFamily {
    /// Every family, in matrix-row order.
    pub const ALL: [ChannelFamily; 5] = [
        ChannelFamily::L1,
        ChannelFamily::Sync,
        ChannelFamily::ParallelSfu,
        ChannelFamily::Atomic,
        ChannelFamily::Nvlink,
    ];

    /// Short human-readable label ("l1", "sync", ...), stable for report
    /// rows and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ChannelFamily::L1 => "l1",
            ChannelFamily::Sync => "sync",
            ChannelFamily::ParallelSfu => "parallel-sfu",
            ChannelFamily::Atomic => "atomic",
            ChannelFamily::Nvlink => "nvlink",
        }
    }
}

impl fmt::Display for ChannelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Three-state outcome of a mitigation evaluation.
///
/// The old boolean `is_effective` conflated "the defense broke the channel"
/// with "the channel never worked here to begin with" — a defense evaluated
/// against a channel that is broken on the *unprotected* device proved
/// nothing, yet reported `false` exactly like a defense that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationVerdict {
    /// The channel worked unprotected and the defense broke it.
    Effective,
    /// The channel worked unprotected and still works under the defense.
    Ineffective,
    /// The channel did not work even unprotected, so the evaluation says
    /// nothing about the defense.
    BaselineBroken,
}

impl fmt::Display for MitigationVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MitigationVerdict::Effective => "effective",
            MitigationVerdict::Ineffective => "ineffective",
            MitigationVerdict::BaselineBroken => "baseline-broken",
        })
    }
}

/// The before/after picture of a defense against one channel family.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationReport {
    /// The evaluated (possibly composed) defense.
    pub defense: DefenseSpec,
    /// The channel family it was evaluated against.
    pub family: ChannelFamily,
    /// Channel outcome on the unprotected device.
    pub baseline: ChannelOutcome,
    /// Channel outcome with the defense active.
    pub mitigated: ChannelOutcome,
}

impl MitigationReport {
    /// Classifies the evaluation: the defense counts as effective only when
    /// the unprotected channel was error-free *and* the defense pushed its
    /// error rate to at least `min_ber`.
    pub fn verdict(&self, min_ber: f64) -> MitigationVerdict {
        if !self.baseline.is_error_free() {
            MitigationVerdict::BaselineBroken
        } else if self.mitigated.ber >= min_ber {
            MitigationVerdict::Effective
        } else {
            MitigationVerdict::Ineffective
        }
    }

    /// Whether the verdict is [`MitigationVerdict::Effective`].
    pub fn is_effective(&self, min_ber: f64) -> bool {
        self.verdict(min_ber) == MitigationVerdict::Effective
    }

    /// Bandwidth (kb/s) the attacker retains under the defense: the
    /// mitigated outcome's bandwidth if the channel still decodes below
    /// `max_ber`, zero once the defense has broken it.
    pub fn residual_bandwidth_kbps(&self, max_ber: f64) -> f64 {
        if self.mitigated.ber <= max_ber {
            self.mitigated.bandwidth_kbps
        } else {
            0.0
        }
    }
}

/// Evaluates a (possibly composed) defense against one channel family:
/// runs the family's canonical channel once on an unprotected device and
/// once with the defense lowered onto [`DeviceTuning`], on the same device
/// spec and message.
///
/// `topology` is required by [`ChannelFamily::Nvlink`] only; the other
/// families ignore it.
///
/// # Errors
///
/// [`CovertError::Config`] when `family` is nvlink and `topology` is
/// `None`; otherwise propagates channel failures.
pub fn evaluate_against_family(
    spec: &DeviceSpec,
    family: ChannelFamily,
    defense: &DefenseSpec,
    msg: &Message,
    topology: Option<&TopologySpec>,
) -> Result<MitigationReport, CovertError> {
    let run = |tuning: DeviceTuning| -> Result<ChannelOutcome, CovertError> {
        match family {
            ChannelFamily::L1 => L1Channel::new(spec.clone()).with_tuning(tuning).transmit(msg),
            ChannelFamily::Sync => SyncChannel::new(spec.clone()).with_tuning(tuning).transmit(msg),
            ChannelFamily::ParallelSfu => {
                ParallelSfuChannel::new(spec.clone()).with_tuning(tuning).transmit(msg)
            }
            ChannelFamily::Atomic => AtomicChannel::new(spec.clone(), AtomicScenario::OneAddress)
                .with_tuning(tuning)
                .transmit(msg),
            ChannelFamily::Nvlink => {
                let topology = topology.ok_or_else(|| CovertError::Config {
                    reason: "the nvlink family needs a multi-GPU topology (pass --topology)"
                        .to_string(),
                })?;
                NvlinkChannel::new(topology.clone())?.with_tuning(tuning).transmit(msg)
            }
        }
    };
    let baseline = run(DeviceTuning::none())?;
    let mitigated = run(DeviceTuning::from_defense(defense))?;
    Ok(MitigationReport { defense: defense.clone(), family, baseline, mitigated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_spec::presets;

    fn eval(family: ChannelFamily, defense: &str, msg: &Message) -> MitigationReport {
        let spec = presets::tesla_k40c();
        let defense = DefenseSpec::from_spec(defense).unwrap();
        evaluate_against_family(&spec, family, &defense, msg, None).unwrap()
    }

    #[test]
    fn cache_partitioning_kills_the_l1_channel() {
        let msg = Message::pseudo_random(16, 0x91);
        let r = eval(ChannelFamily::L1, "partition=2", &msg);
        assert!(r.is_effective(0.2), "baseline {} mitigated {}", r.baseline.ber, r.mitigated.ber);
        assert_eq!(r.verdict(0.2), MitigationVerdict::Effective);
        assert_eq!(r.residual_bandwidth_kbps(0.2), 0.0);
    }

    #[test]
    fn clock_fuzzing_kills_the_l1_channel() {
        let msg = Message::pseudo_random(16, 0x92);
        // Quantum far above the 49-vs-112-cycle gap.
        let r = eval(ChannelFamily::L1, "fuzz=4096", &msg);
        assert!(r.is_effective(0.2), "baseline {} mitigated {}", r.baseline.ber, r.mitigated.ber);
    }

    #[test]
    fn fine_grained_clock_fuzzing_is_insufficient() {
        // A quantum below the latency gap leaves the channel intact — the
        // defense must be sized to the signal it hides.
        let msg = Message::pseudo_random(12, 0x93);
        let r = eval(ChannelFamily::L1, "fuzz=8", &msg);
        assert!(r.mitigated.is_error_free(), "ber {}", r.mitigated.ber);
        assert_eq!(r.verdict(0.2), MitigationVerdict::Ineffective);
        assert!(r.residual_bandwidth_kbps(0.2) > 0.0);
    }

    #[test]
    fn scheduler_randomization_scrambles_the_parallel_sfu_lanes() {
        let msg = Message::pseudo_random(16, 0x94);
        let r = eval(ChannelFamily::ParallelSfu, "randsched=0xd1ce", &msg);
        assert!(r.baseline.is_error_free());
        assert!(r.mitigated.ber > 0.1, "randomization should corrupt lanes: {}", r.mitigated.ber);
    }

    #[test]
    fn partitioning_defeats_even_the_synchronized_protocol() {
        let msg = Message::pseudo_random(8, 0x95);
        let r = eval(ChannelFamily::Sync, "partition=2", &msg);
        assert!(r.baseline.is_error_free());
        assert!(r.mitigated.ber > 0.2, "ber {}", r.mitigated.ber);
    }

    #[test]
    fn composed_defense_covers_both_component_channels() {
        // partition=2 alone breaks L1 but not parallel-SFU; randsched alone
        // breaks parallel-SFU but not L1. The composition breaks both —
        // the property the old last-tuning-wins stacking silently lost.
        let msg = Message::pseudo_random(16, 0x91);
        let both = "partition=2,randsched=0xd1ce";
        assert!(eval(ChannelFamily::L1, both, &msg).is_effective(0.2));
        let sfu = eval(ChannelFamily::ParallelSfu, both, &msg);
        assert!(sfu.baseline.is_error_free());
        assert!(sfu.mitigated.ber > 0.1, "ber {}", sfu.mitigated.ber);
    }

    #[test]
    fn atomic_family_is_evaluable_and_tuning_blind() {
        // The atomic channel times whole-kernel contention, not clock()
        // deltas, so even coarse clock fuzzing leaves it standing — exactly
        // why the matrix needs all five families.
        let msg = Message::pseudo_random(8, 0x98);
        let r = eval(ChannelFamily::Atomic, "fuzz=4096", &msg);
        assert!(r.baseline.is_error_free(), "ber {}", r.baseline.ber);
    }

    #[test]
    fn nvlink_family_without_topology_is_a_typed_config_error() {
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(8, 0x99);
        let err =
            evaluate_against_family(&spec, ChannelFamily::Nvlink, &DefenseSpec::none(), &msg, None)
                .unwrap_err();
        assert!(matches!(err, CovertError::Config { .. }), "{err:?}");
        assert!(err.to_string().contains("topology"), "{err}");
    }

    #[test]
    fn nvlink_family_evaluates_with_a_topology() {
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(8, 0x9A);
        let topology = TopologySpec::dual("kepler").unwrap();
        let r = evaluate_against_family(
            &spec,
            ChannelFamily::Nvlink,
            &DefenseSpec::from_spec("fuzz=4096").unwrap(),
            &msg,
            Some(&topology),
        )
        .unwrap();
        assert!(r.baseline.is_error_free(), "ber {}", r.baseline.ber);
    }

    #[test]
    fn verdict_separates_broken_baselines_from_failed_defenses() {
        let outcome = |ber: f64| ChannelOutcome {
            sent: Message::pseudo_random(4, 1),
            received: Message::pseudo_random(4, 1),
            cycles: 1_000,
            bandwidth_kbps: 10.0,
            ber,
            stats: gpgpu_sim::SimStats::default(),
        };
        let report = |baseline: f64, mitigated: f64| MitigationReport {
            defense: DefenseSpec::none(),
            family: ChannelFamily::L1,
            baseline: outcome(baseline),
            mitigated: outcome(mitigated),
        };
        assert_eq!(report(0.0, 0.5).verdict(0.2), MitigationVerdict::Effective);
        assert_eq!(report(0.0, 0.0).verdict(0.2), MitigationVerdict::Ineffective);
        // A broken baseline is NOT evidence the defense works.
        assert_eq!(report(0.5, 0.5).verdict(0.2), MitigationVerdict::BaselineBroken);
        assert!(!report(0.5, 0.5).is_effective(0.2));
    }

    #[test]
    fn display_labels() {
        assert_eq!(ChannelFamily::ParallelSfu.to_string(), "parallel-sfu");
        assert_eq!(MitigationVerdict::BaselineBroken.to_string(), "baseline-broken");
    }
}

/// Contention-anomaly detection (the paper's other Section-9 direction:
/// "attempt to detect anomalous contention [CC-Hunter]"). Returns the
/// eviction-alternation counts of (a) a covert-channel run and (b) a benign
/// mix of two independent constant-memory workloads of similar intensity —
/// the gap between them is the detector's margin.
///
/// # Errors
///
/// Propagates channel and simulator failures.
pub fn contention_detection_margin(
    spec: &DeviceSpec,
    msg: &Message,
) -> Result<(u64, u64), CovertError> {
    // (a) The synchronized channel: constant ping-pong evictions.
    let run = SyncChannel::new(spec.clone()).transmit_with_noise(msg, Vec::new())?;
    let channel_score = run.eviction_alternations;

    // (b) Benign: two kernels streaming their own constant arrays. Their
    // working sets collide in the cache occasionally but never alternate.
    let mut dev = gpgpu_sim::Device::new(spec.clone());
    let g = spec.const_l1.geometry;
    let make = |base: u64| {
        let mut b = gpgpu_isa::ProgramBuilder::new();
        let lines = g.size_bytes() / g.line_bytes();
        b.repeat(gpgpu_isa::Reg(20), 40, move |b| {
            for k in 0..lines {
                b.mov_imm(gpgpu_isa::Reg(0), base + k * g.line_bytes());
                b.const_load(gpgpu_isa::Reg(0));
            }
        });
        b.build().expect("benign workload assembles")
    };
    let launch = LaunchConfig::new(spec.num_sms, 32);
    let span = g.same_set_stride() * g.ways();
    dev.launch(0, gpgpu_sim::KernelSpec::new("benign-a", make(0), launch))?;
    dev.launch(1, gpgpu_sim::KernelSpec::new("benign-b", make(span), launch))?;
    dev.run_until_idle(200_000_000)?;
    let (_, benign_score) = dev.cache_contention_counters();
    Ok((channel_score, benign_score))
}

#[cfg(test)]
mod detection_tests {
    use super::*;
    use gpgpu_spec::presets;

    #[test]
    fn channel_contention_is_detectably_anomalous() {
        let spec = presets::tesla_k40c();
        let msg = Message::pseudo_random(16, 0x96);
        let (channel, benign) = contention_detection_margin(&spec, &msg).unwrap();
        assert!(
            channel > 10 * benign.max(1),
            "detector margin too small: channel {channel} vs benign {benign}"
        );
    }
}
