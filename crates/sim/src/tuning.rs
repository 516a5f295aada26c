//! Optional device hardening knobs — the mitigation classes of the paper's
//! Section 9, implemented so their effect on each channel can be measured:
//!
//! * **cache partitioning** ("partitioning the cache [9, 17, 39]"): the
//!   constant caches are statically divided among kernels, so one kernel's
//!   fills can never evict another's lines;
//! * **randomized warp scheduling** ("add entropy to the assignment of the
//!   resources [40]"): warps are assigned to warp schedulers by a keyed
//!   hash instead of round-robin, breaking the per-scheduler contention
//!   alignment;
//! * **clock fuzzing** ("add entropy ... to the measurement of time [20]",
//!   TimeWarp): `clock()` reads are quantized to a coarse granularity,
//!   hiding the hit/miss latency difference.

use gpgpu_spec::grammar;
use gpgpu_spec::SpecError;

/// Cycle-engine mode: how aggressively the engine may skip redundant work.
///
/// `Dense` and `EventDriven` produce **bit-identical simulation results** —
/// the event-driven engine only skips work that provably cannot change
/// architectural state (SMs with no issuable or waking warp, placement
/// passes after a fixpoint). `Dense` exists as the ablation baseline so the
/// speedup is measurable against the same binary.
///
/// `Analytical` opts a *caller* out of cycle simulation entirely: layers
/// that know how to answer in closed form (the `gpgpu-covert` analytical
/// predictor, fed by [`crate::latency::LatencyTable`]s extracted from the
/// cycle engine) answer without running the cycle loop, within documented
/// error tolerances instead of bit-exactly. When a [`crate::Device`] *is*
/// constructed under `Analytical` (e.g. by the characterization probes that
/// build the tables in the first place), the cycle loop runs event-driven —
/// the device itself has no approximate mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Visit every SM every cycle and re-run block placement every cycle
    /// (the original engine; kept for ablation benchmarks).
    Dense,
    /// Skip SMs with no wake event at the current cycle and gate block
    /// placement behind a dirty flag (default).
    #[default]
    EventDriven,
    /// Closed-form fast path: answer from extracted latency tables where the
    /// caller supports it; any residual cycle simulation runs event-driven.
    Analytical,
}

impl EngineMode {
    /// Canonical spec label (`dense`, `event`, `analytical`) — the grammar
    /// accepted by [`EngineMode::from_str`] and the CLI's `--engine` flag.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Dense => "dense",
            EngineMode::EventDriven => "event",
            EngineMode::Analytical => "analytical",
        }
    }
}

impl std::str::FromStr for EngineMode {
    type Err = SpecError;

    /// Parses an engine label: `dense`, `event` (or `event-driven`), or
    /// `analytical` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let labels = [
            ("dense", EngineMode::Dense),
            ("event|event-driven|eventdriven", EngineMode::EventDriven),
            ("analytical|analytic", EngineMode::Analytical),
        ];
        grammar::lookup(s, &labels).ok_or_else(|| SpecError::InvalidEngine {
            reason: format!("unknown engine `{s}` (expected dense, event or analytical)"),
        })
    }
}

/// Configuration knobs applied at [`crate::Device`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceTuning {
    /// Block-placement policy.
    pub policy: crate::PlacementPolicy,
    /// Cycle-engine mode (event-driven by default; dense for ablations).
    pub engine: EngineMode,
    /// Number of static cache partitions (0 or 1 disables). Kernel `k` may
    /// only occupy sets of region `k % partitions` in both constant cache
    /// levels.
    pub cache_partitions: u32,
    /// When set, warps are assigned to schedulers by a keyed hash of
    /// (seed, kernel, block, warp) instead of round-robin.
    pub random_warp_scheduler: Option<u64>,
    /// `clock()` quantization in cycles (0 or 1 disables).
    pub clock_granularity: u64,
}

impl DeviceTuning {
    /// Untuned device (no mitigations, leftover policy).
    pub fn none() -> Self {
        Self::default()
    }

    /// The effective clock quantum (1 = exact clock).
    pub fn clock_quantum(&self) -> u64 {
        self.clock_granularity.max(1)
    }

    /// Merges two tunings into one, knob by knob: a knob set on exactly one
    /// side wins, a knob set identically on both sides is kept, and a knob
    /// set *differently* on both sides is a typed conflict. This is the
    /// composition primitive the mitigation layer lowers stacked defenses
    /// through — building each defense's tuning from `..DeviceTuning::none()`
    /// and keeping only the last one silently dropped every other defense.
    ///
    /// A knob counts as "set" when it differs from its disabled default
    /// (`cache_partitions <= 1` and `clock_granularity <= 1` are no-ops, so
    /// e.g. partitions 0 merges cleanly with partitions 1).
    ///
    /// # Errors
    ///
    /// [`crate::SimError::TuningConflict`] naming the contested knob and
    /// both values.
    pub fn merge(self, other: DeviceTuning) -> Result<DeviceTuning, crate::SimError> {
        fn pick<T: PartialEq + Copy + std::fmt::Debug>(
            field: &'static str,
            a: T,
            b: T,
            is_set: impl Fn(T) -> bool,
        ) -> Result<T, crate::SimError> {
            match (is_set(a), is_set(b)) {
                (true, true) if a != b => Err(crate::SimError::TuningConflict {
                    field,
                    ours: format!("{a:?}"),
                    theirs: format!("{b:?}"),
                }),
                (_, true) => Ok(b),
                _ => Ok(a),
            }
        }
        Ok(DeviceTuning {
            policy: pick("policy", self.policy, other.policy, |p| {
                p != crate::PlacementPolicy::default()
            })?,
            engine: pick("engine", self.engine, other.engine, |e| e != EngineMode::default())?,
            cache_partitions: pick(
                "cache_partitions",
                self.cache_partitions,
                other.cache_partitions,
                |p| p > 1,
            )?,
            random_warp_scheduler: pick(
                "random_warp_scheduler",
                self.random_warp_scheduler,
                other.random_warp_scheduler,
                |s| s.is_some(),
            )?,
            clock_granularity: pick(
                "clock_granularity",
                self.clock_granularity,
                other.clock_granularity,
                |g| g > 1,
            )?,
        })
    }

    /// Lowers a validated [`gpgpu_spec::DefenseSpec`] onto device tuning by
    /// merging each component's knob. Infallible: a `DefenseSpec` holds at
    /// most one component per kind, so no knob can be contested.
    pub fn from_defense(defense: &gpgpu_spec::DefenseSpec) -> DeviceTuning {
        defense.components().iter().fold(DeviceTuning::none(), |acc, c| {
            let one = match *c {
                gpgpu_spec::DefenseComponent::CachePartitioning { partitions } => {
                    DeviceTuning { cache_partitions: partitions, ..DeviceTuning::none() }
                }
                gpgpu_spec::DefenseComponent::RandomizedWarpScheduling { seed } => {
                    DeviceTuning { random_warp_scheduler: Some(seed), ..DeviceTuning::none() }
                }
                gpgpu_spec::DefenseComponent::ClockFuzzing { granularity } => {
                    DeviceTuning { clock_granularity: granularity, ..DeviceTuning::none() }
                }
            };
            acc.merge(one).expect("a validated DefenseSpec has one component per knob")
        })
    }
}

/// SplitMix64: a tiny keyed hash used for randomized warp-scheduler
/// assignment (deterministic per seed, uncorrelated across inputs).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_no_mitigation() {
        let t = DeviceTuning::none();
        assert_eq!(t.cache_partitions, 0);
        assert_eq!(t.random_warp_scheduler, None);
        assert_eq!(t.clock_quantum(), 1);
    }

    #[test]
    fn clock_quantum_clamps() {
        let t = DeviceTuning { clock_granularity: 256, ..DeviceTuning::none() };
        assert_eq!(t.clock_quantum(), 256);
    }

    #[test]
    fn merge_keeps_both_sides_knobs() {
        // The historical bug: building each mitigation's tuning from
        // `..DeviceTuning::none()` and taking the last one dropped every
        // other active defense. Merge must keep both.
        let partition = DeviceTuning { cache_partitions: 2, ..DeviceTuning::none() };
        let fuzz = DeviceTuning { clock_granularity: 4096, ..DeviceTuning::none() };
        let both = partition.merge(fuzz).unwrap();
        assert_eq!(both.cache_partitions, 2);
        assert_eq!(both.clock_granularity, 4096);
        // Merge with a no-op side is the identity, in either order.
        assert_eq!(both.merge(DeviceTuning::none()).unwrap(), both);
        assert_eq!(DeviceTuning::none().merge(both).unwrap(), both);
    }

    #[test]
    fn merge_conflicts_are_typed_errors() {
        let two = DeviceTuning { cache_partitions: 2, ..DeviceTuning::none() };
        let four = DeviceTuning { cache_partitions: 4, ..DeviceTuning::none() };
        let e = two.merge(four).unwrap_err();
        match &e {
            crate::SimError::TuningConflict { field, ours, theirs } => {
                assert_eq!(*field, "cache_partitions");
                assert_eq!((ours.as_str(), theirs.as_str()), ("2", "4"));
            }
            other => panic!("expected TuningConflict, got {other:?}"),
        }
        assert!(e.to_string().contains("cache_partitions"), "{e}");
        // Identical non-default values are not a conflict.
        assert_eq!(two.merge(two).unwrap(), two);
        // Disabled encodings (0 and 1 both mean "off") merge cleanly.
        let off0 = DeviceTuning { cache_partitions: 0, ..DeviceTuning::none() };
        let off1 = DeviceTuning { cache_partitions: 1, ..DeviceTuning::none() };
        assert!(off0.merge(off1).is_ok());
        let seeded = DeviceTuning { random_warp_scheduler: Some(7), ..DeviceTuning::none() };
        let reseeded = DeviceTuning { random_warp_scheduler: Some(9), ..DeviceTuning::none() };
        assert!(matches!(
            seeded.merge(reseeded),
            Err(crate::SimError::TuningConflict { field: "random_warp_scheduler", .. })
        ));
    }

    #[test]
    fn defense_specs_lower_onto_merged_tunings() {
        let d =
            gpgpu_spec::DefenseSpec::from_spec("partition=2,randsched=0xd1ce,fuzz=4096").unwrap();
        let t = DeviceTuning::from_defense(&d);
        assert_eq!(t.cache_partitions, 2);
        assert_eq!(t.random_warp_scheduler, Some(0xD1CE));
        assert_eq!(t.clock_granularity, 4096);
        assert_eq!(
            DeviceTuning::from_defense(&gpgpu_spec::DefenseSpec::none()),
            DeviceTuning::none()
        );
    }

    #[test]
    fn engine_labels_round_trip_and_merge_as_set_knobs() {
        for mode in [EngineMode::Dense, EngineMode::EventDriven, EngineMode::Analytical] {
            assert_eq!(mode.label().parse::<EngineMode>().unwrap(), mode);
        }
        assert!("warp9".parse::<EngineMode>().unwrap_err().to_string().contains("unknown engine"));
        // A non-default engine counts as "set": two different requests are a
        // typed conflict, and a set engine survives a merge with the default.
        let dense = DeviceTuning { engine: EngineMode::Dense, ..DeviceTuning::none() };
        let ana = DeviceTuning { engine: EngineMode::Analytical, ..DeviceTuning::none() };
        assert!(matches!(
            dense.merge(ana),
            Err(crate::SimError::TuningConflict { field: "engine", .. })
        ));
        assert_eq!(DeviceTuning::none().merge(ana).unwrap().engine, EngineMode::Analytical);
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Rough spread check over schedulers.
        let buckets: Vec<u64> = (0..100).map(|i| splitmix64(i) % 4).collect();
        for s in 0..4 {
            assert!(buckets.iter().filter(|&&b| b == s).count() > 10);
        }
    }
}
