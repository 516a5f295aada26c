//! Sweep-request specifications: a whole characterization grid as one
//! validated, serializable spec object.
//!
//! The paper's methodology is built on repeated sweeps — Figure-5 error-rate
//! grids, Table-2/3 characterizations — and every axis of those sweeps
//! already has a canonical textual grammar in this workspace (`--defense`
//! specs, `--topology` specs, fault-plan specs). A [`SweepRequest`] names
//! the *cross product*: channel family × device × fault plan × defense ×
//! symbol time, plus the message shape, as one string the sweep service
//! (`gpgpu-serve`) can shard into cells and memoize. Like the other
//! grammars it round-trips exactly:
//!
//! ```text
//! device=kepler;family=l1+atomic;iters=1+4+20;bits=16;seed=0x5eed;faults=none;defense=none|partition=2;topology=none
//! ```
//!
//! Top-level fields are `;`-separated because axis *values* (defense,
//! topology and fault sub-specs) contain commas; multi-valued axes whose
//! values are comma-free (`device`, `family`, `iters`) separate values with
//! `+`, and the sub-spec axes (`faults`, `defense`) separate values with
//! `|`. Every field is optional and defaults to the smallest sensible
//! sweep; `none` denotes the empty fault plan / defense / topology.
//!
//! Fault sub-specs are carried *opaquely* at this layer (their parser lives
//! above, in `gpgpu-sim`); defense and topology sub-specs are validated and
//! canonicalized here. The service layer canonicalizes fault strings when
//! it builds cache keys, so two spellings of the same plan still dedupe.
//!
//! # Example
//!
//! ```
//! use gpgpu_spec::sweep::SweepRequest;
//!
//! let r = SweepRequest::from_spec("family=l1+atomic;iters=4+1").unwrap();
//! assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
//! assert_eq!(r.cells().len(), 4); // 2 families x 2 symbol times
//! ```

use crate::defense::DefenseSpec;
use crate::error::SpecError;
use crate::grammar::{self, Fields};
use crate::presets;
use crate::topology::TopologySpec;
use std::fmt;

/// The channel-family labels a sweep may name, in canonical order. These
/// mirror `ChannelFamily::ALL` in `gpgpu-covert`; the spec layer owns the
/// vocabulary so requests validate without a simulator dependency.
pub const FAMILY_LABELS: [&str; 5] = ["l1", "sync", "parallel-sfu", "atomic", "nvlink"];

/// A validated sweep grid: the cross product of devices × families × fault
/// plans × defenses × symbol times, over one pseudo-random message shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Device aliases (canonicalized through [`presets::by_name`]), the
    /// architecture axis. At least one; duplicates rejected.
    pub devices: Vec<String>,
    /// Channel-family labels from [`FAMILY_LABELS`]. At least one;
    /// duplicates rejected.
    pub families: Vec<String>,
    /// Per-bit iteration counts — the Figure-5 symbol-time axis. At least
    /// one; all positive; duplicates rejected.
    pub iterations: Vec<u64>,
    /// Message length in bits (one pseudo-random message per request).
    pub bits: u32,
    /// Seed for the pseudo-random message.
    pub seed: u64,
    /// Fault-plan sub-specs, the noise axis; `"none"` is the clean run.
    /// Opaque at this layer (validated by the service against the
    /// `gpgpu-sim` fault grammar). Duplicates rejected.
    pub faults: Vec<String>,
    /// Defense sub-specs, canonicalized through [`DefenseSpec`]; `"none"`
    /// is the undefended baseline. Duplicates (after canonicalization)
    /// rejected.
    pub defenses: Vec<String>,
    /// Topology sub-spec for nvlink cells, canonicalized through
    /// [`TopologySpec`]; `"none"` means single-GPU (nvlink cells then fail
    /// with a typed per-cell error rather than aborting the sweep).
    pub topology: String,
}

/// One point of a [`SweepRequest`] grid, in enumeration order. The cell
/// carries fully-resolved axis values; [`SweepCell::key`] renders the
/// canonical identity string the result cache is addressed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Canonical device alias.
    pub device: String,
    /// Channel-family label.
    pub family: String,
    /// Per-bit iteration count (symbol-time knob).
    pub iterations: u64,
    /// Message length in bits.
    pub bits: u32,
    /// Message seed.
    pub seed: u64,
    /// Fault-plan sub-spec (`"none"` = clean).
    pub faults: String,
    /// Canonical defense sub-spec (`"none"` = baseline).
    pub defense: String,
    /// Canonical topology sub-spec (`"none"` = single GPU).
    pub topology: String,
}

impl SweepCell {
    /// The canonical identity string of this cell: every axis value in
    /// fixed order. Distinct cells render distinct keys because each
    /// component grammar round-trips exactly (the `prop_serve` injectivity
    /// property), which is what makes the string safe to content-address.
    pub fn key(&self) -> String {
        format!(
            "device={};family={};iters={};bits={};seed={:#x};faults={};defense={};topology={}",
            self.device,
            self.family,
            self.iterations,
            self.bits,
            self.seed,
            self.faults,
            self.defense,
            self.topology,
        )
    }
}

impl fmt::Display for SweepCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// Largest message length a request may ask for. Far above every sweep in
/// use (the Figure-5 message is 64 bits); it keeps a typo such as
/// `bits=4000000000` a typed error instead of a multi-gigabyte allocation.
pub const MAX_BITS: u32 = 1 << 20;
/// Largest per-bit iteration count a request may ask for. Far above every
/// symbol time in use (the paper's sweeps stop at a few dozen); it keeps the
/// channels' cycle arithmetic (`iterations * 64` idle-spin lengths) far
/// from overflow.
pub const MAX_ITERATIONS: u64 = 1 << 20;

/// Default symbol-time axis (the paper's error-free operating point).
const DEFAULT_ITERATIONS: u64 = 20;
/// Default message length.
const DEFAULT_BITS: u32 = 16;
/// Default message seed (matches the harness's seed prefix).
const DEFAULT_SEED: u64 = 0x5EED;

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            devices: vec!["kepler".to_string()],
            families: vec!["l1".to_string()],
            iterations: vec![DEFAULT_ITERATIONS],
            bits: DEFAULT_BITS,
            seed: DEFAULT_SEED,
            faults: vec!["none".to_string()],
            defenses: vec!["none".to_string()],
            topology: "none".to_string(),
        }
    }
}

impl SweepRequest {
    /// Validates axis contents: non-empty axes, known device aliases and
    /// family labels, positive iteration counts and bits, parseable defense
    /// and topology sub-specs, and no duplicate axis values (a doubled axis
    /// value is a typo, not intent — and it would alias cache cells).
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSweep`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let invalid = |reason: String| Err(SpecError::InvalidSweep { reason });
        if self.devices.is_empty() {
            return invalid("device axis is empty".into());
        }
        if self.families.is_empty() {
            return invalid("family axis is empty".into());
        }
        if self.iterations.is_empty() {
            return invalid("iters axis is empty".into());
        }
        if self.faults.is_empty() {
            return invalid("faults axis is empty".into());
        }
        if self.defenses.is_empty() {
            return invalid("defense axis is empty".into());
        }
        if self.bits == 0 || self.bits > MAX_BITS {
            return invalid(format!("bits must be in 1..={MAX_BITS}, got {}", self.bits));
        }
        for d in &self.devices {
            if presets::by_name(d).is_none() {
                return invalid(format!("unknown device alias `{d}`"));
            }
        }
        for f in &self.families {
            if !FAMILY_LABELS.contains(&f.as_str()) {
                return invalid(format!(
                    "unknown family `{f}` (choose from {})",
                    FAMILY_LABELS.join(", ")
                ));
            }
        }
        for &it in &self.iterations {
            if it == 0 || it > MAX_ITERATIONS {
                return invalid(format!("iters values must be in 1..={MAX_ITERATIONS}, got {it}"));
            }
        }
        for f in &self.faults {
            if f.trim().is_empty() {
                return invalid("empty fault sub-spec (use `none`)".into());
            }
        }
        for d in &self.defenses {
            if d != "none" {
                DefenseSpec::from_spec(d).map_err(|e| SpecError::InvalidSweep {
                    reason: format!("defense axis: {e}"),
                })?;
            }
        }
        if self.topology != "none" {
            TopologySpec::from_spec(&self.topology)
                .map_err(|e| SpecError::InvalidSweep { reason: format!("topology: {e}") })?;
        }
        for (name, values) in [
            ("device", &self.devices),
            ("family", &self.families),
            ("faults", &self.faults),
            ("defense", &self.defenses),
        ] {
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return invalid(format!("duplicate {name} axis value `{v}`"));
                }
            }
        }
        for (i, v) in self.iterations.iter().enumerate() {
            if self.iterations[..i].contains(v) {
                return invalid(format!("duplicate iters axis value `{v}`"));
            }
        }
        Ok(())
    }

    /// Parses the textual grammar (the CLI's `--request` argument):
    /// `;`-separated `key=value` fields, every field optional. See the
    /// module docs for the axis-value separators.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidSweep`] for syntax errors, unknown keys,
    /// duplicate fields, and any [`SweepRequest::validate`] failure.
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let invalid = |reason: String| SpecError::InvalidSweep { reason };
        let mut out = SweepRequest::default();
        match spec.trim() {
            "" => return Err(invalid("empty sweep spec (the default grid is `default`)".into())),
            "default" => return Ok(out),
            _ => {}
        }
        let keys = &["device", "family", "iters", "bits", "seed", "faults", "defense", "topology"];
        let mut fields = Fields::new(spec.split(';'), keys, invalid);
        while let Some((key, value)) = fields.next_field()? {
            let values = |sep: char| value.split(sep).map(str::trim);
            match key {
                "device" => {
                    out.devices = values('+').map(canonical_device).collect::<Result<_, _>>()?
                }
                "family" => out.families = values('+').map(str::to_string).collect(),
                "iters" => {
                    let iters = values('+').map(|v| grammar::bounded(v, MAX_ITERATIONS));
                    out.iterations = iters.collect::<Option<_>>().ok_or_else(|| {
                        invalid(format!("invalid `iters` value `{value}` (max {MAX_ITERATIONS})"))
                    })?;
                }
                "bits" => out.bits = fields.bounded(MAX_BITS)?,
                "seed" => out.seed = fields.seed()?,
                "faults" => out.faults = values('|').map(str::to_string).collect(),
                "defense" => {
                    out.defenses = values('|').map(canonical_defense).collect::<Result<_, _>>()?
                }
                "topology" if value == "none" => out.topology = "none".to_string(),
                "topology" => {
                    out.topology = TopologySpec::from_spec(value)
                        .map_err(|e| invalid(format!("topology: {e}")))?
                        .to_spec();
                }
                _ => unreachable!("the tokenizer yields declared keys only"),
            }
        }
        out.validate().map(|()| out)
    }

    /// Renders the canonical spec string: every field, fixed order, axis
    /// values in the declared order. `from_spec(to_spec(r)) == r` exactly.
    pub fn to_spec(&self) -> String {
        format!(
            "device={};family={};iters={};bits={};seed={:#x};faults={};defense={};topology={}",
            self.devices.join("+"),
            self.families.join("+"),
            self.iterations.iter().map(u64::to_string).collect::<Vec<_>>().join("+"),
            self.bits,
            self.seed,
            self.faults.join("|"),
            self.defenses.join("|"),
            self.topology,
        )
    }

    /// Enumerates the grid in deterministic order (device-major, then
    /// family, fault plan, defense, symbol time). Distinct requests whose
    /// grids overlap enumerate the shared cells with identical
    /// [`SweepCell::key`]s — that overlap is exactly what the service's
    /// content-addressed cache dedupes.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut out = Vec::with_capacity(
            self.devices.len()
                * self.families.len()
                * self.faults.len()
                * self.defenses.len()
                * self.iterations.len(),
        );
        for device in &self.devices {
            for family in &self.families {
                for faults in &self.faults {
                    for defense in &self.defenses {
                        for &iterations in &self.iterations {
                            out.push(SweepCell {
                                device: device.clone(),
                                family: family.clone(),
                                iterations,
                                bits: self.bits,
                                seed: self.seed,
                                faults: faults.clone(),
                                defense: defense.clone(),
                                topology: self.topology.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for SweepRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

/// Canonicalizes a device alias: any alias [`presets::by_name`] accepts maps
/// to its primary short name, so `K40C` and `kepler` address the same cells.
fn canonical_device(alias: &str) -> Result<String, SpecError> {
    let spec = presets::by_name(alias).ok_or_else(|| SpecError::InvalidSweep {
        reason: format!("unknown device alias `{alias}`"),
    })?;
    // Map back through the spec's architecture to the canonical short alias.
    Ok(spec.architecture.label().to_string())
}

/// Canonicalizes a defense sub-spec through [`DefenseSpec`].
fn canonical_defense(spec: &str) -> Result<String, SpecError> {
    if spec == "none" {
        return Ok("none".to_string());
    }
    let d = DefenseSpec::from_spec(spec)
        .map_err(|e| SpecError::InvalidSweep { reason: format!("defense axis: {e}") })?;
    if d.is_none() {
        return Ok("none".to_string());
    }
    Ok(d.to_spec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips() {
        let r = SweepRequest::default();
        assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
        assert_eq!(SweepRequest::from_spec("default").unwrap(), r);
    }

    #[test]
    fn full_grid_round_trips_and_enumerates() {
        let r = SweepRequest::from_spec(
            "device=kepler+fermi;family=l1+atomic;iters=1+4+20;bits=24;seed=0x7;\
             faults=none|seed=7,intensity=0.5;defense=none|partition=2",
        )
        .unwrap();
        assert_eq!(SweepRequest::from_spec(&r.to_spec()).unwrap(), r);
        // 2 devices x 2 families x 2 faults x 2 defenses x 3 symbol times.
        assert_eq!(r.cells().len(), 48);
        let keys: std::collections::HashSet<String> =
            r.cells().iter().map(SweepCell::key).collect();
        assert_eq!(keys.len(), 48, "grid keys must be pairwise distinct");
    }

    #[test]
    fn device_aliases_canonicalize() {
        let a = SweepRequest::from_spec("device=K40C").unwrap();
        let b = SweepRequest::from_spec("device=kepler").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells()[0].device, "kepler");
    }

    #[test]
    fn defense_axis_canonicalizes() {
        let r = SweepRequest::from_spec("defense=fuzz=4096,partition=2").unwrap();
        assert_eq!(r.defenses, vec!["partition=2,fuzz=4096".to_string()]);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "device=",
            "device=tpu",
            "family=l3",
            "iters=0",
            "iters=1+1",
            "bits=0",
            "defense=partition=1",
            "device=kepler;device=fermi",
            "family=l1+l1",
            "what=ever",
            "seed",
        ] {
            let err = SweepRequest::from_spec(bad).unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidSweep { .. }),
                "`{bad}` must fail with InvalidSweep, got {err:?}"
            );
        }
    }

    #[test]
    fn nvlink_needs_no_topology_at_parse_time() {
        // The service degrades nvlink cells without a topology into typed
        // per-cell errors; the request itself stays valid.
        let r = SweepRequest::from_spec("family=nvlink").unwrap();
        assert_eq!(r.topology, "none");
        let t = SweepRequest::from_spec("family=nvlink;topology=devices=kepler+kepler,link=0-1")
            .unwrap();
        assert_ne!(t.topology, "none");
        assert_eq!(SweepRequest::from_spec(&t.to_spec()).unwrap(), t);
    }
}
