//! Error type for specification validation.

use std::error::Error;
use std::fmt;

/// Error returned when a specification or launch configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A cache geometry field is zero or not self-consistent (size must be
    /// a multiple of `line * ways`, and all must be powers of two).
    InvalidCacheGeometry {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A launch configuration requests more of a resource than one SM owns,
    /// so not even a single block could ever be scheduled.
    BlockExceedsSmResources {
        /// Which resource overflows ("threads", "shared memory", "registers", "warps").
        resource: &'static str,
        /// Amount requested by one block.
        requested: u64,
        /// Amount available on one SM.
        available: u64,
    },
    /// A launch configuration field is zero where a positive value is required.
    ZeroLaunchField {
        /// Name of the offending field.
        field: &'static str,
    },
    /// The target device has no units of the class an operation requires
    /// (e.g. double-precision ops on Maxwell).
    UnsupportedUnit {
        /// The missing unit class, as text.
        unit: String,
        /// The device name.
        device: String,
    },
    /// A multi-GPU topology spec string or structure is malformed
    /// (unknown device name, link endpoint out of range, zero timing field).
    InvalidTopology {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A defense spec string or composition is malformed (unknown key,
    /// out-of-range parameter, or two components of the same kind with
    /// different parameters).
    InvalidDefense {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A sweep-request spec string is malformed (unknown field, empty or
    /// duplicated axis value, unknown device/family, or an invalid nested
    /// defense/topology sub-spec).
    InvalidSweep {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A sub-core descriptor or arch spec string is malformed (unknown key
    /// or architecture label, missing field, or a decomposition that does
    /// not mirror the SM's scheduler fields).
    InvalidSubCore {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A fault-plan spec string is malformed (unknown key or fault kind,
    /// malformed number, zero period, burst longer than the period, or
    /// intensity outside `[0, 1]`).
    InvalidFaults {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A chaos-plan spec string is malformed (unknown key or malformed
    /// number).
    InvalidChaos {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An engine label is not one of `dense`, `event` or `analytical`.
    InvalidEngine {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::InvalidCacheGeometry { reason } => {
                write!(f, "invalid cache geometry: {reason}")
            }
            SpecError::BlockExceedsSmResources { resource, requested, available } => {
                write!(f, "block requests {requested} {resource} but an SM has only {available}")
            }
            SpecError::ZeroLaunchField { field } => {
                write!(f, "launch configuration field `{field}` must be positive")
            }
            SpecError::UnsupportedUnit { unit, device } => {
                write!(f, "device `{device}` has no {unit} units")
            }
            SpecError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
            SpecError::InvalidDefense { reason } => {
                write!(f, "invalid defense: {reason}")
            }
            SpecError::InvalidSweep { reason } => {
                write!(f, "invalid sweep request: {reason}")
            }
            SpecError::InvalidSubCore { reason } => {
                write!(f, "invalid sub-core spec: {reason}")
            }
            SpecError::InvalidFaults { reason } => write!(f, "invalid fault plan: {reason}"),
            SpecError::InvalidChaos { reason } => write!(f, "invalid chaos plan: {reason}"),
            SpecError::InvalidEngine { reason } => write!(f, "invalid engine: {reason}"),
        }
    }
}

impl Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let e = SpecError::ZeroLaunchField { field: "grid_blocks" };
        let s = e.to_string();
        assert!(!s.is_empty());
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpecError>();
    }
}
