//! Typed errors for homomorphic evaluation.
//!
//! Every precondition the [`crate::eval::Evaluator`] enforces has a
//! matching [`EvalError`] variant, raised by the fallible evaluation
//! methods.
//!
//! `Debug` delegates to `Display` so an `expect` on an evaluation
//! result panics with the same human-readable message the assert-based
//! methods historically produced (e.g. `"scale mismatch: ..."`),
//! keeping error text stable for users and tests.

use fxhenn_math::budget::BudgetStop;
use std::fmt;

/// A violated precondition of a homomorphic evaluation operation.
#[derive(Clone, PartialEq)]
pub enum EvalError {
    /// Two operands are at different levels.
    LevelMismatch {
        /// Operation name (CCadd, PCmult, …).
        op: &'static str,
        /// Level of the left operand.
        left: usize,
        /// Level of the right operand.
        right: usize,
    },
    /// Two ciphertext operands have different polynomial counts.
    SizeMismatch {
        /// Operation name.
        op: &'static str,
        /// Size of the left operand.
        left: usize,
        /// Size of the right operand.
        right: usize,
    },
    /// Additive operands carry incompatible scales.
    ScaleMismatch {
        /// Scale of the left operand.
        left: f64,
        /// Scale of the right operand.
        right: f64,
    },
    /// A 3-polynomial ciphertext reached an operation that needs a
    /// linear (2-polynomial) input.
    NotLinear {
        /// The operation in gerund form ("rescaling", "rotating", …).
        op: &'static str,
    },
    /// CCmult received a non-linear operand.
    NonLinearProduct {
        /// Size of the offending operand.
        size: usize,
    },
    /// Relinearization received a ciphertext that is not 3 polynomials.
    NotThreePoly {
        /// Size of the offending ciphertext.
        size: usize,
    },
    /// Rescale was attempted at level 1 (no prime left to drop).
    RescaleAtFloor,
    /// A level argument fell outside the context's chain.
    LevelOutOfRange {
        /// The requested level.
        level: usize,
        /// Maximum level of the context.
        max: usize,
    },
    /// Modulus switching targeted level 0 or a level above the input's.
    TargetLevelOutOfRange {
        /// The requested target level.
        target: usize,
        /// The ciphertext's current level.
        current: usize,
    },
    /// The Galois key for a rotation step was not generated.
    MissingGaloisKey {
        /// The requested left-rotation step count.
        steps: usize,
    },
    /// The Galois key for a rotation step was cut below the level of the
    /// ciphertext it was asked to rotate.
    GaloisKeyTooShallow {
        /// The requested left-rotation step count.
        steps: usize,
        /// The highest level the key reaches.
        key_level: usize,
        /// The ciphertext's level.
        level: usize,
    },
    /// A value to encode is NaN or infinite.
    NonFiniteValue {
        /// Slot index of the offending value.
        index: usize,
    },
    /// More values than slots were passed to an encoder.
    TooManyValues {
        /// Number of values passed.
        count: usize,
        /// Available slots.
        slots: usize,
    },
    /// The analytic noise estimate predicts the remaining budget cannot
    /// decrypt meaningfully.
    NoiseBudgetExhausted {
        /// Remaining budget in bits (non-positive).
        budget_bits: f64,
    },
    /// An operation needs more active RNS primes than the ciphertext
    /// has left (e.g. rescale at level 1).
    LevelExhausted {
        /// Active primes available.
        have: usize,
        /// Active primes the operation needs.
        need: usize,
    },
    /// A decrypt-time canary measured a slot error beyond the stated
    /// margin over the analytic prediction — the noise model and the
    /// kernels disagree, the signature of a computation fault rather
    /// than a deep circuit.
    NoiseModelViolation {
        /// Measured canary slot error.
        measured: f64,
        /// Analytically predicted slot error.
        predicted: f64,
        /// Accepted margin (multiples of the prediction).
        margin: f64,
    },
    /// A ciphertext is structurally well-formed but semantically invalid
    /// for this context (wrong degree, impossible level, or a residue
    /// word outside its modulus — the signature of transport corruption).
    CorruptCiphertext {
        /// Which semantic check failed.
        what: &'static str,
    },
    /// Key material (key-switch, relinearization or Galois keys) failed
    /// a semantic range check against this context — wrong digit count,
    /// wrong basis width, or a residue word outside its modulus.
    CorruptKeyMaterial {
        /// Which semantic check failed.
        what: &'static str,
    },
    /// The ambient execution budget expired or was cancelled at an
    /// operation boundary. The evaluator performed no work for this
    /// call and remains fully reusable.
    Cancelled(BudgetStop),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::LevelMismatch { op, left, right } => {
                write!(f, "{op} needs matching levels ({left} vs {right})")
            }
            EvalError::SizeMismatch { op, left, right } => {
                write!(f, "{op} needs matching sizes ({left} vs {right})")
            }
            EvalError::ScaleMismatch { left, right } => {
                write!(f, "scale mismatch: {left} vs {right}")
            }
            EvalError::NotLinear { op } => write!(f, "relinearize before {op}"),
            EvalError::NonLinearProduct { size } => {
                write!(f, "CCmult needs linear inputs (got a {size}-poly ciphertext)")
            }
            EvalError::NotThreePoly { size } => {
                write!(f, "relinearization needs a 3-poly ciphertext (got {size})")
            }
            EvalError::RescaleAtFloor => f.write_str("cannot rescale below level 1"),
            EvalError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} out of range (chain has {max} levels)")
            }
            EvalError::TargetLevelOutOfRange { target, current } => {
                write!(f, "target level {target} out of range (current level {current})")
            }
            EvalError::MissingGaloisKey { steps } => {
                write!(f, "missing Galois key for rotation by {steps}")
            }
            EvalError::GaloisKeyTooShallow {
                steps,
                key_level,
                level,
            } => write!(
                f,
                "Galois key for rotation by {steps} reaches level {key_level}, \
                 the ciphertext is at level {level}"
            ),
            EvalError::NonFiniteValue { index } => {
                write!(f, "non-finite value at slot {index} cannot be encoded")
            }
            EvalError::TooManyValues { count, slots } => {
                write!(f, "{count} values exceed the {slots} available slots")
            }
            EvalError::NoiseBudgetExhausted { budget_bits } => {
                write!(f, "noise budget exhausted ({budget_bits:.1} bits remaining)")
            }
            EvalError::LevelExhausted { have, need } => {
                write!(f, "level exhausted: need {need} active primes, have {have}")
            }
            EvalError::NoiseModelViolation {
                measured,
                predicted,
                margin,
            } => {
                write!(
                    f,
                    "noise model violation: canary slot error {measured:.3e} exceeds \
                     {margin:.0}x the predicted {predicted:.3e}"
                )
            }
            EvalError::CorruptCiphertext { what } => {
                write!(f, "corrupt ciphertext: {what}")
            }
            EvalError::CorruptKeyMaterial { what } => {
                write!(f, "corrupt key material: {what}")
            }
            EvalError::Cancelled(stop) => write!(f, "evaluation stopped: {stop}"),
        }
    }
}

impl From<BudgetStop> for EvalError {
    fn from(stop: BudgetStop) -> Self {
        EvalError::Cancelled(stop)
    }
}

impl fmt::Debug for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Cancelled(stop) => Some(stop),
            _ => None,
        }
    }
}
