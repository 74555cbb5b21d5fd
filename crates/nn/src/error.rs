//! Typed errors for HE-CNN lowering and execution.
//!
//! [`LowerError`] covers everything the analytic lowering can reject
//! (network structure, slot capacity, level budget); [`ExecError`] covers
//! the functional executor's runtime failures, including evaluator
//! precondition violations ([`EvalError`]) and predicted noise-budget
//! exhaustion. Lowering and execution share one walk of the network, so
//! a structural failure is the same [`LowerError`] in both, wrapped as
//! [`ExecError::Lower`] by the executor. Both carry the layer name so a
//! failure deep in a network
//! points at the offending layer, not just the offending ciphertext.
//!
//! `Debug` delegates to `Display` so `expect`-style panics in tests and
//! benches print the same message a caller would log.

use fxhenn_ckks::EvalError;
use fxhenn_math::budget::BudgetStop;
use std::fmt;

/// A structural or budget problem found while lowering a network.
#[derive(Clone, PartialEq)]
pub enum LowerError {
    /// The network has no layers.
    EmptyNetwork,
    /// The LoLa offset packing requires a convolution front end.
    FirstLayerNotConv,
    /// A dense layer's `in_features` disagrees with the incoming layout.
    DenseSizeMismatch {
        /// The dense layer.
        layer: String,
        /// `in_features` declared by the layer.
        expected: usize,
        /// Values actually present at the boundary.
        got: usize,
    },
    /// A spatial layer (pooling, channel scale) received a non-CHW shape.
    NotChw {
        /// The offending layer.
        layer: String,
        /// Rank of the shape that arrived.
        rank: usize,
    },
    /// A channel-scale layer's factor count disagrees with the channels.
    ChannelMismatch {
        /// The offending layer.
        layer: String,
        /// Factors carried by the layer.
        scales: usize,
        /// Channels at the boundary.
        channels: usize,
    },
    /// The multiplicative depth exceeds the level budget.
    LevelBudgetExhausted {
        /// The layer whose lowering would drop below level 1.
        layer: String,
        /// The starting level budget that proved insufficient.
        max_level: usize,
    },
    /// A convolution's output map has more positions than the ring's
    /// slots can hold.
    ConvDoesNotFitSlots {
        /// The convolution layer.
        layer: String,
        /// Output positions (`oh * ow`).
        positions: usize,
        /// Available slots (`N / 2`).
        slots: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::EmptyNetwork => f.write_str("network has no layers"),
            LowerError::FirstLayerNotConv => {
                f.write_str("LoLa packing expects a convolution front end")
            }
            LowerError::DenseSizeMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "dense input size mismatch at {layer}: layer expects \
                 {expected} features, layout carries {got}"
            ),
            LowerError::NotChw { layer, rank } => {
                write!(f, "{layer} needs a CHW shape (got rank {rank})")
            }
            LowerError::ChannelMismatch {
                layer,
                scales,
                channels,
            } => write!(
                f,
                "channel mismatch at {layer}: {scales} scale factors \
                 for {channels} channels"
            ),
            LowerError::LevelBudgetExhausted { layer, max_level } => write!(
                f,
                "level budget exhausted at layer {layer}: needs more than \
                 {max_level} levels"
            ),
            LowerError::ConvDoesNotFitSlots {
                layer,
                positions,
                slots,
            } => write!(
                f,
                "conv output map at {layer} ({positions} positions) must \
                 fit in {slots} slots"
            ),
        }
    }
}

impl fmt::Debug for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for LowerError {}

/// A runtime failure of the functional HE-CNN executor.
#[derive(Clone, PartialEq)]
pub enum ExecError {
    /// The network cannot be walked at all: the structural failures the
    /// lowering reports, raised by the same walk.
    Lower(LowerError),
    /// The encrypted input's packing shape disagrees with the network's
    /// front convolution.
    PackingMismatch {
        /// The consuming layer.
        layer: String,
        /// What mismatched ("group count", "offset count").
        what: &'static str,
        /// Count expected by the layer.
        expected: usize,
        /// Count found in the input.
        got: usize,
    },
    /// The analytic noise estimate predicts decryption would return
    /// garbage; execution stops instead of silently producing it.
    NoiseBudgetExhausted {
        /// The layer whose operation crossed the floor.
        layer: String,
        /// The HE operation that crossed it.
        op: &'static str,
        /// The (non-positive) predicted budget in bits.
        budget_bits: f64,
    },
    /// An evaluator precondition was violated mid-run.
    Eval {
        /// The layer being executed.
        layer: String,
        /// The underlying evaluator error.
        source: EvalError,
    },
    /// The pre-flight level check found too few remaining levels for the
    /// layer's rescale/multiply depth: the run fails at the layer
    /// boundary, naming the layer, instead of hitting the rescale floor
    /// deep inside the evaluator.
    InsufficientLevels {
        /// The layer that could not be admitted.
        layer: String,
        /// Levels remaining on the carried ciphertexts.
        have: usize,
        /// Levels the layer needs at entry to complete.
        need: usize,
    },
    /// The execution budget expired or was cancelled at a layer
    /// boundary.
    Cancelled(BudgetStop),
}

impl ExecError {
    /// The underlying [`EvalError`], if this wraps one.
    pub fn eval_source(&self) -> Option<&EvalError> {
        match self {
            ExecError::Eval { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Lower(e) => fmt::Display::fmt(e, f),
            ExecError::PackingMismatch {
                layer,
                what,
                expected,
                got,
            } => write!(
                f,
                "input packing {what} mismatch at {layer}: expected \
                 {expected}, got {got}"
            ),
            ExecError::NoiseBudgetExhausted {
                layer,
                op,
                budget_bits,
            } => write!(
                f,
                "noise budget exhausted at {layer} ({op}): \
                 {budget_bits:.1} bits remaining"
            ),
            ExecError::Eval { layer, source } => {
                write!(f, "HE evaluation failed at {layer}: {source}")
            }
            ExecError::InsufficientLevels { layer, have, need } => write!(
                f,
                "insufficient levels at layer {layer}: {have} remaining, \
                 needs {need} to multiply and rescale"
            ),
            ExecError::Cancelled(stop) => write!(f, "execution stopped: {stop}"),
        }
    }
}

impl From<LowerError> for ExecError {
    fn from(e: LowerError) -> Self {
        ExecError::Lower(e)
    }
}

impl From<BudgetStop> for ExecError {
    fn from(stop: BudgetStop) -> Self {
        ExecError::Cancelled(stop)
    }
}

impl fmt::Debug for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Lower(e) => Some(e),
            ExecError::Eval { source, .. } => Some(source),
            ExecError::Cancelled(stop) => Some(stop),
            _ => None,
        }
    }
}
