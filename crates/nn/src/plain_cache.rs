//! Encoded layer operands, kept with the [`Network`](crate::Network)
//! they were encoded from.
//!
//! The optimized executor multiplies by the same weight and bias
//! plaintexts in every request, and encoding one costs about as much as
//! the multiplication it feeds. A network therefore owns one
//! [`OperandSet`] — every layer's plaintexts for one CKKS context and one
//! input (level, scale), which together fix the level and scale of every
//! later layer — filled layer by layer during the first run and read by
//! every run after it, from any thread. A run under another context or
//! input shape replaces the set; mutating the network's layers drops it.

use crate::layers::Layer;
use crate::packing::{conv_groups, conv_positions};
use crate::walk::{Operand, Which};
use fxhenn_ckks::{Ciphertext, CkksContext, EvalError, LinearTransform, Plaintext};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What an [`OperandSet`] was encoded for.
#[derive(Debug, PartialEq, Eq)]
struct OperandKey {
    degree: usize,
    moduli: Vec<u64>,
    scale_bits: u64,
    input_level: usize,
    input_scale_bits: u64,
}

impl OperandKey {
    fn new(ctx: &CkksContext, first_input: Option<&Ciphertext>) -> Self {
        Self {
            degree: ctx.degree(),
            moduli: [ctx.coeff_moduli(), ctx.special_moduli()].concat(),
            scale_bits: ctx.params().scale().to_bits(),
            input_level: first_input.map_or(0, Ciphertext::level),
            input_scale_bits: first_input.map_or(0, |ct| ct.scale().to_bits()),
        }
    }
}

/// One layer's plaintext operands.
#[derive(Debug)]
pub(crate) enum LayerOperands {
    /// First convolution: per output group, the weights of each input
    /// ciphertext's taps and then the bias, each encoded by the first run
    /// that uses it.
    Conv(Vec<OnceLock<Plaintext>>),
    /// A dense layer as one linear transform, and its bias.
    Linear(LinearTransform, Plaintext),
}

/// Every layer's operands for one context and input shape; a layer's
/// slot is filled by the first run that reaches it.
#[derive(Debug)]
pub(crate) struct OperandSet {
    key: OperandKey,
    pub(crate) layers: Vec<OnceLock<LayerOperands>>,
}

impl OperandSet {
    /// The slot keeping `op`, if it is one of the first convolution's:
    /// per group, one slot per input ciphertext's taps, then the bias.
    pub(crate) fn conv_slot(&self, op: Operand<'_>) -> Option<&OnceLock<Plaintext>> {
        let (0, Layer::Conv(conv)) = (op.src.index, op.src.layer) else {
            return None;
        };
        let per_group = conv.offset_count().div_ceil(op.src.copies) + 1;
        let at = match op.which {
            Which::Weights(g, c) => g * per_group + c,
            Which::Bias(g) | Which::Mask(g) => g * per_group + per_group - 1,
        };
        let slots = self.layers.first()?.get_or_init(|| {
            let positions = conv_positions(conv, op.src.shape);
            let (_, groups) = conv_groups(conv, positions, op.src.slots);
            LayerOperands::Conv((0..groups * per_group).map(|_| OnceLock::new()).collect())
        });
        match slots {
            LayerOperands::Conv(slots) => slots.get(at),
            LayerOperands::Linear(..) => None,
        }
    }
}

/// The slot's contents, built by `build` if this is the first run to
/// reach it. Two first runs racing both build; one result is kept.
pub(crate) fn cached<T>(
    slot: &OnceLock<T>,
    build: impl FnOnce() -> Result<T, EvalError>,
) -> Result<&T, EvalError> {
    match slot.get() {
        Some(built) => Ok(built),
        None => {
            let built = build()?;
            Ok(slot.get_or_init(|| built))
        }
    }
}

/// The operand cache a [`Network`](crate::Network) carries. It is derived
/// state: a clone starts empty and it takes no part in equality.
#[derive(Default)]
pub struct PlaintextCache(Mutex<Option<Arc<OperandSet>>>);

impl PlaintextCache {
    /// The set for `ctx` and the shape of `first_input`, replacing a set
    /// encoded for anything else.
    pub(crate) fn for_run(
        &self,
        ctx: &CkksContext,
        first_input: Option<&Ciphertext>,
        layer_count: usize,
    ) -> Arc<OperandSet> {
        let key = OperandKey::new(ctx, first_input);
        // The slot holds an `Arc` that is only ever swapped whole.
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(set) if set.key == key => set.clone(),
            _ => {
                let set = Arc::new(OperandSet {
                    key,
                    layers: (0..layer_count).map(|_| OnceLock::new()).collect(),
                });
                *slot = Some(set.clone());
                set
            }
        }
    }

    /// Number of layers whose operands are currently held.
    pub fn cached_layers(&self) -> usize {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref()
            .map_or(0, |set| set.layers.iter().filter(|l| l.get().is_some()).count())
    }

    /// Drops everything held.
    pub(crate) fn clear(&mut self) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Megabytes of residues help nobody read a `Network`: print the count.
impl std::fmt::Debug for PlaintextCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaintextCache")
            .field("cached_layers", &self.cached_layers())
            .finish()
    }
}

impl Clone for PlaintextCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for PlaintextCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
