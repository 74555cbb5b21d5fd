//! Encoded layer operands, kept with the [`Network`](crate::Network)
//! they were encoded from.
//!
//! The optimized executor multiplies by the same weight, mask and bias
//! plaintexts in every request, and encoding one costs about as much as
//! the multiplication it feeds. A network therefore owns one
//! [`OperandSet`] — every layer's plaintexts for one CKKS context and one
//! input (level, scale), which together fix the level and scale of every
//! later layer — filled layer by layer during the first run and read by
//! every run after it, from any thread. A run under another context or
//! input shape replaces the set; mutating the network's layers drops it.

use fxhenn_ckks::{Ciphertext, CkksContext, LinearTransform, Plaintext};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What an [`OperandSet`] was encoded for.
#[derive(PartialEq, Eq)]
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
pub(crate) enum LayerOperands {
    /// First convolution: per output group, the tap weights and the bias.
    Conv(Vec<(Vec<Plaintext>, Plaintext)>),
    /// A dense layer as one linear transform, and its bias.
    Linear(LinearTransform, Plaintext),
}

/// Every layer's operands for one context and input shape; a layer's
/// slot is filled by the first run that reaches it.
pub(crate) struct OperandSet {
    key: OperandKey,
    pub(crate) layers: Vec<OnceLock<LayerOperands>>,
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
