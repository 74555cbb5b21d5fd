//! Deterministic fault injection for robustness testing.
//!
//! The helpers here corrupt the *inputs* of the inference path — wire
//! blobs, network weights, BRAM grant vectors — so the fault-injection
//! harness can assert that every corruption surfaces as a typed error
//! (never a panic, never a silently wrong answer). All corruptions are
//! deterministic: the same fault parameters always produce the same
//! corrupted artifact, so failures reproduce byte-for-byte.

use fxhenn_nn::{Layer, Network};
use std::cell::Cell;
use std::time::Duration;

/// An injected stall: what each station claim costs, and how much the
/// claims so far have added to the simulator's clock.
#[derive(Clone, Copy)]
struct StallClock {
    per_claim: Duration,
    charged: Duration,
}

thread_local! {
    static STATION_STALL: Cell<Option<StallClock>> = const { Cell::new(None) };
}

/// Hang-class fault: runs `f` with every simulated station claim on
/// this thread taking `delay` longer, modeling a module station that
/// never (or pathologically slowly) completes. The delay is charged to
/// the clock the simulator's budget checks read, not slept: with a
/// large `delay` and a trace of thousands of records the simulation
/// runs far past any deadline — which is exactly what the deadline
/// tests need: the budgeted simulator must surface a typed `Cancelled`
/// instead of wedging — and it does so on the same record under any
/// host load. The override is thread-local and restored when `f`
/// returns.
pub fn with_station_stall<R>(delay: Duration, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<StallClock>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATION_STALL.with(|d| d.set(self.0));
        }
    }
    let clock = StallClock {
        per_claim: delay,
        charged: Duration::ZERO,
    };
    let prev = STATION_STALL.with(|d| d.replace(Some(clock)));
    let _restore = Restore(prev);
    f()
}

/// True inside [`with_station_stall`] on this thread.
pub fn station_stall_active() -> bool {
    STATION_STALL.with(|d| d.get().is_some())
}

/// Charges one station claim to this thread's injected stall and
/// returns how far the stall had advanced the clock before it (`None`
/// outside [`with_station_stall`]).
pub fn charge_station_stall() -> Option<Duration> {
    STATION_STALL.with(|d| {
        let clock = d.get()?;
        d.set(Some(StallClock {
            charged: clock.charged + clock.per_claim,
            ..clock
        }));
        Some(clock.charged)
    })
}

/// Keeps only the first `keep` bytes of a serialized blob, simulating a
/// truncated file or interrupted transfer.
pub fn truncate_blob(blob: &[u8], keep: usize) -> Vec<u8> {
    blob[..keep.min(blob.len())].to_vec()
}

/// Flips one bit of a serialized blob, simulating in-flight or at-rest
/// corruption. `bit` addresses the blob MSB-first and wraps modulo the
/// blob length, so any index is valid on a non-empty blob.
pub fn flip_bit(blob: &[u8], bit: usize) -> Vec<u8> {
    let mut out = blob.to_vec();
    if !out.is_empty() {
        let bit = bit % (out.len() * 8);
        out[bit / 8] ^= 0x80 >> (bit % 8);
    }
    out
}

/// Overwrites one weight of the first weighted layer (convolution or
/// dense) with `value` — e.g. `f64::NAN` to model a corrupted model
/// file. Returns `false` if the network has no weighted layer.
pub fn poison_first_weight(net: &mut Network, value: f64) -> bool {
    for (_, layer) in net.layers_mut() {
        match layer {
            Layer::Conv(c) => {
                if let Some(w) = c.weights.first_mut() {
                    *w = value;
                    return true;
                }
            }
            Layer::Dense(d) => {
                if let Some(w) = d.weights.first_mut() {
                    *w = value;
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Scales every weight and bias of the network by `factor` — a huge
/// factor models a mis-scaled (wrong fixed-point exponent) model file
/// that exhausts the noise budget mid-inference.
pub fn amplify_weights(net: &mut Network, factor: f64) {
    for (_, layer) in net.layers_mut() {
        match layer {
            Layer::Conv(c) => {
                for w in c.weights.iter_mut().chain(c.bias.iter_mut()) {
                    *w *= factor;
                }
            }
            Layer::Dense(d) => {
                for w in d.weights.iter_mut().chain(d.bias.iter_mut()) {
                    *w *= factor;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhenn_nn::toy_mnist_like;

    #[test]
    fn truncation_is_a_prefix() {
        let blob = vec![1u8, 2, 3, 4];
        assert_eq!(truncate_blob(&blob, 2), vec![1, 2]);
        assert_eq!(truncate_blob(&blob, 9), blob, "keep beyond len is identity");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let blob = vec![0u8; 8];
        let flipped = flip_bit(&blob, 13);
        let differing: u32 = blob
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1);
        assert_eq!(flip_bit(&blob, 13), flipped, "deterministic");
        assert_eq!(flip_bit(&blob, 13 + 64), flipped, "index wraps");
    }

    #[test]
    fn poisoning_hits_the_first_conv() {
        let mut net = toy_mnist_like(3);
        assert!(poison_first_weight(&mut net, f64::NAN));
        let has_nan = net.layers().iter().any(|(_, l)| match l {
            Layer::Conv(c) => c.weights.iter().any(|w| w.is_nan()),
            _ => false,
        });
        assert!(has_nan);
    }

    #[test]
    fn amplification_scales_everything() {
        let mut net = toy_mnist_like(3);
        let before = net.forward(&fxhenn_nn::synthetic_input(&net, 1));
        amplify_weights(&mut net, 2.0);
        let after = net.forward(&fxhenn_nn::synthetic_input(&net, 1));
        assert_ne!(before.into_data(), after.into_data());
    }
}
