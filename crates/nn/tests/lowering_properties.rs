//! Property-based tests of the HE lowering, driven by randomly built
//! networks (via `NetworkBuilder`): invariants that must hold for any
//! valid architecture, not just the paper's two.

use fxhenn_ckks::HeOpKind;
use fxhenn_nn::{
    lower_network, try_lower_network_with, HeLayerClass, LoweringProfile, NetworkBuilder,
};
use proptest::prelude::*;

/// A random but always-valid small architecture.
#[derive(Debug, Clone)]
struct Arch {
    maps: usize,
    kernel: usize,
    stride: usize,
    hidden: usize,
    outputs: usize,
    /// 0 = none, 1 = avg-pool, 2 = batch-norm (the 5-layer base plus at
    /// most one extra keeps the depth within the 7-level budget).
    extra: u8,
    seed: u64,
}

fn arch_strategy() -> impl Strategy<Value = Arch> {
    (
        1usize..=3,   // maps
        2usize..=3,   // kernel
        1usize..=2,   // stride
        2usize..=10,  // hidden
        2usize..=6,   // outputs
        0u8..=2,      // extra layer
        any::<u64>(),
    )
        .prop_map(|(maps, kernel, stride, hidden, outputs, extra, seed)| Arch {
            maps,
            kernel,
            stride,
            hidden,
            outputs,
            extra,
            seed,
        })
}

fn build(arch: &Arch) -> fxhenn_nn::Network {
    let mut b = NetworkBuilder::new("prop", [1, 9, 9], arch.seed)
        .conv(arch.maps, arch.kernel, arch.stride)
        .square();
    match arch.extra {
        1 => b = b.avg_pool(2, 2),
        2 => b = b.batch_norm(),
        _ => {}
    }
    b.dense(arch.hidden)
        .square()
        .dense(arch.outputs)
        .build(7)
        .expect("builder-validated architecture")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowering_succeeds_for_any_built_network(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        prop_assert_eq!(prog.layers.len(), net.layer_count());
        prop_assert!(prog.hop_count() > 0);
    }

    #[test]
    fn levels_descend_and_stay_positive(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        let mut level = 7usize;
        for layer in &prog.layers {
            prop_assert_eq!(layer.level_in, level, "{} entry level", &layer.name);
            prop_assert!(layer.level_out < layer.level_in);
            prop_assert!(layer.level_out >= 1);
            level = layer.level_out;
        }
    }

    #[test]
    fn every_op_is_recorded_at_a_live_level(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        for layer in &prog.layers {
            for rec in layer.trace.records() {
                prop_assert!(rec.level >= 1 && rec.level <= 7);
                prop_assert!(rec.level <= layer.level_in);
                prop_assert!(rec.level >= layer.level_out);
            }
        }
    }

    #[test]
    fn ks_classification_matches_trace_content(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        for layer in &prog.layers {
            let has_ks = layer.trace.records().iter().any(|r| r.kind.is_key_switch());
            match layer.class {
                HeLayerClass::Ks => prop_assert!(
                    has_ks || layer.trace.count_of(HeOpKind::Rotate) == 0,
                    "KS layer {} should contain key switches", &layer.name
                ),
                HeLayerClass::Nks => prop_assert!(
                    !has_ks,
                    "NKS layer {} must not key-switch", &layer.name
                ),
            }
        }
    }

    #[test]
    fn rotation_steps_are_in_range_and_deduped(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        let slots = 512usize;
        let rotations = prog.required_rotations();
        for w in rotations.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and deduplicated");
        }
        for &r in rotations.iter() {
            prop_assert!(r >= 1 && r < slots, "rotation {r} out of range");
        }
    }

    #[test]
    fn rescale_count_matches_level_drops_per_path(arch in arch_strategy()) {
        // Every value path rescales exactly (level_in - level_out) times;
        // in aggregate, each layer's rescale count is at least its level
        // drop (multiple ciphertexts rescale in parallel).
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        for layer in &prog.layers {
            let rescales = layer.trace.count_of(HeOpKind::Rescale);
            prop_assert!(
                rescales >= layer.level_in - layer.level_out,
                "{}: {} rescales for {} level drops",
                &layer.name,
                rescales,
                layer.level_in - layer.level_out
            );
        }
    }

    #[test]
    fn hop_accounting_is_additive(arch in arch_strategy()) {
        let net = build(&arch);
        let prog = lower_network(&net, 1024, 7);
        let per_layer: usize = prog.layers.iter().map(|l| l.hop_count()).sum();
        prop_assert_eq!(per_layer, prog.hop_count());
        let ks: usize = prog.layers.iter().map(|l| l.key_switch_count()).sum();
        prop_assert_eq!(ks, prog.key_switch_count());
        prop_assert_eq!(prog.total_trace().hop_count(), prog.hop_count());
    }

    #[test]
    fn optimized_profile_keeps_the_invariants_and_the_key_set(arch in arch_strategy()) {
        let net = build(&arch);
        let faithful = lower_network(&net, 1024, 7);
        let fast = try_lower_network_with(&net, 1024, 7, LoweringProfile::Optimized)
            .expect("what lowers faithfully lowers optimized");
        prop_assert_eq!(fast.layers.len(), net.layer_count());

        // Levels descend from the top, never faster than the faithful
        // lowering's (no consolidation level), and every op sits between
        // its layer's entry and exit levels.
        let mut level = 7usize;
        for (layer, slow) in fast.layers.iter().zip(&faithful.layers) {
            prop_assert_eq!(layer.level_in, level, "{} entry level", &layer.name);
            prop_assert!(layer.level_out < layer.level_in && layer.level_out >= 1);
            prop_assert!(layer.level_out >= slow.level_out);
            for rec in layer.trace.records() {
                prop_assert!(rec.level <= layer.level_in && rec.level >= layer.level_out);
            }
            let has_ks = layer.trace.records().iter().any(|r| r.kind.is_key_switch());
            prop_assert!(layer.class == HeLayerClass::Ks || !has_ks);
            prop_assert!(
                layer.trace.count_of(HeOpKind::Rescale) >= layer.level_in - layer.level_out
            );
            level = layer.level_out;
        }

        // HOP accounting is additive and the linear layers switch keys
        // exactly as often as they rotate or relinearize.
        let per_layer: usize = fast.layers.iter().map(|l| l.hop_count()).sum();
        prop_assert_eq!(per_layer, fast.hop_count());
        prop_assert_eq!(fast.total_trace().hop_count(), fast.hop_count());
        let trace = fast.total_trace();
        prop_assert_eq!(
            trace.key_switch_count(),
            trace.count_of(HeOpKind::Rotate) + trace.count_of(HeOpKind::Relinearize)
        );

        // One key set serves both profiles, every step in range.
        let keys = fast.required_rotations();
        prop_assert_eq!(&keys, &faithful.required_rotations());
        for &r in keys.iter() {
            prop_assert!((1..512).contains(&r), "rotation {r} out of range");
        }
    }

    #[test]
    fn deterministic_lowering(arch in arch_strategy()) {
        let net = build(&arch);
        let a = lower_network(&net, 1024, 7);
        let b = lower_network(&net, 1024, 7);
        prop_assert_eq!(a, b);
    }
}
