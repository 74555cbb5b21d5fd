//! Network definitions: the two benchmark HE-CNNs of the paper plus toy
//! variants for fast functional testing.
//!
//! * **FxHENN-MNIST** (5 layers, multiplication depth 5): `Cnv1` (5 maps,
//!   5×5, stride 2 over a zero-padded 29×29 input → 845 values), `Act1`
//!   (square), `Fc1` (845 → 100), `Act2` (square), `Fc2` (100 → 10).
//!   This is the CryptoNets/LoLa-MNIST architecture.
//! * **FxHENN-CIFAR10** (5 layers): `Cnv1` (83 maps, 8×8×3, stride 2 →
//!   14 027 values), `Act1`, `Cnv2` (112 maps, 5×5×83, stride 2 → 2 800),
//!   `Act2`, `Fc2` (2 800 → 10), mirroring the LoLa-CIFAR10 shape.
//!
//! Weights are deterministic pseudo-random (no datasets ship with this
//! reproduction — see DESIGN.md); functional correctness is verified
//! HE-vs-plaintext rather than via dataset accuracy.

use crate::layers::{AvgPool2d, ChannelScale, Conv2d, Dense, Layer, Square};
use crate::plain_cache::PlaintextCache;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named HE-friendly network with a fixed input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    input_shape: Vec<usize>,
    layers: Vec<(String, Layer)>,
    /// Encoded operands of the optimized executor (derived state).
    plaintexts: PlaintextCache,
}

impl Network {
    /// Creates a network from named layers.
    ///
    /// # Panics
    ///
    /// Panics if no layers are given.
    pub fn new(name: impl Into<String>, input_shape: &[usize], layers: Vec<(String, Layer)>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        Self {
            name: name.into(),
            input_shape: input_shape.to_vec(),
            layers,
            plaintexts: PlaintextCache::default(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected input shape (CHW).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Named layers in execution order.
    pub fn layers(&self) -> &[(String, Layer)] {
        &self.layers
    }

    /// Mutable access to the layers (used by the trainer). Drops the
    /// encoded operands, which the caller is about to invalidate.
    pub fn layers_mut(&mut self) -> &mut [(String, Layer)] {
        self.plaintexts.clear();
        &mut self.layers
    }

    /// The layer operands the optimized executor has encoded for this
    /// network, built on the first run under a context and reused by
    /// every later one.
    pub fn plaintext_cache(&self) -> &PlaintextCache {
        &self.plaintexts
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Multiplication depth: one level per conv, activation or dense
    /// layer (each performs exactly one scale-consuming multiply in the
    /// LoLa lowering).
    pub fn multiplication_depth(&self) -> usize {
        self.layers.len()
    }

    /// Plaintext forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the input shape mismatches.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.input_shape[..],
            "input shape mismatch for {}",
            self.name
        );
        let mut x = input.clone();
        for (_, layer) in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Intermediate outputs after every layer (for layerwise HE
    /// verification).
    pub fn forward_trace(&self, input: &Tensor) -> Vec<Tensor> {
        let mut x = input.clone();
        let mut outs = Vec::with_capacity(self.layers.len());
        for (_, layer) in &self.layers {
            x = layer.forward(&x);
            outs.push(x.clone());
        }
        outs
    }

    /// Total plaintext MAC count (paper Table IV "MACs" column), given
    /// the declared input shape.
    pub fn total_macs(&self) -> usize {
        let mut shape = self.input_shape.clone();
        let mut total = 0usize;
        for (_, layer) in &self.layers {
            match layer {
                Layer::Conv(c) => {
                    total += c.mac_count(shape[1], shape[2]);
                    let (oh, ow) = c.output_size(shape[1], shape[2]);
                    shape = vec![c.out_channels, oh, ow];
                }
                Layer::Activation(_) => {}
                Layer::Dense(d) => {
                    total += d.mac_count();
                    shape = vec![d.out_features];
                }
                Layer::AvgPool(p) => {
                    let (oh, ow) = p.output_size(shape[1], shape[2]);
                    // Pooling is adds only; it contributes no MACs.
                    shape = vec![shape[0], oh, ow];
                }
                Layer::Scale(cs) => {
                    // One multiply per element.
                    total += cs.factors.len() * shape[1] * shape[2];
                }
                Layer::SignAct(_) => {}
            }
        }
        total
    }
}

fn uniform_weights(rng: &mut StdRng, count: usize, scale: f64) -> Vec<f64> {
    (0..count).map(|_| rng.gen_range(-scale..scale)).collect()
}

/// Builds the FxHENN-MNIST network with seeded pseudo-random weights.
///
/// Weight magnitudes are kept small (He-style fan-in scaling) so that the
/// squared activations stay in a numerically comfortable range for CKKS.
pub fn fxhenn_mnist(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = Conv2d::new(
        5,
        1,
        (5, 5),
        (2, 2),
        uniform_weights(&mut rng, 5 * 25, 0.2),
        uniform_weights(&mut rng, 5, 0.1),
    );
    let fc1 = Dense::new(
        100,
        845,
        uniform_weights(&mut rng, 100 * 845, 0.035),
        uniform_weights(&mut rng, 100, 0.1),
    );
    let fc2 = Dense::new(
        10,
        100,
        uniform_weights(&mut rng, 10 * 100, 0.1),
        uniform_weights(&mut rng, 10, 0.1),
    );
    Network::new(
        "FxHENN-MNIST",
        &[1, 29, 29],
        vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Act1".to_string(), Layer::Activation(Square)),
            ("Fc1".to_string(), Layer::Dense(fc1)),
            ("Act2".to_string(), Layer::Activation(Square)),
            ("Fc2".to_string(), Layer::Dense(fc2)),
        ],
    )
}

/// Builds the FxHENN-CIFAR10 network with seeded pseudo-random weights.
pub fn fxhenn_cifar10(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv1 = Conv2d::new(
        83,
        3,
        (8, 8),
        (2, 2),
        uniform_weights(&mut rng, 83 * 3 * 64, 0.07),
        uniform_weights(&mut rng, 83, 0.05),
    );
    let conv2 = Conv2d::new(
        112,
        83,
        (5, 5),
        (2, 2),
        uniform_weights(&mut rng, 112 * 83 * 25, 0.022),
        uniform_weights(&mut rng, 112, 0.05),
    );
    let fc2 = Dense::new(
        10,
        2800,
        uniform_weights(&mut rng, 10 * 2800, 0.019),
        uniform_weights(&mut rng, 10, 0.05),
    );
    Network::new(
        "FxHENN-CIFAR10",
        &[3, 32, 32],
        vec![
            ("Cnv1".to_string(), Layer::Conv(conv1)),
            ("Act1".to_string(), Layer::Activation(Square)),
            ("Cnv2".to_string(), Layer::Conv(conv2)),
            ("Act2".to_string(), Layer::Activation(Square)),
            ("Fc2".to_string(), Layer::Dense(fc2)),
        ],
    )
}

/// A miniature 5-layer network with the same Cnv/Act/Fc/Act/Fc structure
/// as FxHENN-MNIST, sized to run functionally at toy CKKS parameters
/// (N = 1024, 512 slots).
pub fn toy_mnist_like(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = Conv2d::new(
        2,
        1,
        (3, 3),
        (2, 2),
        uniform_weights(&mut rng, 2 * 9, 0.3),
        uniform_weights(&mut rng, 2, 0.1),
    );
    // input 9x9 -> conv out (2, 4, 4) = 32 values
    let fc1 = Dense::new(
        8,
        32,
        uniform_weights(&mut rng, 8 * 32, 0.15),
        uniform_weights(&mut rng, 8, 0.1),
    );
    let fc2 = Dense::new(
        4,
        8,
        uniform_weights(&mut rng, 4 * 8, 0.3),
        uniform_weights(&mut rng, 4, 0.1),
    );
    Network::new(
        "Toy-MNIST-like",
        &[1, 9, 9],
        vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Act1".to_string(), Layer::Activation(Square)),
            ("Fc1".to_string(), Layer::Dense(fc1)),
            ("Act2".to_string(), Layer::Activation(Square)),
            ("Fc2".to_string(), Layer::Dense(fc2)),
        ],
    )
}

/// A pooled variant of FxHENN-MNIST (CryptoNets-style): the first dense
/// layer is preceded by 2x2 average pooling, shrinking Fc1 from
/// 845 -> 100 to 245 -> 100 weights — an architecture-exploration data
/// point for the framework-flexibility claim of Sec. VII-B.
pub fn fxhenn_mnist_pooled(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = Conv2d::new(
        5,
        1,
        (5, 5),
        (2, 2),
        uniform_weights(&mut rng, 5 * 25, 0.2),
        uniform_weights(&mut rng, 5, 0.1),
    );
    // conv out (5, 13, 13); pool 2x2/2 -> (5, 6, 6) = 180 values? No:
    // (13-2)/2+1 = 6 -> 5*36 = 180.
    let pool = AvgPool2d::new((2, 2), (2, 2));
    let fc1 = Dense::new(
        100,
        180,
        uniform_weights(&mut rng, 100 * 180, 0.07),
        uniform_weights(&mut rng, 100, 0.1),
    );
    let fc2 = Dense::new(
        10,
        100,
        uniform_weights(&mut rng, 10 * 100, 0.1),
        uniform_weights(&mut rng, 10, 0.1),
    );
    Network::new(
        "FxHENN-MNIST-pooled",
        &[1, 29, 29],
        vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Act1".to_string(), Layer::Activation(Square)),
            ("Pool1".to_string(), Layer::AvgPool(pool)),
            ("Fc1".to_string(), Layer::Dense(fc1)),
            ("Act2".to_string(), Layer::Activation(Square)),
            ("Fc2".to_string(), Layer::Dense(fc2)),
        ],
    )
}

/// A miniature CryptoNets-style network exercising the full layer zoo:
/// convolution, square activation, average pooling, folded batch norm
/// and a dense classifier — sized for toy CKKS parameters.
pub fn toy_cryptonets_like(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = Conv2d::new(
        2,
        1,
        (3, 3),
        (1, 1),
        uniform_weights(&mut rng, 2 * 9, 0.3),
        uniform_weights(&mut rng, 2, 0.1),
    );
    // input 9x9 -> (2, 7, 7) = 98 values
    let pool = AvgPool2d::new((2, 2), (2, 2)); // -> (2, 3, 3) = 18 values
    let bn = ChannelScale::from_batch_norm(
        &[1.1, 0.9],
        &[0.05, -0.05],
        &[0.1, -0.1],
        &[1.0, 1.2],
        1e-5,
    );
    let fc = Dense::new(
        4,
        18,
        uniform_weights(&mut rng, 4 * 18, 0.25),
        uniform_weights(&mut rng, 4, 0.1),
    );
    Network::new(
        "Toy-CryptoNets-like",
        &[1, 9, 9],
        vec![
            ("Cnv1".to_string(), Layer::Conv(conv)),
            ("Act1".to_string(), Layer::Activation(Square)),
            ("Pool1".to_string(), Layer::AvgPool(pool)),
            ("Bn1".to_string(), Layer::Scale(bn)),
            ("Fc1".to_string(), Layer::Dense(fc)),
        ],
    )
}

/// Deterministic synthetic input image for a network (values in
/// `[-0.5, 0.5]`, standing in for normalized dataset pixels).
pub fn synthetic_input(net: &Network, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let len: usize = net.input_shape().iter().product();
    Tensor::from_data(
        net.input_shape(),
        (0..len).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_network_shapes() {
        let net = fxhenn_mnist(42);
        assert_eq!(net.layer_count(), 5);
        assert_eq!(net.input_shape(), &[1, 29, 29]);
        let names: Vec<&str> = net.layers().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Cnv1", "Act1", "Fc1", "Act2", "Fc2"]);
        let out = net.forward(&synthetic_input(&net, 1));
        assert_eq!(out.shape(), &[10]);
    }

    #[test]
    fn mnist_conv_produces_845_values() {
        let net = fxhenn_mnist(42);
        let trace = net.forward_trace(&synthetic_input(&net, 1));
        assert_eq!(trace[0].len(), 5 * 13 * 13); // 845, paper Sec. V-A
        assert_eq!(trace[2].len(), 100);
        assert_eq!(trace[4].len(), 10);
    }

    #[test]
    fn cifar10_network_shapes() {
        let net = fxhenn_cifar10(42);
        let names: Vec<&str> = net.layers().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Cnv1", "Act1", "Cnv2", "Act2", "Fc2"]);
        let trace = net.forward_trace(&synthetic_input(&net, 1));
        assert_eq!(trace[0].len(), 83 * 13 * 13); // 14_027
        assert_eq!(trace[2].len(), 112 * 5 * 5); // 2_800
        assert_eq!(trace[4].len(), 10);
    }

    #[test]
    fn mnist_mac_counts_match_paper_scale() {
        // Table IV reports Cnv1 = 2.11e4 MACs and Fc1 = 8.45e4 MACs.
        let net = fxhenn_mnist(42);
        let (_, cnv) = &net.layers()[0];
        if let Layer::Conv(c) = cnv {
            assert_eq!(c.mac_count(29, 29), 5 * 13 * 13 * 25); // 21_125 ≈ 2.11e4
        } else {
            panic!("first layer is conv");
        }
        let (_, fc1) = &net.layers()[2];
        if let Layer::Dense(d) = fc1 {
            assert_eq!(d.mac_count(), 84_500); // 8.45e4 exactly
        } else {
            panic!("third layer is dense");
        }
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        assert_eq!(fxhenn_mnist(7), fxhenn_mnist(7));
        assert_ne!(fxhenn_mnist(7), fxhenn_mnist(8));
    }

    #[test]
    fn toy_network_runs_and_is_bounded() {
        let net = toy_mnist_like(3);
        let out = net.forward(&synthetic_input(&net, 3));
        assert_eq!(out.shape(), &[4]);
        assert!(out.max_abs() < 100.0, "toy outputs stay numerically tame");
    }

    #[test]
    fn forward_trace_matches_forward() {
        let net = toy_mnist_like(5);
        let input = synthetic_input(&net, 5);
        let trace = net.forward_trace(&input);
        assert_eq!(trace.last().unwrap(), &net.forward(&input));
        assert_eq!(trace.len(), net.layer_count());
    }

    #[test]
    fn multiplication_depth_is_five() {
        assert_eq!(fxhenn_mnist(1).multiplication_depth(), 5);
        assert_eq!(fxhenn_cifar10(1).multiplication_depth(), 5);
    }

    #[test]
    fn pooled_mnist_shrinks_fc1() {
        let net = fxhenn_mnist_pooled(42);
        let trace = net.forward_trace(&synthetic_input(&net, 1));
        assert_eq!(trace[0].len(), 845);
        assert_eq!(trace[2].len(), 5 * 6 * 6); // pooled to 180
        assert_eq!(trace[5].len(), 10);
        assert_eq!(net.multiplication_depth(), 6);
    }

    #[test]
    fn cryptonets_like_network_runs_all_layer_kinds() {
        let net = toy_cryptonets_like(3);
        let kinds: Vec<&str> = net.layers().iter().map(|(_, l)| l.kind_name()).collect();
        assert_eq!(kinds, ["Cnv", "Act", "Pool", "Bn", "Fc"]);
        let trace = net.forward_trace(&synthetic_input(&net, 3));
        assert_eq!(trace[0].shape(), &[2, 7, 7]);
        assert_eq!(trace[2].shape(), &[2, 3, 3]);
        assert_eq!(trace[3].shape(), &[2, 3, 3]);
        assert_eq!(trace[4].shape(), &[4]);
    }

    #[test]
    fn pooling_contributes_no_macs() {
        let with_pool = toy_cryptonets_like(3);
        // MAC total = conv + scale + dense.
        let conv_macs = 2 * 7 * 7 * 9;
        let scale_macs = 2 * 3 * 3;
        let fc_macs = 4 * 18;
        assert_eq!(with_pool.total_macs(), conv_macs + scale_macs + fc_macs);
    }
}
