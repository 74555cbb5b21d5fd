//! # fxhenn-nn
//!
//! CNN models, LoLa-style ciphertext packing and the HE-CNN lowering for
//! the FxHENN reproduction: plaintext reference layers, the
//! FxHENN-MNIST / FxHENN-CIFAR10 benchmark networks, slot layouts and
//! packing builders, the analytic lowering that turns a network into a
//! per-layer HE operation program, and a functional executor that runs
//! the same program through `fxhenn-ckks` for end-to-end verification —
//! both one walk of the network (`walk`), on two backends.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod builder;
pub mod error;
pub mod executor;
pub mod layers;
pub mod lowering;
pub mod model;
pub mod noise_plan;
pub mod packing;
pub mod plain_cache;
pub mod stats;
pub mod telemetry;
pub mod tensor;
pub mod train;
mod walk;

pub use builder::{BuildError, NetworkBuilder};
pub use error::{ExecError, LowerError};
pub use layers::{AvgPool2d, ChannelScale, Conv2d, Dense, Layer, SignRelu, Square};
pub use lowering::{
    lower_network, plan_dense, plan_linear, try_lower_network, try_lower_network_with, DensePlan,
    HeCnnProgram, HeLayerClass, HeLayerPlan, Layout, LinearPlan, LoweringProfile,
};
pub use model::{fxhenn_cifar10, fxhenn_mnist, fxhenn_mnist_pooled, synthetic_input, toy_cryptonets_like, toy_mnist_like, Network};
pub use noise_plan::{
    analyze_noise, LayerNoiseProfile, NoiseInfeasible, NoiseTrajectory, DEFAULT_PLAN_FLOOR_BITS,
};
pub use packing::CtLayout;
pub use plain_cache::PlaintextCache;
pub use telemetry::{register_nn_metrics, LayerSpanLog};
pub use train::{accuracy, train, SyntheticTask, TrainConfig};
pub use tensor::Tensor;
