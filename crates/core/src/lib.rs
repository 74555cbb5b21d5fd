//! # FxHENN — FPGA acceleration framework for HE-CNN inference
//!
//! A from-scratch Rust reproduction of *"FxHENN: FPGA-based acceleration
//! framework for homomorphic encrypted CNN inference"* (HPCA 2023):
//! a full RNS-CKKS scheme, LoLa-style HE-CNN lowering, calibrated FPGA
//! resource/latency models, automatic design space exploration and a
//! cycle simulator — everything needed to regenerate the paper's tables
//! and figures without an FPGA on the desk (see DESIGN.md for the
//! hardware substitution rationale).
//!
//! ## Quickstart
//!
//! ```
//! use fxhenn::{generate_accelerator, CkksParams, FpgaDevice};
//! use fxhenn::nn::fxhenn_mnist;
//!
//! # fn main() -> Result<(), fxhenn::FlowError> {
//! let network = fxhenn_mnist(42);
//! let params = CkksParams::fxhenn_mnist();     // N = 8192, L = 7, 128-bit
//! let device = FpgaDevice::acu9eg();           // 2520 DSP, 912 BRAM36K
//!
//! let report = generate_accelerator(&network, &params, &device)?;
//! println!(
//!     "{} on {}: {:.3} s/inference",
//!     report.network_name, report.device_name, report.latency_s()
//! );
//! assert!(report.latency_s() < 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! * [`math`] — modular arithmetic, NTT, RNS polynomials;
//! * [`ckks`] — the RNS-CKKS scheme (every HE operation the paper
//!   accelerates);
//! * [`nn`] — CNN models, LoLa packing, the analytic HE lowering and the
//!   functional executor;
//! * [`hw`] — device catalog and the calibrated module/buffer/layer
//!   models (Eqs. 1–9);
//! * [`dse`] — exhaustive design space exploration and the no-reuse
//!   baseline;
//! * [`sim`] — cycle simulation, energy model, published baselines and
//!   functional co-simulation.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod cli;
pub mod error;
pub mod flow;
pub mod report;
pub mod serve;
pub mod telemetry;
pub mod wire;

/// Re-export of the math substrate.
pub use fxhenn_math as math;

/// Re-export of the RNS-CKKS scheme.
pub use fxhenn_ckks as ckks;

/// Re-export of networks, packing and lowering.
pub use fxhenn_nn as nn;

/// Re-export of the hardware models.
pub use fxhenn_hw as hw;

/// Re-export of the design space exploration.
pub use fxhenn_dse as dse;

/// Re-export of the simulator.
pub use fxhenn_sim as sim;

pub use error::Error;
pub use flow::{generate_accelerator, DesignReport, FlowError};
pub use serve::{
    analytic_service_estimate, AttemptError, BatchDriver, BreakerPhase, ChaosService,
    CircuitBreaker, DesignFlowService, InferenceRequest, InferenceService, ModelCache,
    ServeConfig, ServeConfigBuilder, ServeError, ServeReport, ServiceFactory, TenantId,
    VerifiedModel, WeightedFairQueue,
};
pub use telemetry::register_serve_metrics;
pub use wire::{
    ingest_ciphertext, push_frame, read_request, FrameCursor, FrameError, IngestError,
    RequestError,
};

/// Re-export of the observability substrate (collector, spans,
/// exposition, attribution).
pub use fxhenn_obs as obs;
pub use fxhenn_ckks::{CkksContext, CkksParams, SecurityLevel};
pub use fxhenn_hw::FpgaDevice;
