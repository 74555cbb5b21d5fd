//! The unified FxHENN error taxonomy.
//!
//! Every fallible path in the workspace reports a typed, per-crate
//! error; this module gathers them under one [`enum@Error`] so callers of
//! the top-level flow can match a single type. Conversions are provided
//! via `From`, so `?` works across crate boundaries:
//!
//! * [`fxhenn_math::MathError`] — primes, NTT tables, modular ops;
//! * [`fxhenn_ckks::ParamsError`] — parameter-set validation;
//! * [`fxhenn_ckks::EvalError`] — homomorphic evaluation;
//! * [`fxhenn_ckks::DecodeError`] — wire-format decoding;
//! * [`fxhenn_nn::BuildError`] — network construction;
//! * [`fxhenn_nn::LowerError`] — HE-CNN lowering;
//! * [`fxhenn_nn::ExecError`] — homomorphic execution;
//! * [`fxhenn_hw::ModelError`] — device/module descriptions;
//! * [`fxhenn_dse::DseError`] — design space exploration;
//! * [`fxhenn_sim::SimError`] — simulation and co-simulation;
//! * [`crate::flow::FlowError`] — the end-to-end flow;
//! * [`crate::serve::ServeError`] — the deadline-aware batch driver;
//! * [`crate::cli::CliError`] — command-line parsing.
//!
//! `Debug` delegates to `Display`, like every error in the workspace,
//! so `main() -> Result<_, Error>` prints the structured one-line
//! message rather than a nested debug tree.

use std::fmt;

/// Any FxHENN failure, wrapped with its originating subsystem.
#[derive(Clone, PartialEq)]
pub enum Error {
    /// Number-theoretic substrate failure.
    Math(fxhenn_math::MathError),
    /// CKKS parameter-set validation failure.
    Params(fxhenn_ckks::ParamsError),
    /// Homomorphic evaluation failure.
    Eval(fxhenn_ckks::EvalError),
    /// Serialized-blob decoding failure.
    Decode(fxhenn_ckks::DecodeError),
    /// Network construction failure.
    Build(fxhenn_nn::BuildError),
    /// HE-CNN lowering failure.
    Lower(fxhenn_nn::LowerError),
    /// Homomorphic execution failure.
    Exec(fxhenn_nn::ExecError),
    /// Device or module description failure.
    Model(fxhenn_hw::ModelError),
    /// Design space exploration failure.
    Dse(fxhenn_dse::DseError),
    /// Simulation or co-simulation failure.
    Sim(fxhenn_sim::SimError),
    /// End-to-end flow failure.
    Flow(crate::flow::FlowError),
    /// Batch serving failure (overload, breaker, deadline).
    Serve(crate::serve::ServeError),
    /// Command-line parsing or execution failure.
    Cli(crate::cli::CliError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Math(e) => write!(f, "math: {e}"),
            Error::Params(e) => write!(f, "params: {e}"),
            Error::Eval(e) => write!(f, "eval: {e}"),
            Error::Decode(e) => write!(f, "decode: {e}"),
            Error::Build(e) => write!(f, "build: {e}"),
            Error::Lower(e) => write!(f, "lower: {e}"),
            Error::Exec(e) => write!(f, "exec: {e}"),
            Error::Model(e) => write!(f, "model: {e}"),
            Error::Dse(e) => write!(f, "dse: {e}"),
            Error::Sim(e) => write!(f, "sim: {e}"),
            Error::Flow(e) => write!(f, "flow: {e}"),
            Error::Serve(e) => write!(f, "serve: {e}"),
            Error::Cli(e) => write!(f, "cli: {e}"),
        }
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for Error {}

macro_rules! wrap {
    ($variant:ident, $source:ty) => {
        impl From<$source> for Error {
            fn from(e: $source) -> Self {
                Error::$variant(e)
            }
        }
    };
}

wrap!(Math, fxhenn_math::MathError);
wrap!(Params, fxhenn_ckks::ParamsError);
wrap!(Eval, fxhenn_ckks::EvalError);
wrap!(Decode, fxhenn_ckks::DecodeError);
wrap!(Build, fxhenn_nn::BuildError);
wrap!(Lower, fxhenn_nn::LowerError);
wrap!(Exec, fxhenn_nn::ExecError);
wrap!(Model, fxhenn_hw::ModelError);
wrap!(Dse, fxhenn_dse::DseError);
wrap!(Sim, fxhenn_sim::SimError);
wrap!(Flow, crate::flow::FlowError);
wrap!(Serve, crate::serve::ServeError);
wrap!(Cli, crate::cli::CliError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subsystem_converts_and_prefixes() {
        let cases: Vec<(Error, &str)> = vec![
            (
                fxhenn_math::MathError::DegreeNotPowerOfTwo { n: 3 }.into(),
                "math:",
            ),
            (fxhenn_ckks::ParamsError::NoLevels.into(), "params:"),
            (
                fxhenn_ckks::EvalError::NonFiniteValue { index: 0 }.into(),
                "eval:",
            ),
            (fxhenn_ckks::DecodeError::Truncated.into(), "decode:"),
            (fxhenn_nn::LowerError::EmptyNetwork.into(), "lower:"),
            (
                fxhenn_nn::ExecError::Lower(fxhenn_nn::LowerError::EmptyNetwork).into(),
                "exec:",
            ),
            (fxhenn_hw::ModelError::NoDspSlices.into(), "model:"),
            (fxhenn_dse::DseError::EmptySearchSpace.into(), "dse:"),
            (fxhenn_sim::SimError::EmptyProgram.into(), "sim:"),
            (
                crate::serve::ServeError::Failed {
                    attempts: 2,
                    message: "boom".into(),
                }
                .into(),
                "serve:",
            ),
            (
                crate::cli::CliError::new("parse", "bad flag").into(),
                "cli:",
            ),
        ];
        for (err, prefix) in cases {
            let msg = err.to_string();
            assert!(msg.starts_with(prefix), "{msg:?} vs {prefix}");
            // Debug mirrors Display: no nested struct dumps on `?`-exit.
            assert_eq!(format!("{err:?}"), msg);
        }
    }
}
