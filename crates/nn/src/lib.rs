//! Neural-network layer library and model zoo for PUMA.
//!
//! - [`spec`] — shape-level workload descriptors (Table 5 / Fig. 4);
//! - [`zoo`] — the benchmark networks, reconstructed from the paper's
//!   published parameter counts, plus graph builders;
//! - [`layers`] — MLP/LSTM/RNN/Boltzmann graph builders on the compiler's
//!   Fig. 7 interface;
//! - [`cnn`] — looped CNN code generation (control flow, sliding-window
//!   input reuse, §2.3.1/§3.2.3);
//! - [`perf`] — the analytic PUMA performance model for node-scale
//!   networks;
//! - [`train`]/[`data`]/[`accuracy`] — the pure-Rust trainer, synthetic
//!   dataset, and crossbar-accuracy evaluation behind Fig. 13;
//! - [`init`] — deterministic weight initialization.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cnn;
pub mod data;
pub mod init;
pub mod layers;
pub mod perf;
pub mod spec;
pub mod train;
pub mod zoo;

pub use layers::WeightFactory;
pub use spec::{Activation, LayerSpec, WorkloadClass, WorkloadSpec};
