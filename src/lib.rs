//! PUMA: a Programmable Ultra-efficient Memristor-based Accelerator for
//! Machine Learning Inference — full-stack Rust reproduction of the
//! ASPLOS 2019 paper.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`core`] — fixed point, tensors, hardware config,
//!   area/power/timing models (Table 3);
//! - [`isa`] — the instruction set, encoding, assembler (Table 2);
//! - [`xbar`] — the analog crossbar substrate (Fig. 2);
//! - [`sim`] — PUMAsim, the functional/timing/energy simulator;
//! - [`compiler`] — graph → partition → schedule → codegen
//!   (Figs. 7-10);
//! - [`nn`] — layer builders, the Table 5 model zoo, CNN loop
//!   codegen, the analytic performance model, and the Fig. 13 trainer;
//! - [`baselines`] — CPU/GPU/TPU/ISAAC comparison models.
//!
//! The [`runtime`] module adds the host-side glue for running compiled
//! models end to end.
//!
//! # Examples
//!
//! The paper's Fig. 7 example, compiled and executed:
//!
//! ```
//! use puma::compiler::graph::Model;
//! use puma::runtime::ModelRunner;
//! use puma_core::config::NodeConfig;
//! use puma_core::tensor::Matrix;
//!
//! # fn main() -> puma_core::Result<()> {
//! let mut m = Model::new("example");
//! let x = m.input("x", 64);
//! let a = m.constant_matrix("A", Matrix::from_fn(64, 64, |r, c| ((r + c) % 5) as f32 * 0.01));
//! let ax = m.mvm(a, x)?;
//! let z = m.tanh(ax);
//! m.output("z", z);
//!
//! let mut runner = ModelRunner::functional(&m, &NodeConfig::default())?;
//! let out = runner.run(&[("x", vec![0.1; 64])])?;
//! assert_eq!(out["z"].len(), 64);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use puma_baselines as baselines;
pub use puma_compiler as compiler;
pub use puma_core as core;
pub use puma_isa as isa;
pub use puma_nn as nn;
pub use puma_sim as sim;
pub use puma_xbar as xbar;

pub mod runtime;
