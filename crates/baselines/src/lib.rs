//! Analytic baseline platform models for the PUMA evaluation.
//!
//! - [`platform`] — roofline models of the Table 4 CPUs and GPUs (Haswell,
//!   Skylake, Kepler, Maxwell, Pascal) with batch-size support for the
//!   Fig. 11 comparisons;
//! - [`accelerators`] — the Table 6/7 comparison against Google's TPU and
//!   the application-specific memristor accelerator ISAAC.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod accelerators;
pub mod platform;

pub use accelerators::{isaac_row, programmability_comparison, puma_row, tpu_row, AcceleratorRow};
pub use platform::{estimate, table4_platforms, BaselineEstimate, PlatformSpec};
