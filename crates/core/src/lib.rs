//! Foundation types for the PUMA accelerator workspace.
//!
//! This crate holds everything the rest of the reproduction builds on:
//!
//! - [`fixed`] — 16-bit Q4.12 fixed-point arithmetic (§3.2.1 of the paper);
//! - [`tensor`] — dense `f32` and fixed-point matrices with the MVM
//!   reference semantics;
//! - [`config`] — the hardware configuration hierarchy
//!   (MVMU → core → tile → node) with Table 3 defaults;
//! - [`hwmodel`] — per-component area/power models and the published
//!   Table 3 constants, with scaling rules for design-space exploration;
//! - [`timing`] — per-event latency/energy models anchored at the paper's
//!   2304 ns / 43.97 nJ MVM and 52.31 TOPS/s node peak;
//! - [`ids`] — newtype identifiers for the spatial hierarchy;
//! - [`error`] — the shared [`error::PumaError`] type.
//!
//! # Examples
//!
//! ```
//! use puma_core::config::NodeConfig;
//! use puma_core::hwmodel::node_area_power;
//!
//! let node = NodeConfig::default();
//! let ap = node_area_power(&node);
//! // Table 3: ~90.6 mm² and ~62.5 W per node.
//! assert!((ap.area_mm2 - 90.6).abs() < 5.0);
//! assert!((ap.power_mw / 1000.0 - 62.5).abs() < 3.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod fixed;
pub mod hwmodel;
pub mod ids;
pub mod tensor;
pub mod timing;

pub use config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
pub use error::{PumaError, Result};
pub use fixed::Fixed;
pub use tensor::{FixedMatrix, Matrix};
