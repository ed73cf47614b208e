//! The PUMA compiler (§5 of the paper).
//!
//! Translates runtime-built model graphs ([`graph::Model`], the Fig. 7
//! interface) into per-core and per-tile PUMA assembly:
//!
//! 1. [`physical::tile_model`] — 2D tiling of tensors into MVMU-sized
//!    chunks (§5.2, Fig. 8);
//! 2. [`partition::partition`] — hierarchical placement onto
//!    MVMUs/cores/tiles (§5.2);
//! 3. [`schedule::schedule`] — global reverse-post-order linearization,
//!    MVM coalescing, deadlock avoidance (§5.3, Figs. 9-10);
//! 4. [`codegen::generate`] — register allocation with spilling (§5.4),
//!    load/store/send/receive insertion, FIFO virtualization (§4.2), and
//!    attribute-count assignment;
//! 5. [`shard::shard_image`] — for [`Partitioning::Sharded`] models, the
//!    single-node image is split into per-node programs with explicit
//!    inter-node sends (§3.1 node scale-out, run by `puma_sim::ClusterSim`);
//! 6. [`relocate::relocate_image`] / [`relocate::compose_fabric`] — a
//!    compiled image is base-relative, so it relocates to any free tile
//!    range by pure renumbering, and several relocated residents compose
//!    into one multi-tenant fabric image.
//!
//! # Examples
//!
//! ```
//! use puma_compiler::{compile, CompilerOptions};
//! use puma_compiler::graph::Model;
//! use puma_core::config::NodeConfig;
//! use puma_core::tensor::Matrix;
//!
//! # fn main() -> puma_core::Result<()> {
//! let mut m = Model::new("example");
//! let x = m.input("x", 128);
//! let a = m.constant_matrix("A", Matrix::from_fn(128, 128, |r, c| ((r + c) % 7) as f32 * 0.01));
//! let ax = m.mvm(a, x)?;
//! let z = m.tanh(ax);
//! m.output("z", z);
//! let compiled = compile(&m, &NodeConfig::default(), &CompilerOptions::default())?;
//! assert_eq!(compiled.stats.weight_tiles, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod codegen;
pub mod graph;
pub mod options;
pub mod partition;
pub mod physical;
pub mod relocate;
pub mod schedule;
pub mod shard;

pub use codegen::{CompileStats, CompiledModel, LogicalIo};
pub use graph::Model;
pub use options::{CompilerOptions, Partitioning, Scheduling};
pub use relocate::{compose_fabric, relocate_image, Resident};
pub use shard::shard_image;

use puma_core::config::NodeConfig;
use puma_core::error::Result;

/// Compiles a model graph to a machine image for the given configuration.
///
/// The returned image may use more tiles than `cfg.tiles_per_node`; use
/// [`fit_config`] to widen the configuration before simulation (the paper
/// scales large models across nodes the same way, §3.2.5).
///
/// # Errors
///
/// Propagates validation, placement, and emission failures.
pub fn compile(
    model: &graph::Model,
    cfg: &NodeConfig,
    options: &CompilerOptions,
) -> Result<CompiledModel> {
    let graph = physical::tile_model(model, cfg.tile.core.mvmu.dim, options.materialize_weights)?;
    let placement = partition::partition(&graph, cfg, options.partitioning)?;
    let sched = schedule::schedule(&graph, &placement, options.scheduling, options.coalesce_mvms)?;
    codegen::generate(&graph, &placement, &sched, cfg, options)
}

/// Widens a configuration so a compiled model fits: enough tiles, and
/// shared memory covering the compiler's high-water mark (rounded up to
/// 1 KB). With memory reuse enabled (the default) the high-water mark
/// stays near the paper's 64 KB; the Table 8 sizing baseline disables
/// reuse and pays for the bigger eDRAM.
pub fn fit_config(cfg: &NodeConfig, compiled: &CompiledModel) -> NodeConfig {
    let mut out = *cfg;
    out.tiles_per_node = out.tiles_per_node.max(compiled.stats.tiles_used);
    let needed = compiled.stats.max_shared_mem_bytes();
    if needed > out.tile.shared_memory_bytes {
        out.tile.shared_memory_bytes = needed.next_multiple_of(1024);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Model;
    use puma_core::tensor::Matrix;

    fn simple_model(width: usize) -> Model {
        let mut m = Model::new("simple");
        let x = m.input("x", width);
        let a = m.constant_matrix(
            "A",
            Matrix::from_fn(width, width, |r, c| 0.01 * ((r * 3 + c) % 11) as f32 - 0.05),
        );
        let ax = m.mvm(a, x).unwrap();
        let z = m.tanh(ax);
        m.output("z", z);
        m
    }

    #[test]
    fn compile_produces_valid_image() {
        let compiled =
            compile(&simple_model(300), &NodeConfig::default(), &CompilerOptions::default())
                .unwrap();
        compiled.image.validate().unwrap();
        assert_eq!(compiled.stats.weight_tiles, 9);
        assert_eq!(compiled.inputs.len(), 1);
        assert_eq!(compiled.inputs[0].chunks.len(), 3);
        assert_eq!(compiled.outputs[0].width, 300);
        assert!(compiled.stats.static_instructions > 0);
    }

    #[test]
    fn fit_config_grows_tiles() {
        let mut m = Model::new("big");
        let x = m.input("x", 128);
        let mut cur = x;
        for i in 0..40 {
            let a = m.constant_matrix(format!("A{i}"), Matrix::from_fn(128, 128, |_, _| 0.01));
            cur = m.mvm(a, cur).unwrap();
        }
        m.output("y", cur);
        let cfg = NodeConfig { tiles_per_node: 1, ..NodeConfig::default() };
        let compiled = compile(&m, &cfg, &CompilerOptions::default()).unwrap();
        let fitted = fit_config(&cfg, &compiled);
        assert!(fitted.tiles_per_node >= compiled.stats.tiles_used);
    }

    #[test]
    fn disabling_reuse_increases_memory_high_water() {
        let model = simple_model(384);
        let cfg = NodeConfig::default();
        let reuse = compile(&model, &cfg, &CompilerOptions::default()).unwrap();
        let no_reuse = compile(
            &model,
            &cfg,
            &CompilerOptions { reuse_memory: false, ..CompilerOptions::default() },
        )
        .unwrap();
        assert!(
            no_reuse.stats.max_shared_mem_bytes() >= reuse.stats.max_shared_mem_bytes(),
            "{} < {}",
            no_reuse.stats.max_shared_mem_bytes(),
            reuse.stats.max_shared_mem_bytes()
        );
    }

    #[test]
    fn coalescing_reduces_static_mvm_instructions() {
        let model = simple_model(300);
        let cfg = NodeConfig::default();
        let with = compile(&model, &cfg, &CompilerOptions::default()).unwrap();
        let without = compile(
            &model,
            &cfg,
            &CompilerOptions { coalesce_mvms: false, ..CompilerOptions::default() },
        )
        .unwrap();
        assert!(with.stats.mvm_instructions < without.stats.mvm_instructions);
        assert_eq!(without.stats.mvm_instructions, without.stats.mvm_nodes);
    }
}
