//! # sfetch-cfg
//!
//! The static program model of the `stream-fetch` simulator: control-flow
//! graphs, branch-behaviour models, a synthetic program generator, profile
//! data, code-layout passes, and the [`CodeImage`] — the *static basic block
//! dictionary* the paper's trace-driven simulator uses to fetch down wrong
//! paths (§4.1).
//!
//! The paper evaluates its front-end on SPECint2000 binaries in two flavours:
//! a *baseline* layout and a *layout-optimized* one (produced by the `spike`
//! tool, a Pettis–Hansen style profile-guided reorderer). This crate supplies
//! the same two flavours for synthetic programs:
//!
//! 1. build or generate a [`Cfg`] ([`CfgBuilder`], [`gen::ProgramGenerator`]),
//! 2. obtain an [`EdgeProfile`] (the `sfetch-trace` crate runs the program),
//! 3. choose a [`layout::Layout`] — [`layout::natural`] (source order, the
//!    baseline) or [`layout::pettis_hansen`] (the optimized layout),
//! 4. materialize a [`CodeImage`]: concrete instruction addresses, branch
//!    senses flipped so hot successors fall through, and fix-up jumps where
//!    a block's successor could not be made adjacent.
//!
//! The image is what fetch engines and the architectural executor both walk,
//! so speculative (wrong-path) fetch sees exactly the bytes a real binary
//! would provide.
//!
//! ```
//! use sfetch_cfg::{gen::{GenParams, ProgramGenerator}, layout, CodeImage};
//!
//! let cfg = ProgramGenerator::new(GenParams::small(), 42).generate();
//! let lay = layout::natural(&cfg);
//! let image = CodeImage::build(&cfg, &lay);
//! assert!(image.len_insts() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod builder;
pub mod control;
pub mod gen;
pub mod graph;
pub mod image;
pub mod layout;
pub mod normalize;
pub mod profile;
pub mod runs;

pub use behavior::{CondBehavior, IndirectSelect, TripCount};
pub use builder::CfgBuilder;
pub use control::{CondCtl, ControlTable, IndirectCtl};
pub use graph::{BasicBlock, BlockId, Cfg, FuncId, Function, Terminator};
pub use image::{CodeImage, ControlAttr, ImageInst};
pub use layout::{Layout, LayoutKind};
pub use profile::EdgeProfile;
pub use runs::RunTable;
