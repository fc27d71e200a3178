//! # vit-graph
//!
//! The execution-graph IR of the DRT-ViT reproduction: typed layer
//! operators ([`Op`]) with full hyper-parameter metadata, a topologically
//! ordered DAG ([`Graph`]) with shape inference, analytical FLOPs and
//! parameter counting, and an interpreter ([`Executor`]) that runs graphs on
//! real tensors with deterministic, *slice-consistent* synthetic weights.
//!
//! Slice consistency is what makes dynamic pruning experiments meaningful
//! with synthetic weights: a pruned layer that keeps the first `k` channels
//! uses exactly the same weight values as the full model's first `k`
//! channels — the paper's "one set of model weights" property.
//!
//! # Examples
//!
//! ```
//! use vit_graph::{Executor, Graph, LayerRole, Op};
//! use vit_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("demo");
//! let x = g.input("image", &[1, 3, 8, 8])?;
//! let conv = g.add(
//!     "stem",
//!     Op::Conv2d { out_channels: 8, kernel: (3, 3), stride: (1, 1),
//!                  pad: (1, 1), groups: 1, bias: true },
//!     LayerRole::Backbone,
//!     &[x],
//! )?;
//! g.set_output(conv);
//!
//! println!("FLOPs: {}", g.total_flops());
//! let mut exec = Executor::new(42);
//! let out = exec.run(&g, &[Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, 7)])?;
//! assert_eq!(out.shape(), &[1, 8, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod exec;
#[allow(clippy::module_inception)]
mod graph;
mod op;

pub use exec::{
    check_node_guard, generate_node_weights, node_weight_shapes, ExecBackend, ExecError,
    ExecOptions, ExecScratch, Executor, RunContext, WeightGen, LAYER_NORM_EPS,
};
pub use graph::{Graph, Node, NodeId};
pub use op::{GraphError, LayerRole, Op, OpClass};
