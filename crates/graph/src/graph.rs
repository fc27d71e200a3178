//! The execution graph: a DAG of named, typed layer nodes with inferred
//! shapes.

use crate::op::{GraphError, LayerRole, Op, OpClass};

/// Identifier of a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The underlying index (nodes are stored in topological insertion
    /// order).
    pub fn index(&self) -> usize {
        self.0
    }

    /// A `NodeId` for a raw index, for tooling that reassembles graphs from
    /// untrusted sources (see [`Graph::from_raw_parts`]). Ids built this way
    /// carry no validity guarantee until the graph is verified.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

/// One layer in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Hierarchical dot-separated name, e.g.
    /// `encoder.stage0.block1.attn.sdpa`.
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Functional role for paper-style aggregation.
    pub role: LayerRole,
    /// Input edges (earlier nodes only; the graph is built topologically).
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub shape: Vec<usize>,
}

impl Node {
    /// FLOPs of this node.
    pub fn flops(&self, graph: &Graph) -> u64 {
        let in_shapes: Vec<&[usize]> = self
            .inputs
            .iter()
            .map(|id| graph.node(*id).shape.as_slice())
            .collect();
        self.op.flops(&in_shapes, &self.shape)
    }

    /// Parameter count of this node.
    pub fn params(&self, graph: &Graph) -> u64 {
        let in_shapes: Vec<&[usize]> = self
            .inputs
            .iter()
            .map(|id| graph.node(*id).shape.as_slice())
            .collect();
        self.op.params(&in_shapes)
    }

    /// First-order DRAM bytes of this node: read every input and every
    /// parameter, write the output once, 4-byte elements. The data movers
    /// `Input` and `Identity` count zero. Traced byte totals, static
    /// profiles and plan records all use this one model.
    pub fn io_bytes(&self, graph: &Graph) -> u64 {
        if matches!(self.op, Op::Input { .. } | Op::Identity) {
            return 0;
        }
        let in_bytes: u64 = self
            .inputs
            .iter()
            .map(|id| graph.node(*id).shape.iter().product::<usize>() as u64 * 4)
            .sum();
        let out_bytes = self.shape.iter().product::<usize>() as u64 * 4;
        in_bytes + out_bytes + self.params(graph) * 4
    }
}

/// A static execution graph for one model configuration at one input size.
///
/// Nodes are appended in topological order; a node may only consume
/// previously-added nodes, which makes cycles unrepresentable.
///
/// # Examples
///
/// ```
/// use vit_graph::{Graph, Op, LayerRole};
///
/// # fn main() -> Result<(), vit_graph::GraphError> {
/// let mut g = Graph::new("tiny");
/// let x = g.input("image", &[1, 3, 8, 8])?;
/// let conv = g.add(
///     "stem",
///     Op::Conv2d {
///         out_channels: 4,
///         kernel: (3, 3),
///         stride: (1, 1),
///         pad: (1, 1),
///         groups: 1,
///         bias: true,
///     },
///     LayerRole::Backbone,
///     &[x],
/// )?;
/// g.set_output(conv);
/// assert_eq!(g.node(conv).shape, vec![1, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    /// Model name, e.g. `segformer-b2`.
    pub model: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    output: Option<NodeId>,
}

impl Graph {
    /// Creates an empty graph for the named model.
    pub fn new(model: impl Into<String>) -> Self {
        Graph {
            model: model.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            output: None,
        }
    }

    /// Adds a graph input with a fixed shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when a node with the same name exists.
    pub fn input(&mut self, name: &str, shape: &[usize]) -> Result<NodeId, GraphError> {
        let id = self.add(
            name,
            Op::Input {
                shape: shape.to_vec(),
            },
            LayerRole::Other,
            &[],
        )?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a node, inferring its output shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when the name is duplicated, an input id is
    /// unknown, or shape inference fails.
    pub fn add(
        &mut self,
        name: &str,
        op: Op,
        role: LayerRole,
        inputs: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(GraphError {
                node: name.to_string(),
                msg: "duplicate node name".to_string(),
            });
        }
        for id in inputs {
            if id.0 >= self.nodes.len() {
                return Err(GraphError {
                    node: name.to_string(),
                    msg: format!("unknown input node id {}", id.0),
                });
            }
        }
        let in_shapes: Vec<&[usize]> = inputs
            .iter()
            .map(|id| self.nodes[id.0].shape.as_slice())
            .collect();
        let shape = op.infer_shape(name, &in_shapes)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_string(),
            op,
            role,
            inputs: inputs.to_vec(),
            shape,
        });
        Ok(id)
    }

    /// Reassembles a graph from raw parts **without any validation** —
    /// the escape hatch for deserializers and verification tooling that
    /// must be able to represent malformed graphs (the normal builder,
    /// [`Graph::add`], makes them unconstructible). Run
    /// [`Graph::check_invariants`] (or the full `vit-verify` pass) before
    /// trusting the result.
    pub fn from_raw_parts(
        model: impl Into<String>,
        nodes: Vec<Node>,
        inputs: Vec<NodeId>,
        output: Option<NodeId>,
    ) -> Self {
        Graph {
            model: model.into(),
            nodes,
            inputs,
            output,
        }
    }

    /// Re-checks the structural invariants [`Graph::add`] establishes:
    /// unique node names, topologically ordered input edges, in-range
    /// input/output ids, operator arity, and stored shapes equal to
    /// re-inferred shapes. Graphs built through the public builder always
    /// pass; graphs from [`Graph::from_raw_parts`] may not.
    ///
    /// This is the cheap structural gate the DRT engine runs in debug
    /// builds; the `vit-verify` crate layers full multi-code diagnostics
    /// on top.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`GraphError`].
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            if !seen.insert(n.name.as_str()) {
                return Err(GraphError {
                    node: n.name.clone(),
                    msg: "duplicate node name".to_string(),
                });
            }
            for id in &n.inputs {
                if id.0 >= i {
                    return Err(GraphError {
                        node: n.name.clone(),
                        msg: format!(
                            "input edge to node {} breaks topological order (node index {i})",
                            id.0
                        ),
                    });
                }
            }
            let in_shapes: Vec<&[usize]> = n
                .inputs
                .iter()
                .map(|id| self.nodes[id.0].shape.as_slice())
                .collect();
            let inferred = n.op.infer_shape(&n.name, &in_shapes)?;
            if inferred != n.shape {
                return Err(GraphError {
                    node: n.name.clone(),
                    msg: format!(
                        "stored shape {:?} disagrees with re-inferred shape {inferred:?}",
                        n.shape
                    ),
                });
            }
        }
        for id in &self.inputs {
            let node = self.nodes.get(id.0).ok_or_else(|| GraphError {
                node: format!("input #{}", id.0),
                msg: "graph input id out of range".to_string(),
            })?;
            if !matches!(node.op, Op::Input { .. }) {
                return Err(GraphError {
                    node: node.name.clone(),
                    msg: "graph input list points at a non-input node".to_string(),
                });
            }
        }
        if let Some(out) = self.output {
            if out.0 >= self.nodes.len() {
                return Err(GraphError {
                    node: format!("output #{}", out.0),
                    msg: "graph output id out of range".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Marks the graph output.
    pub fn set_output(&mut self, id: NodeId) {
        self.output = Some(id);
    }

    /// The graph output node, if set.
    pub fn output(&self) -> Option<NodeId> {
        self.output
    }

    /// The graph input nodes.
    pub fn input_ids(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Node by id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterator of `(NodeId, &Node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Finds a node by exact name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Total FLOPs of the whole graph.
    pub fn total_flops(&self) -> u64 {
        self.iter().map(|(_, n)| n.flops(self)).sum()
    }

    /// Total parameter count of the whole graph.
    pub fn total_params(&self) -> u64 {
        self.iter().map(|(_, n)| n.params(self)).sum()
    }

    /// Total FLOPs restricted to one operator class.
    pub fn flops_by_class(&self, class: OpClass) -> u64 {
        self.iter()
            .filter(|(_, n)| n.op.class() == class)
            .map(|(_, n)| n.flops(self))
            .sum()
    }

    /// Total FLOPs of nodes whose role is in the decoder.
    pub fn decoder_flops(&self) -> u64 {
        self.iter()
            .filter(|(_, n)| n.role.is_decoder())
            .map(|(_, n)| n.flops(self))
            .sum()
    }

    /// Reference count of every node (how many consumers it has, plus one
    /// for the graph output). Used by the executor to free intermediates.
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for id in &n.inputs {
                counts[id.0] += 1;
            }
        }
        if let Some(out) = self.output {
            counts[out.0] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(out: usize) -> Op {
        Op::Conv2d {
            out_channels: out,
            kernel: (3, 3),
            stride: (1, 1),
            pad: (1, 1),
            groups: 1,
            bias: false,
        }
    }

    #[test]
    fn build_linear_chain() {
        let mut g = Graph::new("chain");
        let x = g.input("in", &[1, 3, 8, 8]).unwrap();
        let a = g.add("conv1", conv(8), LayerRole::Backbone, &[x]).unwrap();
        let b = g.add("conv2", conv(16), LayerRole::Backbone, &[a]).unwrap();
        g.set_output(b);
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(b).shape, vec![1, 16, 8, 8]);
        assert_eq!(g.output(), Some(b));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = Graph::new("dup");
        g.input("in", &[1, 1, 2, 2]).unwrap();
        assert!(g.input("in", &[1, 1, 2, 2]).is_err());
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = Graph::new("bad");
        let err = g
            .add("orphan", conv(1), LayerRole::Other, &[NodeId(5)])
            .unwrap_err();
        assert!(err.msg.contains("unknown input"));
    }

    #[test]
    fn shape_error_propagates_node_name() {
        let mut g = Graph::new("bad-shape");
        let x = g.input("in", &[1, 3, 2, 2]).unwrap();
        // 7x7 kernel on an unpadded 2x2 image cannot work.
        let op = Op::Conv2d {
            out_channels: 4,
            kernel: (7, 7),
            stride: (1, 1),
            pad: (0, 0),
            groups: 1,
            bias: false,
        };
        let err = g.add("stem", op, LayerRole::Backbone, &[x]).unwrap_err();
        assert_eq!(err.node, "stem");
    }

    #[test]
    fn flops_aggregation_by_class() {
        let mut g = Graph::new("agg");
        let x = g.input("in", &[1, 4, 4, 4]).unwrap();
        let c = g.add("conv", conv(4), LayerRole::Backbone, &[x]).unwrap();
        let r = g.add("relu", Op::Relu, LayerRole::Backbone, &[c]).unwrap();
        g.set_output(r);
        let conv_flops = g.flops_by_class(OpClass::Conv);
        let elem_flops = g.flops_by_class(OpClass::Elementwise);
        assert_eq!(conv_flops, 4 * 4 * 4 * 4 * 9);
        assert_eq!(elem_flops, 4 * 4 * 4);
        assert_eq!(g.total_flops(), conv_flops + elem_flops);
    }

    #[test]
    fn consumer_counts_include_output() {
        let mut g = Graph::new("rc");
        let x = g.input("in", &[1, 1, 2, 2]).unwrap();
        let a = g.add("id1", Op::Identity, LayerRole::Other, &[x]).unwrap();
        let b = g.add("id2", Op::Identity, LayerRole::Other, &[x]).unwrap();
        let s = g.add("sum", Op::Add, LayerRole::Other, &[a, b]).unwrap();
        g.set_output(s);
        let counts = g.consumer_counts();
        assert_eq!(counts[x.index()], 2);
        assert_eq!(counts[a.index()], 1);
        assert_eq!(counts[s.index()], 1);
    }

    #[test]
    fn find_by_name() {
        let mut g = Graph::new("find");
        let x = g.input("image", &[1, 1, 2, 2]).unwrap();
        assert_eq!(g.find("image"), Some(x));
        assert_eq!(g.find("missing"), None);
    }
}
