//! Property-based tests of operator semantics, held on both executors:
//! the sequential interpreter (the reference oracle) and compiled-plan
//! replay (the production path).

use proptest::prelude::*;
use vit_graph::{Executor, Graph, LayerRole, Op, RunContext, WeightGen};
use vit_plan::ExecPlan;
use vit_tensor::Tensor;

/// Self-attention over `[1, tokens, dim]`: q/k/v projections, `Sdpa`,
/// and an output projection, with no positional term anywhere.
fn self_attention_graph(tokens: usize, dim: usize, heads: usize) -> Graph {
    let mut g = Graph::new("self-attention");
    let x = g.input("in", &[1, tokens, dim]).unwrap();
    let proj = |g: &mut Graph, name: &str, from| {
        let op = Op::Linear {
            out_features: dim,
            bias: false,
        };
        g.add(name, op, LayerRole::Backbone, &[from]).unwrap()
    };
    let (q, k, v) = (
        proj(&mut g, "q", x),
        proj(&mut g, "k", x),
        proj(&mut g, "v", x),
    );
    let a = g
        .add("sdpa", Op::Sdpa { heads }, LayerRole::Backbone, &[q, k, v])
        .unwrap();
    let o = proj(&mut g, "out", a);
    g.set_output(o);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attention_is_permutation_equivariant_for_self_attention(
        seed in any::<u64>(),
    ) {
        // Swapping two tokens in the input swaps them in the output (no
        // positional encoding inside the op), on both executors.
        let dim = 8;
        let g = self_attention_graph(4, dim, 2);
        let plan = ExecPlan::compile(&g, WeightGen::new(seed)).unwrap();
        let run = |x: &Tensor| {
            let interp = Executor::new(seed).run(&g, std::slice::from_ref(x)).unwrap();
            let replayed = plan
                .execute(std::slice::from_ref(x), &RunContext::default())
                .unwrap();
            assert_eq!(replayed, interp, "plan replay diverged from the interpreter");
            replayed
        };
        let x = Tensor::rand_uniform(&[1, 4, dim], -1.0, 1.0, seed);
        let y = run(&x);

        // Swap tokens 1 and 2.
        let mut swapped = x.clone();
        for i in 0..dim {
            swapped.set(&[0, 1, i], x.at(&[0, 2, i]));
            swapped.set(&[0, 2, i], x.at(&[0, 1, i]));
        }
        let ys = run(&swapped);
        for i in 0..dim {
            prop_assert!((y.at(&[0, 1, i]) - ys.at(&[0, 2, i])).abs() < 1e-4);
            prop_assert!((y.at(&[0, 2, i]) - ys.at(&[0, 1, i])).abs() < 1e-4);
            prop_assert!((y.at(&[0, 0, i]) - ys.at(&[0, 0, i])).abs() < 1e-4);
        }
    }
}
