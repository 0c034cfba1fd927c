//! Deeply nested programs must not overflow the stack on the way to the
//! call graph and its dominators: the encloser walk and both depth-first
//! walks of the dominator tree are iterative. The program is built and
//! analyzed on a thread with a 1 MiB stack, where one stack frame per
//! nesting level is far more than fits.

use stcfa_apps::callgraph::CallGraph;
use stcfa_core::{Analysis, QueryEngine};
use stcfa_lambda::{Program, ProgramBuilder};
use stcfa_rules::{dominated_redundant, dominators, ExtDb};

const DEPTH: usize = 20_000;

/// `let f₍ₙ₋₁₎ = fn p => p in … let f₁ = fn p => f₂ p in
/// let f₀ = fn p => f₁ p in f₀ 0`: a let chain `n` deep whose call
/// graph is a chain `n` long, so the dominator tree is as deep as the
/// program.
fn call_chain(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let fs: Vec<_> = (0..n).map(|i| b.fresh_var(&format!("f{i}"))).collect();
    let f0 = b.var(fs[0]);
    let zero = b.int(0);
    let mut body = b.app(f0, zero);
    for i in 0..n {
        let p = b.fresh_var("p");
        let arg = b.var(p);
        let lam_body = if i + 1 == n {
            arg
        } else {
            let next = b.var(fs[i + 1]);
            b.app(next, arg)
        };
        let rhs = b.lam(p, lam_body);
        body = b.let_(fs[i], rhs, body);
    }
    b.finish(body).expect("well-formed")
}

#[test]
fn deep_call_chain_fits_in_a_small_stack() {
    // Validation still recurses per nesting level, so the program is
    // built on a large stack and only analyzed on the small one.
    let program = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| call_chain(DEPTH))
        .expect("spawn")
        .join()
        .expect("built");
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || {
            let analysis = Analysis::run(&program).expect("analyzable");
            let engine = QueryEngine::freeze(&analysis);
            let cg = CallGraph::build_with_engine(&program, &engine);
            assert_eq!(cg.graph().node_count(), DEPTH + 1);

            let db = ExtDb::new(&program, &analysis, &engine);
            let dom = dominators(&db);
            // `fᵢ`'s abstraction has label `i`: the call graph is
            // root → 0 → 1 → … → n-1.
            let (first, last) = (0, DEPTH - 1);
            assert!(dom.strictly_dominates(dom.entry(), last));
            assert!(dom.strictly_dominates(first, last));
            assert_eq!(dom.idom(last), Some(last - 1));
            assert!(dominated_redundant(&db).is_empty());
        })
        .expect("spawn")
        .join()
        .expect("no stack overflow");
}
