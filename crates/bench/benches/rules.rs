//! The rule layer vs its hand-fused twins: what does declarativity
//! cost? Three comparisons per program size —
//!
//! 1. the full hand-fused lint report vs the rule-backed STCFA002/004/005
//!    backend (`lint_rule_backed`, which includes `ExtDb` construction
//!    the way a cold request pays it);
//! 2. call-graph dominators as a dominator tree, cold (fresh `ExtDb`)
//!    and warm (call graph cached), next to the stratified Datalog
//!    program that specifies them, evaluated warm (`dominators_datalog`)
//!    — what the tree saves over evaluating the specification;
//! 3. taint reachability, full sweep vs a single demand-mode
//!    membership query — the asymmetry the demand evaluator exists for.
//!
//! Inputs are the parameterized cubic-family program (dense flow), a
//! seeded synthesized program (realistic shape) and lexgen at the
//! paper's scale. Sizes are kept small: the *ratios* are the result.

use stcfa_core::{Analysis, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_lambda::Program;
use stcfa_lint::{lint, lint_rule_backed, LintOptions};
use stcfa_rules::analyses::dominators_program;
use stcfa_rules::{dominators, expr_is_tainted, tainted_exprs, Evaluator, ExtDb};
use stcfa_workloads::synth::{generate, SynthConfig};
use stcfa_workloads::{cubic, lexgen};
use std::hint::black_box;

fn inputs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for &n in &[16usize, 64] {
        out.push((format!("cubic{n}"), cubic::program(n)));
    }
    out.push((
        "synth300".to_owned(),
        generate(&SynthConfig {
            seed: 7,
            target_size: 300,
            max_type_depth: 2,
            effect_prob: 0.15,
            max_tuple_width: 3,
            datatypes: true,
        }),
    ));
    out.push(("lexgen".to_owned(), lexgen::program()));
    out
}

fn bench_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("rules");
    group.sample_size(10);
    for (name, p) in inputs() {
        let a = Analysis::run(&p).unwrap();
        let q = QueryEngine::freeze(&a);
        q.prepare();

        // 1. Full hand-fused report vs the rule-backed subset backend.
        group.bench_with_input(
            BenchmarkId::new("lint_hand_fused", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| b.iter(|| black_box(lint(p, a, q, &LintOptions { threads: 1 }))),
        );
        group.bench_with_input(
            BenchmarkId::new("lint_rule_backed", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| b.iter(|| black_box(lint_rule_backed(p, a, q))),
        );

        // 2. Dominators: cold pays ExtDb + call-graph derivation, warm
        // reuses the cached call graph and measures the tree alone;
        // `dominators_datalog` evaluates the specification program on
        // the same warm tables.
        group.bench_with_input(
            BenchmarkId::new("dominators_cold", &name),
            &(&p, &a, &q),
            |b, (p, a, q)| {
                b.iter(|| {
                    let db = ExtDb::new(p, a, q);
                    black_box(dominators(&db))
                })
            },
        );
        let db = ExtDb::new(&p, &a, &q);
        db.callgraph();
        group.bench_with_input(BenchmarkId::new("dominators_warm", &name), &db, |b, db| {
            b.iter(|| black_box(dominators(db)))
        });
        group.bench_with_input(
            BenchmarkId::new("dominators_datalog", &name),
            &db,
            |b, db| {
                b.iter(|| {
                    let (spec, _, dom) = dominators_program();
                    let mut ev = Evaluator::new(&spec, db).expect("program is well-formed");
                    ev.run();
                    black_box(ev.pairs(dom))
                })
            },
        );

        // 3. Taint: the whole-program sweep vs one demand-mode
        // membership question at the root, same sources (the
        // effectful-bodied labels, or label 0 when there are none).
        let sources: Vec<_> = {
            let eff = db.effects();
            let mut s: Vec<_> = p
                .all_labels()
                .filter(|&l| match p.kind(p.lam_of_label(l)) {
                    stcfa_lambda::ExprKind::Lam { body, .. } => eff.is_effectful(*body),
                    _ => false,
                })
                .collect();
            if s.is_empty() {
                s.extend(p.all_labels().take(1));
            }
            s
        };
        group.bench_with_input(
            BenchmarkId::new("taint_full", &name),
            &(&db, &sources),
            |b, (db, sources)| b.iter(|| black_box(tainted_exprs(db, sources))),
        );
        let root = p.root();
        group.bench_with_input(
            BenchmarkId::new("taint_demand_root", &name),
            &(&db, &sources),
            |b, (db, sources)| b.iter(|| black_box(expr_is_tainted(db, sources, root))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rules);
criterion_main!(benches);
