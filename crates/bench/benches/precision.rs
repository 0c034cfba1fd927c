//! Adaptive precision scheduler economics (EXPERIMENTS.md E17): what a
//! graded answer costs relative to the pieces it is built from — the
//! always-linear Tier 0 lookup, the Tier-1 polyvariant build and the
//! Tier-2 whole-program cubic run, each paid at most once per snapshot.
//!
//! Four measurements over the largest corpus program:
//!
//! 1. `tier0_all_sites` — the frozen engine answering every query site.
//!    The floor the scheduler must not disturb for unsuspicious sites.
//! 2. `cubic_whole` — one whole-program `Cfa0`, the Tier-2 run.
//! 3. `poly_build` — one `PolyAnalysis` build with the scheduler's
//!    options, the Tier-1 run.
//! 4. `scheduled_all_sites/<budget>` — a fresh scheduler over every
//!    site at budget 0 (never run the cubic tier) and at the default.
//!    Counters report the suspicious sites, the cubic runs
//!    (`cone_runs`, at most one) and the refined answers. The
//!    acceptance bar: the default run costs at most 1.25 ×
//!    (`poly_build` + `cubic_whole`) from the same run.

use stcfa_cfa0::Cfa0;
use stcfa_core::{Analysis, AnalysisOptions, PolyAnalysis, PolyOptions, QueryEngine};
use stcfa_devkit::bench::{BenchmarkId, Criterion};
use stcfa_devkit::{criterion_group, criterion_main};
use stcfa_lambda::{ExprId, ExprKind, Program};
use stcfa_precision::{PrecisionScheduler, SuspicionIndex};
use std::hint::black_box;

fn corpus() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).expect("readable");
            (name, Program::parse(&src).expect("corpus parses"))
        })
        .collect()
}

/// The query sites the scheduler serves: the root plus every
/// application's operator (the `--call-sites` surface).
fn sites(p: &Program) -> Vec<ExprId> {
    let mut out = vec![p.root()];
    for app in p.app_sites() {
        if let ExprKind::App { func, .. } = p.kind(app) {
            out.push(*func);
        }
    }
    out
}

fn bench_precision(c: &mut Criterion) {
    let (name, program) = corpus()
        .into_iter()
        .max_by_key(|(_, p)| p.size())
        .expect("non-empty corpus");
    let analysis = Analysis::run(&program).expect("corpus analyzes");
    let engine = QueryEngine::freeze(&analysis);
    engine.prepare();
    let suspicion = SuspicionIndex::build(&analysis, &engine);
    let all_sites = sites(&program);

    let mut group = c.benchmark_group("precision");
    group.sample_size(10);

    group.bench_with_input(
        BenchmarkId::new("tier0_all_sites", &name),
        &all_sites,
        |b, sites| {
            b.iter(|| {
                let mut total = 0usize;
                for &e in sites {
                    total += engine.labels_of(e).len();
                }
                black_box(total)
            })
        },
    );
    group.counter("sites", all_sites.len() as u64);

    group.bench_with_input(BenchmarkId::new("cubic_whole", &name), &program, |b, p| {
        b.iter(|| black_box(Cfa0::analyze(p).labels(p, p.root()).len()))
    });

    // Tier 1 exactly as the scheduler builds it.
    let poly_options = PolyOptions {
        base: AnalysisOptions {
            policy: analysis.policy(),
            max_nodes: None,
        },
        ..PolyOptions::default()
    };
    group.bench_with_input(BenchmarkId::new("poly_build", &name), &program, |b, p| {
        b.iter(|| black_box(PolyAnalysis::run_with(p, poly_options).is_ok()))
    });

    let suspicious = all_sites
        .iter()
        .filter(|&&e| suspicion.of_expr(&engine, e) > 0)
        .count();
    for (label, budget) in [
        ("budget0", 0usize),
        ("default", PrecisionScheduler::DEFAULT_BUDGET),
    ] {
        group.bench_with_input(
            BenchmarkId::new("scheduled_all_sites", format!("{name}/{label}")),
            &all_sites,
            |b, sites| {
                b.iter(|| {
                    // A fresh scheduler per iteration: the per-snapshot
                    // tiers and the answer cache would otherwise turn
                    // every run after the first into lookups.
                    let sched =
                        PrecisionScheduler::new(suspicion.clone(), analysis.policy(), budget);
                    let mut total = 0usize;
                    for &e in sites {
                        total += sched.labels_of(&program, &engine, e).0.len();
                    }
                    black_box((total, sched.stats().cone_runs))
                })
            },
        );
        let sched = PrecisionScheduler::new(suspicion.clone(), analysis.policy(), budget);
        for &e in &all_sites {
            sched.labels_of(&program, &engine, e);
        }
        let stats = sched.stats();
        group.counter("sites", all_sites.len() as u64);
        group.counter("suspicious_sites", suspicious as u64);
        group.counter("cone_runs", stats.cone_runs);
        group.counter("refined", stats.refined);
    }

    group.finish();
}

criterion_group!(benches, bench_precision);
criterion_main!(benches);
