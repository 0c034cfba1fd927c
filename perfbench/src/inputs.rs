//! Seeded program pools and the oracles their responses are checked
//! against. Everything here runs in set-up, before any timing starts.
//!
//! The oracles are independent of the daemon: label sets come from the
//! cubic `stcfa_cfa0::Cfa0` solver and from a direct
//! `Analysis::run_with` + `QueryEngine::freeze` over the same source.
//! Consumer results (lint, rules, opt) come from direct library calls,
//! which pins the daemon's routing and rendering of them.

use std::path::Path;

use stcfa_cfa0::Cfa0;
use stcfa_core::{Analysis, AnalysisOptions, QueryEngine};
use stcfa_devkit::hash::mix64;
use stcfa_devkit::prng::Rng;
use stcfa_lambda::eval::{eval, EvalOptions};
use stcfa_lambda::{ExprId, ExprKind, Label, Program};
use stcfa_lint::{lint_with_suspicion, LintOptions};
use stcfa_opt::{optimize_with, OptOptions};
use stcfa_precision::SuspicionIndex;
use stcfa_rules::ExtDb;
use stcfa_server::proto::parse_policy;
use stcfa_workloads::modules::{concatenated, module_sources, ModulesConfig};
use stcfa_workloads::synth::{generate, SynthConfig};
use stcfa_workloads::{lexgen, life};

/// The paper's Section 5 program. Its monovariant closure outgrows any
/// linear node budget, so today's daemon refuses it with an `analysis`
/// error; a retrying client sends it again.
pub const SECTION5: &str = "let fun id x = x in ((id id) id) 1 end";

/// Query slots per program: label-set targets and call sites.
const SLOTS: usize = 8;

/// One program the workloads send, with the answers its responses must
/// agree with.
pub struct Prog {
    /// The source text without any freshness nonce.
    pub source: String,
    /// The datatype policy requested (`c1` is the daemon default).
    pub policy: &'static str,
    /// `exprs`, `labels`, `nodes`, `edges`, `comps` of a direct build.
    pub counts: [u64; 5],
    /// Query targets and their oracle answers.
    pub slots: Vec<Slot>,
    /// Direct consumer results, computed only where a workload sends them.
    pub consumers: Option<Consumers>,
}

/// One label-set target and one call site of a program.
pub struct Slot {
    pub expr: u32,
    pub site: u32,
    /// Cfa0's answers: every daemon answer must contain them.
    pub cfa0_expr: Vec<u32>,
    pub cfa0_site: Vec<u32>,
    /// The direct subtransitive answers: no graded answer exceeds them.
    pub sub_expr: Vec<u32>,
    pub sub_site: Vec<u32>,
    /// Closures the CBV evaluator saw applied at the target (as an
    /// operator occurrence): every answer must contain them. A `refined`
    /// grade may drop below Cfa0's monovariant answer (its Tier 1 is
    /// polyvariant), so this ground truth is its lower bound.
    pub run_expr: Vec<u32>,
    pub run_site: Vec<u32>,
}

/// Direct results of the engine consumers on one program.
pub struct Consumers {
    pub lint: u64,
    pub dominators: u64,
    pub taint: u64,
    pub opt: u64,
}

impl Prog {
    /// Whether answers must equal Cfa0's rather than contain them:
    /// `tests/differential.rs` asserts equality for synthesized programs
    /// (non-recursive datatypes) under the exact datatype policy.
    pub fn exact(&self) -> bool {
        self.policy == "exact"
    }
}

/// Builds the oracle for one source, or `None` when the source does not
/// parse and analyze under `policy` (the generators then draw again).
fn oracle(source: String, policy: &'static str, rng: &mut Rng, consumers: bool) -> Option<Prog> {
    let (pol, _) = parse_policy(policy).expect("known policy name");
    let program = Program::parse(&source).ok()?;
    let options = AnalysisOptions {
        policy: pol,
        max_nodes: None,
    };
    let analysis = Analysis::run_with(&program, options).ok()?;
    let engine = QueryEngine::freeze(&analysis);
    engine.prepare();
    let cfa = Cfa0::analyze(&program);
    let apps: Vec<ExprId> = program
        .exprs()
        .filter(|&e| matches!(program.kind(e), ExprKind::App { .. }))
        .collect();
    let flowing: Vec<ExprId> = program
        .exprs()
        .filter(|&e| !engine.labels_of(e).is_empty())
        .collect();
    if apps.is_empty() || flowing.is_empty() {
        return None;
    }
    let calls = eval(
        &program,
        EvalOptions {
            max_depth: Some(2_000),
            ..EvalOptions::default()
        },
    )
    .map(|out| out.trace.calls)
    .unwrap_or_default();
    let observed = |at: ExprId| {
        let mut out: Vec<u32> = calls
            .iter()
            .filter(|&&(op, _)| op == at)
            .map(|&(_, l)| l.index() as u32)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let mut slots = Vec::with_capacity(SLOTS);
    for i in 0..SLOTS {
        // Half the targets carry flow, so the containment checks bite.
        let expr = if i % 2 == 0 {
            flowing[rng.below(flowing.len() as u64) as usize]
        } else {
            ExprId::from_index(rng.below(program.size() as u64) as usize)
        };
        let site = apps[rng.below(apps.len() as u64) as usize];
        let ExprKind::App { func, .. } = program.kind(site) else {
            unreachable!("sites are applications")
        };
        slots.push(Slot {
            run_expr: observed(expr),
            run_site: observed(*func),
            expr: expr.index() as u32,
            site: site.index() as u32,
            cfa0_expr: indices(&cfa.labels(&program, expr)),
            cfa0_site: indices(&cfa.call_targets(&program, site).expect("an application")),
            sub_expr: indices(&engine.labels_of(expr)),
            sub_site: indices(&engine.call_targets(&program, site).expect("an application")),
        });
    }
    let consumers = consumers.then(|| {
        let suspicion = SuspicionIndex::build(&analysis, &engine);
        let lint = lint_with_suspicion(
            &program,
            &analysis,
            &engine,
            &suspicion,
            &LintOptions { threads: 1 },
        );
        let db = ExtDb::new(&program, &analysis, &engine);
        let dom = stcfa_rules::dominators(&db);
        let dominators = (0..=dom.entry()).filter(|&n| dom.is_reachable(n)).count();
        let taint = stcfa_rules::tainted_exprs(&db, &default_taint_sources(&program, &db)).len();
        let opt = optimize_with(&program, &engine, &OptOptions::default())
            .expect("optimizer accepts analyzable programs");
        Consumers {
            lint: lint.len() as u64,
            dominators: dominators as u64,
            taint: taint as u64,
            opt: opt.report.performed_total() as u64,
        }
    });
    Some(Prog {
        counts: [
            program.size() as u64,
            engine.label_count() as u64,
            engine.node_count() as u64,
            engine.edge_count() as u64,
            engine.comp_count() as u64,
        ],
        source,
        policy,
        slots,
        consumers,
    })
}

/// The taint rule's default sources: every abstraction whose body is
/// effectful (what the daemon uses when a request names none).
pub fn default_taint_sources(program: &Program, db: &ExtDb<'_>) -> Vec<Label> {
    let eff = db.effects();
    program
        .all_labels()
        .filter(|&l| match program.kind(program.lam_of_label(l)) {
            ExprKind::Lam { body, .. } => eff.is_effectful(*body),
            _ => false,
        })
        .collect()
}

/// Label indices, sorted (the order `check.rs` compares in).
fn indices(labels: &[Label]) -> Vec<u32> {
    let mut out: Vec<u32> = labels.iter().map(|l| l.index() as u32).collect();
    out.sort_unstable();
    out
}

/// Draws sources from `make` until one analyzes; each draw gets a fresh
/// sub-seed, so the pool stays a pure function of the seed.
fn draw(
    rng: &mut Rng,
    policy: &'static str,
    consumers: bool,
    mut make: impl FnMut(u64) -> String,
) -> Prog {
    for _ in 0..16 {
        let source = make(rng.next_u64());
        if let Some(prog) = oracle(source, policy, rng, consumers) {
            return prog;
        }
    }
    panic!("generator produced 16 unanalyzable programs in a row");
}

/// `lo · (hi/lo)^((i + ½) / n)`: log-uniform sizes, the same on every
/// seed (a seed changes the programs, not their sizes).
fn log_size(lo: f64, hi: f64, i: usize, n: usize) -> usize {
    (lo * (hi / lo).powf((i as f64 + 0.5) / n as f64)).round() as usize
}

fn synth_source(seed: u64, target_size: usize) -> String {
    generate(&SynthConfig {
        seed,
        target_size,
        ..SynthConfig::default()
    })
    .to_source()
}

fn modules_source(seed: u64, modules: usize) -> String {
    concatenated(&module_sources(&ModulesConfig {
        seed,
        modules,
        ..ModulesConfig::default()
    }))
}

/// A sub-generator for one purpose of one seed.
pub fn rng_for(seed: u64, purpose: u64) -> Rng {
    Rng::seed_from_u64(mix64(seed ^ mix64(purpose)))
}

/// `cold_stream`'s pool: synthesized programs log-uniform from 40 to
/// 1000 target nodes (every other one under the exact policy, where
/// answers must equal Cfa0's), module concatenations of 4 to 32 modules,
/// and lexgen at six fixed sizes up to the paper's scale. The largest
/// programs, which set the latency tail, are the fixed-shape lexgen ones,
/// so the tail costs the same on every seed.
pub fn cold_pool(seed: u64) -> Vec<Prog> {
    let mut rng = rng_for(seed, 1);
    let mut pool = Vec::new();
    for i in 0..24 {
        let size = log_size(40.0, 1000.0, i, 24);
        let policy = if i % 2 == 0 { "exact" } else { "c1" };
        pool.push(draw(&mut rng, policy, true, |s| synth_source(s, size)));
    }
    for states in [8, 14, 24, 40, 66, lexgen::DEFAULT_STATES] {
        pool.push(draw(&mut rng, "c1", true, |_| lexgen::source(states)));
    }
    for i in 0..6 {
        let modules = log_size(4.0, 32.0, i, 6);
        pool.push(draw(&mut rng, "c1", true, |s| modules_source(s, modules)));
    }
    pool
}

/// `warm_mix`'s resident set, hottest first: the Zipf rank is the list
/// position. The fixed programs (life, lexgen, the corpus) take the hot
/// ranks and small seeded synthesized ones the cold tail, so every seed
/// puts the same cost where the traffic goes; lexgen's rank makes its
/// lint, rule and opt requests the latency tail on every seed.
pub fn warm_pool(seed: u64, corpus_dir: &Path) -> Vec<Prog> {
    let mut rng = rng_for(seed, 2);
    let mut pool = vec![
        draw(&mut rng, "c1", true, |_| life::program().to_source()),
        draw(&mut rng, "c1", true, |_| {
            lexgen::source(lexgen::DEFAULT_STATES)
        }),
    ];
    for source in corpus(corpus_dir) {
        let prog = oracle(source.clone(), "c1", &mut rng, true)
            .unwrap_or_else(|| panic!("corpus program does not analyze:\n{source}"));
        pool.push(prog);
    }
    for size in [100, 200, 300, 400] {
        pool.push(draw(&mut rng, "c1", true, |s| synth_source(s, size)));
    }
    pool
}

/// The `corpus/*.ml` programs, in file-name order.
fn corpus(dir: &Path) -> Vec<String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
        .collect()
}

/// `restart_disk`'s persisted set (K = 14 programs): half seeded
/// synthesized programs, half fixed-shape ones.
pub fn disk_pool(seed: u64) -> Vec<Prog> {
    let mut rng = rng_for(seed, 3);
    let mut pool = Vec::new();
    for i in 0..7 {
        let size = log_size(100.0, 1600.0, i, 7);
        pool.push(draw(&mut rng, "c1", false, |s| synth_source(s, size)));
    }
    for states in [15, 30, 50, 80] {
        pool.push(draw(&mut rng, "c1", false, |_| lexgen::source(states)));
    }
    pool.push(draw(&mut rng, "c1", false, |_| life::program().to_source()));
    for modules in [8, 24] {
        pool.push(draw(&mut rng, "c1", false, |s| modules_source(s, modules)));
    }
    pool
}

/// A multi-module workspace and the whole-program answers its session
/// queries must match.
pub struct Workspace {
    pub modules: Vec<(String, String)>,
    /// Top-level names queried, with the binder's label set under a
    /// whole-program analysis of the concatenation and under Cfa0.
    pub names: Vec<(String, Vec<u32>, Vec<u32>)>,
}

/// Modules per `session_edits` workspace.
pub const WORKSPACE_MODULES: usize = 64;

/// `session_edits`' workspaces.
pub fn workspaces(seed: u64, count: usize) -> Vec<Workspace> {
    let mut rng = rng_for(seed, 4);
    (0..count)
        .map(|_| {
            let modules = module_sources(&ModulesConfig {
                seed: rng.next_u64(),
                modules: WORKSPACE_MODULES,
                ..ModulesConfig::default()
            });
            let program = Program::parse(&concatenated(&modules)).expect("modules concatenate");
            let analysis = Analysis::run(&program).expect("modules are bounded-type");
            let cfa = Cfa0::analyze(&program);
            let top: Vec<_> = program
                .vars()
                .filter(|&v| is_top_level_name(program.var_name(v)))
                .collect();
            let names = (0..16)
                .map(|_| {
                    let v = top[rng.below(top.len() as u64) as usize];
                    (
                        program.var_name(v).to_owned(),
                        indices(&analysis.labels_of_binder(v)),
                        indices(&cfa.var_labels(&program, v)),
                    )
                })
                .collect();
            Workspace { modules, names }
        })
        .collect()
}

/// The `modules` generator names top-level bindings `g<n>_<module>`.
fn is_top_level_name(name: &str) -> bool {
    name.strip_prefix('g')
        .and_then(|rest| rest.split_once('_'))
        .is_some_and(|(a, b)| {
            !a.is_empty()
                && !b.is_empty()
                && a.bytes().all(|c| c.is_ascii_digit())
                && b.bytes().all(|c| c.is_ascii_digit())
        })
}

/// Rewrites every integer literal of a module (digits not inside an
/// identifier or a `#n` projection): a real edit that keeps every
/// exported name, type and flow.
pub fn edit_literals(source: &str, rng: &mut Rng) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() + 8);
    let mut i = 0;
    while i < bytes.len() {
        let in_ident =
            i > 0 && matches!(bytes[i - 1], b'_' | b'#' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9');
        if bytes[i].is_ascii_digit() && !in_ident {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            out.extend_from_slice((1 + rng.below(99)).to_string().as_bytes());
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).expect("only ASCII digit runs were replaced")
}
