//! Facade crate for the subtransitive control-flow-analysis workspace.
//!
//! This crate re-exports every workspace crate under a stable set of module
//! names so that examples, integration tests and downstream users can depend
//! on a single package:
//!
//! - [`lambda`] — the input language: AST, parser, evaluator.
//! - [`types`] — Hindley–Milner inference and type-boundedness metrics.
//! - [`graph`] — the directed-graph substrate (reachability, SCC, closure).
//! - [`cfa0`] — the standard cubic-time CFA baseline and the DTC system.
//! - [`sba`] — monovariant set-based analysis (the paper's benchmark baseline).
//! - [`unify`] — equality-based (almost-linear, less accurate) CFA.
//! - [`core`] — **the paper's contribution**: the linear-time subtransitive
//!   control-flow graph and its queries.
//! - [`apps`] — linear-time CFA-consuming applications (effects, k-limited,
//!   called-once, inlining).
//! - [`opt`] — the flow-directed optimizer backend: lowering passes
//!   (dead-application elision, called-once inlining, useless-parameter
//!   pruning, known-call specialization) driven by the frozen engine,
//!   with the evaluator as differential oracle (`stcfa opt`).
//! - [`rules`] — the Datalog-flavoured rule layer: declarative programs
//!   over zero-copy views of the frozen engine, evaluated semi-naively
//!   at the same `O(E·L/64)` arithmetic (`stcfa rule`,
//!   `stcfa lint --explain`).
//! - [`precision`] — the adaptive precision scheduler: degradation
//!   detector and tiered escalation (subtransitive → polyvariant →
//!   whole-program cubic, once per snapshot) with per-answer grades
//!   (`stcfa --precision`, protocol-v2 `"precision"`).
//! - [`server`] — the long-running analysis daemon with its
//!   content-addressed snapshot cache (`stcfa serve`).
//! - [`session`] — multi-file analysis sessions: named modules, the
//!   import/link graph, and the incremental linker (`stcfa session`).
//! - [`persist`] — the on-disk snapshot format behind the daemon's
//!   `--cache-dir` tier (warm restarts without rebuilding).
//! - [`workloads`] — benchmark and test program generators.
//!
//! # Quickstart
//!
//! ```
//! use stcfa::lambda::Program;
//! use stcfa::core::Analysis;
//!
//! let program = Program::parse("(fn x => x x) (fn y => y)").unwrap();
//! let analysis = Analysis::run(&program).unwrap();
//! // The whole program evaluates to the abstraction labelled by `fn y => y`.
//! let root = program.root();
//! let labels = analysis.labels_of(root);
//! assert_eq!(labels.len(), 1);
//! ```

pub mod boundedness;

pub use stcfa_apps as apps;
pub use stcfa_cfa0 as cfa0;
pub use stcfa_core as core;
pub use stcfa_graph as graph;
pub use stcfa_lambda as lambda;
pub use stcfa_lint as lint;
pub use stcfa_opt as opt;
pub use stcfa_persist as persist;
pub use stcfa_precision as precision;
pub use stcfa_rules as rules;
pub use stcfa_sba as sba;
pub use stcfa_server as server;
pub use stcfa_session as session;
pub use stcfa_types as types;
pub use stcfa_unify as unify;
pub use stcfa_workloads as workloads;
