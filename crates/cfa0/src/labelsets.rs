//! The standard (cubic-time) inclusion-based monovariant CFA.
//!
//! This is the paper's "Std Alg" baseline: a least-fixed-point computation
//! over per-occurrence label sets, extended (as is standard) from the pure
//! lambda calculus to records and datatype constructors by tracking
//! creation sites through projections and `case` de-construction. The
//! solver is a textbook dynamic-propagation-graph worklist:
//!
//! - every expression occurrence and every binder is a set variable;
//! - static subset edges come from `let`/`if`/`case`-result flow;
//! - dynamic edges are added when an abstraction reaches an application's
//!   operator (the paper's APP-1/APP-2 conditions), a record reaches a
//!   projection, or a construction reaches a `case` scrutinee.
//!
//! Its complexity is `O(n³)` (up to machine-word parallelism in the bit
//! sets); the subtransitive algorithm in `stcfa-core` is checked against
//! it for exact equivalence.

use stcfa_graph::{BitSet, Worklist};
use stcfa_lambda::{ExprId, ExprKind, Label, Program, VarId};

use crate::sites::SiteTable;

/// Counters describing how much work the solver did (a machine-independent
/// "units of work" measure, as the paper uses for its SBA baseline).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cfa0Stats {
    /// Set-variable activations popped from the worklist.
    pub activations: u64,
    /// Word-level union operations between sets.
    pub propagations: u64,
    /// Dynamic subset edges added by application/projection/case firing.
    pub dynamic_edges: u64,
    /// Static subset edges.
    pub static_edges: u64,
}

/// The result of running standard CFA: the full `L(e)` table.
///
/// Set storage is one flat word arena — `wps` words per set variable,
/// expressions `0..n` then binders — rather than a `BitSet` per
/// variable: one allocation instead of `n + v`, so setup stays a small
/// share of the run and the retained result (the precision scheduler
/// keeps one per snapshot) is a single buffer.
#[derive(Clone, Debug)]
pub struct Cfa0 {
    sites: SiteTable,
    /// Flat per-variable site sets (see the type docs).
    words: Vec<u64>,
    /// Words per set variable.
    wps: usize,
    /// Expression count: binder `v` lives at variable `n_exprs + v`.
    n_exprs: usize,
    stats: Cfa0Stats,
}

impl Cfa0 {
    /// Runs the analysis to fixpoint.
    pub fn analyze(program: &Program) -> Cfa0 {
        Solver::new(program).run()
    }

    /// The site numbering used by this result.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The creation sites reaching expression `e`, as backing words
    /// (bit `s` of the slice = site `s` reaches).
    pub fn site_set(&self, e: ExprId) -> &[u64] {
        let base = e.index() * self.wps;
        &self.words[base..base + self.wps]
    }

    /// The creation sites reaching binder `v`, as backing words.
    pub fn var_site_set(&self, v: VarId) -> &[u64] {
        let base = (self.n_exprs + v.index()) * self.wps;
        &self.words[base..base + self.wps]
    }

    /// `L(e)`: the abstraction labels reaching `e`, sorted.
    pub fn labels(&self, program: &Program, e: ExprId) -> Vec<Label> {
        self.labels_of_words(program, self.site_set(e))
    }

    /// Labels reaching binder `v`, sorted.
    pub fn var_labels(&self, program: &Program, v: VarId) -> Vec<Label> {
        self.labels_of_words(program, self.var_site_set(v))
    }

    fn labels_of_words(&self, program: &Program, words: &[u64]) -> Vec<Label> {
        let mut out: Vec<Label> = Vec::new();
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                if let Some(l) = self.sites.label_of_site(program, wi * 64 + b) {
                    out.push(l);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The functions callable from application site `app`: `L(e₁)` for
    /// `app = (e₁ e₂)`. Returns `None` if `app` is not an application.
    pub fn call_targets(&self, program: &Program, app: ExprId) -> Option<Vec<Label>> {
        match program.kind(app) {
            ExprKind::App { func, .. } => Some(self.labels(program, *func)),
            _ => None,
        }
    }

    /// Work counters.
    pub fn stats(&self) -> Cfa0Stats {
        self.stats
    }
}

/// A dynamic flow listener: fires once per (listener, new site) pair.
enum Listener {
    /// Application `(e₁ e₂)`: watching `e₁`'s set for abstractions.
    AppFunc { arg_var: u32, app_var: u32 },
    /// Projection `#j e`: watching `e`'s set for records.
    ProjTuple { index: u32, proj_var: u32 },
    /// `case e of …`: watching `e`'s set for constructions.
    CaseScrut { case_expr: ExprId },
}

struct Solver<'a> {
    program: &'a Program,
    sites: SiteTable,
    /// Words per set variable.
    wps: usize,
    /// Flat set storage: exprs `0..n`, then binders `n..n+v`, `wps`
    /// words each — a single allocation however many variables there
    /// are, so setup is O(n) words written, not O(n) heap allocations.
    words: Vec<u64>,
    edges: Vec<Vec<u32>>,
    listeners: Vec<Listener>,
    /// Listener ids watching each set variable.
    watchers: Vec<Vec<u32>>,
    /// Per listener: sites already handled.
    handled: Vec<BitSet>,
    worklist: Worklist,
    stats: Cfa0Stats,
}

impl<'a> Solver<'a> {
    fn new(program: &'a Program) -> Self {
        let n = program.size();
        let v = program.var_count();
        let sites = SiteTable::build(program);
        let wps = sites.len().div_ceil(64);
        Solver {
            program,
            sites,
            wps,
            words: vec![0; (n + v) * wps],
            edges: vec![Vec::new(); n + v],
            listeners: Vec::new(),
            watchers: vec![Vec::new(); n + v],
            handled: Vec::new(),
            worklist: Worklist::new(n + v),
            stats: Cfa0Stats::default(),
        }
    }

    fn expr_var(&self, e: ExprId) -> u32 {
        e.index() as u32
    }

    fn binder_var(&self, v: VarId) -> u32 {
        (self.program.size() + v.index()) as u32
    }

    /// Adds the static subset edge `from ⊆ to`.
    fn edge(&mut self, from: u32, to: u32) {
        self.edges[from as usize].push(to);
        self.stats.static_edges += 1;
    }

    /// Adds a dynamic subset edge and propagates immediately.
    fn dynamic_edge(&mut self, from: u32, to: u32) {
        self.edges[from as usize].push(to);
        self.stats.dynamic_edges += 1;
        self.propagate(from, to);
    }

    /// Unions `from`'s set into `to`'s; enqueues `to` on change.
    fn propagate(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        self.stats.propagations += 1;
        let wps = self.wps;
        let (f, t) = (from as usize * wps, to as usize * wps);
        // Split-borrow the two word runs.
        let (dst, src) = if f < t {
            let (a, b) = self.words.split_at_mut(t);
            (&mut b[..wps], &a[f..f + wps])
        } else {
            let (a, b) = self.words.split_at_mut(f);
            (&mut a[t..t + wps], &b[..wps])
        };
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        if changed {
            self.worklist.push(to as usize);
        }
    }

    fn seed(&mut self, var: u32, site: usize) {
        let w = var as usize * self.wps + site / 64;
        let mask = 1u64 << (site % 64);
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.worklist.push(var as usize);
        }
    }

    fn listener(&mut self, watch: u32, l: Listener) {
        let id = self.listeners.len() as u32;
        self.listeners.push(l);
        self.handled.push(BitSet::new(self.sites.len()));
        self.watchers[watch as usize].push(id);
    }

    fn install_constraints(&mut self) {
        for e in self.program.exprs() {
            let ev = self.expr_var(e);
            match self.program.kind(e) {
                ExprKind::Var(v) => {
                    let bv = self.binder_var(*v);
                    self.edge(bv, ev);
                }
                ExprKind::Lam { .. } | ExprKind::Record(_) | ExprKind::Con { .. } => {
                    let site = self.sites.site_of(e).expect("creation site");
                    self.seed(ev, site);
                }
                ExprKind::App { func, arg } => {
                    let fv = self.expr_var(*func);
                    let av = self.expr_var(*arg);
                    self.listener(
                        fv,
                        Listener::AppFunc {
                            arg_var: av,
                            app_var: ev,
                        },
                    );
                }
                ExprKind::Let { binder, rhs, body } => {
                    let bv = self.binder_var(*binder);
                    self.edge(self.expr_var(*rhs), bv);
                    self.edge(self.expr_var(*body), ev);
                }
                ExprKind::LetRec {
                    binder,
                    lambda,
                    body,
                } => {
                    let bv = self.binder_var(*binder);
                    self.edge(self.expr_var(*lambda), bv);
                    self.edge(self.expr_var(*body), ev);
                }
                ExprKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.edge(self.expr_var(*then_branch), ev);
                    self.edge(self.expr_var(*else_branch), ev);
                }
                ExprKind::Proj { index, tuple } => {
                    let tv = self.expr_var(*tuple);
                    self.listener(
                        tv,
                        Listener::ProjTuple {
                            index: *index,
                            proj_var: ev,
                        },
                    );
                }
                ExprKind::Case {
                    scrutinee,
                    arms,
                    default,
                } => {
                    let sv = self.expr_var(*scrutinee);
                    for arm in arms.iter() {
                        self.edge(self.expr_var(arm.body), ev);
                    }
                    if let Some(d) = default {
                        self.edge(self.expr_var(*d), ev);
                    }
                    if !arms.is_empty() {
                        self.listener(sv, Listener::CaseScrut { case_expr: e });
                    }
                }
                ExprKind::Lit(_) | ExprKind::Prim { .. } => {}
            }
        }
    }

    fn run(mut self) -> Cfa0 {
        self.install_constraints();
        while let Some(u) = self.worklist.pop() {
            self.stats.activations += 1;
            // (a) propagate along subset edges.
            let edges = std::mem::take(&mut self.edges[u]);
            for &w in &edges {
                self.propagate(u as u32, w);
            }
            debug_assert!(self.edges[u].is_empty());
            self.edges[u] = edges;
            // (b) fire listeners on newly arrived sites.
            let watcher_ids = self.watchers[u].clone();
            for lid in watcher_ids {
                // Collect sites not yet handled by this listener.
                let fresh: Vec<usize> = self
                    .set_bits(u)
                    .filter(|&s| !self.handled[lid as usize].contains(s))
                    .collect();
                for s in fresh {
                    self.handled[lid as usize].insert(s);
                    self.fire(lid, s);
                }
            }
        }
        Cfa0 {
            sites: self.sites,
            words: self.words,
            wps: self.wps,
            n_exprs: self.program.size(),
            stats: self.stats,
        }
    }

    /// Iterates the site indices present in variable `u`'s set.
    fn set_bits(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let base = u * self.wps;
        self.words[base..base + self.wps]
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| {
                std::iter::successors((word != 0).then_some(word), |w| {
                    let w = w & (w - 1);
                    (w != 0).then_some(w)
                })
                .map(move |w| wi * 64 + w.trailing_zeros() as usize)
            })
    }

    fn fire(&mut self, lid: u32, site: usize) {
        let site_expr = self.sites.expr(site);
        match &self.listeners[lid as usize] {
            Listener::AppFunc { arg_var, app_var } => {
                let (arg_var, app_var) = (*arg_var, *app_var);
                if let ExprKind::Lam { param, body, .. } = self.program.kind(site_expr) {
                    let pv = self.binder_var(*param);
                    let bv = self.expr_var(*body);
                    self.dynamic_edge(arg_var, pv);
                    self.dynamic_edge(bv, app_var);
                }
            }
            Listener::ProjTuple { index, proj_var } => {
                let (index, proj_var) = (*index, *proj_var);
                if let ExprKind::Record(items) = self.program.kind(site_expr) {
                    if let Some(&field) = items.get(index as usize) {
                        let fv = self.expr_var(field);
                        self.dynamic_edge(fv, proj_var);
                    }
                }
            }
            Listener::CaseScrut { case_expr } => {
                let case_expr = *case_expr;
                if let ExprKind::Con { con, args } = self.program.kind(site_expr) {
                    let con = *con;
                    let args: Vec<ExprId> = args.to_vec();
                    if let ExprKind::Case { arms, .. } = self.program.kind(case_expr) {
                        let bindings: Vec<(u32, u32)> = arms
                            .iter()
                            .filter(|arm| arm.con == con)
                            .flat_map(|arm| {
                                arm.binders
                                    .iter()
                                    .zip(args.iter())
                                    .map(|(&b, &a)| (self.expr_var(a), self.binder_var(b)))
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                        for (from, to) in bindings {
                            self.dynamic_edge(from, to);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcfa_lambda::Program;

    fn labels_at_root(src: &str) -> Vec<usize> {
        let p = Program::parse(src).unwrap();
        let cfa = Cfa0::analyze(&p);
        cfa.labels(&p, p.root())
            .into_iter()
            .map(|l| l.index())
            .collect()
    }

    #[test]
    fn paper_example_self_application() {
        // (λx.(x x)) (λ'y.y) — the root evaluates to λ'y.y (label 1).
        let labels = labels_at_root("(fn x => x x) (fn y => y)");
        assert_eq!(labels, vec![1]);
    }

    #[test]
    fn identity_returns_argument() {
        let labels = labels_at_root("(fn i => i) (fn z => z)");
        assert_eq!(labels, vec![1]);
    }

    #[test]
    fn monovariant_merging_at_shared_function() {
        // id applied to two different abstractions: both flow back out of
        // both call sites (the monovariant join-point effect, paper §2).
        let src = "\
            fun id x = x;\n\
            val a = id (fn u => u);\n\
            val b = id (fn v => v);\n\
            a";
        let labels = labels_at_root(src);
        assert_eq!(labels.len(), 2, "monovariant CFA merges both arguments");
    }

    #[test]
    fn conditional_joins_branches() {
        let labels = labels_at_root("if true then fn x => x else fn y => y");
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn records_track_fields_separately() {
        let p = Program::parse("#1 ((fn x => x), (fn y => y))").unwrap();
        let cfa = Cfa0::analyze(&p);
        let labels = cfa.labels(&p, p.root());
        assert_eq!(labels.len(), 1, "projection selects only field 1");
    }

    #[test]
    fn constructors_track_arguments() {
        let src = "\
            datatype wrap = W of (int -> int);\n\
            case W(fn x => x) of W(f) => f";
        let labels = labels_at_root(src);
        assert_eq!(labels.len(), 1);
    }

    #[test]
    fn letrec_function_flows_to_uses() {
        let p = Program::parse("fun f x = x; f").unwrap();
        let cfa = Cfa0::analyze(&p);
        assert_eq!(cfa.labels(&p, p.root()).len(), 1);
    }

    #[test]
    fn call_targets_at_apps() {
        let p = Program::parse("(fn x => x) 1").unwrap();
        let cfa = Cfa0::analyze(&p);
        let targets = cfa.call_targets(&p, p.root()).unwrap();
        assert_eq!(targets.len(), 1);
        let lam = p.lam_of_label(targets[0]);
        assert_eq!(
            cfa.call_targets(&p, lam),
            None,
            "non-apps have no call targets"
        );
    }

    #[test]
    fn dead_code_still_analyzed() {
        // Standard CFA does not do dead-code pruning: the unused lambda
        // still has itself in its own set.
        let p = Program::parse("let val dead = fn x => x in 1 end").unwrap();
        let cfa = Cfa0::analyze(&p);
        let lam = p
            .exprs()
            .find(|&e| matches!(p.kind(e), ExprKind::Lam { .. }))
            .unwrap();
        assert_eq!(cfa.labels(&p, lam).len(), 1);
    }

    #[test]
    fn prims_produce_no_flow() {
        let labels = labels_at_root("1 + 2");
        assert!(labels.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let p = Program::parse("(fn x => x x) (fn y => y)").unwrap();
        let cfa = Cfa0::analyze(&p);
        let s = cfa.stats();
        assert!(s.activations > 0);
        assert!(
            s.dynamic_edges >= 2,
            "at least APP-1/APP-2 for the outer app"
        );
    }

    #[test]
    fn flow_through_case_default() {
        let src = "\
            datatype t = A | B;\n\
            case A of B => fn x => x | _ => fn y => y";
        let labels = labels_at_root(src);
        // Flow-insensitive case: both arms flow to the result.
        assert_eq!(labels.len(), 2);
    }
}
