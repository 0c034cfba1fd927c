//! The traced run's replay: each request the daemon answered, served
//! again right after through the public functions of each layer, in the
//! order `Server::analyze_source` and the op handlers call them, with
//! every call timed from outside as a span.
//!
//! Spans live in memory and are written out when the run ends. Each
//! request is one `request` span whose children are the layer calls; a
//! layer's self time is its span's duration minus its children's (the
//! layer spans here are leaves). Measurements that are not daemon work —
//! lexing a source a second time for the lexer's own cost, re-running a
//! rule evaluator for its counters — run after the request span closes
//! and count in no layer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stcfa_core::{Analysis, AnalysisOptions, AnalysisStats, DatatypePolicy, QueryEngine};
use stcfa_lambda::{ExprId, Label, Program};
use stcfa_lint::{lint_with_suspicion, LintOptions};
use stcfa_opt::{optimize_with, OptOptions};
use stcfa_persist::SnapshotImage;
use stcfa_precision::{PrecisionScheduler, SuspicionIndex};
use stcfa_rules::{analyses, Evaluator, ExtDb};
use stcfa_server::proto::parse_policy;
use stcfa_server::{Json, SnapshotKey, StoreStats};
use stcfa_session::{LinkReport, Workspace};

use crate::inputs::default_taint_sources;

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// The in-memory span recorder.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Cost of one empty span on this machine, in ns.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::new();
    rec.spans.reserve(N);
    let started = Instant::now();
    for _ in 0..N {
        rec.time("calibrate", || ());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// A cached analysis, as the daemon's `Snapshot` holds it.
struct Snap {
    program: Program,
    /// `None` for disk-loaded snapshots until a consumer rebuilds it.
    analysis: Option<Analysis>,
    engine: QueryEngine,
    suspicion: SuspicionIndex,
    scheduler: Option<PrecisionScheduler>,
    policy: DatatypePolicy,
}

struct Session {
    workspace: Workspace,
    key: u64,
}

/// Counters and per-call counts the layers report.
#[derive(Default)]
pub struct Counts {
    pub hits: u64,
    pub misses: u64,
    pub disk_hits: u64,
    pub lex_ns: u64,
    pub lex_bytes: u64,
    pub parse_nodes: u64,
    pub tokens: Vec<u64>,
    pub nodes: Vec<u64>,
    pub analysis: Vec<AnalysisStats>,
    pub snapshot_bytes: Vec<u64>,
    pub diagnostics: Vec<u64>,
    pub derived: Vec<u64>,
    pub rewrites: Vec<u64>,
    pub relinked: Vec<u64>,
    pub reused: Vec<u64>,
    pub cone_runs: u64,
    pub refined: u64,
}

/// Work measured after a request's span closes.
enum Probe {
    Lex(String),
    Derived { key: u64, taint: bool },
}

/// The replaying mini-daemon.
pub struct Replay {
    pub rec: Recorder,
    pub counts: Counts,
    cache: HashMap<u64, Snap>,
    /// Insertion order, to bound the cache (no request stream revisits
    /// an entry this old).
    order: VecDeque<u64>,
    disk: Option<PathBuf>,
    sessions: HashMap<String, Session>,
    threads: usize,
    probes: Vec<Probe>,
    /// Requests whose outcome (ok or error) differs from the daemon's.
    pub divergences: u64,
    pub first_divergence: Option<String>,
    base_cone_runs: u64,
    base_refined: u64,
}

/// Replay-cache bound, in entries.
const REPLAY_CACHE: usize = 64;

type Res<T> = Result<T, String>;

impl Replay {
    pub fn new(threads: usize, disk: Option<PathBuf>) -> Replay {
        Replay {
            rec: Recorder::new(),
            counts: Counts::default(),
            cache: HashMap::new(),
            order: VecDeque::new(),
            disk,
            sessions: HashMap::new(),
            threads,
            probes: Vec::new(),
            divergences: 0,
            first_divergence: None,
            base_cone_runs: 0,
            base_refined: 0,
        }
    }

    /// A daemon restart: the memory tier is gone, the disk stays.
    pub fn reboot(&mut self) {
        self.retire_all();
        self.sessions.clear();
    }

    fn retire_all(&mut self) {
        for (_, snap) in self.cache.drain() {
            if let Some(s) = &snap.scheduler {
                let st = s.stats();
                self.counts.cone_runs += st.cone_runs;
                self.counts.refined += st.refined;
            }
        }
        self.order.clear();
    }

    /// Scheduler counters of snapshots still cached are added here.
    pub fn finish(&mut self) {
        self.retire_all();
        self.counts.cone_runs -= self.base_cone_runs;
        self.counts.refined -= self.base_refined;
    }

    /// Forgets the spans and counters of priming requests, keeping the
    /// state they built (scheduler counters are cumulative, so their
    /// current totals become the baseline).
    pub fn reset_counters(&mut self) {
        self.rec = Recorder::new();
        self.counts = Counts::default();
        for s in self.cache.values().filter_map(|s| s.scheduler.as_ref()) {
            let st = s.stats();
            self.base_cone_runs += st.cone_runs;
            self.base_refined += st.refined;
        }
    }

    /// Replays one request. `seq` numbers requests across connections
    /// (protocol ids repeat); `response` is the daemon's answer, whose
    /// rendering (`Json::to_line`) is timed and whose ok flag the
    /// replay's outcome must match.
    pub fn handle(&mut self, seq: u64, id: u64, line: &str, response: &str) {
        let answer = Json::parse(response.trim_end()).expect("checked response is JSON");
        let daemon_ok = answer.get("ok").and_then(Json::as_bool) == Some(true);
        self.rec.req = seq;
        let root = self.rec.open("request");
        let request = self
            .rec
            .time("server.json", || Json::parse(line.trim_end()))
            .expect("generated request is JSON");
        let outcome = self.dispatch(&request);
        self.rec.time("server.json", || answer.to_line());
        self.rec.close(root);
        if outcome.is_ok() != daemon_ok {
            self.divergences += 1;
            self.first_divergence.get_or_insert_with(|| {
                format!(
                    "request {id}: replay {outcome:?}, daemon {}",
                    response.trim_end()
                )
            });
        }
        for probe in std::mem::take(&mut self.probes) {
            self.probe(probe);
        }
    }

    fn probe(&mut self, probe: Probe) {
        match probe {
            Probe::Lex(source) => {
                let started = Instant::now();
                let toks = stcfa_lambda::lexer::lex(&source).map(|t| t.len());
                self.counts.lex_ns += started.elapsed().as_nanos() as u64;
                self.counts.lex_bytes += source.len() as u64;
                self.counts.tokens.push(toks.unwrap_or(0) as u64);
            }
            Probe::Derived { key, taint } => {
                let Some(snap) = self.cache.get(&key) else {
                    return;
                };
                let Some(analysis) = &snap.analysis else {
                    return;
                };
                let db = ExtDb::new(&snap.program, analysis, &snap.engine);
                let derived = if taint {
                    let (p, src_label, _) = analyses::taint_program();
                    let mut ev = Evaluator::new(&p, &db).expect("shipped rule program");
                    for l in default_taint_sources(&snap.program, &db) {
                        ev.seed(src_label, &[l.index() as u32]);
                    }
                    ev.run();
                    ev.stats().derived
                } else {
                    let (p, _, _) = analyses::dominators_program();
                    let mut ev = Evaluator::new(&p, &db).expect("shipped rule program");
                    ev.run();
                    ev.stats().derived
                };
                self.counts.derived.push(derived as u64);
            }
        }
    }

    fn dispatch(&mut self, req: &Json) -> Res<()> {
        let op = req.get("op").and_then(Json::as_str).ok_or("no op")?;
        match op {
            "analyze" => {
                let source = str_field(req, "source")?;
                self.analyze_source(req, source).map(drop)
            }
            "query" => {
                let key = self.resolve(req)?;
                let kind = str_field(req, "kind")?;
                let graded = req.get("precision").and_then(Json::as_bool) == Some(true);
                self.query(key, kind, req, graded)
            }
            "lint" => {
                let key = self.resolve(req)?;
                self.lint(key)
            }
            "rule" => {
                let key = self.resolve(req)?;
                let taint = str_field(req, "name")? == "taint";
                self.ensure_analysis(key)?;
                let snap = &self.cache[&key];
                let analysis = snap.analysis.as_ref().expect("ensured");
                self.rec.time("rules.eval", || {
                    let db = ExtDb::new(&snap.program, analysis, &snap.engine);
                    if taint {
                        let sources = default_taint_sources(&snap.program, &db);
                        stcfa_rules::tainted_exprs(&db, &sources).len()
                    } else {
                        stcfa_rules::dominators(&db).entry()
                    }
                });
                self.probes.push(Probe::Derived { key, taint });
                Ok(())
            }
            "opt" => {
                let key = self.resolve(req)?;
                let snap = &self.cache[&key];
                let options = OptOptions {
                    threads: self.threads,
                    ..OptOptions::default()
                };
                let out = self
                    .rec
                    .time("opt.optimize", || {
                        optimize_with(&snap.program, &snap.engine, &options)
                    })
                    .map_err(|e| e.to_string())?;
                self.counts
                    .rewrites
                    .push(out.report.performed_total() as u64);
                Ok(())
            }
            "session/open" => {
                let id = str_field(req, "session")?.to_owned();
                let modules = modules_field(req)?;
                let (policy, _) = policy_field(req)?;
                let (workspace, report) = self.rec.time("session.link", || {
                    let mut ws = Workspace::new(AnalysisOptions {
                        policy,
                        max_nodes: None,
                    });
                    for (name, source) in &modules {
                        ws.upsert(name, source);
                    }
                    let report = ws.link();
                    (ws, report)
                });
                let report = report.map_err(|e| e.to_string())?;
                let key = self.cache_linked(&workspace, &report);
                self.sessions.insert(id, Session { workspace, key });
                Ok(())
            }
            "session/update" => {
                let id = str_field(req, "session")?;
                let modules = modules_field(req)?;
                let mut session = self.sessions.remove(id).ok_or("unknown session")?;
                let report = self.rec.time("session.link", || {
                    for (name, source) in &modules {
                        session.workspace.upsert(name, source);
                    }
                    session.workspace.link()
                });
                let report = report.map_err(|e| e.to_string())?;
                session.key = self.cache_linked(&session.workspace, &report);
                self.sessions.insert(id.to_owned(), session);
                Ok(())
            }
            "session/query" => {
                let id = str_field(req, "session")?;
                let name = str_field(req, "name")?;
                let session = self.sessions.get(id).ok_or("unknown session")?;
                let var = session.workspace.lookup(name).ok_or("unknown name")?;
                let snap = &self.cache[&session.key];
                self.rec
                    .time("core.query", || snap.engine.labels_of_binder(var));
                Ok(())
            }
            "session/lint" => {
                let id = str_field(req, "session")?;
                let key = self.sessions.get(id).ok_or("unknown session")?.key;
                self.lint(key)
            }
            "session/close" => {
                let id = str_field(req, "session")?;
                self.sessions.remove(id).ok_or("unknown session")?;
                Ok(())
            }
            other => Err(format!("op `{other}` is not replayed")),
        }
    }

    /// `Server::resolve_snapshot`: a digest handle or inline source.
    fn resolve(&mut self, req: &Json) -> Res<u64> {
        let Some(hex) = req.get("snapshot").and_then(Json::as_str) else {
            let source = str_field(req, "source")?;
            return self.analyze_source(req, source);
        };
        let key = SnapshotKey::from_hex(hex).ok_or("bad digest")?.0;
        if self.cache.contains_key(&key) {
            self.counts.hits += 1;
            return Ok(key);
        }
        if self.load(key)? {
            self.counts.disk_hits += 1;
            return Ok(key);
        }
        Err("unknown snapshot".to_string())
    }

    /// `Server::analyze_source` and `SnapshotStore::get_or_build`.
    fn analyze_source(&mut self, req: &Json, source: &str) -> Res<u64> {
        let (policy, disc) = policy_field(req)?;
        let key = self
            .rec
            .time("server.digest", || SnapshotKey::derive(source, disc, 0))
            .0;
        if self.cache.contains_key(&key) {
            self.counts.hits += 1;
            return Ok(key);
        }
        if self.load(key)? {
            self.counts.disk_hits += 1;
            return Ok(key);
        }
        self.counts.misses += 1;
        self.probes.push(Probe::Lex(source.to_owned()));
        let program = self
            .rec
            .time("lambda.parse", || Program::parse(source))
            .map_err(|e| format!("parse: {e}"))?;
        self.counts.parse_nodes += program.size() as u64;
        self.counts.nodes.push(program.size() as u64);
        let options = AnalysisOptions {
            policy,
            max_nodes: None,
        };
        let analysis = self
            .rec
            .time("core.build_close", || Analysis::run_with(&program, options))
            .map_err(|e| format!("analysis: {e}"))?;
        self.counts.analysis.push(analysis.stats());
        let engine = self
            .rec
            .time("core.freeze", || QueryEngine::freeze(&analysis));
        self.rec.time("core.prepare", || engine.prepare());
        let suspicion = self.rec.time("precision.suspicion", || {
            SuspicionIndex::build(&analysis, &engine)
        });
        if let Some(dir) = &self.disk {
            let bytes = self.rec.time("persist.encode", || {
                stcfa_persist::encode(&SnapshotImage {
                    digest: key,
                    policy: disc,
                    engine_disc: 0,
                    source,
                    engine: &engine,
                    suspicion: Some(suspicion.as_slice()),
                    linked: false,
                })
            });
            self.counts.snapshot_bytes.push(bytes.len() as u64);
            self.rec
                .time("persist.save", || {
                    stcfa_persist::save_atomic(dir, key, &bytes)
                })
                .map_err(|e| format!("persist: {e}"))?;
        }
        self.insert(
            key,
            Snap {
                program,
                analysis: Some(analysis),
                engine,
                suspicion,
                scheduler: None,
                policy,
            },
        );
        Ok(key)
    }

    /// The disk tier's probe (`SnapshotStore::load_from_disk`): read,
    /// decode, re-parse the stored source.
    fn load(&mut self, key: u64) -> Res<bool> {
        let Some(dir) = &self.disk else {
            return Ok(false);
        };
        let path = dir.join(stcfa_persist::file_name(key));
        let bytes = match self.rec.time("persist.load", || std::fs::read(&path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let decoded = self
            .rec
            .time("persist.decode", || stcfa_persist::decode(&bytes))
            .map_err(|e| e.to_string())?;
        self.counts.snapshot_bytes.push(bytes.len() as u64);
        let program = self
            .rec
            .time("lambda.parse", || Program::parse(&decoded.source))
            .map_err(|e| format!("persisted source: {e}"))?;
        self.counts.parse_nodes += program.size() as u64;
        self.counts.nodes.push(program.size() as u64);
        self.probes.push(Probe::Lex(decoded.source.clone()));
        let policy = stcfa_server::proto::policy_from_disc(decoded.policy).ok_or("policy")?;
        let suspicion = SuspicionIndex::from_raw(decoded.suspicion.ok_or("no scores")?);
        self.insert(
            key,
            Snap {
                program,
                analysis: None,
                engine: decoded.engine,
                suspicion,
                scheduler: None,
                policy,
            },
        );
        Ok(true)
    }

    /// `Server::cache_linked`: freeze the linked workspace unless its
    /// digest is already cached.
    fn cache_linked(&mut self, workspace: &Workspace, report: &LinkReport) -> u64 {
        self.counts.relinked.push(report.relinked as u64);
        self.counts.reused.push(report.reused as u64);
        let key = report.session_digest;
        if self.cache.contains_key(&key) {
            self.counts.hits += 1;
            return key;
        }
        self.counts.misses += 1;
        let linked = self
            .rec
            .time("session.freeze", || workspace.freeze())
            .expect("linked before freezing");
        let (program, analysis, engine, _) = linked.into_parts();
        self.counts.analysis.push(analysis.stats());
        self.rec.time("core.prepare", || engine.prepare());
        let suspicion = self.rec.time("precision.suspicion", || {
            SuspicionIndex::build(&analysis, &engine)
        });
        self.insert(
            key,
            Snap {
                program,
                analysis: Some(analysis),
                engine,
                suspicion,
                scheduler: None,
                policy: workspace.options().policy,
            },
        );
        key
    }

    fn insert(&mut self, key: u64, snap: Snap) {
        if self.order.len() == REPLAY_CACHE {
            let old = self.order.pop_front().expect("non-empty");
            if let Some(s) = self.cache.remove(&old).and_then(|s| s.scheduler) {
                let st = s.stats();
                self.counts.cone_runs += st.cone_runs;
                self.counts.refined += st.refined;
            }
        }
        self.order.push_back(key);
        self.cache.insert(key, snap);
    }

    /// `Snapshot::try_analysis`: the lazy rebuild of a disk-loaded
    /// snapshot's analysis.
    fn ensure_analysis(&mut self, key: u64) -> Res<()> {
        let snap = self.cache.get_mut(&key).expect("resolved");
        if snap.analysis.is_none() {
            let options = AnalysisOptions {
                policy: snap.policy,
                max_nodes: None,
            };
            let program = &snap.program;
            let analysis = self
                .rec
                .time("core.build_close", || Analysis::run_with(program, options))
                .map_err(|e| e.to_string())?;
            snap.analysis = Some(analysis);
        }
        Ok(())
    }

    fn lint(&mut self, key: u64) -> Res<()> {
        self.ensure_analysis(key)?;
        let snap = &self.cache[&key];
        let analysis = snap.analysis.as_ref().expect("ensured");
        let options = LintOptions {
            threads: self.threads,
        };
        let diags = self.rec.time("lint.run", || {
            lint_with_suspicion(
                &snap.program,
                analysis,
                &snap.engine,
                &snap.suspicion,
                &options,
            )
        });
        self.counts.diagnostics.push(diags.len() as u64);
        Ok(())
    }

    fn query(&mut self, key: u64, kind: &str, req: &Json, graded: bool) -> Res<()> {
        let snap = self.cache.get_mut(&key).expect("resolved");
        let call = match kind {
            "label-set" => false,
            "call-targets" => true,
            other => return Err(format!("query kind `{other}` is not replayed")),
        };
        let target = req
            .get(if call { "site" } else { "expr" })
            .and_then(Json::as_u64)
            .ok_or("no target")?;
        let e = ExprId::from_index(target as usize);
        let (program, engine) = (&snap.program, &snap.engine);
        let answer: Option<Vec<Label>> = if graded {
            let (suspicion, policy) = (&snap.suspicion, snap.policy);
            let scheduler = &mut snap.scheduler;
            self.rec.time("precision.graded", || {
                let s = scheduler.get_or_insert_with(|| {
                    PrecisionScheduler::new(
                        suspicion.clone(),
                        policy,
                        PrecisionScheduler::DEFAULT_BUDGET,
                    )
                });
                if call {
                    s.call_targets(program, engine, e).map(|(l, _)| l)
                } else {
                    Some(s.labels_of(program, engine, e).0)
                }
            })
        } else {
            self.rec.time("core.query", || {
                if call {
                    engine.call_targets(program, e)
                } else {
                    Some(engine.labels_of(e))
                }
            })
        };
        answer
            .map(drop)
            .ok_or_else(|| "not an application".to_string())
    }
}

fn str_field<'a>(req: &'a Json, field: &str) -> Res<&'a str> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no `{field}`"))
}

fn policy_field(req: &Json) -> Res<(DatatypePolicy, u64)> {
    let name = req.get("policy").and_then(Json::as_str).unwrap_or("c1");
    parse_policy(name).ok_or_else(|| format!("policy `{name}`"))
}

fn modules_field(req: &Json) -> Res<Vec<(String, String)>> {
    req.get("modules")
        .and_then(Json::as_arr)
        .ok_or("no modules")?
        .iter()
        .map(|m| {
            Ok((
                str_field(m, "name")?.to_owned(),
                str_field(m, "source")?.to_owned(),
            ))
        })
        .collect()
}

/// The per-layer report of one traced run.
pub struct LayerReport {
    /// `(name, value, unit, samples)` in `BENCHMARK.json` order; the
    /// sample count is the calls, requests or lookups the value is over.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Σ layer self time and Σ untraced end-to-end latency, in ns.
    pub layer_sum_ns: u64,
    pub e2e_sum_ns: u64,
    pub spans: usize,
}

/// The median of `v`, with its sample count.
fn median(v: &[u64]) -> (f64, usize) {
    let mut v = v.to_vec();
    v.sort_unstable();
    let n = v.len();
    let m = match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2] as f64,
        _ => (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0,
    };
    (m, n)
}

/// Computes the per-layer metrics from the replay's spans and counters
/// and the daemon's own store counters.
pub fn report(replay: &Replay, store: &StoreStats, e2e_sum_ns: u64) -> LayerReport {
    let own = replay.rec.self_times();
    // Per request, each layer's self time (a layer may be called twice
    // in one request, as `server.json` is).
    let mut per_req: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut layer_sum_ns = 0u64;
    let mut requests = 0;
    for (span, &t) in replay.rec.spans.iter().zip(&own) {
        if span.name == "request" {
            requests += 1;
            continue;
        }
        layer_sum_ns += t;
        *per_req
            .entry(span.name)
            .or_default()
            .entry(span.req)
            .or_default() += t;
    }
    let layer = |name: &str| -> Vec<u64> {
        per_req
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    };
    let med = |name: &str, scale: f64| {
        let (m, n) = median(&layer(name));
        (m / scale, n)
    };
    let c = &replay.counts;
    let stat = |f: fn(&AnalysisStats) -> u64| median(&c.analysis.iter().map(f).collect::<Vec<_>>());
    let lookups = store.hits + store.misses + store.disk_hits;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let parses = layer("lambda.parse");
    let parse_ns = parses.iter().sum::<u64>().saturating_sub(c.lex_ns);
    let rows = [
        ("server.json_us", med("server.json", 1e3), "us"),
        ("server.digest_us", med("server.digest", 1e3), "us"),
        (
            "server.cache_hit_ratio",
            (
                ratio((store.hits + store.disk_hits) as f64, lookups as f64),
                lookups as usize,
            ),
            "ratio",
        ),
        (
            "server.builds",
            (store.misses as f64, lookups as usize),
            "count",
        ),
        (
            "server.unattributed_share",
            (
                1.0 - ratio(layer_sum_ns as f64, e2e_sum_ns as f64),
                requests,
            ),
            "ratio",
        ),
        (
            "lambda.lex_ns_per_byte",
            (ratio(c.lex_ns as f64, c.lex_bytes as f64), c.tokens.len()),
            "ns/byte",
        ),
        (
            "lambda.parse_ns_per_node",
            (ratio(parse_ns as f64, c.parse_nodes as f64), parses.len()),
            "ns/node",
        ),
        ("lambda.tokens", median(&c.tokens), "count"),
        ("lambda.nodes", median(&c.nodes), "count"),
        ("core.build_close_ms", med("core.build_close", 1e6), "ms"),
        ("core.nodes", stat(|s| s.nodes() as u64), "count"),
        ("core.edges", stat(|s| s.edges() as u64), "count"),
        ("core.edges_processed", stat(|s| s.edges_processed), "count"),
        ("core.freeze_ms", med("core.freeze", 1e6), "ms"),
        ("core.prepare_ms", med("core.prepare", 1e6), "ms"),
        ("core.query_us", med("core.query", 1e3), "us"),
        (
            "precision.suspicion_ms",
            med("precision.suspicion", 1e6),
            "ms",
        ),
        ("precision.graded_us", med("precision.graded", 1e3), "us"),
        (
            "precision.cone_runs",
            (c.cone_runs as f64, layer("precision.graded").len()),
            "count",
        ),
        (
            "precision.refined_per_cone_run",
            (
                ratio(c.refined as f64, c.cone_runs as f64),
                c.cone_runs as usize,
            ),
            "ratio",
        ),
        ("persist.encode_ms", med("persist.encode", 1e6), "ms"),
        ("persist.save_ms", med("persist.save", 1e6), "ms"),
        ("persist.load_ms", med("persist.load", 1e6), "ms"),
        ("persist.decode_ms", med("persist.decode", 1e6), "ms"),
        ("persist.snapshot_bytes", median(&c.snapshot_bytes), "bytes"),
        ("lint.run_ms", med("lint.run", 1e6), "ms"),
        ("lint.diagnostics", median(&c.diagnostics), "count"),
        ("rules.eval_ms", med("rules.eval", 1e6), "ms"),
        ("rules.derived", median(&c.derived), "count"),
        ("opt.optimize_ms", med("opt.optimize", 1e6), "ms"),
        ("opt.rewrites", median(&c.rewrites), "count"),
        ("session.link_ms", med("session.link", 1e6), "ms"),
        ("session.freeze_ms", med("session.freeze", 1e6), "ms"),
        ("session.relinked", median(&c.relinked), "count"),
        ("session.reused", median(&c.reused), "count"),
    ];
    LayerReport {
        metrics: rows
            .into_iter()
            .map(|(name, (value, n), unit)| (name, value, unit, n))
            .collect(),
        layer_sum_ns,
        e2e_sum_ns,
        spans: replay.rec.spans.len(),
    }
}
