//! The four workloads' request streams. A stream is a pure function of
//! the seed and the connection index: the same seed gives byte-identical
//! request lines, and nothing in it depends on a response.

use std::collections::VecDeque;

use stcfa_devkit::prng::Rng;
use stcfa_server::proto::parse_policy;
use stcfa_server::{Json, SnapshotKey};

use crate::inputs::{self, edit_literals, rng_for, Prog, SECTION5};

/// The workloads, by the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdStream,
    WarmMix,
    RestartDisk,
    SessionEdits,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdStream,
        Workload::WarmMix,
        Workload::RestartDisk,
        Workload::SessionEdits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStream => "cold_stream",
            Workload::WarmMix => "warm_mix",
            Workload::RestartDisk => "restart_disk",
            Workload::SessionEdits => "session_edits",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, never more than `nproc`.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::WarmMix => nproc.clamp(1, 2),
            _ => 1,
        }
    }
}

/// Request classes, for per-op latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Analyze,
    Query,
    Graded,
    Lint,
    Rule,
    Opt,
    SessionOpen,
    SessionUpdate,
    SessionQuery,
    SessionLint,
    SessionClose,
}

/// What a response must satisfy (see `check.rs`).
#[derive(Clone, Debug)]
pub enum Check {
    Analyze {
        prog: usize,
        digest: String,
    },
    /// The Section 5 program: a structured `analysis` refusal today, or
    /// an answer under the right digest once the daemon serves it.
    Section5 {
        digest: String,
    },
    Query {
        prog: usize,
        slot: usize,
        call: bool,
        graded: bool,
    },
    Lint {
        prog: usize,
    },
    Rule {
        prog: usize,
        taint: bool,
    },
    Opt {
        prog: usize,
    },
    SessionLink,
    SessionQuery {
        ws: usize,
        name: usize,
    },
    SessionLint,
    SessionClose,
}

/// One request line (newline-terminated) and its check.
#[derive(Clone, Debug)]
pub struct Req {
    pub id: u64,
    pub line: String,
    pub op: Op,
    pub check: Check,
    /// The measuring unit the request belongs to (see
    /// `Inputs::steps_per_unit`).
    pub unit: u64,
}

/// A stream element: a request, or (on `restart_disk`) a daemon restart.
#[derive(Clone, Debug)]
pub enum Item {
    Req(Req),
    Reboot,
}

/// Everything the streams draw from, built in set-up.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub progs: Vec<Prog>,
    pub workspaces: Vec<inputs::Workspace>,
}

/// `restart_disk`: fresh (never persisted) sources per round, against
/// the K persisted ones — one analyze in 8 is a miss.
pub const FRESH_PER_ROUND: usize = 2;
/// `session_edits`: edits per session before it is closed and reopened.
/// Opens are then 0.7 % of the requests: clear of the 99th percentile,
/// which the edit and lint tail sets.
pub const EDITS_PER_SESSION: usize = 48;
/// `session_edits`: workspaces the reopen cycle rotates through.
pub const WORKSPACES: usize = 6;
/// `cold_stream`: steps per pass over the pool that send the Section 5
/// program (2 of the pool's 36 + 2 steps: about one step in 20).
pub const SECTION5_PER_PASS: usize = 2;
/// `cold_stream`: times a refused Section 5 request is sent in total.
pub const SECTION5_SENDS: usize = 4;

impl Inputs {
    pub fn new(workload: Workload, seed: u64, corpus_dir: &std::path::Path) -> Inputs {
        let (progs, workspaces) = match workload {
            Workload::ColdStream => (inputs::cold_pool(seed), Vec::new()),
            Workload::WarmMix => (inputs::warm_pool(seed, corpus_dir), Vec::new()),
            Workload::RestartDisk => (inputs::disk_pool(seed), Vec::new()),
            Workload::SessionEdits => (Vec::new(), inputs::workspaces(seed, WORKSPACES)),
        };
        Inputs {
            workload,
            seed,
            progs,
            workspaces,
        }
    }

    /// The requests that prepare a daemon before timing: `warm_mix`
    /// makes its resident set and grades every query slot once (so the
    /// timed graded queries are memo hits, identical on any interleaving
    /// of the two connections); `restart_disk` persists its K programs.
    pub fn priming(&self) -> Vec<String> {
        let mut lines = Vec::new();
        match self.workload {
            Workload::WarmMix | Workload::RestartDisk => {
                for prog in &self.progs {
                    lines.push(analyze_line(0, &prog.source, prog.policy));
                }
            }
            _ => {}
        }
        if self.workload == Workload::WarmMix {
            for prog in &self.progs {
                let digest = digest(&prog.source, prog.policy);
                for slot in &prog.slots {
                    lines.push(query_line(0, &digest, "label-set", slot.expr, true));
                    lines.push(query_line(0, &digest, "call-targets", slot.site, true));
                }
            }
        }
        lines
    }

    /// Stream steps (`Iterator::next` refills) per measuring unit. A
    /// unit is a stretch of one connection's stream that sends the same
    /// mix on every repetition: a whole pass over the `cold_stream`
    /// pool, the `restart_disk` rounds that send every fresh source
    /// once, one `warm_mix` deck, one `session_edits` session (the same
    /// ops; the workspace rotates). Units are what the end-to-end
    /// metrics rank by speed (`main.rs`).
    pub fn steps_per_unit(&self) -> u64 {
        let k = self.progs.len();
        match self.workload {
            Workload::ColdStream => (k + SECTION5_PER_PASS) as u64,
            Workload::WarmMix => 1,
            Workload::RestartDisk => {
                assert_eq!(k % FRESH_PER_ROUND, 0, "fresh sources fill whole rounds");
                (k / FRESH_PER_ROUND) as u64
            }
            Workload::SessionEdits => 1,
        }
    }

    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            inputs: self,
            rng: rng_for(self.seed, 100 + conn as u64),
            conn,
            next_id: 1,
            step: 0,
            queue: VecDeque::new(),
            deck: match self.workload {
                Workload::WarmMix => warm_deck(self.progs.len()),
                _ => Vec::new(),
            },
            order: Vec::new(),
            unit: 0,
            steps_per_unit: self.steps_per_unit(),
        }
    }
}

/// The content address the daemon gives `source` (engine discriminant 0).
pub fn digest(source: &str, policy: &str) -> String {
    let (_, disc) = parse_policy(policy).expect("known policy name");
    SnapshotKey::derive(source, disc, 0).hex()
}

fn line(id: u64, op: &str, fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("v", Json::num(2)),
        ("id", Json::num(id)),
        ("op", Json::str(op)),
    ];
    pairs.extend(fields);
    let mut line = Json::obj(pairs).to_line();
    line.push('\n');
    line
}

fn analyze_line(id: u64, source: &str, policy: &str) -> String {
    let mut fields = vec![("source", Json::str(source))];
    if policy != "c1" {
        fields.push(("policy", Json::str(policy)));
    }
    line(id, "analyze", fields)
}

fn query_line(id: u64, digest: &str, kind: &str, target: u32, graded: bool) -> String {
    let field = if kind == "call-targets" {
        "site"
    } else {
        "expr"
    };
    let mut fields = vec![
        ("snapshot", Json::str(digest)),
        ("kind", Json::str(kind)),
        (field, Json::num(target as u64)),
    ];
    if graded {
        fields.push(("precision", Json::Bool(true)));
    }
    line(id, "query", fields)
}

fn modules_json(modules: &[(String, String)]) -> Json {
    Json::Arr(
        modules
            .iter()
            .map(|(name, source)| {
                Json::obj(vec![
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                ])
            })
            .collect(),
    )
}

/// `warm_mix`'s op mix per unit: 60 % plain query, 15 % graded, 10 %
/// lint, 5 % rule, 5 % opt, 5 % by-source analyze.
const WARM_MIX: [(Op, usize); 6] = [
    (Op::Query, 240),
    (Op::Graded, 60),
    (Op::Lint, 40),
    (Op::Rule, 20),
    (Op::Opt, 20),
    (Op::Analyze, 20),
];

/// One `warm_mix` unit as `(op, program, flag)`: each op's count is
/// shared out over the `n` programs in Zipf(1) proportion by rank
/// (largest remainders), and the flag (call-targets rather than
/// label-set; taint rather than dominators) alternates within a share.
/// Every unit sends this deck in a fresh shuffled order.
fn warm_deck(n: usize) -> Vec<(Op, usize, bool)> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut deck = Vec::new();
    for (op, count) in WARM_MIX {
        let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
        let mut share: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - share[b] as f64).total_cmp(&(exact[a] - share[a] as f64))
        });
        let missing = count - share.iter().sum::<usize>();
        for &prog in &by_remainder[..missing] {
            share[prog] += 1;
        }
        for (prog, &k) in share.iter().enumerate() {
            deck.extend((0..k).map(|j| (op, prog, j % 2 == 1)));
        }
    }
    deck
}

/// One connection's request stream.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    conn: usize,
    next_id: u64,
    step: u64,
    queue: VecDeque<Item>,
    /// `warm_mix`'s unit, unshuffled.
    deck: Vec<(Op, usize, bool)>,
    /// The remaining shuffled pass over the pool (`cold_stream` steps,
    /// where indices past the pool stand for Section 5 steps;
    /// `restart_disk` fresh sources).
    order: Vec<usize>,
    unit: u64,
    steps_per_unit: u64,
}

impl Iterator for Stream<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        if self.queue.is_empty() {
            self.unit = self.step / self.steps_per_unit;
            match self.inputs.workload {
                Workload::ColdStream => self.cold_step(),
                Workload::WarmMix => self.warm_unit(),
                Workload::RestartDisk => self.disk_round(),
                Workload::SessionEdits => self.session_cycle(),
            }
            self.step += 1;
        }
        self.queue.pop_front()
    }
}

impl Stream<'_> {
    fn push(&mut self, op: Op, check: Check, make: impl FnOnce(u64) -> String) {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Item::Req(Req {
            id,
            line: make(id),
            op,
            check,
            unit: self.unit,
        }));
    }

    /// A fresh variant of `prog`: a trailing comment changes the content
    /// digest (a guaranteed cache miss) and nothing else — expression
    /// ids, spans and every oracle answer stay those of the pool program.
    fn fresh_source(&self, prog: usize, tag: &str) -> String {
        format!(
            "{}\n(* {tag} {} {} {} *)\n",
            self.inputs.progs[prog].source, self.inputs.seed, self.conn, self.step
        )
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.pick(i + 1);
            order.swap(i, j);
        }
        order
    }

    fn cold_step(&mut self) {
        // Visit the pool in a fresh shuffled order every pass, so each
        // program is sent equally often on every seed, and every pass
        // sends the same mix.
        let k = self.inputs.progs.len();
        if self.order.is_empty() {
            self.order = self.shuffled(k + SECTION5_PER_PASS);
        }
        let prog = self.order.pop().expect("refilled above");
        if prog >= k {
            let digest = digest(SECTION5, "c1");
            for _ in 0..SECTION5_SENDS {
                let check = Check::Section5 {
                    digest: digest.clone(),
                };
                self.push(Op::Analyze, check, |id| analyze_line(id, SECTION5, "c1"));
            }
            return;
        }
        let source = self.fresh_source(prog, "cold");
        let policy = self.inputs.progs[prog].policy;
        let digest = digest(&source, policy);
        let check = Check::Analyze {
            prog,
            digest: digest.clone(),
        };
        self.push(Op::Analyze, check, |id| analyze_line(id, &source, policy));
        let snapshot = Json::str(digest.as_str());
        self.push(Op::Lint, Check::Lint { prog }, |id| {
            line(id, "lint", vec![("snapshot", snapshot)])
        });
        for (call, graded) in [(false, false), (true, false), (false, true), (true, true)] {
            self.query(prog, &digest, call, graded);
        }
    }

    fn query(&mut self, prog: usize, digest: &str, call: bool, graded: bool) {
        let inputs = self.inputs;
        let slot = self.pick(inputs.progs[prog].slots.len());
        let s = &inputs.progs[prog].slots[slot];
        let (kind, target) = if call {
            ("call-targets", s.site)
        } else {
            ("label-set", s.expr)
        };
        let op = if graded { Op::Graded } else { Op::Query };
        let check = Check::Query {
            prog,
            slot,
            call,
            graded,
        };
        self.push(op, check, |id| query_line(id, digest, kind, target, graded));
    }

    fn warm_unit(&mut self) {
        for i in self.shuffled(self.deck.len()) {
            let (op, prog, flag) = self.deck[i];
            let p = &self.inputs.progs[prog];
            let (source, policy) = (p.source.clone(), p.policy);
            let digest = digest(&source, policy);
            match op {
                Op::Query => self.query(prog, &digest, flag, false),
                Op::Graded => self.query(prog, &digest, flag, true),
                Op::Lint => self.push(Op::Lint, Check::Lint { prog }, |id| {
                    line(id, "lint", vec![("snapshot", Json::str(digest.as_str()))])
                }),
                Op::Rule => {
                    let taint = flag;
                    let name = if taint { "taint" } else { "dominators" };
                    self.push(Op::Rule, Check::Rule { prog, taint }, |id| {
                        line(
                            id,
                            "rule",
                            vec![
                                ("snapshot", Json::str(digest.as_str())),
                                ("name", Json::str(name)),
                            ],
                        )
                    })
                }
                Op::Opt => self.push(Op::Opt, Check::Opt { prog }, |id| {
                    line(id, "opt", vec![("snapshot", Json::str(digest.as_str()))])
                }),
                _ => {
                    let check = Check::Analyze {
                        prog,
                        digest: digest.clone(),
                    };
                    self.push(Op::Analyze, check, |id| analyze_line(id, &source, policy))
                }
            }
        }
    }

    fn disk_round(&mut self) {
        self.queue.push_back(Item::Reboot);
        let k = self.inputs.progs.len();
        let mut slots: Vec<Option<usize>> = self.shuffled(k).into_iter().map(Some).collect();
        for _ in 0..FRESH_PER_ROUND {
            let at = self.pick(slots.len() + 1);
            slots.insert(at, None);
        }
        for slot in slots {
            let (prog, source) = match slot {
                Some(prog) => (prog, self.inputs.progs[prog].source.clone()),
                None => {
                    // Fresh sources visit the pool in shuffled passes too.
                    if self.order.is_empty() {
                        self.order = self.shuffled(k);
                    }
                    let prog = self.order.pop().expect("refilled above");
                    let tag = format!("fresh{}", self.next_id);
                    (prog, self.fresh_source(prog, &tag))
                }
            };
            let digest = digest(&source, "c1");
            let check = Check::Analyze {
                prog,
                digest: digest.clone(),
            };
            self.push(Op::Analyze, check, |id| analyze_line(id, &source, "c1"));
            // Two queries per analyze: queries are two thirds of the
            // requests, so the median falls inside one request class.
            self.query(prog, &digest, false, false);
            self.query(prog, &digest, true, false);
        }
    }

    fn session_cycle(&mut self) {
        let inputs = self.inputs;
        let ws_index = self.step as usize % inputs.workspaces.len();
        let ws = &inputs.workspaces[ws_index];
        let session = format!("s{}", self.step);
        let mut modules = ws.modules.clone();
        // A fresh first module makes every reopen a cold link.
        modules[0]
            .1
            .push_str(&format!("\n(* open {} {} *)\n", inputs.seed, self.step));
        let sid = || Json::str(session.as_str());
        let all = modules_json(&modules);
        self.push(Op::SessionOpen, Check::SessionLink, |id| {
            line(
                id,
                "session/open",
                vec![("session", sid()), ("modules", all)],
            )
        });
        for edit in 0..EDITS_PER_SESSION {
            let m = self.pick(modules.len());
            let mut source = edit_literals(&ws.modules[m].1, &mut self.rng);
            source.push_str(&format!("\n(* edit {} {edit} *)\n", self.step));
            let one = modules_json(&[(modules[m].0.clone(), source)]);
            self.push(Op::SessionUpdate, Check::SessionLink, |id| {
                line(
                    id,
                    "session/update",
                    vec![("session", sid()), ("modules", one)],
                )
            });
            let name = self.pick(ws.names.len());
            let binder = Json::str(ws.names[name].0.as_str());
            let check = Check::SessionQuery { ws: ws_index, name };
            self.push(Op::SessionQuery, check, |id| {
                line(
                    id,
                    "session/query",
                    vec![
                        ("session", sid()),
                        ("kind", Json::str("label-set")),
                        ("name", binder),
                    ],
                )
            });
            self.push(Op::SessionLint, Check::SessionLint, |id| {
                line(id, "session/lint", vec![("session", sid())])
            });
        }
        self.push(Op::SessionClose, Check::SessionClose, |id| {
            line(id, "session/close", vec![("session", sid())])
        });
    }
}
