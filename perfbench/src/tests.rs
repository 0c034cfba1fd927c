//! The benchmark's own checks: its generators and its declared tables.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use stcfa_core::Analysis;
use stcfa_lambda::Program;
use stcfa_server::Json;

use crate::stream::{Check, Inputs, Item, Workload};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Runs `f` on a thread with room for the deep recursion a debug build
/// of the front end needs on lexgen-sized programs.
fn big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("test body panicked");
}

/// The first `n` items of a connection's stream, rendered as text.
fn transcript(inputs: &Inputs, conn: usize, n: usize) -> Vec<String> {
    inputs
        .stream(conn)
        .take(n)
        .map(|item| match item {
            Item::Req(req) => req.line,
            Item::Reboot => "reboot".to_string(),
        })
        .collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_sources() {
    big_stack(|| {
        let corpus = repo().join("corpus");
        for w in Workload::ALL {
            let a = Inputs::new(w, 7, &corpus);
            let b = Inputs::new(w, 7, &corpus);
            let c = Inputs::new(w, 8, &corpus);
            for conn in 0..w.connections(2) {
                assert_eq!(
                    transcript(&a, conn, 400),
                    transcript(&b, conn, 400),
                    "{}: seed 7 gave two different streams",
                    w.name()
                );
            }
            let sources = |i: &Inputs| -> Vec<String> {
                let mut out: Vec<String> = i.progs.iter().map(|p| p.source.clone()).collect();
                for ws in &i.workspaces {
                    out.extend(ws.modules.iter().map(|(_, s)| s.clone()));
                }
                out
            };
            assert_ne!(
                sources(&a),
                sources(&c),
                "{}: seeds 7 and 8 agree",
                w.name()
            );
            assert_ne!(transcript(&a, 0, 400), transcript(&c, 0, 400));
        }
    });
}

/// Every source a stream sends — whole programs and, on
/// `session_edits`, every module set a session holds — parses and
/// analyzes under the default options, except the declared Section 5
/// requests.
#[test]
fn generated_sources_parse_and_analyze() {
    big_stack(|| {
        let corpus = repo().join("corpus");
        for w in Workload::ALL {
            for seed in [1, 2] {
                let inputs = Inputs::new(w, seed, &corpus);
                let mut modules: Vec<(String, String)> = Vec::new();
                let mut section5 = 0;
                for item in inputs.stream(0).take(600) {
                    let Item::Req(req) = item else { continue };
                    if matches!(req.check, Check::Section5 { .. }) {
                        section5 += 1;
                        continue;
                    }
                    let v = Json::parse(req.line.trim_end()).expect("request is JSON");
                    let source = match v.get("op").and_then(Json::as_str) {
                        Some("analyze") => {
                            v.get("source").and_then(Json::as_str).map(str::to_owned)
                        }
                        Some("session/open") => {
                            modules = module_list(&v);
                            Some(modules.iter().map(|(_, s)| s.as_str()).collect())
                        }
                        Some("session/update") => {
                            for (name, source) in module_list(&v) {
                                let m = modules
                                    .iter_mut()
                                    .find(|(n, _)| *n == name)
                                    .expect("known module");
                                m.1 = source;
                            }
                            Some(modules.iter().map(|(_, s)| s.as_str()).collect())
                        }
                        _ => None,
                    };
                    if let Some(source) = source {
                        let p = Program::parse(&source)
                            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}\n{source}", w.name()));
                        Analysis::run(&p)
                            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
                    }
                }
                if w == Workload::ColdStream {
                    assert!(
                        section5 > 0 && section5 % 4 == 0,
                        "Section 5 sends: {section5}"
                    );
                } else {
                    assert_eq!(section5, 0);
                }
            }
        }
    });
}

/// What a request sends, for comparing units: its op and, where it has
/// one, the program and the query kind.
fn mix_key(req: &crate::stream::Req) -> String {
    match &req.check {
        Check::Analyze { prog, .. } | Check::Lint { prog } | Check::Opt { prog } => {
            format!("{:?} {prog}", req.op)
        }
        Check::Query { prog, call, .. } => format!("{:?} {prog} {call}", req.op),
        Check::Rule { prog, taint } => format!("{:?} {prog} {taint}", req.op),
        _ => format!("{:?}", req.op),
    }
}

/// Every measuring unit of a stream sends the same mix, so the
/// end-to-end timings may rank units by speed. On `session_edits` the
/// workspaces and edited modules differ, the ops do not.
#[test]
fn every_unit_sends_the_same_mix() {
    big_stack(|| {
        let corpus = repo().join("corpus");
        for w in Workload::ALL {
            let inputs = Inputs::new(w, 3, &corpus);
            for conn in 0..w.connections(2) {
                let mut units: Vec<Vec<String>> = Vec::new();
                for item in inputs.stream(conn) {
                    let Item::Req(req) = item else { continue };
                    if req.unit >= 4 {
                        break;
                    }
                    if req.unit as usize == units.len() {
                        units.push(Vec::new());
                    }
                    let key = match w {
                        Workload::SessionEdits => format!("{:?}", req.op),
                        _ => mix_key(&req),
                    };
                    units[req.unit as usize].push(key);
                }
                assert_eq!(units.len(), 4, "{}", w.name());
                for unit in &mut units {
                    unit.sort();
                }
                for (u, unit) in units.iter().enumerate() {
                    assert_eq!(unit, &units[0], "{} unit {u}", w.name());
                }
            }
        }
    });
}

fn module_list(v: &Json) -> Vec<(String, String)> {
    v.get("modules")
        .and_then(Json::as_arr)
        .expect("modules")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_owned();
            (field("name"), field("source"))
        })
        .collect()
}

#[test]
fn connections_and_daemon_threads_never_exceed_nproc() {
    for nproc in 1..=8 {
        assert!(crate::drive::options(nproc, None).threads <= nproc);
        for w in Workload::ALL {
            assert!(
                w.connections(nproc) <= nproc,
                "{} at nproc {nproc}",
                w.name()
            );
        }
    }
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// `BENCHMARK.json` and `interactions.json` name the same workloads and
/// metrics this program prints.
#[test]
fn declared_tables_match_the_program() {
    let read =
        |p: PathBuf| Json::parse(&std::fs::read_to_string(&p).expect("readable")).expect("JSON");
    let bench = read(repo().join("BENCHMARK.json"));
    let table = read(repo().join("perfbench/interactions.json"));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names(&bench, "workloads"), workloads);
    let empty = crate::trace::report(&crate::trace::Replay::new(1, None), &Default::default(), 1);
    let layer: Vec<String> = empty.metrics.iter().map(|m| m.0.to_owned()).collect();
    assert_eq!(names(&bench, "per_layer"), layer);
    let units: Vec<&str> = bench
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| m.get("unit").and_then(Json::as_str).expect("unit"))
        .collect();
    assert_eq!(units, empty.metrics.iter().map(|m| m.2).collect::<Vec<_>>());
    let mut end_to_end = names(&bench, "end_to_end");
    end_to_end.extend(crate::PER_OP.iter().map(|p| p.0.to_owned()));
    end_to_end.extend(
        [
            "latency_p50_ms",
            "error_share",
            "disk_bytes_per_source_byte",
        ]
        .map(str::to_owned),
    );
    let mut covered = Vec::new();
    for row in table.get("rows").and_then(Json::as_arr).expect("rows") {
        for m in row
            .get("layer_metrics")
            .and_then(Json::as_arr)
            .expect("layer_metrics")
        {
            covered.push(m.as_str().expect("name").to_owned());
        }
        for pair in row.get("moves").and_then(Json::as_arr).expect("moves") {
            let pair = pair.as_arr().expect("[metric, workload]");
            assert!(
                end_to_end
                    .iter()
                    .any(|m| Some(m.as_str()) == pair[0].as_str()),
                "{pair:?}"
            );
            assert!(
                workloads
                    .iter()
                    .any(|w| Some(w.as_str()) == pair[1].as_str()),
                "{pair:?}"
            );
        }
        for w in row
            .get("no_change")
            .and_then(Json::as_arr)
            .expect("no_change")
        {
            assert!(
                workloads.iter().any(|x| Some(x.as_str()) == w.as_str()),
                "{w:?}"
            );
        }
    }
    covered.sort();
    let mut layer = layer;
    layer.sort();
    assert_eq!(
        covered, layer,
        "every per-layer metric has one interaction row entry"
    );
}
