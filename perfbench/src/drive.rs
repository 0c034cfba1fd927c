//! Driving the real daemon (`Server::serve_tcp` on loopback, in this
//! process) with closed-loop clients, one request in flight per
//! connection, every response checked as it arrives.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Instant;

use stcfa_devkit::hash::Fnv1a;
use stcfa_server::{Json, Server, ServerOptions, StoreStats};

use crate::check::{check, Outcome};
use crate::stream::{Check, Inputs, Item, Op, Req, Workload};

/// Requests per connection whose responses the transcript digest
/// covers. A run always completes them, even past its deadline, so the
/// digest compares across runs whatever their length.
pub const TRANSCRIPT_WINDOW: usize = 200;

/// Snapshot-store capacity for every workload: small enough that
/// `cold_stream` and `session_edits` reach their eviction steady state
/// within a run, large enough for `warm_mix`'s resident set.
const CACHE_CAPACITY: usize = 24 << 20;

/// Daemon options: worker threads capped at `nproc` (and at 2).
pub fn options(nproc: usize, cache_dir: Option<PathBuf>) -> ServerOptions {
    ServerOptions {
        threads: nproc.clamp(1, 2),
        cache_capacity: CACHE_CAPACITY,
        cache_dir,
        ..ServerOptions::default()
    }
}

/// A daemon ready for the timed run, made in set-up.
pub struct Prepared {
    pub inputs: Inputs,
    /// The daemon (`warm_mix`: already holding its resident set). `None`
    /// on `restart_disk`, which boots one per round.
    pub server: Option<Server>,
    /// `restart_disk`'s cache directory, holding the K persisted programs.
    pub disk: Option<PathBuf>,
    /// Persisted snapshot bytes ÷ source bytes of the K programs.
    pub disk_ratio: Option<f64>,
    /// The priming requests and the daemon's responses, in order.
    pub primed: Vec<(String, String)>,
}

/// Set-up: generate inputs and oracles, then pre-populate the daemon's
/// cache or the disk directory.
pub fn setup(
    workload: Workload,
    seed: u64,
    corpus: &Path,
    work: &Path,
    nproc: usize,
) -> Result<Prepared, String> {
    let inputs = Inputs::new(workload, seed, corpus);
    let mut prepared = Prepared {
        inputs,
        server: None,
        disk: None,
        disk_ratio: None,
        primed: Vec::new(),
    };
    if workload == Workload::RestartDisk {
        let dir = work.join("disk");
        reset_dir(&dir)?;
        let server = Server::new(options(nproc, Some(dir.clone())));
        prepared.primed = prime(&server, &prepared.inputs)?;
        let stats = server.store().stats();
        if stats.disk_writes != prepared.inputs.progs.len() as u64 {
            return Err(format!("set-up persisted {} snapshots", stats.disk_writes));
        }
        let mut disk_bytes = 0u64;
        for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
            disk_bytes += entry
                .and_then(|e| e.metadata())
                .map_err(|e| e.to_string())?
                .len();
        }
        let source_bytes: usize = prepared.inputs.progs.iter().map(|p| p.source.len()).sum();
        prepared.disk_ratio = Some(disk_bytes as f64 / source_bytes as f64);
        prepared.disk = Some(dir);
    } else {
        let server = Server::new(options(nproc, None));
        prepared.primed = prime(&server, &prepared.inputs)?;
        prepared.server = Some(server);
    }
    Ok(prepared)
}

/// Empties (or creates) a scratch directory.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", dir.display()))
        }
        _ => {}
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Sends the priming requests in process, in order.
fn prime(server: &Server, inputs: &Inputs) -> Result<Vec<(String, String)>, String> {
    let mut primed = Vec::new();
    for line in inputs.priming() {
        let response = server.handle_line(line.trim_end(), Instant::now());
        let ok = Json::parse(&response)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool));
        if ok != Some(true) {
            return Err(format!("priming request failed: {response}"));
        }
        primed.push((line, response));
    }
    Ok(primed)
}

/// One request as the daemon answered it, handed to the replay.
pub struct Logged {
    pub req: Req,
    pub response: String,
    pub latency_ns: u64,
}

/// What a traced run hands its replay: a request, or (`restart_disk`) a
/// daemon restart.
pub enum Entry {
    Req(Logged),
    Reboot,
}

/// One completed request of a timed run.
#[derive(Clone, Copy)]
pub struct Sample {
    pub op: Op,
    pub latency_ns: u64,
    /// When the response arrived, since the run started.
    pub end_ns: u64,
    pub conn: usize,
    pub unit: u64,
}

/// What the untraced run measured.
#[derive(Default)]
pub struct RunResult {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Expected refusals (Section 5) and Section 5 requests sent.
    pub refused: u64,
    pub section5: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// FNV-1a over each connection's first `TRANSCRIPT_WINDOW` response
    /// lines, combined in connection order.
    pub transcript: u64,
    pub wall_s: f64,
    /// Store counters over the timed run, summed over daemons.
    pub store: StoreStats,
}

/// One connection's share of a run.
#[derive(Default)]
struct ConnResult {
    samples: Vec<Sample>,
    refused: u64,
    section5: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
    transcript: Fnv1a,
    done: usize,
}

type Io = (TcpStream, BufReader<TcpStream>);

impl ConnResult {
    /// Sends one request, reads its response line, checks it. Returns
    /// the exchange when `keep` asks for it (traced runs).
    fn exchange(
        &mut self,
        io: &mut Io,
        req: Req,
        inputs: &Inputs,
        keep: bool,
        t0: Instant,
    ) -> io::Result<Option<Logged>> {
        let mut response = String::new();
        let started = Instant::now();
        io.0.write_all(req.line.as_bytes())?;
        io.1.read_line(&mut response)?;
        let latency_ns = started.elapsed().as_nanos() as u64;
        if response.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.samples.push(Sample {
            op: req.op,
            latency_ns,
            end_ns: t0.elapsed().as_nanos() as u64,
            conn: 0,
            unit: req.unit,
        });
        if matches!(req.check, Check::Section5 { .. }) {
            self.section5 += 1;
        }
        match check(&response, &req, inputs) {
            Outcome::Ok => {}
            Outcome::Refused => self.refused += 1,
            Outcome::Mismatch(why) => {
                self.mismatches += 1;
                self.first_mismatch.get_or_insert(why);
            }
        }
        if self.done < TRANSCRIPT_WINDOW {
            self.transcript.write(response.as_bytes());
        }
        self.done += 1;
        Ok(keep.then_some(Logged {
            req,
            response,
            latency_ns,
        }))
    }

    fn finished(&self, deadline: Instant) -> bool {
        self.done >= TRANSCRIPT_WINDOW && Instant::now() >= deadline
    }
}

fn connect(addr: SocketAddr) -> io::Result<Io> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    Ok((sock.try_clone()?, BufReader::new(sock)))
}

/// Runs `f` against `server` serving TCP on an ephemeral loopback port,
/// then shuts the daemon down over the protocol and joins it.
fn serving<R>(server: &Server, f: impl FnOnce(SocketAddr) -> R) -> Result<R, String> {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let daemon = scope.spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                let _ = tx.send(addr);
            })
        });
        let Ok(addr) = rx.recv() else {
            return Err(match daemon.join() {
                Ok(Err(e)) => format!("daemon failed to bind: {e}"),
                _ => "daemon failed to bind".to_string(),
            });
        };
        let out = f(addr);
        let bye = connect(addr).and_then(|mut io| {
            io.0.write_all(b"{\"op\":\"shutdown\"}\n")?;
            io.1.read_line(&mut String::new())
        });
        let joined = daemon.join();
        bye.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("daemon transport: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    })
}

fn store_delta(after: StoreStats, before: StoreStats) -> StoreStats {
    StoreStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        disk_hits: after.disk_hits - before.disk_hits,
        disk_writes: after.disk_writes - before.disk_writes,
        ..after
    }
}

fn add_store(acc: &mut StoreStats, s: StoreStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.disk_hits += s.disk_hits;
    acc.disk_writes += s.disk_writes;
}

/// A traced run's replay, called on the measuring thread.
pub type Hook<'h> = &'h mut dyn FnMut(Entry);

/// The timed, closed-loop run for `seconds`. Untraced (`hook` is
/// `None`), every connection runs free. Traced, the connections run in
/// lockstep with the replay: each round every connection completes one
/// request, then the replay serves those requests before the next round
/// starts, so the daemon and the replay see the same host conditions.
pub fn measure(
    prepared: &Prepared,
    seconds: f64,
    nproc: usize,
    mut hook: Option<Hook<'_>>,
) -> Result<RunResult, String> {
    let inputs = &prepared.inputs;
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let (conns, store) = match &prepared.server {
        Some(server) => {
            let before = server.store().stats();
            let n = inputs.workload.connections(nproc);
            let conns = serving(server, |addr| match hook {
                None => free_running(addr, n, inputs, deadline, started),
                Some(hook) => lockstep(addr, n, inputs, deadline, started, hook),
            })?
            .map_err(|e| format!("client: {e}"))?;
            (conns, store_delta(server.store().stats(), before))
        }
        None => {
            let dir = prepared.disk.clone().expect("restart_disk has a cache dir");
            let mut res = ConnResult::default();
            let mut store = StoreStats::default();
            let mut items = inputs.stream(0).peekable();
            while !res.finished(deadline) {
                let Some(Item::Reboot) = items.next() else {
                    unreachable!("every round starts with a reboot")
                };
                if let Some(hook) = hook.as_mut() {
                    hook(Entry::Reboot);
                }
                let server = Server::new(options(nproc, Some(dir.clone())));
                serving(&server, |addr| -> io::Result<()> {
                    let mut io = connect(addr)?;
                    while let Some(Item::Req(_)) = items.peek() {
                        let Some(Item::Req(req)) = items.next() else {
                            unreachable!("peeked a request")
                        };
                        let logged = res.exchange(&mut io, req, inputs, hook.is_some(), started)?;
                        if let (Some(hook), Some(logged)) = (hook.as_mut(), logged) {
                            hook(Entry::Req(logged));
                        }
                    }
                    Ok(())
                })?
                .map_err(|e| format!("client: {e}"))?;
                add_store(&mut store, server.store().stats());
            }
            (vec![res], store)
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = RunResult {
        wall_s,
        store,
        ..RunResult::default()
    };
    let mut transcript = Fnv1a::new();
    for (conn, c) in conns.into_iter().enumerate() {
        out.attempted += c.samples.len() as u64;
        out.samples
            .extend(c.samples.into_iter().map(|s| Sample { conn, ..s }));
        out.refused += c.refused;
        out.section5 += c.section5;
        out.mismatches += c.mismatches;
        if out.first_mismatch.is_none() {
            out.first_mismatch = c.first_mismatch;
        }
        transcript.write_u64(c.transcript.finish());
    }
    out.transcript = transcript.finish();
    Ok(out)
}

/// The stream's requests (restarts only happen on `restart_disk`).
fn requests(inputs: &Inputs, conn: usize) -> impl Iterator<Item = Req> + '_ {
    inputs.stream(conn).filter_map(|item| match item {
        Item::Req(req) => Some(req),
        Item::Reboot => None,
    })
}

fn free_running(
    addr: SocketAddr,
    n: usize,
    inputs: &Inputs,
    deadline: Instant,
    started: Instant,
) -> io::Result<Vec<ConnResult>> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..n)
            .map(|c| {
                scope.spawn(move || {
                    let mut io = connect(addr)?;
                    let mut res = ConnResult::default();
                    for req in requests(inputs, c) {
                        if res.finished(deadline) {
                            break;
                        }
                        res.exchange(&mut io, req, inputs, false, started)?;
                    }
                    Ok(res)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn lockstep(
    addr: SocketAddr,
    n: usize,
    inputs: &Inputs,
    deadline: Instant,
    started: Instant,
    hook: Hook<'_>,
) -> io::Result<Vec<ConnResult>> {
    let turn = Barrier::new(n + 1);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Logged>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..n)
            .map(|c| {
                let (turn, stop, slot) = (&turn, &stop, &slots[c]);
                scope.spawn(move || {
                    let mut res = ConnResult::default();
                    let mut io = connect(addr);
                    let mut reqs = requests(inputs, c);
                    let mut failed = None;
                    loop {
                        turn.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A failed connection keeps meeting the barrier
                        // (with an empty slot) so the round still ends.
                        if let (Ok(io), None) = (&mut io, &failed) {
                            let req = reqs.next().expect("request streams are endless");
                            match res.exchange(io, req, inputs, true, started) {
                                Ok(logged) => *slot.lock().expect("slot poisoned") = logged,
                                Err(e) => failed = Some(e),
                            }
                        }
                        turn.wait();
                    }
                    match (io, failed) {
                        (Err(e), _) | (_, Some(e)) => Err(e),
                        _ => Ok(res),
                    }
                })
            })
            .collect();
        let mut rounds = 0;
        loop {
            let done = rounds >= TRANSCRIPT_WINDOW && Instant::now() >= deadline;
            if done {
                stop.store(true, Ordering::SeqCst);
                turn.wait();
                break;
            }
            turn.wait();
            turn.wait();
            rounds += 1;
            let mut complete = true;
            for slot in &slots {
                match slot.lock().expect("slot poisoned").take() {
                    Some(logged) => hook(Entry::Req(logged)),
                    None => complete = false,
                }
            }
            if !complete {
                // Some connection failed: end the run, report its error.
                stop.store(true, Ordering::SeqCst);
                turn.wait();
                break;
            }
        }
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
