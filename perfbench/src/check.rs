//! Response verification against the set-up oracles.

use stcfa_server::Json;

use crate::stream::{Check, Inputs, Req};

/// The verdict on one response.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The response is correct.
    Ok,
    /// A structured refusal the oracle expects: the Section 5 program's
    /// `analysis` error. It counts in `error_share`, not as a mismatch.
    Refused,
    /// The response disagrees with the oracle.
    Mismatch(String),
}

/// Checks one response line (with its newline) against its request.
pub fn check(response: &str, req: &Req, inputs: &Inputs) -> Outcome {
    match verify(response, req, inputs) {
        Ok(outcome) => outcome,
        Err(why) => {
            let line = req.line.trim_end();
            let head = &line[..line.floor_char_boundary(160)];
            Outcome::Mismatch(format!("request {} ({head}): {why}", req.id))
        }
    }
}

fn verify(response: &str, req: &Req, inputs: &Inputs) -> Result<Outcome, String> {
    let body = response
        .strip_suffix('\n')
        .ok_or("response is not one newline-terminated line")?;
    let v = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    if v.get("id").and_then(Json::as_u64) != Some(req.id) {
        return Err(format!("response id out of order: {body}"));
    }
    let ok = v.get("ok").and_then(Json::as_bool);
    if let Check::Section5 { digest } = &req.check {
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        return match ok {
            Some(false) if kind == Some("analysis") => Ok(Outcome::Refused),
            Some(true) => {
                let r = v.get("result").ok_or("no result")?;
                expect_str(r, "snapshot", digest)?;
                Ok(Outcome::Ok)
            }
            _ => Err(format!("unexpected Section 5 response: {body}")),
        };
    }
    if ok != Some(true) {
        return Err(format!("error response: {body}"));
    }
    let r = v.get("result").ok_or("no result")?;
    match &req.check {
        Check::Section5 { .. } => unreachable!("handled above"),
        Check::Analyze { prog, digest } => {
            expect_str(r, "snapshot", digest)?;
            let counts = inputs.progs[*prog].counts;
            for (field, want) in ["exprs", "labels", "nodes", "edges", "comps"]
                .iter()
                .zip(counts)
            {
                expect_num(r, field, want)?;
            }
        }
        Check::Query {
            prog,
            slot,
            call,
            graded,
        } => {
            let p = &inputs.progs[*prog];
            let s = &p.slots[*slot];
            let (cfa0, sub, run) = if *call {
                (&s.cfa0_site, &s.sub_site, &s.run_site)
            } else {
                (&s.cfa0_expr, &s.sub_expr, &s.run_expr)
            };
            let got = labels(r)?;
            if !subset(run, &got) {
                return Err(format!("answer {got:?} misses the evaluated calls {run:?}"));
            }
            if !*graded {
                if !subset(cfa0, &got) {
                    return Err(format!("answer {got:?} misses Cfa0's {cfa0:?}"));
                }
                if p.exact() && &got != cfa0 {
                    return Err(format!(
                        "answer {got:?} differs from Cfa0's {cfa0:?} under exact"
                    ));
                }
                return Ok(Outcome::Ok);
            }
            // The tier semantics `tests/precision_differential.rs` pins.
            if !subset(&got, sub) {
                return Err(format!("graded {got:?} exceeds the plain answer {sub:?}"));
            }
            let grade = r.get("precision").ok_or("graded answer carries no grade")?;
            let class = grade
                .get("class")
                .and_then(Json::as_str)
                .ok_or("no class")?;
            let tier = grade.get("tier").and_then(Json::as_u64).ok_or("no tier")?;
            let ok = match class {
                "exact" => &got == cfa0,
                "approx" => subset(cfa0, &got),
                "refined" => got.len() < sub.len(),
                _ => false,
            };
            if !ok || (tier == 2 && !subset(&got, cfa0)) {
                return Err(format!(
                    "graded {got:?} ({class}, tier {tier}) against Cfa0 {cfa0:?}, plain {sub:?}"
                ));
            }
        }
        Check::Lint { prog } => {
            let n = diagnostics(r)?;
            expect_eq("lint diagnostics", n, consumers(inputs, *prog)?.lint)?;
        }
        Check::Rule { prog, taint } => {
            let c = consumers(inputs, *prog)?;
            let (field, want) = if *taint {
                ("tainted", c.taint)
            } else {
                ("nodes", c.dominators)
            };
            let n = r
                .get(field)
                .and_then(Json::as_arr)
                .ok_or("rule result")?
                .len();
            expect_eq(field, n as u64, want)?;
        }
        Check::Opt { prog } => {
            expect_num(r, "performed", consumers(inputs, *prog)?.opt)?;
        }
        Check::SessionLink => {
            let modules = r
                .get("modules")
                .and_then(Json::as_arr)
                .ok_or("no modules")?;
            let reused = r.get("reused").and_then(Json::as_u64).ok_or("no reused")?;
            let relinked = r
                .get("relinked")
                .and_then(Json::as_u64)
                .ok_or("no relinked")?;
            expect_eq("reused + relinked", reused + relinked, modules.len() as u64)?;
        }
        Check::SessionQuery { ws, name } => {
            let (_, whole, cfa0) = &inputs.workspaces[*ws].names[*name];
            let got = labels(r)?;
            if &got != whole {
                return Err(format!(
                    "session answer {got:?} differs from whole-program {whole:?}"
                ));
            }
            if !subset(cfa0, &got) {
                return Err(format!("session answer {got:?} misses Cfa0's {cfa0:?}"));
            }
        }
        Check::SessionLint => {
            diagnostics(r)?;
        }
        Check::SessionClose => {
            if r.get("closed").and_then(Json::as_bool) != Some(true) {
                return Err("session not closed".into());
            }
        }
    }
    Ok(Outcome::Ok)
}

fn consumers(inputs: &Inputs, prog: usize) -> Result<&crate::inputs::Consumers, String> {
    inputs.progs[prog]
        .consumers
        .as_ref()
        .ok_or_else(|| "no consumer oracle for this program".to_string())
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

fn expect_num(r: &Json, field: &str, want: u64) -> Result<(), String> {
    let got = r
        .get(field)
        .and_then(Json::as_u64)
        .ok_or(format!("no `{field}`"))?;
    expect_eq(field, got, want)
}

fn expect_str(r: &Json, field: &str, want: &str) -> Result<(), String> {
    match r.get(field).and_then(Json::as_str) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("`{field}`: got {got:?}, want {want}")),
    }
}

/// A label-set answer, sorted; `count` must agree with it.
fn labels(r: &Json) -> Result<Vec<u32>, String> {
    let arr = r.get("labels").and_then(Json::as_arr).ok_or("no labels")?;
    let mut out = arr
        .iter()
        .map(|l| l.as_u64().map(|n| n as u32).ok_or("label is not an index"))
        .collect::<Result<Vec<_>, _>>()?;
    expect_num(r, "count", out.len() as u64)?;
    out.sort_unstable();
    Ok(out)
}

fn diagnostics(r: &Json) -> Result<u64, String> {
    let n = r
        .get("diagnostics")
        .and_then(Json::as_arr)
        .ok_or("no diagnostics")?
        .len() as u64;
    expect_num(r, "count", n)?;
    Ok(n)
}

/// Whether sorted `a` ⊆ sorted `b`.
fn subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|x| b.binary_search(x).is_ok())
}
