//! The correctness gate. Every answer is checked against a reference built
//! at set-up, independently of the serving path where one exists:
//!
//! * solve and probe answers against `optimal_machines_fast` (the certifier
//!   dispatcher, while serve's solve runs the flow search);
//! * schedule and online answers byte for byte against an in-process
//!   `exec::execute` of the same request;
//! * every returned proof through `mm_opt::verify`.
//!
//! Responses are pure functions of their request, so only the first answer
//! to each template is checked in full; later ones must repeat its bytes.

use mm_instance::Instance;
use mm_json::Json;
use mm_serve::exec::{execute, NoProgress};
use mm_serve::protocol::{Request, RequestKind};

use crate::gen::{Ask, Spec};

/// The reference answer of one template.
#[derive(Debug)]
pub enum Expect {
    Machines(u64),
    Feasible(bool),
    /// The exact response bytes after the `id` field.
    Exact(String),
}

/// One request template: the request (id 0), its wire line after the id
/// field, and its reference answer.
pub struct Template {
    pub req: Request,
    pub rest: String,
    pub expect: Expect,
}

/// Builds the templates of `specs`, computing each reference answer.
pub fn reference(specs: &[Spec]) -> Vec<Template> {
    // Consecutive specs often ask about the same jobs; solve them once.
    let mut last: Option<(&Spec, u64)> = None;
    specs
        .iter()
        .map(|spec| {
            let mut opt = || match last {
                Some((prev, m)) if prev.jobs == spec.jobs => m,
                _ => {
                    let m =
                        mm_opt::optimal_machines_fast(&Instance::from_ints(spec.jobs.clone())).0;
                    last = Some((spec, m));
                    m
                }
            };
            let jobs = spec.jobs.clone();
            let (kind, proof, expect) = match &spec.ask {
                Ask::Solve { proof } => (
                    RequestKind::Solve { jobs },
                    *proof,
                    Some(Expect::Machines(opt())),
                ),
                Ask::Probe { offset, proof } => {
                    let opt = opt();
                    let machines = (opt as i64 + offset).max(1) as u64;
                    (
                        RequestKind::Probe { jobs, machines },
                        *proof,
                        Some(Expect::Feasible(machines >= opt)),
                    )
                }
                Ask::Schedule { policy } => (
                    RequestKind::Schedule {
                        jobs,
                        policy: policy.to_string(),
                        machines: None,
                    },
                    false,
                    None,
                ),
                Ask::Online { member } => (
                    RequestKind::Online {
                        jobs,
                        member: member.to_string(),
                    },
                    false,
                    None,
                ),
            };
            let req = Request {
                want_proof: proof,
                ..Request::new(0, kind)
            };
            let expect = expect.unwrap_or_else(|| {
                let line = execute(&req, None, false, &mut NoProgress).to_line();
                Expect::Exact(split_id(&line).expect("response has an id").1.to_string())
            });
            let rest = split_id(&req.to_line())
                .expect("request has an id")
                .1
                .to_string();
            Template { req, rest, expect }
        })
        .collect()
}

/// Splits a wire line `{"id":N,...}` into `N` and the text after the id.
pub fn split_id(line: &str) -> Option<(u64, &str)> {
    let body = line.strip_prefix("{\"id\":")?;
    let end = body.find(|c: char| !c.is_ascii_digit())?;
    Some((body[..end].parse().ok()?, &body[end..]))
}

/// How one response ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    Failed,
}

/// Streaming part of the gate: classifies each response and remembers the
/// first answer to every template for the full check at the end.
pub struct Checker {
    first: Vec<Option<String>>,
    repeats: Vec<u64>,
    /// Answers whose bytes differ from the template's first answer.
    odd: Vec<(usize, String)>,
}

/// Result of the full check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub checked: u64,
    pub wrong: u64,
    pub proofs_verified: u64,
    pub proofs_unverifiable: u64,
}

impl Checker {
    pub fn new(templates: usize) -> Checker {
        Checker {
            first: vec![None; templates],
            repeats: vec![0; templates],
            odd: Vec::new(),
        }
    }

    /// Classifies the response `rest` (the line after its id) to template `t`.
    pub fn observe(&mut self, t: usize, rest: &str) -> Outcome {
        if !rest.starts_with(",\"status\":\"ok\"") {
            return if rest.starts_with(",\"status\":\"overloaded\"") {
                Outcome::Shed
            } else {
                Outcome::Failed
            };
        }
        match &self.first[t] {
            None => self.first[t] = Some(rest.to_string()),
            Some(first) if first == rest => self.repeats[t] += 1,
            Some(_) => self.odd.push((t, rest.to_string())),
        }
        Outcome::Ok
    }

    pub fn merge(&mut self, other: Checker) {
        for (t, first) in other.first.into_iter().enumerate() {
            match (&self.first[t], first) {
                (_, None) => {}
                (None, Some(f)) => self.first[t] = Some(f),
                (Some(mine), Some(f)) if *mine == f => self.repeats[t] += 1,
                (Some(_), Some(f)) => self.odd.push((t, f)),
            }
            self.repeats[t] += other.repeats[t];
        }
        self.odd.extend(other.odd);
    }

    /// Checks every distinct answer seen against its reference.
    pub fn verdict(&self, templates: &[Template]) -> Verdict {
        let mut v = Verdict::default();
        for (t, first) in self.first.iter().enumerate() {
            if let Some(rest) = first {
                let answers = 1 + self.repeats[t];
                v.checked += answers;
                if !valid(&templates[t], rest, &mut v) {
                    v.wrong += answers;
                }
            }
        }
        for (t, rest) in &self.odd {
            v.checked += 1;
            if !valid(&templates[*t], rest, &mut v) {
                v.wrong += 1;
            }
        }
        v
    }
}

/// Whether `rest` is a right answer to `template`, tallying its proof.
fn valid(template: &Template, rest: &str, v: &mut Verdict) -> bool {
    let expect = match &template.expect {
        Expect::Exact(bytes) => return rest == bytes,
        other => other,
    };
    let Ok(doc) = mm_json::parse(&format!("{{\"id\":0{rest}")) else {
        return false;
    };
    let claim = match (expect, &template.req.kind) {
        (Expect::Machines(m), RequestKind::Solve { .. }) => {
            if doc.get("machines").and_then(Json::as_i64) != Some(*m as i64) {
                return false;
            }
            mm_opt::Claim::Optimal(*m)
        }
        (Expect::Feasible(f), RequestKind::Probe { machines, .. }) => {
            if doc.get("feasible").and_then(Json::as_bool) != Some(*f) {
                return false;
            }
            if *f {
                mm_opt::Claim::Feasible(*machines)
            } else {
                mm_opt::Claim::Infeasible(*machines)
            }
        }
        _ => return false,
    };
    match (template.req.want_proof, doc.get("proof")) {
        (false, None) => true,
        (false, Some(_)) => false,
        // An infeasible probe may ship without a proof when its certificate
        // does not fit the wire form; the answer stands, unverified.
        (true, None) => {
            v.proofs_unverifiable += 1;
            matches!(claim, mm_opt::Claim::Infeasible(_))
        }
        (true, Some(proof)) => {
            let Ok(proof) = mm_opt::Proof::from_json(proof) else {
                return false;
            };
            let inst = template.req.instance().expect("solve and probe carry jobs");
            match mm_opt::verify(&inst, &claim, &proof) {
                mm_opt::Verification::Verified => {
                    v.proofs_verified += 1;
                    true
                }
                mm_opt::Verification::Unverifiable => {
                    v.proofs_unverifiable += 1;
                    true
                }
                mm_opt::Verification::Refuted => false,
            }
        }
    }
}
