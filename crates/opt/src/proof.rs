//! Portable proof-carrying answers for feasibility and optimality claims.
//!
//! The paper's Theorem 1 gives checkable evidence for *both* sides of every
//! feasibility question: a schedule witness when feasible, an
//! interval-volume certificate when not. A [`Proof`] packages that evidence
//! in a wire-portable form (integer job triples, `mm-json` round-trip) so an
//! untrusted backend's verdict can be re-checked by the coordinator without
//! re-running the flow:
//!
//! * the feasible side carries a compact fluid schedule witness — the
//!   per-elementary-interval allocation of a saturating flow — or, when the
//!   full schedule is too large to ship, a replayable *witness seed* (the
//!   verifier re-derives the verdict through the structured-class
//!   certifiers, which never build a network);
//! * the infeasible side carries the Theorem-1 certificate `(I, C(S,I), m)`
//!   extracted from the minimum cut of the failed flow
//!   ([`FeasibilityProber::infeasible_witness`]), which is always tight
//!   enough to refute `m`;
//! * an optimality claim `m(J) = k` is the conjunction: feasible at `k`,
//!   infeasible at `k − 1`.
//!
//! [`verify`] is the coordinator-side checker: `O(total witness entries ·
//! log n)` arithmetic against the instance shard, **never a flow**. Its
//! verdict is sound in one direction — `Refuted` means the answer and its
//! proof are inconsistent with the instance, full stop; `Verified` means
//! the claim is actually true (the witness *is* a feasible fluid schedule;
//! the certificate *does* exceed `m·|I|`). A proof the checker cannot
//! decide without a flow (a missing component, a seed replay outside the
//! structured classes) is `Unverifiable`, never silently accepted as
//! verified.

use std::collections::BTreeMap;

use mm_instance::{Instance, Interval, IntervalSet};
use mm_json::Json;
use mm_numeric::Rat;

use crate::certifier::FastProber;
use crate::feasibility::{FeasibilityProber, FlowAllocation};

/// Ship full schedule witnesses only up to this many `(job, volume)`
/// entries; larger feasible answers degrade to a replayable witness seed.
pub const PROOF_WITNESS_CAP: usize = 4096;

/// A fluid schedule witness: per elementary interval, how much of each job
/// runs there. Valid iff every job's volumes sum to its processing time,
/// no job exceeds an interval's length (no self-parallelism), no interval
/// exceeds `machines · length`, and every entry sits inside its job's
/// window — all checkable with plain arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleWitness {
    /// The machine count the schedule fits on.
    pub machines: u64,
    /// Disjoint intervals `[start, end)`, in increasing time order.
    pub intervals: Vec<(i64, i64)>,
    /// `alloc[k]` lists `(job id, volume)` pairs for `intervals[k]`.
    pub alloc: Vec<Vec<(u32, i64)>>,
}

/// A Theorem-1 infeasibility certificate: an interval union `I` whose
/// contribution `C(S, I)` exceeds `machines · |I|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeCert {
    /// The machine count the certificate refutes.
    pub machines: u64,
    /// The witness union `I` as `[start, end)` pairs.
    pub witness: Vec<(i64, i64)>,
    /// The claimed contribution `C(S, I)` (re-derived by the verifier).
    pub volume: i64,
}

/// A proof attached to a probe or solve answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
    /// Evidence for "feasible on `machines`". `witness: None` is the
    /// replayable seed form: the verifier re-derives the verdict through
    /// the structured-class certifiers.
    Feasible {
        /// The claimed-feasible machine count.
        machines: u64,
        /// The schedule witness, or `None` for the seed form.
        witness: Option<ScheduleWitness>,
    },
    /// Evidence for "infeasible on the certificate's machine count".
    Infeasible {
        /// The Theorem-1 certificate.
        cert: VolumeCert,
    },
    /// Evidence for "the optimum is exactly `machines`": feasible there,
    /// infeasible one below. `cert` is absent only for `machines == 0`
    /// (valid solely for the empty instance).
    Optimal {
        /// The claimed optimum.
        machines: u64,
        /// Feasibility witness at `machines` (`None` = seed form).
        witness: Option<ScheduleWitness>,
        /// Infeasibility certificate at `machines − 1`.
        cert: Option<VolumeCert>,
    },
}

/// The claim a proof is checked against, reconstructed by the coordinator
/// from the answer's visible fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The answer said "feasible on `m`".
    Feasible(u64),
    /// The answer said "infeasible on `m`".
    Infeasible(u64),
    /// The answer said "the optimum is `m`".
    Optimal(u64),
}

/// Outcome of checking a proof against an instance and a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The proof checks out; the claimed verdict is actually true.
    Verified,
    /// The proof is inconsistent with the instance or the claim — the
    /// answer is provably wrong (or its proof was tampered with).
    Refuted,
    /// The checker cannot decide without running a flow (missing proof
    /// component, seed replay outside the structured classes). Not an
    /// accusation; callers decide policy.
    Unverifiable,
}

impl Verification {
    /// Short stable tag for traces and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Verification::Verified => "verified",
            Verification::Refuted => "refuted",
            Verification::Unverifiable => "unverifiable",
        }
    }
}

fn rat_to_i64(r: &Rat) -> Option<i64> {
    if r.is_integer() {
        r.floor().to_i64()
    } else {
        None
    }
}

fn pairs_to_json(pairs: &[(i64, i64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(s, e)| Json::Arr(vec![Json::Int(*s), Json::Int(*e)]))
            .collect(),
    )
}

fn pairs_from_json(v: &Json, what: &str) -> Result<Vec<(i64, i64)>, String> {
    v.as_arr()
        .ok_or_else(|| format!("proof: {what} must be an array"))?
        .iter()
        .map(|p| {
            let p = p.as_arr().filter(|p| p.len() == 2);
            match p {
                Some([a, b]) => match (a.as_i64(), b.as_i64()) {
                    (Some(a), Some(b)) => Ok((a, b)),
                    _ => Err(format!("proof: {what} entries must be integer pairs")),
                },
                _ => Err(format!("proof: {what} entries must be pairs")),
            }
        })
        .collect()
}

impl ScheduleWitness {
    fn to_json(&self) -> Json {
        Json::obj([
            ("intervals", pairs_to_json(&self.intervals)),
            (
                "alloc",
                Json::Arr(
                    self.alloc
                        .iter()
                        .map(|entries| {
                            Json::Arr(
                                entries
                                    .iter()
                                    .map(|(id, vol)| {
                                        Json::Arr(vec![Json::Int(*id as i64), Json::Int(*vol)])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json, machines: u64) -> Result<Self, String> {
        let intervals = pairs_from_json(
            v.get("intervals")
                .ok_or_else(|| "proof: witness missing \"intervals\"".to_string())?,
            "witness intervals",
        )?;
        let alloc = v
            .get("alloc")
            .and_then(Json::as_arr)
            .ok_or_else(|| "proof: witness missing \"alloc\"".to_string())?
            .iter()
            .map(|entries| {
                pairs_from_json(entries, "witness alloc")?
                    .into_iter()
                    .map(|(id, vol)| {
                        u32::try_from(id)
                            .map(|id| (id, vol))
                            .map_err(|_| "proof: witness job id out of range".to_string())
                    })
                    .collect()
            })
            .collect::<Result<Vec<_>, String>>()?;
        if alloc.len() != intervals.len() {
            return Err("proof: witness alloc/interval length mismatch".into());
        }
        Ok(ScheduleWitness {
            machines,
            intervals,
            alloc,
        })
    }
}

impl VolumeCert {
    fn to_json(&self) -> Json {
        Json::obj([
            ("machines", Json::Int(self.machines as i64)),
            ("witness", pairs_to_json(&self.witness)),
            ("volume", Json::Int(self.volume)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let machines =
            v.get("machines")
                .and_then(Json::as_i64)
                .filter(|&m| m >= 0)
                .ok_or_else(|| "proof: cert missing \"machines\"".to_string())? as u64;
        let witness = pairs_from_json(
            v.get("witness")
                .ok_or_else(|| "proof: cert missing \"witness\"".to_string())?,
            "cert witness",
        )?;
        let volume = v
            .get("volume")
            .and_then(Json::as_i64)
            .ok_or_else(|| "proof: cert missing \"volume\"".to_string())?;
        Ok(VolumeCert {
            machines,
            witness,
            volume,
        })
    }
}

impl Proof {
    /// The proof as a JSON document (the `proof` response field).
    pub fn to_json(&self) -> Json {
        match self {
            Proof::Feasible { machines, witness } => {
                let mut fields = vec![
                    ("kind", Json::str("feasible")),
                    ("machines", Json::Int(*machines as i64)),
                ];
                if let Some(w) = witness {
                    fields.push(("witness", w.to_json()));
                }
                Json::obj(fields)
            }
            Proof::Infeasible { cert } => Json::obj([
                ("kind", Json::str("infeasible")),
                ("machines", Json::Int(cert.machines as i64)),
                ("cert", cert.to_json()),
            ]),
            Proof::Optimal {
                machines,
                witness,
                cert,
            } => {
                let mut fields = vec![
                    ("kind", Json::str("optimal")),
                    ("machines", Json::Int(*machines as i64)),
                ];
                if let Some(w) = witness {
                    fields.push(("witness", w.to_json()));
                }
                if let Some(c) = cert {
                    fields.push(("cert", c.to_json()));
                }
                Json::obj(fields)
            }
        }
    }

    /// Parses a document produced by [`Proof::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "proof: missing \"kind\"".to_string())?;
        let machines =
            v.get("machines")
                .and_then(Json::as_i64)
                .filter(|&m| m >= 0)
                .ok_or_else(|| "proof: missing \"machines\"".to_string())? as u64;
        match kind {
            "feasible" => {
                let witness = match v.get("witness") {
                    Some(w) => Some(ScheduleWitness::from_json(w, machines)?),
                    None => None,
                };
                Ok(Proof::Feasible { machines, witness })
            }
            "infeasible" => {
                let cert = VolumeCert::from_json(
                    v.get("cert")
                        .ok_or_else(|| "proof: infeasible without \"cert\"".to_string())?,
                )?;
                Ok(Proof::Infeasible { cert })
            }
            "optimal" => {
                let witness = match v.get("witness") {
                    Some(w) => Some(ScheduleWitness::from_json(w, machines)?),
                    None => None,
                };
                let cert = match v.get("cert") {
                    Some(c) => Some(VolumeCert::from_json(c)?),
                    None => None,
                };
                Ok(Proof::Optimal {
                    machines,
                    witness,
                    cert,
                })
            }
            other => Err(format!("proof: unknown kind \"{other}\"")),
        }
    }
}

/// Builds the schedule witness for a feasible verdict at `m`, or `None`
/// when the allocation is too large to ship or not integral (the caller
/// falls back to the seed form).
pub fn schedule_witness(instance: &Instance, m: u64) -> Option<ScheduleWitness> {
    if !witness_can_ship(instance) {
        return None;
    }
    let alloc = FeasibilityProber::new(instance).allocation(m)?;
    witness_from_allocation(m, &alloc)
}

/// Every job has `p > 0`, so every allocation holds at least one entry per
/// job: above [`PROOF_WITNESS_CAP`] jobs no witness can ship, and no flow
/// has to run to find that out.
fn witness_can_ship(instance: &Instance) -> bool {
    instance.len() <= PROOF_WITNESS_CAP
}

fn witness_from_allocation(m: u64, alloc: &FlowAllocation) -> Option<ScheduleWitness> {
    let entries: usize = alloc.amounts.iter().map(Vec::len).sum();
    if entries > PROOF_WITNESS_CAP {
        return None;
    }
    let mut intervals = Vec::new();
    let mut out = Vec::new();
    for (iv, amounts) in alloc.intervals.iter().zip(&alloc.amounts) {
        if amounts.is_empty() {
            continue;
        }
        intervals.push((rat_to_i64(&iv.start)?, rat_to_i64(&iv.end)?));
        out.push(
            amounts
                .iter()
                .map(|(id, vol)| Some((id.0, rat_to_i64(vol)?)))
                .collect::<Option<Vec<_>>>()?,
        );
    }
    Some(ScheduleWitness {
        machines: m,
        intervals,
        alloc: out,
    })
}

/// Builds the Theorem-1 certificate for an infeasible verdict at `m`, or
/// `None` when the instance is actually feasible there or the witness does
/// not fit the integer wire form.
pub fn infeasibility_cert(instance: &Instance, m: u64) -> Option<VolumeCert> {
    let set = FeasibilityProber::new(instance).infeasible_witness(m)?;
    cert_from_witness(instance, m, &set)
}

fn cert_from_witness(instance: &Instance, m: u64, set: &IntervalSet) -> Option<VolumeCert> {
    let witness = set
        .parts()
        .iter()
        .map(|iv| Some((rat_to_i64(&iv.start)?, rat_to_i64(&iv.end)?)))
        .collect::<Option<Vec<_>>>()?;
    if witness.len() > PROOF_WITNESS_CAP {
        return None;
    }
    let volume = rat_to_i64(&instance.contribution(set))?;
    Some(VolumeCert {
        machines: m,
        witness,
        volume,
    })
}

/// The proof for a probe answer (`feasible` verdict at `m`). Feasible
/// answers always carry a proof (witness or seed form); infeasible answers
/// carry one when the certificate fits the wire form.
pub fn proof_for_probe(instance: &Instance, m: u64, feasible: bool) -> Option<Proof> {
    if feasible {
        Some(Proof::Feasible {
            machines: m,
            witness: schedule_witness(instance, m),
        })
    } else {
        Some(Proof::Infeasible {
            cert: infeasibility_cert(instance, m)?,
        })
    }
}

/// The proof for an exact solve answer (`optimum == m`).
pub fn proof_for_solve(instance: &Instance, m: u64) -> Proof {
    if m == 0 {
        return Proof::Optimal {
            machines: 0,
            witness: None,
            cert: None,
        };
    }
    Proof::Optimal {
        machines: m,
        witness: schedule_witness(instance, m),
        cert: infeasibility_cert(instance, m - 1),
    }
}

/// [`proof_for_probe`] read from the decider that answered the probe. Equal
/// to it byte for byte: an infeasible verdict a flow decided takes its
/// certificate from that flow's minimum cut, and every other flow the proof
/// needs runs on the decider's prober from a reset, as on a fresh build.
pub fn proof_for_probe_from(decider: &mut FastProber, m: u64, feasible: bool) -> Option<Proof> {
    if feasible {
        Some(Proof::Feasible {
            machines: m,
            witness: decider_witness(decider, m),
        })
    } else {
        Some(Proof::Infeasible {
            cert: decider_cert(decider, m)?,
        })
    }
}

/// [`proof_for_solve`] read from the decider that found the optimum `m`.
/// Equal to it byte for byte: above [`PROOF_WITNESS_CAP`] jobs the feasible
/// side is the seed form with no flow run, and when a flow refuted `m − 1`
/// the certificate comes from that flow's minimum cut.
pub fn proof_for_solve_from(decider: &mut FastProber, m: u64) -> Proof {
    if m == 0 {
        return proof_for_solve(decider.instance(), 0);
    }
    Proof::Optimal {
        machines: m,
        witness: decider_witness(decider, m),
        cert: decider_cert(decider, m - 1),
    }
}

fn decider_witness(decider: &mut FastProber, m: u64) -> Option<ScheduleWitness> {
    if !witness_can_ship(decider.instance()) {
        return None;
    }
    let alloc = decider.flow_prober().allocation(m)?;
    witness_from_allocation(m, &alloc)
}

fn decider_cert(decider: &mut FastProber, m: u64) -> Option<VolumeCert> {
    let set = match decider.flow_witness(m) {
        Some(set) => set,
        None => decider.flow_prober().infeasible_witness(m)?,
    };
    cert_from_witness(decider.instance(), m, &set)
}

/// Checks `proof` against `claim` on `instance`. Pure arithmetic — never
/// builds a flow network. See the module docs for the soundness argument.
pub fn verify(instance: &Instance, claim: &Claim, proof: &Proof) -> Verification {
    match (claim, proof) {
        (Claim::Feasible(m), Proof::Feasible { machines, witness }) if machines == m => {
            check_feasible_side(instance, *m, witness.as_ref())
        }
        (Claim::Infeasible(m), Proof::Infeasible { cert }) if cert.machines == *m => {
            check_cert(instance, cert)
        }
        (
            Claim::Optimal(m),
            Proof::Optimal {
                machines,
                witness,
                cert,
            },
        ) if machines == m => {
            if *m == 0 {
                return if instance.is_empty() {
                    Verification::Verified
                } else {
                    Verification::Refuted
                };
            }
            let feasible = check_feasible_side(instance, *m, witness.as_ref());
            let infeasible = match cert {
                Some(c) if c.machines == m - 1 => check_cert(instance, c),
                Some(_) => Verification::Refuted,
                None => Verification::Unverifiable,
            };
            match (feasible, infeasible) {
                (Verification::Refuted, _) | (_, Verification::Refuted) => Verification::Refuted,
                (Verification::Verified, Verification::Verified) => Verification::Verified,
                _ => Verification::Unverifiable,
            }
        }
        // Kind or machine-count mismatch: the proof does not even speak
        // about the claimed verdict.
        _ => Verification::Refuted,
    }
}

/// Feasible side: check the witness schedule, or replay the verdict through
/// the flow-free structured-class certifiers for the seed form.
fn check_feasible_side(
    instance: &Instance,
    m: u64,
    witness: Option<&ScheduleWitness>,
) -> Verification {
    match witness {
        Some(w) => {
            if w.machines != m {
                return Verification::Refuted;
            }
            check_schedule(instance, m, w)
        }
        None => match FastProber::new(instance).try_certify(m) {
            Some(true) => Verification::Verified,
            Some(false) => Verification::Refuted,
            None => Verification::Unverifiable,
        },
    }
}

/// Validates a fluid schedule witness: disjoint increasing intervals, every
/// entry inside its job's window, `vol ≤ |E|` per job (no self-parallelism),
/// `Σ vol ≤ m·|E|` per interval (machine capacity), and every job's volumes
/// summing to exactly its processing time. Any failure refutes.
fn check_schedule(instance: &Instance, m: u64, w: &ScheduleWitness) -> Verification {
    if w.intervals.len() != w.alloc.len() {
        return Verification::Refuted;
    }
    let jobs: BTreeMap<u32, &mm_instance::Job> = instance.iter().map(|j| (j.id.0, j)).collect();
    let mut totals: BTreeMap<u32, Rat> = BTreeMap::new();
    let mut prev_end: Option<i64> = None;
    for ((s, e), entries) in w.intervals.iter().zip(&w.alloc) {
        if s >= e || prev_end.is_some_and(|p| *s < p) {
            return Verification::Refuted;
        }
        prev_end = Some(*e);
        let iv = Interval::ints(*s, *e);
        let len = iv.length();
        let mut interval_total = Rat::zero();
        let mut per_job: BTreeMap<u32, Rat> = BTreeMap::new();
        for (id, vol) in entries {
            let Some(job) = jobs.get(id) else {
                return Verification::Refuted;
            };
            let vol = Rat::from(*vol);
            if !vol.is_positive() || iv.start < job.release || iv.end > job.deadline {
                return Verification::Refuted;
            }
            // The no-self-parallelism cap must bind the job's *summed*
            // volume in this interval — duplicate entries would otherwise
            // each clear a per-entry check while the job runs at rate > 1.
            let job_total = per_job.entry(*id).or_insert_with(Rat::zero);
            *job_total += vol.clone();
            if *job_total > len {
                return Verification::Refuted;
            }
            interval_total += vol.clone();
            *totals.entry(*id).or_insert_with(Rat::zero) += vol;
        }
        if interval_total > Rat::from(m as i64) * len {
            return Verification::Refuted;
        }
    }
    for (id, job) in &jobs {
        if totals.get(id) != Some(&job.processing) {
            return Verification::Refuted;
        }
    }
    Verification::Verified
}

/// Validates a Theorem-1 certificate: rebuild the union, re-derive
/// `C(S, I)` from the instance, and require both that the shipped volume is
/// honest and that it actually exceeds `machines · |I|`.
fn check_cert(instance: &Instance, cert: &VolumeCert) -> Verification {
    if cert.witness.is_empty() {
        return Verification::Refuted;
    }
    let mut parts = Vec::with_capacity(cert.witness.len());
    for (s, e) in &cert.witness {
        if s >= e {
            return Verification::Refuted;
        }
        parts.push(Interval::ints(*s, *e));
    }
    let set = IntervalSet::from_intervals(parts);
    let volume = instance.contribution(&set);
    if volume != Rat::from(cert.volume) {
        return Verification::Refuted;
    }
    if volume > Rat::from(cert.machines as i64) * set.length() {
        Verification::Verified
    } else {
        Verification::Refuted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal_machines;
    use mm_instance::generators::{self, AgreeableCfg, UniformCfg};

    fn roundtrip(p: &Proof) -> Proof {
        let text = p.to_json().to_compact();
        Proof::from_json(&mm_json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn solve_proof_verifies_and_roundtrips() {
        let inst = Instance::from_ints([(0, 4, 2), (0, 2, 2), (1, 5, 3), (2, 6, 2)]);
        let m = optimal_machines(&inst);
        let proof = proof_for_solve(&inst, m);
        assert_eq!(
            verify(&inst, &Claim::Optimal(m), &proof),
            Verification::Verified
        );
        assert_eq!(roundtrip(&proof), proof);
    }

    #[test]
    fn probe_proofs_verify_on_both_sides() {
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        let feasible = proof_for_probe(&inst, 3, true).unwrap();
        assert_eq!(
            verify(&inst, &Claim::Feasible(3), &feasible),
            Verification::Verified
        );
        let infeasible = proof_for_probe(&inst, 2, false).unwrap();
        assert_eq!(
            verify(&inst, &Claim::Infeasible(2), &infeasible),
            Verification::Verified
        );
        assert_eq!(roundtrip(&infeasible), infeasible);
    }

    #[test]
    fn off_by_one_lies_are_refuted() {
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        let m = optimal_machines(&inst);
        let honest = proof_for_solve(&inst, m);
        // The corruption site's lie: claim m+1 with the proof's machine
        // fields bumped to match.
        let lie = match &honest {
            Proof::Optimal { witness, cert, .. } => Proof::Optimal {
                machines: m + 1,
                witness: witness.clone().map(|mut w| {
                    w.machines = m + 1;
                    w
                }),
                cert: cert.clone().map(|mut c| {
                    c.machines += 1;
                    c
                }),
            },
            _ => unreachable!(),
        };
        assert_eq!(
            verify(&inst, &Claim::Optimal(m + 1), &lie),
            Verification::Refuted
        );
        // A flipped probe verdict is refuted by the kind mismatch alone.
        let feasible = proof_for_probe(&inst, m, true).unwrap();
        assert_eq!(
            verify(&inst, &Claim::Infeasible(m), &feasible),
            Verification::Refuted
        );
    }

    #[test]
    fn tampered_witness_and_cert_are_refuted() {
        let inst = Instance::from_ints([(0, 4, 2), (0, 4, 2), (0, 4, 4)]);
        let m = optimal_machines(&inst);
        let Proof::Optimal { witness, cert, .. } = proof_for_solve(&inst, m) else {
            unreachable!()
        };
        let mut w = witness.unwrap();
        w.alloc[0][0].1 += 1;
        assert_eq!(
            verify(
                &inst,
                &Claim::Optimal(m),
                &Proof::Optimal {
                    machines: m,
                    witness: Some(w),
                    cert: cert.clone(),
                }
            ),
            Verification::Refuted
        );
        let mut c = cert.unwrap();
        c.volume += 1;
        assert_eq!(
            verify(
                &inst,
                &Claim::Infeasible(m - 1),
                &Proof::Infeasible { cert: c }
            ),
            Verification::Refuted
        );
    }

    #[test]
    fn seed_form_replays_through_certifiers() {
        // Agreeable instances are decided by the structured-class
        // certifiers, so the seed form is verifiable without a flow.
        let inst = generators::agreeable(
            &AgreeableCfg {
                n: 12,
                ..AgreeableCfg::default()
            },
            5,
        );
        let m = optimal_machines(&inst);
        let seed_proof = Proof::Feasible {
            machines: m,
            witness: None,
        };
        assert_eq!(
            verify(&inst, &Claim::Feasible(m), &seed_proof),
            Verification::Verified
        );
        let lie = Proof::Feasible {
            machines: m - 1,
            witness: None,
        };
        assert_eq!(
            verify(&inst, &Claim::Feasible(m - 1), &lie),
            Verification::Refuted
        );
    }

    #[test]
    fn empty_and_zero_machine_edges() {
        let empty = Instance::from_ints([] as [(i64, i64, i64); 0]);
        let proof = proof_for_solve(&empty, 0);
        assert_eq!(
            verify(&empty, &Claim::Optimal(0), &proof),
            Verification::Verified
        );
        let inst = Instance::from_ints([(0, 2, 1)]);
        // Optimum 1: the cert side refutes zero machines via the full span.
        let proof = proof_for_solve(&inst, 1);
        assert_eq!(
            verify(&inst, &Claim::Optimal(1), &proof),
            Verification::Verified
        );
        // Claiming the optimum is 0 on a nonempty instance is refuted.
        assert_eq!(
            verify(
                &inst,
                &Claim::Optimal(0),
                &Proof::Optimal {
                    machines: 0,
                    witness: None,
                    cert: None,
                }
            ),
            Verification::Refuted
        );
    }

    #[test]
    fn min_cut_cert_is_tight_across_families() {
        // The extracted certificate must refute m(J) − 1 on every seeded
        // instance — the property the greedy certificate search cannot
        // promise.
        for seed in 0..12u64 {
            let ucfg = UniformCfg {
                n: 14,
                ..UniformCfg::default()
            };
            for inst in [
                generators::uniform(&ucfg, seed),
                generators::agreeable(
                    &AgreeableCfg {
                        n: 14,
                        ..AgreeableCfg::default()
                    },
                    seed,
                ),
                generators::loose(&ucfg, &Rat::half(), seed),
            ] {
                let m = optimal_machines(&inst);
                if m == 0 {
                    continue;
                }
                let cert = infeasibility_cert(&inst, m - 1)
                    .expect("integer instance yields a wire-form certificate");
                assert_eq!(
                    check_cert(&inst, &cert),
                    Verification::Verified,
                    "seed {seed}"
                );
            }
        }
    }
}

#[cfg(test)]
mod review_scratch {
    use super::*;

    #[test]
    fn duplicate_entries_bypass_self_parallelism() {
        // A1, A2 rigid on [0,2]; B rigid on [0,4]. Contribution on [0,2] is
        // 6 > 2*2, so infeasible on m=2.
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 4, 4)]);
        assert_eq!(crate::optimal_machines(&inst), 3, "sanity: optimum is 3");
        // Find B's id.
        let b_id = inst
            .iter()
            .find(|j| j.processing == Rat::from(4))
            .unwrap()
            .id
            .0;
        let ids: Vec<u32> = inst
            .iter()
            .filter(|j| j.processing == Rat::from(2))
            .map(|j| j.id.0)
            .collect();
        let w = ScheduleWitness {
            machines: 2,
            intervals: vec![(0, 2), (2, 4)],
            alloc: vec![
                vec![(ids[0], 2), (ids[1], 2)],
                vec![(b_id, 2), (b_id, 2)], // duplicate: B at rate 2
            ],
        };
        let v = verify(
            &inst,
            &Claim::Feasible(2),
            &Proof::Feasible {
                machines: 2,
                witness: Some(w),
            },
        );
        // This SHOULD be Refuted; if it is Verified the checker is unsound.
        assert_eq!(
            v,
            Verification::Refuted,
            "checker accepted a self-parallel witness"
        );
    }
}
