//! Seeded inputs for every workload. The seed picks the contents; the mix
//! of request kinds, the instance sizes, and the families are fixed by the
//! workload, so two seeds load the program with the same shape of work and
//! their end-to-end numbers are comparable.

use mm_instance::generators::{agreeable, loose, uniform, AgreeableCfg, UniformCfg};
use mm_instance::Instance;
use mm_numeric::Rat;

use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeLarge,
    ServeOnline,
    PoolVerify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::ServeLarge,
        Workload::ServeOnline,
        Workload::PoolVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeLarge => "serve_large",
            Workload::ServeOnline => "serve_online",
            Workload::PoolVerify => "pool_verify",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one request template asks, before the reference optimum is known.
#[derive(Debug)]
pub enum Ask {
    Solve {
        proof: bool,
    },
    /// A probe at `opt + offset` machines (never below 1).
    Probe {
        offset: i64,
        proof: bool,
    },
    Schedule {
        policy: &'static str,
    },
    Online {
        member: &'static str,
    },
}

#[derive(Debug)]
pub struct Spec {
    pub ask: Ask,
    pub jobs: Vec<(i64, i64, i64)>,
}

/// Generates the request specs of `workload` from `seed`.
pub fn specs(workload: Workload, seed: u64) -> Vec<Spec> {
    match workload {
        Workload::ServeSmall => serve_small(seed),
        Workload::ServeLarge => serve_large(seed),
        Workload::ServeOnline => serve_online(seed),
        Workload::PoolVerify => pool_verify(seed),
    }
}

/// 4096 distinct tiny requests: per 20, 8 solves (2 with proofs), 6 probes
/// at the optimum ±1, 3 schedules, and 3 online replays.
fn serve_small(seed: u64) -> Vec<Spec> {
    const POLICIES: [&str; 4] = ["edf", "llf", "edf-ff", "medium-fit"];
    let mut rng = Rng::new(seed, 1);
    (0..4096u64)
        .map(|i| {
            let n = 6 + rng.below(19) as usize;
            let jobs: Vec<_> = (0..n)
                .map(|_| {
                    let r = rng.below(40) as i64;
                    let w = 2 + rng.below(11) as i64;
                    let p = 1 + rng.below(w as u64) as i64;
                    (r, r + w, p)
                })
                .collect();
            let ask = match i % 20 {
                0..=7 => Ask::Solve { proof: i % 20 < 2 },
                8..=13 => Ask::Probe {
                    offset: rng.below(3) as i64 - 1,
                    proof: false,
                },
                14..=16 => Ask::Schedule {
                    policy: POLICIES[(i / 20 % 4) as usize],
                },
                _ => Ask::Online { member: "auto" },
            };
            Spec { ask, jobs }
        })
        .collect()
}

/// Twelve instances of 3k to 19.5k jobs, uniform and agreeable in turn;
/// each is asked as a solve (agreeable ones with a proof, which the
/// flow-free verifier can check) and as probes at `opt − 1` and `opt`. One
/// pass over the 36 requests takes a few seconds, so a run scores several
/// whole passes.
fn serve_large(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    for k in 0..12u64 {
        let n = 3_000 + 1_500 * k as usize;
        let structured = k % 2 == 1;
        let jobs = if structured {
            agreeable_jobs(n, seed ^ (k << 32))
        } else {
            uniform_jobs(n, seed ^ (k << 32))
        };
        out.push(Spec {
            ask: Ask::Solve { proof: structured },
            jobs: jobs.clone(),
        });
        for offset in [-1, 0] {
            out.push(Spec {
                ask: Ask::Probe {
                    offset,
                    proof: false,
                },
                jobs: jobs.clone(),
            });
        }
    }
    out
}

/// 108 online replays of 300 to 1500 releases: agreeable, loose, and
/// uniform streams through all five portfolio members and `auto`. Many
/// distinct streams keep one seed's draw from deciding the run's cost.
fn serve_online(seed: u64) -> Vec<Spec> {
    const MEMBERS: [&str; 6] = ["auto", "loose", "laminar", "agreeable", "cms", "imps"];
    (0..108u64)
        .map(|i| {
            // A permuted size ladder, so size is not tied to member or family.
            let n = 300 + ((i * 7 % 108) * 1_200 / 107) as usize;
            let s = seed ^ (i << 32);
            let jobs = match i % 3 {
                0 => agreeable_jobs(n, s),
                1 => loose_jobs(n, s),
                _ => uniform_jobs(n, s),
            };
            Spec {
                ask: Ask::Online {
                    member: MEMBERS[(i / 3 % 6) as usize],
                },
                jobs,
            }
        })
        .collect()
}

/// 64 pool units of 200 to 800 jobs over the three families, alternating
/// solves and probes at `opt − 1` / `opt`. Every unit asks for a proof, as
/// a verifying coordinator does; at these sizes every proof is checkable.
fn pool_verify(seed: u64) -> Vec<Spec> {
    (0..64u64)
        .map(|i| {
            let n = 200 + ((i * 13 % 64) * 600 / 63) as usize;
            let s = seed ^ (i << 32);
            let jobs = match i % 3 {
                0 => uniform_jobs(n, s),
                1 => agreeable_jobs(n, s),
                _ => loose_jobs(n, s),
            };
            let ask = if i % 2 == 0 {
                Ask::Solve { proof: true }
            } else {
                Ask::Probe {
                    offset: -((i / 2 % 2) as i64),
                    proof: true,
                }
            };
            Spec { ask, jobs }
        })
        .collect()
}

fn uniform_cfg(n: usize) -> UniformCfg {
    UniformCfg {
        n,
        horizon: (5 * n) as i64,
        min_window: 4,
        max_window: 40,
    }
}

fn uniform_jobs(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
    triples(&uniform(&uniform_cfg(n), seed))
}

fn loose_jobs(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
    triples(&loose(&uniform_cfg(n), &Rat::ratio(1, 2), seed))
}

fn agreeable_jobs(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
    let cfg = AgreeableCfg {
        n,
        release_gap: 2,
        min_window: 4,
        max_window: 40,
        unit_processing: None,
    };
    triples(&agreeable(&cfg, seed))
}

/// The integer wire form of a generated instance (every family used here
/// generates integer triples).
fn triples(inst: &Instance) -> Vec<(i64, i64, i64)> {
    let int = |r: &Rat| {
        assert!(r.is_integer(), "generated instance has a fractional field");
        r.floor().to_i64().expect("generated field fits i64")
    };
    inst.iter()
        .map(|j| (int(&j.release), int(&j.deadline), int(&j.processing)))
        .collect()
}
