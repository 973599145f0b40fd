//! `cluster online`: the portfolio race served on the pool — every
//! portfolio member × generator family × seed, one `online` request per
//! cell, merged into per-member competitive-ratio statistics.
//!
//! Like the grid, instances are generated *locally* so the sweep is a pure
//! function of its seeds regardless of which backend runs which cell, and
//! the merge is all-integer so same-seed reruns are byte-identical. The
//! same cells can be executed without a pool ([`local_online_merge`]),
//! which is how tests (and the soak harness) check merge parity between a
//! cluster run and a single-node run.

use std::io;

use mm_json::Json;
use mm_online::Member;
use mm_serve::exec::{execute, NoProgress};
use mm_serve::protocol::{Request, RequestKind};
use mm_trace::TraceSink;

use crate::coordinator::{ClusterConfig, ClusterReport, Coordinator};
use crate::grid::{generate, triples};

/// What to race: every member × every family × every seed in `0..seeds`.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Portfolio members to race.
    pub members: Vec<Member>,
    /// Generator families (`uniform`, `agreeable`, `loose` — the
    /// integer-valued generators, same restriction as the grid).
    pub families: Vec<String>,
    /// Seeds per `(member, family)` pair.
    pub seeds: u64,
    /// Jobs per instance.
    pub n: usize,
}

/// Result of a served portfolio sweep.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// `(member, family, seed, response line)` per cell, in cell order.
    pub cells: Vec<(Member, String, u64, String)>,
    /// Per-member merge, by the same rules as [`local_online_merge`]:
    /// completed runs, failures, machines opened vs optimum totals, worst
    /// ratio, misses.
    pub merged: Json,
    /// The underlying scatter–gather report.
    pub report: ClusterReport,
}

/// Builds the cell list: one `online` request per member × family × seed,
/// ids `1..`, sharded by id.
fn units(cfg: &OnlineConfig) -> io::Result<Vec<(Member, String, u64, Request)>> {
    let mut cells = Vec::new();
    for &member in &cfg.members {
        for family in &cfg.families {
            for seed in 0..cfg.seeds.max(1) {
                let inst = generate(family, cfg.n, seed).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unknown online family `{family}` (uniform|agreeable|loose)"),
                    )
                })?;
                let id = cells.len() as u64 + 1;
                let mut req = Request::new(
                    id,
                    RequestKind::Online {
                        jobs: triples(&inst),
                        member: member.label().to_owned(),
                    },
                );
                req.shard = Some(id);
                cells.push((member, family.clone(), seed, req));
            }
        }
    }
    Ok(cells)
}

/// Merges response lines into per-member all-integer statistics: completed
/// runs, failures, machines opened vs optimum totals, worst ratio, misses.
fn merge_cells(members: &[Member], cells: &[(Member, String, u64, String)]) -> Json {
    Json::Arr(
        members
            .iter()
            .map(|&member| {
                let (mut runs, mut failed, mut opened, mut optimum, mut misses) =
                    (0i64, 0i64, 0i64, 0i64, 0i64);
                let mut worst_ratio = 0i64;
                for (m, _, _, line) in cells {
                    if *m != member {
                        continue;
                    }
                    let field = |doc: &Json, key: &str| doc.get(key).and_then(|v| v.as_i64());
                    match mm_json::parse(line) {
                        Ok(doc) if doc.get("status").and_then(|s| s.as_str()) == Some("ok") => {
                            match (
                                field(&doc, "machines_opened"),
                                field(&doc, "optimum"),
                                field(&doc, "ratio_millis"),
                                field(&doc, "misses"),
                            ) {
                                (Some(o), Some(opt), Some(r), Some(miss)) => {
                                    runs += 1;
                                    opened += o;
                                    optimum += opt;
                                    worst_ratio = worst_ratio.max(r);
                                    misses += miss;
                                }
                                _ => failed += 1,
                            }
                        }
                        _ => failed += 1,
                    }
                }
                Json::obj([
                    ("member", Json::str(member.label())),
                    ("runs", Json::Int(runs)),
                    ("failed", Json::Int(failed)),
                    ("machines_opened", Json::Int(opened)),
                    ("optimum", Json::Int(optimum)),
                    ("worst_ratio_millis", Json::Int(worst_ratio)),
                    ("misses", Json::Int(misses)),
                ])
            })
            .collect(),
    )
}

/// Scatters the portfolio sweep across the pool and merges per-member
/// statistics.
pub fn cluster_online<S: TraceSink>(
    cfg: ClusterConfig,
    sink: S,
    online: &OnlineConfig,
) -> io::Result<OnlineOutcome> {
    let labeled = units(online)?;
    let reqs: Vec<Request> = labeled.iter().map(|(_, _, _, r)| r.clone()).collect();
    let coordinator = Coordinator::connect(cfg, sink)?;
    let report = coordinator.run(reqs, &mut |_, _| {})?;
    let cells: Vec<(Member, String, u64, String)> = labeled
        .into_iter()
        .enumerate()
        .map(|(i, (member, family, seed, _))| {
            let line = report
                .responses
                .get(&(i as u64 + 1))
                .cloned()
                .unwrap_or_else(|| "{\"status\":\"lost\"}".to_string());
            (member, family, seed, line)
        })
        .collect();
    let merged = merge_cells(&online.members, &cells);
    Ok(OnlineOutcome {
        cells,
        merged,
        report,
    })
}

/// Executes the same cells on this process (no pool) and merges them with
/// the same rules — the single-node reference a cluster run must match.
pub fn local_online_merge(online: &OnlineConfig) -> io::Result<Json> {
    let cells: Vec<(Member, String, u64, String)> = units(online)?
        .into_iter()
        .map(|(member, family, seed, req)| {
            let line = execute(&req, None, false, &mut NoProgress).to_line();
            (member, family, seed, line)
        })
        .collect();
    Ok(merge_cells(&online.members, &cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_merge_is_deterministic_and_covers_every_cell() {
        let cfg = OnlineConfig {
            members: Member::ALL.to_vec(),
            families: vec!["uniform".into(), "agreeable".into()],
            seeds: 2,
            n: 8,
        };
        let a = local_online_merge(&cfg).unwrap();
        let b = local_online_merge(&cfg).unwrap();
        assert_eq!(a.to_compact(), b.to_compact());
        let merged = a.as_arr().unwrap();
        assert_eq!(merged.len(), Member::ALL.len());
        for entry in merged {
            let runs = entry.get("runs").and_then(|v| v.as_i64()).unwrap();
            let failed = entry.get("failed").and_then(|v| v.as_i64()).unwrap();
            assert_eq!(runs + failed, 4, "every cell accounted for");
            assert_eq!(failed, 0, "local execution never loses a cell");
        }
    }
}
