//! Property tests for the instance model: interval-set algebra, structural
//! classification invariance, transforms, and lossless serialization.

use mm_instance::generators::{agreeable, laminar, AgreeableCfg, LaminarCfg};
use mm_instance::{Instance, Interval, IntervalSet};
use mm_numeric::Rat;
use proptest::prelude::*;

fn arb_intervals() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..50, 1i64..12).prop_map(|(a, w)| (a, a + w)), 0..12)
}

fn set_of(v: &[(i64, i64)]) -> IntervalSet {
    IntervalSet::from_intervals(v.iter().map(|&(a, b)| Interval::ints(a, b)))
}

/// Multisets of intervals on a coarse grid of denominator 1, 2, or 3: zero
/// lengths give empty intervals, and the small grid makes touching, nested,
/// and duplicate members common. `(start, length, denominator, repeats)`.
fn arb_grid_intervals() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i64..12, 0i64..6, 1i64..4, 1usize..3), 0..16).prop_map(|raw| {
        raw.into_iter()
            .flat_map(|(a, w, den, repeats)| {
                let iv = Interval::new(Rat::ratio(a, den), Rat::ratio(a + w, den));
                std::iter::repeat_n(iv, repeats)
            })
            .collect()
    })
}

proptest! {
    /// Union is commutative, associative, idempotent; length is monotone.
    #[test]
    fn interval_set_union_laws(a in arb_intervals(), b in arb_intervals(), c in arb_intervals()) {
        let (sa, sb, sc) = (set_of(&a), set_of(&b), set_of(&c));
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(sa.union(&sb).union(&sc), sa.union(&sb.union(&sc)));
        prop_assert_eq!(sa.union(&sa), sa.clone());
        prop_assert!(sa.union(&sb).length() >= sa.length());
        prop_assert!(sa.union(&sb).length() <= sa.length() + sb.length());
    }

    /// Intersection distributes with membership and length bounds.
    #[test]
    fn interval_set_intersection_laws(a in arb_intervals(), b in arb_intervals(), probe in 0i64..70) {
        let (sa, sb) = (set_of(&a), set_of(&b));
        let inter = sa.intersection(&sb);
        prop_assert_eq!(inter.clone(), sb.intersection(&sa));
        prop_assert!(inter.length() <= sa.length().min(sb.length()));
        let t = Rat::from(probe);
        prop_assert_eq!(inter.contains(&t), sa.contains(&t) && sb.contains(&t));
        // inclusion–exclusion on measure
        let u = sa.union(&sb);
        prop_assert_eq!(u.length() + inter.length(), sa.length() + sb.length());
    }

    /// Parts of a set are sorted, disjoint, and separated by positive gaps.
    #[test]
    fn interval_set_normal_form(a in arb_intervals()) {
        let s = set_of(&a);
        for w in s.parts().windows(2) {
            prop_assert!(w[0].end < w[1].start, "parts must be separated");
        }
        for p in s.parts() {
            prop_assert!(!p.is_empty());
        }
    }

    /// The sort-once build equals inserting the same intervals one at a
    /// time, in the given order and in reverse.
    #[test]
    fn from_intervals_equals_insert_fold(ivs in arb_grid_intervals()) {
        let fold = |ivs: &mut dyn Iterator<Item = Interval>| {
            let mut s = IntervalSet::empty();
            for iv in ivs {
                s.insert(iv);
            }
            s
        };
        let built = IntervalSet::from_intervals(ivs.iter().cloned());
        prop_assert_eq!(&built, &fold(&mut ivs.iter().cloned()));
        prop_assert_eq!(&built, &fold(&mut ivs.iter().rev().cloned()));
    }

    /// Canonicalization is idempotent: rebuilding an instance from its own
    /// jobs preserves it exactly.
    #[test]
    fn canonicalization_idempotent(jobs in proptest::collection::vec((0i64..20, 1i64..10, 1i64..8), 1..15)) {
        let inst = Instance::from_ints(jobs.iter().map(|&(r, w, p)| (r, r + w, p.min(w))).collect::<Vec<_>>());
        let rebuilt = Instance::from_jobs(inst.jobs().to_vec());
        prop_assert_eq!(&rebuilt, &inst);
        let preserved = Instance::from_jobs_with_ids(inst.jobs().to_vec());
        prop_assert_eq!(&preserved, &inst);
    }

    /// Affine embeddings preserve structure classification and scale the
    /// optimum-relevant quantities consistently.
    #[test]
    fn affine_preserves_structure(seed in 0u64..20, off in -10i64..10, num in 1i64..6, den in 1i64..6) {
        let inst = laminar(&LaminarCfg { depth: 2, branching: 2, ..Default::default() }, seed);
        let scale = Rat::ratio(num, den);
        let emb = inst.affine(&Rat::zero(), &Rat::from(off), &scale);
        prop_assert_eq!(emb.is_laminar(), inst.is_laminar());
        prop_assert_eq!(emb.is_agreeable(), inst.is_agreeable());
        prop_assert_eq!(emb.len(), inst.len());
        prop_assert_eq!(emb.total_processing(), inst.total_processing() * &scale);
        // windows scale too
        prop_assert_eq!(emb.window_union().length(), inst.window_union().length() * &scale);
    }

    /// Loose/tight is a partition for every α.
    #[test]
    fn loose_tight_partition(seed in 0u64..20, num in 1i64..10) {
        let alpha = Rat::ratio(num, 10);
        if alpha >= Rat::one() { return Ok(()); }
        let inst = agreeable(&AgreeableCfg { n: 20, ..Default::default() }, seed);
        let (loose_part, tight_part) = inst.split_loose_tight(&alpha);
        prop_assert_eq!(loose_part.len() + tight_part.len(), inst.len());
        prop_assert!(loose_part.iter().all(|j| j.is_loose(&alpha)));
        prop_assert!(tight_part.iter().all(|j| j.is_tight(&alpha)));
        prop_assert_eq!(
            loose_part.total_processing() + tight_part.total_processing(),
            inst.total_processing()
        );
    }

    /// JSON round-trips are lossless for arbitrary integer instances.
    #[test]
    fn json_roundtrip(jobs in proptest::collection::vec((0i64..20, 1i64..10, 1i64..8), 1..12)) {
        let inst = Instance::from_ints(jobs.iter().map(|&(r, w, p)| (r, r + w, p.min(w))).collect::<Vec<_>>());
        let json = mm_instance::io::to_json(&inst).unwrap();
        let back = mm_instance::io::from_json(&json).unwrap();
        prop_assert_eq!(back, inst);
    }

    /// Contribution is monotone in the union and bounded by `p_j`.
    #[test]
    fn contribution_monotonicity(a in arb_intervals(), b in arb_intervals(), r in 0i64..20, w in 2i64..15, p in 1i64..10) {
        let p = p.min(w);
        let inst = Instance::from_ints([(r, r + w, p)]);
        let job = &inst.jobs()[0];
        let (sa, sb) = (set_of(&a), set_of(&b));
        let u = sa.union(&sb);
        prop_assert!(job.contribution(&sa) <= job.contribution(&u));
        prop_assert!(job.contribution(&u) <= job.processing);
    }
}
