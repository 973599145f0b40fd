//! The metric table: every number the benchmark reports, with its unit,
//! direction, and (end-to-end only) the regression bound `BENCHMARK.json`
//! carries.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count that must repeat exactly for a fixed seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        higher_is_better: true,
        ..layer(name, unit)
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        exact: true,
        ..layer(name, unit)
    }
}

/// What a user of the stack sees; `latency_tail_ms` is p90 (see `TAIL_Q`).
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_tail_ms", "ms", false, 0.25),
    e2e("goodput_rps", "1/s", true, 0.25),
];

/// One layer each, from the traced run.
pub const PER_LAYER: [Def; 39] = [
    layer("tcp.frontend_us_p50", "us"),
    layer("tcp.first_answer_ms", "ms"),
    layer("protocol.decode_us_p50", "us"),
    layer("protocol.decode_ns_per_byte", "ns/B"),
    layer("protocol.encode_us_p50", "us"),
    layer("supervisor.admit_us_p50", "us"),
    layer("supervisor.admit_us_p99", "us"),
    layer("supervisor.queued_us_p50", "us"),
    layer("supervisor.queued_us_p99", "us"),
    layer("supervisor.reply_us_p50", "us"),
    layer("supervisor.reply_us_p99", "us"),
    layer("supervisor.shed_frac", "ratio"),
    layer("journal.append_us_p50", "us"),
    layer("journal.append_us_p99", "us"),
    layer("journal.ms_per_mb", "ms/MB"),
    count("journal.records_per_req", "count"),
    count("journal.bytes_per_req", "B"),
    layer("exec.us_p50", "us"),
    layer("exec.us_p99", "us"),
    layer("certifier.build_us_p50", "us"),
    layer("certifier.search_us_p50", "us"),
    Def {
        higher_is_better: true,
        ..count("certifier.certified_frac", "ratio")
    },
    count("certifier.rescued", "count"),
    layer("flow.search_ms_p50", "ms"),
    count("flow.probes_per_solve", "count"),
    count("flow.augmentations_per_solve", "count"),
    layer("proof.build_us_p50", "us"),
    count("proof.bytes_p50", "B"),
    layer("proof.verify_us_p50", "us"),
    layer("sim.run_us_p50", "us"),
    layer("online.run_us_p50", "us"),
    layer("online.ns_per_release", "ns"),
    count("online.ratio_millis_sum", "count"),
    layer("setup.generate_s", "s"),
    layer("setup.reference_s", "s"),
    layer("setup.start_s", "s"),
    layer("client.gen_lag_p99_ms", "ms"),
    higher("trace.coverage", "ratio"),
    layer("trace.overhead_frac", "ratio"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}
