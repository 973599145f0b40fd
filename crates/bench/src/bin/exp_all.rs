//! Regenerates the experiment tables in EXPERIMENTS.md:
//! `cargo run --release -p mm-bench --bin exp_all [eNN ...] [--csv <dir>]`
//!
//! With no names it runs every experiment; `exp_all e01 e07` runs only the
//! experiments whose names start with those `eNN` prefixes (`e07` is both
//! agreeable tables).
//!
//! With `--csv <dir>`, each table is additionally written as a CSV file for
//! downstream plotting, together with a `<name>.metrics.json` aggregating the
//! trace counters (simulator events, feasibility probes, adversary rounds)
//! recorded while that experiment ran.
use mm_bench::experiments as ex;
use mm_bench::{meter, Table};

/// An experiment's name and the table it prints.
type Experiment = (&'static str, fn() -> Table);

/// Every experiment in print order, with its default parameters.
const EXPERIMENTS: &[Experiment] = &[
    ("e01_lower_bound", || {
        ex::e01_lower_bound::table(&ex::e01_lower_bound::run(6))
    }),
    ("e02_characterization", || {
        ex::e02_characterization::table(&ex::e02_characterization::run(20))
    }),
    ("e03_demigration", || {
        ex::e03_demigration::table(&ex::e03_demigration::run(5))
    }),
    ("e04_loose", || {
        ex::e04_loose::table(&ex::e04_loose::run(10))
    }),
    ("e05_speed_tradeoff", || {
        ex::e05_speed_tradeoff::table(&ex::e05_speed_tradeoff::run(10))
    }),
    ("e06_laminar", || {
        ex::e06_laminar::table(&ex::e06_laminar::run(8))
    }),
    ("e07a_agreeable_curve", || {
        ex::e07_agreeable::curve_table(&ex::e07_agreeable::curve(5))
    }),
    ("e07b_agreeable_runs", || {
        ex::e07_agreeable::run_table(&ex::e07_agreeable::run(8))
    }),
    ("e08_edf_loose", || {
        ex::e08_edf_loose::table(&ex::e08_edf_loose::run(8))
    }),
    ("e09_agreeable_lb", || {
        ex::e09_agreeable_lb::table(&ex::e09_agreeable_lb::run(20, 60))
    }),
    ("e10_baselines", || {
        ex::e10_baselines::table(&ex::e10_baselines::run(3, 8))
    }),
    ("e11_laminar_ablation", || {
        ex::e11_laminar_ablation::table(&ex::e11_laminar_ablation::run(5))
    }),
    ("e12_window_shrink", || {
        ex::e12_window_shrink::table(&ex::e12_window_shrink::run(10))
    }),
    ("e13_nonpreemptive", || {
        ex::e13_nonpreemptive::table(&ex::e13_nonpreemptive::run(30, 5))
    }),
];

/// The `eNN` prefix that selects an experiment.
fn prefix(name: &str) -> &str {
    &name[..3]
}

fn emit(dir: &Option<std::path::PathBuf>, name: &str, build: fn() -> Table) {
    meter::reset();
    let table = build();
    table.print();
    println!();
    if let Some(d) = dir {
        table
            .save_csv(d.join(format!("{name}.csv")))
            .expect("write csv");
        let metrics = meter::snapshot().to_json().to_pretty();
        std::fs::write(d.join(format!("{name}.metrics.json")), metrics).expect("write metrics");
    }
}

/// Reports a bad command line and exits with status 2.
fn usage(msg: &str) -> ! {
    eprintln!("exp_all: {msg}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir = None;
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            let Some(d) = args.next() else {
                usage("--csv requires a directory")
            };
            let p = std::path::PathBuf::from(d);
            std::fs::create_dir_all(&p).expect("create csv dir");
            dir = Some(p);
        } else if EXPERIMENTS.iter().any(|(name, _)| prefix(name) == arg) {
            names.push(arg);
        } else {
            let mut valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| prefix(name)).collect();
            valid.dedup();
            usage(&format!(
                "unknown experiment `{arg}`; valid: {}",
                valid.join(" ")
            ));
        }
    }
    println!("machmin experiment suite — Chen/Megow/Schewior SPAA'16 reproduction\n");
    for &(name, build) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == prefix(name)) {
            continue;
        }
        emit(&dir, name, build);
        if prefix(name) == "e08" {
            println!(
                "Corollary 1 check: {} preemptions (expect 0)\n",
                ex::e08_edf_loose::corollary1_preemptions(8)
            );
        }
    }
}
