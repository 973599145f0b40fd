//! Experiment harness for the SPAA'16 reproduction.
//!
//! The paper is a theory paper — its evaluation section *is* its theorems —
//! so every experiment here regenerates one theorem's claim as a measured
//! table whose shape must match the proved bound. Each experiment `E1…E12`
//! (see DESIGN.md §4 and EXPERIMENTS.md) is a library function returning
//! typed rows plus a binary (`cargo run --release -p mm-bench --bin exp_*`)
//! that prints the table.
//!
//! Parameter sweeps run in parallel with crossbeam scoped threads; all
//! scheduling arithmetic stays exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosscheck;
pub mod experiments;
pub mod meter;
pub mod table;

pub use meter::MeterSink;
pub use table::Table;

/// Default worker-thread count for parallel sweeps: the `MACHMIN_JOBS`
/// environment variable when it parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`], otherwise 8.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("MACHMIN_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
}

/// Runs `f` over `items` in parallel with crossbeam scoped threads and
/// returns results in input order.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let mut work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    work.reverse(); // pop from the front of the original order
    let queue = std::sync::Mutex::new(work);
    let results = std::sync::Mutex::new(Vec::<(usize, R)>::with_capacity(n));
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let item = queue.lock().unwrap().pop();
                match item {
                    Some((idx, t)) => {
                        let r = f(t);
                        results.lock().unwrap().push((idx, r));
                    }
                    None => break,
                }
            });
        }
    })
    .expect("experiment worker panicked");
    let mut collected = results.into_inner().unwrap();
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_single_thread() {
        let out = parallel_map(vec![3, 1, 4], 1, |x: i32| x + 1);
        assert_eq!(out, vec![4, 2, 5]);
    }
}
