//! Deterministic parallel execution of independent Monte-Carlo work.
//!
//! The thread-pool sizing and ordered fan-out primitives live in
//! [`distsys::exec`]; this module re-exports them — one source of truth
//! for hardware-parallelism capping — and keeps the Monte-Carlo-specific
//! chunk splitter on top.

pub use distsys::exec::{default_threads, derive_seed, par_map_indexed};

/// Splits `total` Monte-Carlo iterations into `chunks` pieces, runs each
/// with its own derived seed on the thread pool, and folds the results.
///
/// `sim(chunk_seed, iterations)` must be a pure function of its arguments
/// for the run to be reproducible; `merge` folds chunk results in chunk
/// order, so the fold is deterministic too.
pub fn par_monte_carlo<R, S, M>(
    total: u64,
    chunks: usize,
    root_seed: u64,
    threads: usize,
    sim: S,
    merge: M,
) -> Option<R>
where
    R: Send,
    S: Fn(u64, u64) -> R + Sync,
    M: FnMut(R, R) -> R,
{
    if total == 0 || chunks == 0 {
        return None;
    }
    let chunks = chunks.min(total as usize);
    // Split iterations as evenly as possible.
    let base = total / chunks as u64;
    let extra = (total % chunks as u64) as usize;
    let work: Vec<(u64, u64)> = (0..chunks)
        .map(|c| {
            let iters = base + u64::from(c < extra);
            (derive_seed(root_seed, c as u64), iters)
        })
        .collect();
    let parts = par_map_indexed(&work, threads, |_, &(seed, iters)| sim(seed, iters));
    parts.into_iter().reduce(merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_split_covers_all_iterations() {
        // Sum the iteration counts across chunks: must equal the total.
        let total = 1003u64;
        let sum = par_monte_carlo(total, 7, 42, 4, |_seed, iters| iters, |a, b| a + b).unwrap();
        assert_eq!(sum, total);
    }

    #[test]
    fn monte_carlo_deterministic_across_thread_counts() {
        // A toy "simulation" hashing its seed must give identical folds
        // regardless of thread count.
        let run = |threads| {
            par_monte_carlo(
                500,
                10,
                7,
                threads,
                |seed, iters| seed.wrapping_mul(iters),
                |a, b| a ^ b,
            )
            .unwrap()
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(2), run(8));
    }

    #[test]
    fn monte_carlo_zero_total_is_none() {
        assert_eq!(par_monte_carlo(0, 4, 1, 2, |_, _| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn split_reuses_the_shared_seed_stream() {
        // The chunk seeds are exactly the shared executor's derivation
        // from the root seed, in chunk order.
        let seeds = par_monte_carlo(
            4,
            4,
            77,
            2,
            |seed, _| vec![seed],
            |mut a, b| {
                a.extend(b);
                a
            },
        )
        .unwrap();
        let expected: Vec<u64> = (0..4).map(|c| derive_seed(77, c)).collect();
        assert_eq!(seeds, expected);
    }
}
