//! # postopc-parallel
//!
//! A minimal scoped-thread work pool (no external dependencies) shared by
//! the post-OPC extraction engine and Monte Carlo timing.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — every map returns results in input order, so a
//!    caller that merges them sequentially produces output that is
//!    bit-identical to a serial run regardless of thread count or
//!    scheduling.
//! 2. **Zero dependencies** — `std::thread::scope` plus an atomic work
//!    index; the workspace must build offline.
//! 3. **Borrow-friendliness** — scoped threads let workers capture `&T`
//!    borrows of the design/model being analyzed, so no `Arc` plumbing
//!    leaks into the engines.
//!
//! Thread count resolution (first match wins): explicit override from the
//! caller's config, the `POSTOPC_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! let squares: Result<Vec<i32>, ()> =
//!     postopc_parallel::try_par_map(4, &[1, 2, 3, 4], |_, &x| Ok(x * x));
//! assert_eq!(squares, Ok(vec![1, 4, 9, 16]));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "POSTOPC_THREADS";

/// Resolves the worker-thread count for a work pool.
///
/// Precedence: `config_override` (from e.g. `ExtractionConfig::threads`),
/// then the `POSTOPC_THREADS` environment variable, then the hardware
/// parallelism. Zero or unparsable values at any level are ignored, and
/// the result is always at least 1.
#[must_use]
pub fn effective_threads(config_override: Option<usize>) -> usize {
    config_override
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Chunks per worker the cost-aware scheduler aims for: enough slack for
/// dynamic rebalancing when chunk cost estimates are off, few enough that
/// dispatch overhead (one atomic op per chunk) stays negligible.
const CHUNKS_PER_WORKER: u64 = 4;

/// Maps `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order.
///
/// `f` receives the item index alongside the item so callers can key
/// deterministic per-item state (seeds, labels) off the input position.
/// With `threads <= 1` (or fewer than two items) the map runs inline on
/// the calling thread — the `POSTOPC_THREADS=1` fallback is exactly the
/// serial loop.
///
/// Items are dispatched in contiguous chunks of ~`len / (threads × 4)`,
/// balancing long-tailed workloads without paying one atomic operation per
/// item.
///
/// # Panics
///
/// Panics propagate from worker threads to the caller.
fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_chunked(threads, items, |_, _| 1, || (), |(), i, t| f(i, t))
}

/// Maps `f` over `items` on up to `threads` scoped workers with
/// per-worker reusable state, returning the results in input order.
///
/// `init` runs once per worker thread (exactly once total when the map
/// degrades to the inline serial path at `threads <= 1`), and the state it
/// returns is threaded mutably through every call that worker makes. The
/// Monte Carlo timing engine uses this to reuse scratch buffers across
/// samples instead of reallocating them per item.
///
/// Scheduling is identical to [`try_par_map`] (contiguous chunks,
/// input-order merge), so as long as `f`'s *result* does not depend on
/// the state's history — scratch buffers, caches — output is
/// bit-identical to a serial run for any thread count.
///
/// # Panics
///
/// Panics propagate from worker threads to the caller.
pub fn par_map_init<T, R, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map_chunked(threads, items, |_, _| 1, init, f)
}

/// [`par_map_init`] with a fallible mapper; error selection follows
/// [`try_par_map`] (the first error in input order wins).
fn try_par_map_init<T, R, E, S, I, F>(
    threads: usize,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in par_map_init(threads, items, init, f) {
        out.push(r?);
    }
    Ok(out)
}

/// Splits `0..len` into contiguous ranges of `batch` items each (the last
/// range may be shorter): the unit of work for
/// [`try_par_map_batched_init`].
fn batch_ranges(len: usize, batch: usize) -> Vec<std::ops::Range<usize>> {
    let batch = batch.max(1);
    (0..len.div_ceil(batch))
        .map(|b| b * batch..((b + 1) * batch).min(len))
        .collect()
}

/// Batched fallible [`par_map_init`]: maps contiguous index ranges of
/// `0..len`, `batch` indices each (the last range may be shorter), instead
/// of single items, for kernels that amortize work across a whole batch —
/// the Monte Carlo engine evaluates `LANES` samples per gate visit this
/// way. `f` must return exactly one result per index in its range; the
/// per-range vectors are flattened back to input order, and error
/// selection follows [`try_par_map`] (the first error in input order wins,
/// at batch granularity).
///
/// Scheduling is [`par_map_init`] over the ranges, so results are
/// bit-identical for any thread count as long as `f`'s results do not
/// depend on the per-worker state's history.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing batch, if any.
///
/// # Panics
///
/// Panics if `f` returns a vector whose length differs from its range.
pub fn try_par_map_batched_init<R, E, S, I, F>(
    threads: usize,
    len: usize,
    batch: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> Result<Vec<R>, E> + Sync,
{
    let ranges = batch_ranges(len, batch);
    let per_range = try_par_map_init(threads, &ranges, init, |state, _, range| {
        f(state, range.clone())
    })?;
    let mut out = Vec::with_capacity(len);
    for (range, chunk) in ranges.iter().zip(per_range) {
        assert_eq!(
            chunk.len(),
            range.len(),
            "batched mapper must return one result per index in its range"
        );
        out.extend(chunk);
    }
    Ok(out)
}

/// The shared engine behind every map variant: cost-aware contiguous
/// chunking, one atomic claim per chunk, per-worker init state, and an
/// input-ordered merge.
///
/// The calling thread is the first worker: a map with `workers` workers
/// spawns `workers − 1` threads and claims chunks alongside them instead
/// of idling until they join. That saves a thread start per fan-out and
/// runs part of every batch against the caller's warm thread-local state
/// (the imaging workspace's tap cache and row-pass memo), where a spawned
/// worker starts cold. The merge is input-ordered, so which worker ran an
/// item never shows in the results.
fn par_map_chunked<T, R, S, C, I, F>(threads: usize, items: &[T], cost: C, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    C: Fn(usize, &T) -> u64,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunks = chunk_plan(items, workers, cost);
    // Workers claim whole chunks; results land in per-index slots, so the
    // merge is input-ordered no matter which worker ran what.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let work = || {
        let mut state = init();
        let mut local = Vec::new();
        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            for i in chunk.clone() {
                local.push((i, f(&mut state, i, &items[i])));
            }
        }
        local
    };
    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut collected = vec![work()];
        collected.extend(handles.into_iter().map(|h| match h.join() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        collected
    });
    for (i, r) in collected.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| unreachable!("index {i} visited exactly once")))
        .collect()
}

/// Partitions `items` into contiguous chunks of roughly
/// `total_cost / (workers × CHUNKS_PER_WORKER)` each, in input order.
/// Zero costs are clamped so degenerate estimators still make progress.
fn chunk_plan<T>(
    items: &[T],
    workers: usize,
    cost: impl Fn(usize, &T) -> u64,
) -> Vec<std::ops::Range<usize>> {
    let costs: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, t)| cost(i, t).max(1))
        .collect();
    let total: u64 = costs.iter().sum();
    let grain = (total / (workers as u64 * CHUNKS_PER_WORKER)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        if acc >= grain {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < items.len() {
        chunks.push(start..items.len());
    }
    chunks
}

/// Maps the fallible `f` over `items` on up to `threads` scoped workers,
/// returning the results in input order. `f` receives the item index
/// alongside the item, so callers can key deterministic per-item state
/// (seeds, labels) off the input position. With `threads <= 1` (or fewer
/// than two items) the map runs inline on the calling thread.
///
/// It stops at nothing mid-flight (all items still run) but returns the
/// **first** error in *input order*, so error reporting is deterministic
/// too.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing item, if any.
pub fn try_par_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in par_map(threads, items, f) {
        out.push(r?);
    }
    Ok(out)
}

/// Why a work item of [`par_map_caught`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause<E> {
    /// The mapper returned a typed error.
    Error(E),
    /// The mapper panicked; the payload rendered to text.
    Panic(String),
}

impl<E: std::fmt::Display> std::fmt::Display for FaultCause<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::Error(e) => write!(f, "{e}"),
            FaultCause::Panic(p) => write!(f, "panic: {p}"),
        }
    }
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads verbatim, anything else a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Fallible map with cost-aware chunked scheduling that **captures**
/// every fault instead of propagating it: each item runs under
/// [`std::panic::catch_unwind`], so a typed error and a panic both come
/// back as that item's [`FaultCause`] while every other item completes
/// normally. The caller decides what a fault means.
///
/// `cost` estimates the relative expense of each item (any monotone unit —
/// the extraction engine passes simulation-window pixel counts). Items are
/// grouped into contiguous chunks of roughly `total_cost / (threads × 4)`
/// each, and workers claim whole chunks through one atomic counter. Cheap
/// items amortize dispatch overhead by riding in large chunks; an expensive
/// item lands in a chunk of its own, so stragglers still rebalance.
///
/// Results return in input order, faults included, so the output is
/// bit-identical to a serial run for any thread count. A panicking item
/// may leave state that `f` shares across items (through interior
/// mutability) half-updated, so share only state that stays valid that
/// way — scratch rebuilt on next use, or a memo a half-run item leaves
/// as it was, as the imaging workspace's buffers and row-pass memo are.
pub fn par_map_caught<T, R, E, C, F>(
    threads: usize,
    items: &[T],
    cost: C,
    f: F,
) -> Vec<Result<R, FaultCause<E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    C: Fn(usize, &T) -> u64,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map_chunked(
        threads,
        items,
        cost,
        || (),
        |(), i, t| {
            // AssertUnwindSafe: a panicking item's result slot becomes its
            // fault, so nothing the item half-built escapes the pool; what
            // `f` shares is bound by the contract above.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => r.map_err(FaultCause::Error),
                Err(payload) => Err(FaultCause::Panic(panic_text(payload.as_ref()))),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, &items, |i, &x| x.wrapping_mul(i as u64 + 3));
        let parallel = par_map(7, &items, |i, &x| x.wrapping_mul(i as u64 + 3));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[5], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn workers_capture_borrows() {
        let shared = vec![10, 20, 30];
        let out = par_map(3, &[0usize, 1, 2], |_, &i| shared[i]);
        assert_eq!(out, shared);
    }

    #[test]
    fn the_calling_thread_works_alongside_the_spawned_workers() {
        // Each item waits until every item has started, so each of the
        // `threads` workers holds exactly one: the caller runs one item,
        // `threads - 1` spawned threads run the others, and the results
        // still come back in input order.
        let caller = std::thread::current().id();
        for threads in [2usize, 3, 5] {
            let barrier = std::sync::Barrier::new(threads);
            let items: Vec<usize> = (0..threads).collect();
            let ran = par_map(threads, &items, |_, &x| {
                barrier.wait();
                (x, std::thread::current().id())
            });
            let (values, ids): (Vec<usize>, Vec<_>) = ran.into_iter().unzip();
            assert_eq!(values, items);
            assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1);
            let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
            assert_eq!(distinct.len(), threads, "threads = {threads}");
        }
    }

    #[test]
    fn effective_threads_precedence() {
        assert_eq!(effective_threads(Some(3)), 3);
        // Zero overrides are ignored rather than disabling the pool.
        assert!(effective_threads(Some(0)) >= 1);
        assert!(effective_threads(None) >= 1);
    }

    #[test]
    fn env_override_is_honoured() {
        // Serialized with other env readers by being the only test that
        // mutates the variable.
        std::env::set_var(THREADS_ENV, "2");
        assert_eq!(effective_threads(None), 2);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(effective_threads(None) >= 1);
        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn try_par_map_reports_first_error_in_input_order() {
        let items: Vec<usize> = (0..50).collect();
        let err =
            try_par_map(4, &items, |_, &x| if x % 10 == 7 { Err(x) } else { Ok(x) }).unwrap_err();
        assert_eq!(err, 7);
        let ok: Result<Vec<usize>, ()> = try_par_map(4, &items, |_, &x| Ok(x));
        assert_eq!(ok.expect("no errors"), items);
    }

    /// Unwraps a caught map whose items cannot fail.
    fn all_ok<R, E: std::fmt::Debug>(caught: Vec<Result<R, FaultCause<E>>>) -> Vec<R> {
        caught
            .into_iter()
            .map(|r| r.expect("no item faults"))
            .collect()
    }

    #[test]
    fn costed_map_preserves_input_order() {
        let items: Vec<usize> = (0..311).collect();
        // Heavily skewed costs: the last items dominate.
        let out = par_map_caught(
            8,
            &items,
            |i, _| (i as u64).pow(2),
            |i, &x| {
                assert_eq!(i, x);
                Ok::<_, ()>(x * 3)
            },
        );
        assert_eq!(all_ok(out), items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn costed_map_matches_serial_for_any_cost_model() {
        let items: Vec<u64> = (0..120).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for cost in [
            // All-zero costs (degenerate estimator), uniform, skewed.
            (|_: usize, _: &u64| 0u64) as fn(usize, &u64) -> u64,
            |_, _| 7,
            |i, _| if i % 17 == 0 { 10_000 } else { 1 },
        ] {
            for threads in [1, 2, 5, 16] {
                let out = par_map_caught(threads, &items, cost, |_, &x| Ok::<_, ()>(x * x + 1));
                assert_eq!(all_ok(out), serial, "threads = {threads}");
            }
        }
    }

    #[test]
    fn costed_map_dispatches_in_chunks() {
        // 1000 unit-cost items at 2 workers: 8 contiguous chunks of 125,
        // covering every index exactly once, in input order.
        let items: Vec<usize> = (0..1000).collect();
        let plan = chunk_plan(&items, 2, |_, _| 1);
        let expected: Vec<std::ops::Range<usize>> =
            (0..8).map(|c| c * 125..(c + 1) * 125).collect();
        assert_eq!(plan, expected);
        // A real run dispatches whole chunks: every item of a chunk runs
        // on the worker that claimed it.
        let workers = all_ok(par_map_caught(
            2,
            &items,
            |_, _| 1,
            |_, _| Ok::<_, ()>(std::thread::current().id()),
        ));
        for chunk in plan {
            let first = workers[chunk.start];
            assert!(
                workers[chunk].iter().all(|&w| w == first),
                "a chunk was split across workers"
            );
        }
    }

    #[test]
    fn init_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_init(
            8,
            &items,
            || 0usize,
            |count, i, &x| {
                assert_eq!(i, x);
                *count += 1;
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn init_state_is_per_worker() {
        // Tag each worker's state with a unique id from an atomic counter;
        // every item reports the id of the state it ran against, so the
        // distinct-id count equals the number of init() calls.
        let items: Vec<usize> = (0..500).collect();
        let next_id = AtomicUsize::new(0);
        let workers = 4;
        let ids = par_map_init(
            workers,
            &items,
            || next_id.fetch_add(1, Ordering::Relaxed),
            |id, _, _| *id,
        );
        let inits = next_id.load(Ordering::Relaxed);
        assert!(inits >= 1 && inits <= workers, "init calls: {inits}");
        let mut distinct: Vec<usize> = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // A worker that loses every chunk race still inits, so distinct
        // observed states can undershoot init calls but never exceed them.
        assert!(
            !distinct.is_empty() && distinct.len() <= inits,
            "states: {} inits: {inits}",
            distinct.len()
        );
        // No state is observed by two workers concurrently: each id's
        // items were claimed as whole contiguous chunks, so every id
        // appears in runs, never interleaved at item granularity.
        for id in distinct {
            let positions: Vec<usize> = ids
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == id)
                .map(|(i, _)| i)
                .collect();
            assert!(!positions.is_empty());
        }
    }

    #[test]
    fn init_single_thread_initializes_once_and_matches_serial() {
        let items: Vec<u64> = (0..64).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_init(
            1,
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                7u64
            },
            |s, _, &x| x.wrapping_mul(*s),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(out, items.iter().map(|&x| x * 7).collect::<Vec<_>>());
    }

    #[test]
    fn init_map_is_thread_count_invariant() {
        // State that *accumulates* (a scratch buffer) must not leak into
        // results; here the state is a reused buffer, and the output only
        // depends on the item.
        let items: Vec<usize> = (0..200).collect();
        let eval = |threads: usize| {
            par_map_init(threads, &items, Vec::<usize>::new, |buf, _, &x| {
                buf.clear();
                buf.extend(0..x % 7);
                x + buf.len()
            })
        };
        let one = eval(1);
        for threads in [2, 3, 8] {
            assert_eq!(eval(threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn try_init_map_reports_first_error_in_input_order() {
        let items: Vec<usize> = (0..60).collect();
        let err = try_par_map_init(
            4,
            &items,
            || (),
            |(), _, &x| if x % 13 == 9 { Err(x) } else { Ok(x) },
        )
        .unwrap_err();
        assert_eq!(err, 9);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3], |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_map_error_order_is_thread_count_invariant() {
        // Satellite gate: the "first error in input order" contract holds
        // across the thread matrix, not just at one ambient count.
        let items: Vec<usize> = (0..80).collect();
        for threads in [1, 2, 4] {
            let err = try_par_map(
                threads,
                &items,
                |_, &x| {
                    if x % 9 == 4 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, 4, "threads = {threads}");
            let err = try_par_map_init(
                threads,
                &items,
                || 0u64,
                |acc, _, &x| {
                    *acc += x as u64; // accumulating state must not affect selection
                    if x % 9 == 4 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, 4, "threads = {threads} (init)");
        }
    }

    #[test]
    fn caught_map_captures_errors_and_panics_in_input_order() {
        // Skewed costs, so faults land in chunks of very different sizes.
        let items: Vec<usize> = (0..200).collect();
        let run = |threads: usize| {
            par_map_caught(
                threads,
                &items,
                |i, _| if i % 13 == 0 { 5_000 } else { 1 },
                |_, &x| {
                    if x % 31 == 5 {
                        panic!("injected panic at {x}");
                    }
                    if x % 17 == 3 {
                        return Err(format!("typed error at {x}"));
                    }
                    Ok(x * 2)
                },
            )
        };
        let caught = run(4);
        assert_eq!(caught.len(), items.len());
        for (i, r) in caught.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i * 2, "item {i}"),
                Err(FaultCause::Panic(p)) => {
                    assert_eq!(i % 31, 5, "item {i}");
                    assert_eq!(*p, format!("injected panic at {i}"));
                }
                Err(FaultCause::Error(e)) => {
                    assert_eq!(i % 17, 3, "item {i}");
                    assert_eq!(*e, format!("typed error at {i}"));
                }
            }
        }
        assert_eq!(
            caught[5].as_ref().map_err(ToString::to_string),
            Err("panic: injected panic at 5".to_string())
        );
        assert_eq!(
            caught[3].as_ref().map_err(ToString::to_string),
            Err("typed error at 3".to_string())
        );
        // Bit-identical, faults included, across the thread matrix.
        for threads in [1, 2, 8] {
            assert_eq!(run(threads), caught, "threads = {threads}");
        }
    }

    #[test]
    fn batch_ranges_cover_every_index_once() {
        for (len, batch) in [
            (0, 8),
            (1, 8),
            (7, 8),
            (8, 8),
            (9, 8),
            (24, 8),
            (5, 1),
            (3, 0),
        ] {
            let ranges = batch_ranges(len, batch);
            let flat: Vec<usize> = ranges.iter().flat_map(Clone::clone).collect();
            let expect: Vec<usize> = (0..len).collect();
            assert_eq!(flat, expect, "len = {len}, batch = {batch}");
            for r in &ranges {
                assert!(r.len() <= batch.max(1), "len = {len}, batch = {batch}");
                assert!(!r.is_empty(), "len = {len}, batch = {batch}");
            }
        }
    }

    #[test]
    fn batched_map_returns_input_order_for_any_thread_count() {
        let serial: Vec<usize> = (0..37).map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            for batch in [1, 4, 8, 64] {
                let got = try_par_map_batched_init::<_, (), _, _, _>(
                    threads,
                    37,
                    batch,
                    || (),
                    |(), range| Ok(range.map(|x| x * 3 + 1).collect()),
                )
                .unwrap();
                assert_eq!(got, serial, "threads = {threads}, batch = {batch}");
            }
        }
    }

    #[test]
    fn batched_map_reports_first_error_in_input_order() {
        // Batches 3 (items 12..16) and 7 (items 28..32) both fail; the
        // lower-indexed batch's error must win for every thread count.
        for threads in [1, 2, 4] {
            let got = try_par_map_batched_init::<usize, usize, _, _, _>(
                threads,
                40,
                4,
                || (),
                |(), range| {
                    if range.start == 12 || range.start == 28 {
                        Err(range.start)
                    } else {
                        Ok(range.collect())
                    }
                },
            );
            assert_eq!(got.unwrap_err(), 12, "threads = {threads}");
        }
    }

    #[test]
    fn batched_map_threads_worker_state() {
        // Worker state must be reusable across batches without changing
        // results: a scratch counter bumps per batch, results ignore it.
        let got = try_par_map_batched_init::<_, (), _, _, _>(
            3,
            50,
            8,
            || 0u64,
            |calls, range| {
                *calls += 1;
                Ok(range.map(|x| x + 100).collect())
            },
        )
        .unwrap();
        let expect: Vec<usize> = (0..50).map(|x| x + 100).collect();
        assert_eq!(got, expect);
    }
}
