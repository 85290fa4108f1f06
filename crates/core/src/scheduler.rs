//! Deterministic parallel work scheduler.
//!
//! The benchmark grid — (database × variant × workflow × question) — is an
//! embarrassingly parallel bag of independent work items, but the SNAILS
//! contract requires the output to be *bit-identical* to the serial loop:
//! `runs_are_reproducible` and every figure-generation routine consume
//! `BenchmarkRun.records` in grid order.
//!
//! The scheduler therefore separates execution order from output order:
//! workers claim contiguous chunks of the item index space from a shared
//! atomic cursor (cheap work-stealing without per-item contention), tag
//! every result with its item index, and the caller-side merge sorts the
//! tagged results back into serial order. With one thread the scheduler
//! degenerates to a plain in-order loop, so `threads = 1` reproduces the
//! serial baseline exactly by construction.
//!
//! No dependencies beyond `std` — the build must stay offline-capable, so
//! no rayon. `std::thread::scope` lets workers borrow the item slice and
//! the closure without `Arc`.

use snails_obs::{Metric as Obs, ObsCtx};
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of worker threads to use when the caller does not specify one.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Upper bound on chunks claimed per worker pass: finer chunks balance
/// better across skewed item costs, coarser chunks reduce contention on
/// the shared cursor. 8 chunks per worker is a common compromise.
const CHUNKS_PER_WORKER: usize = 8;

/// Map `f` over `items` on `threads` workers, returning results in item
/// order — exactly the order a serial `items.iter().enumerate().map(f)`
/// would produce.
///
/// `f` must be a pure function of `(index, item)` for the parallel output
/// to be identical to the serial output; nothing in the scheduler itself
/// introduces ordering or scheduling effects into the results.
///
/// A panic in `f` propagates to the caller after all workers stop claiming
/// new work. For per-item panic isolation, see [`run_ordered_isolated`].
pub fn run_ordered<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_ordered_isolated(items, threads, f, |_, _, payload| {
        std::panic::resume_unwind(payload)
    })
}

/// [`run_ordered`] with per-item panic isolation: each call to `f` runs
/// under `catch_unwind`, and a panicking item is converted to a result by
/// `on_panic(index, item, payload)` instead of killing its worker — the
/// other workers never notice, and the run completes with one result per
/// item in order.
///
/// Isolation is identical in the serial (`threads = 1`) and parallel paths,
/// so a panicking item yields the same substituted result at any thread
/// count — the determinism contract extends to faulty items.
///
/// `on_panic` may itself panic (e.g. [`run_ordered`] rethrows); that panic
/// propagates to the caller as before.
pub fn run_ordered_isolated<I, T, F, P>(items: &[I], threads: usize, f: F, on_panic: P) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    P: Fn(usize, &I, Box<dyn Any + Send>) -> T + Sync,
{
    run_ordered_observed_keyed(items, threads, None, |i, _| i as u64, f, on_panic)
}

/// [`run_ordered_isolated`] with optional observability: when `ctx` is
/// `Some`, every worker installs the context as its scope (so metric and
/// span calls inside `f` record into it), each item runs as
/// [`snails_obs::task`] `key(i, item)` (making span merging deterministic —
/// see `snails_obs::trace`), and the scheduler reports its own telemetry:
/// `core.scheduler.items` per item (deterministic), plus volatile shape
/// metrics (workers, queue depth, chunks claimed/stolen, per-item wall
/// time) that legitimately vary with the thread count.
///
/// The caller-chosen task ids let the checkpoint layer run a *subset* of
/// the grid (a shard) while tagging each cell's spans with its grid-global
/// index — so the merged span stream of a sharded or resumed run
/// interleaves exactly like the uninterrupted full run's.
pub fn run_ordered_observed_keyed<I, T, K, F, P>(
    items: &[I],
    threads: usize,
    ctx: Option<&Arc<ObsCtx>>,
    key: K,
    f: F,
    on_panic: P,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    K: Fn(usize, &I) -> u64 + Sync,
    F: Fn(usize, &I) -> T + Sync,
    P: Fn(usize, &I, Box<dyn Any + Send>) -> T + Sync,
{
    // `AssertUnwindSafe` is sound here: a caught panic either rethrows
    // (run_ordered, restoring the old abort-the-run behavior) or replaces
    // the item's result wholesale, so no partially-mutated state is
    // observed across the unwind boundary.
    let call = |i: usize, item: &I| -> T {
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(v) => v,
            Err(payload) => on_panic(i, item, payload),
        }
    };
    // The task wrapper (panic isolation happens inside it, so the task
    // always flushes normally) plus per-item accounting.
    let observed = |i: usize, item: &I| -> T {
        let Some(ctx) = ctx else { return call(i, item) };
        let started = Instant::now();
        let out = snails_obs::task(key(i, item), || call(i, item));
        ctx.registry.add(Obs::CoreSchedulerItems, 1);
        ctx.registry
            .observe(Obs::CoreSchedulerItemWallNs, started.elapsed().as_nanos() as u64);
        out
    };

    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if let Some(ctx) = ctx {
        ctx.registry.gauge_set(Obs::CoreSchedulerWorkers, workers as i64);
    }
    if workers == 1 {
        let _scope = ctx.map(snails_obs::scope);
        return items.iter().enumerate().map(|(i, item)| observed(i, item)).collect();
    }

    let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(1);
    let cursor = AtomicUsize::new(0);

    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _scope = ctx.map(snails_obs::scope);
                    let mut local: Vec<(usize, T)> = Vec::new();
                    let mut claims = 0usize;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        if let Some(ctx) = ctx {
                            claims += 1;
                            ctx.registry.add(Obs::CoreSchedulerChunksClaimed, 1);
                            if claims > 1 {
                                ctx.registry.add(Obs::CoreSchedulerStealChunks, 1);
                            }
                            ctx.registry.gauge_set(
                                Obs::CoreSchedulerQueueDepth,
                                n.saturating_sub(start + chunk) as i64,
                            );
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((i, observed(i, item)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduler worker panicked"))
            .collect()
    });

    let mut tagged: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    debug_assert_eq!(tagged.len(), n, "every item produced exactly one result");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(run_ordered(&none, 4, |_, x| *x).is_empty());
        assert_eq!(run_ordered(&[7u32], 4, |_, x| x * 2), vec![14]);
    }

    #[test]
    fn matches_serial_map_for_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let parallel = run_ordered(&items, threads, |_, x| x * x + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn every_index_passed_exactly_once() {
        use std::sync::Mutex;
        let items: Vec<u8> = vec![0; 257];
        let seen = Mutex::new(vec![0u32; items.len()]);
        run_ordered(&items, 8, |i, _| {
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn index_argument_matches_item_position() {
        let items: Vec<usize> = (0..500).map(|i| i * 3).collect();
        run_ordered(&items, 6, |i, item| assert_eq!(*item, i * 3));
    }

    #[test]
    fn uneven_work_still_reassembles_in_order() {
        // Skewed per-item cost exercises the work-stealing path: early
        // chunks are slow, late chunks fast, so completion order differs
        // wildly from item order.
        let items: Vec<u64> = (0..64).collect();
        let out = run_ordered(&items, 8, |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn thread_count_oversubscription_is_clamped() {
        let items = [1u32, 2, 3];
        assert_eq!(run_ordered(&items, 1000, |_, x| *x), vec![1, 2, 3]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// Panic hook suppressing expected test panics (installed once, never
    /// removed — scoped take/set races under parallel tests otherwise).
    fn silence_expected_panics() {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let expected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("expected test panic"));
                if !expected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn isolated_panics_become_substitute_results() {
        silence_expected_panics();
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<i64> = items
            .iter()
            .map(|&x| if x % 17 == 3 { -1 } else { x as i64 })
            .collect();
        for threads in [1, 2, 8] {
            let out = run_ordered_isolated(
                &items,
                threads,
                |_, &x| {
                    if x % 17 == 3 {
                        panic!("expected test panic");
                    }
                    x as i64
                },
                |_, _, _| -1,
            );
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn on_panic_sees_index_item_and_payload() {
        silence_expected_panics();
        let items = [10u64, 20, 30];
        let out = run_ordered_isolated(
            &items,
            2,
            |_, &x| {
                if x == 20 {
                    panic!("expected test panic");
                }
                x
            },
            |i, &item, payload| {
                assert_eq!(i, 1);
                assert_eq!(item, 20);
                assert!(payload
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("expected test panic")));
                999
            },
        );
        assert_eq!(out, vec![10, 999, 30]);
    }

    #[test]
    fn workers_keep_claiming_after_an_isolated_panic() {
        silence_expected_panics();
        // One poisoned item early in the index space must not stop the
        // parallel run from completing every later item.
        let items: Vec<usize> = (0..512).collect();
        let out = run_ordered_isolated(
            &items,
            8,
            |_, &x| {
                if x == 1 {
                    panic!("expected test panic");
                }
                x
            },
            |_, _, _| usize::MAX,
        );
        assert_eq!(out.len(), 512);
        assert_eq!(out[1], usize::MAX);
        assert_eq!(out[511], 511);
    }
}
