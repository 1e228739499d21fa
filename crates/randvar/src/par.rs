//! The one deterministic parallel map behind every worker pool.
//!
//! Studies, Monte-Carlo chunks, criticality chunks and the extension
//! sweeps all have the same shape: `n` independent work items, each a pure
//! function of its index, whose results must reach one consumer in index
//! order so that every artifact is bit-identical for any thread count.
//! [`par_map_ordered`] is that shape, once:
//!
//! * workers claim indices from one atomic counter, so a slow item never
//!   idles the others;
//! * each worker builds its state once with `init()` on its own thread (a
//!   warm evaluation context, a scratch matrix) and reuses it for every
//!   item it claims;
//! * `deliver(i, value)` runs strictly in index order under one lock;
//!   results that finish early wait in a pending map;
//! * the first panic in `init`, `f` or `deliver` becomes `Err(message)`,
//!   and the other workers stop at their next claim;
//! * every worker is joined explicitly before the call returns.
//!
//! The map takes no seed. Callers derive their randomness from the index
//! inside `f` (e.g. `derive_seed(seed, i)`), which keeps each caller's
//! seed layout, and so each committed artifact, exactly as it was.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a worker-count request: `None` means the machine's available
/// parallelism; the result is at least 1.
pub fn resolve_threads(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .max(1)
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as
/// text: `&str` and `String` payloads verbatim, anything else opaquely.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Results waiting for their turn, and the consumer they go to.
struct Ordered<T, D> {
    next: usize,
    pending: BTreeMap<usize, T>,
    deliver: D,
}

/// Computes `f(state, i)` for every `i in 0..n` on up to `threads` workers
/// (`None` = available parallelism, clamped to `1..=n`) and hands each
/// result to `deliver(i, value)` in increasing `i`. See the
/// [module docs](self) for the contract.
///
/// With one worker everything runs on the calling thread.
///
/// # Errors
/// The text of the first panic raised by `init`, `f` or `deliver`. Items
/// after it may not have run and results after it may not have been
/// delivered.
pub fn par_map_ordered<S, T, I, F, D>(
    n: usize,
    threads: Option<usize>,
    init: I,
    f: F,
    deliver: D,
) -> Result<(), String>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    D: FnMut(usize, T) + Send,
{
    if n == 0 {
        return Ok(());
    }
    let threads = resolve_threads(threads).min(n);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_panic = Mutex::new(None::<String>);
    let ordered = Mutex::new(Ordered {
        next: 0,
        pending: BTreeMap::new(),
        deliver,
    });
    // `next` and `stop` publish no data (results travel under the
    // `ordered` lock), so relaxed ordering suffices.
    let worker = || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            while !stop.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(&mut state, i);
                // A panic inside `deliver` poisons the lock; nobody
                // delivers into the torn state after it.
                let Ok(mut guard) = ordered.lock() else {
                    break;
                };
                let o = &mut *guard;
                o.pending.insert(i, value);
                while let Some(value) = o.pending.remove(&o.next) {
                    (o.deliver)(o.next, value);
                    o.next += 1;
                }
            }
        }));
        if let Err(payload) = outcome {
            stop.store(true, Ordering::Relaxed);
            first_panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert_with(|| panic_message(payload.as_ref()));
        }
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            // Join explicitly: the scope's own join returns once the
            // closures finish, while the threads may still be exiting and
            // holding their allocator arenas. A pool started right after
            // would then spawn threads that cannot reuse those arenas, and
            // the heap would grow by a whole set of worker states.
            for handle in handles {
                handle.join().expect("workers catch their panics");
            }
        });
    }
    match first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(message) => Err(message),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body` with the default panic hook silenced, so the injected
    /// panics do not print a banner per worker.
    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn delivers_in_index_order_for_any_thread_count() {
        for threads in 1..=4 {
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            par_map_ordered(
                37,
                Some(threads),
                || (),
                |_, i| {
                    // With several workers, item 0 waits until five later
                    // items are done, so results arrive out of order.
                    while i == 0 && threads > 1 && finished.load(Ordering::SeqCst) < 5 {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i * i
                },
                |i, v| seen.push((i, v)),
            )
            .unwrap();
            let expected: Vec<_> = (0..37).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expected, "{threads} threads");
        }
    }

    #[test]
    fn empty_map_runs_nothing() {
        let inits = AtomicUsize::new(0);
        let mut delivered = 0;
        par_map_ordered(
            0,
            Some(4),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
            |_, _| delivered += 1,
        )
        .unwrap();
        assert_eq!(inits.into_inner(), 0);
        assert_eq!(delivered, 0);
    }

    #[test]
    fn more_threads_than_items() {
        let inits = AtomicUsize::new(0);
        let mut seen = Vec::new();
        par_map_ordered(
            3,
            Some(16),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i + 10,
            |_, v| seen.push(v),
        )
        .unwrap();
        assert_eq!(seen, [10, 11, 12]);
        assert!(inits.into_inner() <= 3);
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for threads in 1..=4 {
            let inits = AtomicUsize::new(0);
            let mut per_item = Vec::new();
            par_map_ordered(
                50,
                Some(threads),
                || {
                    let id = inits.fetch_add(1, Ordering::Relaxed);
                    (id, 0usize)
                },
                |state, _| {
                    state.1 += 1;
                    *state
                },
                |_, v| per_item.push(v),
            )
            .unwrap();
            let inits = inits.into_inner();
            assert!((1..=threads).contains(&inits), "{inits} inits");
            // Each worker's state counts exactly the items it ran.
            for id in 0..inits {
                let ran: Vec<usize> = per_item
                    .iter()
                    .filter(|(w, _)| *w == id)
                    .map(|&(_, c)| c)
                    .collect();
                assert_eq!(ran, (1..=ran.len()).collect::<Vec<_>>());
            }
            assert_eq!(per_item.len(), 50);
        }
    }

    #[test]
    fn panic_in_f_becomes_err_and_stops_the_workers() {
        for threads in 1..=4 {
            let running = AtomicUsize::new(0);
            let err = quietly(|| {
                par_map_ordered(
                    1000,
                    Some(threads),
                    || (),
                    |_, i| {
                        running.fetch_add(1, Ordering::SeqCst);
                        let _done = Done(&running);
                        if i == 7 {
                            panic!("item {i} failed");
                        }
                        i
                    },
                    |_, _| {},
                )
            })
            .unwrap_err();
            assert_eq!(err, "item 7 failed");
            assert_eq!(running.load(Ordering::SeqCst), 0, "a worker is still in f");
        }
    }

    #[test]
    fn panic_in_deliver_becomes_err_and_stops_the_workers() {
        for threads in 1..=4 {
            let claimed = AtomicUsize::new(0);
            let mut delivered = Vec::new();
            let err = quietly(|| {
                par_map_ordered(
                    1000,
                    Some(threads),
                    || (),
                    |_, i| {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        i
                    },
                    |i, _| {
                        if i == 5 {
                            panic!("{}", String::from("delivery refused"));
                        }
                        delivered.push(i);
                    },
                )
            })
            .unwrap_err();
            assert_eq!(err, "delivery refused");
            assert_eq!(delivered, [0, 1, 2, 3, 4]);
            // The map returned, so every worker was joined; the stop flag
            // kept them from draining the remaining items.
            assert!(claimed.into_inner() < 1000);
        }
    }

    #[test]
    fn opaque_payloads_are_named() {
        let err = quietly(|| {
            par_map_ordered(
                1,
                None,
                || (),
                |_, _| std::panic::panic_any(42u8),
                |_, ()| {},
            )
        })
        .unwrap_err();
        assert_eq!(err, "non-string panic payload");
    }

    #[test]
    fn resolve_threads_is_at_least_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    /// Decrements the running count when an item ends, by return or
    /// unwind.
    struct Done<'a>(&'a AtomicUsize);

    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
}
