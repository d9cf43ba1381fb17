//! `ev-par` — EasyView's parallel execution substrate, built on
//! `std::thread::scope` alone.
//!
//! The analysis engine (paper §4) runs three coarse passes in
//! parallel: multi-profile aggregation, multi-member gzip ingest, and
//! EVscript's per-node callbacks. Each is a handful of large
//! independent tasks, so the crate offers one ordered fan-out,
//! [`fan_out`], plus the two-stage [`with_pipeline`] hand-off that
//! streaming ingest uses. Per the workspace charter everything is std
//! only — no rayon, no crossbeam — and the crate holds no `unsafe`:
//! every thread is a scoped thread, joined before the call returns, so
//! tasks borrow the caller's data through ordinary references.
//!
//! # Execution model
//!
//! A fan-out splits its items into contiguous groups, one per thread,
//! and starts a scoped thread for every group but the first, which
//! runs on the caller. It starts at most [`max_threads`]` − 1` threads
//! per call, whatever `ExecPolicy::threads` asks for, and none when
//! the policy is sequential or there is at most one item. There is no
//! pool: a spawn and join costs tens of microseconds, which the three
//! passes amortize over milliseconds of work per thread.
//!
//! # Determinism contract
//!
//! Every parallel algorithm built on this crate must produce output
//! **bit-identical** to its sequential specialization, for any thread
//! count. The fan-out returns results in input order whatever the
//! grouping; callers keep the *reduction shape* independent of
//! [`ExecPolicy::threads`] (a balanced merge tree keyed only on input
//! count, or disjoint per-item outputs). `threads == 1` always runs
//! inline on the caller: that path *is* the sequential reference
//! implementation.
//!
//! # Example
//!
//! ```
//! use ev_par::{fan_out, ExecPolicy};
//!
//! let words = vec![String::from("flame"), String::from("graph")];
//! let lengths = fan_out(words, ExecPolicy::auto(), |w| w.len());
//! assert_eq!(lengths, [5, 5]);
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Condvar, Mutex};

/// How much parallelism a call may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Upper bound on concurrently executing tasks. `1` means strictly
    /// sequential inline execution (the reference path).
    pub threads: usize,
}

impl ExecPolicy {
    /// Strictly sequential: run inline on the caller.
    pub const SEQUENTIAL: ExecPolicy = ExecPolicy { threads: 1 };

    /// Use every available hardware thread.
    pub fn auto() -> ExecPolicy {
        ExecPolicy {
            threads: max_threads(),
        }
    }

    /// Use at most `threads` threads (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ExecPolicy {
        ExecPolicy {
            threads: threads.max(1),
        }
    }

    /// Whether this policy runs inline on the caller.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy::auto()
    }
}

/// Number of hardware threads, bounded at 32.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 32)
}

/// Splits `0..n` into `tasks` near-equal chunks, largest first.
pub fn chunk_bounds(n: usize, tasks: usize) -> Vec<Range<usize>> {
    let tasks = tasks.clamp(1, n.max(1));
    let base = n / tasks;
    let rem = n % tasks;
    let mut out = Vec::with_capacity(tasks);
    let mut start = 0;
    for i in 0..tasks {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Threads a fan-out of `items` items starts besides the caller under
/// a policy of `threads` on a host with `cores` hardware threads: one
/// per group but the caller's, with no more groups than items, policy
/// threads or cores.
fn spawn_count(items: usize, threads: usize, cores: usize) -> usize {
    items.min(threads).min(cores).saturating_sub(1)
}

/// Applies `f` to every item and returns the results in input order,
/// moving the items into scoped threads when the policy allows it.
///
/// The items are split into contiguous groups by [`chunk_bounds`], one
/// group per thread; the caller runs the first group and joins the
/// rest in order. Output is identical for every policy; only
/// wall-clock differs. Callers that want coarser tasks than single
/// items pass chunks (ranges, sub-slices) as the items.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its original payload, after
/// every started thread has been joined.
pub fn fan_out<T, R, F>(items: Vec<T>, policy: ExecPolicy, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let spawn = spawn_count(n, policy.threads, max_threads());
    if spawn == 0 {
        return items.into_iter().map(f).collect();
    }
    ev_trace::counter("par.spawned").add(spawn as u64);
    let mut items = items.into_iter();
    let mut groups = chunk_bounds(n, spawn + 1)
        .into_iter()
        .map(|range| items.by_ref().take(range.len()).collect::<Vec<T>>());
    let own = groups.next().expect("a spawning fan-out has two groups");
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .map(|group| s.spawn(move || group.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        out.extend(own.into_iter().map(f));
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Shared state of a bounded producer→consumer hand-off.
struct PipeShared<T, E> {
    state: Mutex<PipeState<T, E>>,
    cond: Condvar,
}

struct PipeState<T, E> {
    queue: VecDeque<Result<T, E>>,
    /// Producer finished (returned `None`).
    done: bool,
    /// Consumer finished (its closure returned); producer should stop.
    closed: bool,
}

/// The consumer's end of a [`with_pipeline`] hand-off.
///
/// [`pull`](Self::pull) yields exactly the sequence the producer
/// closure returns, in order — whether the producer runs inline
/// (sequential policy) or ahead on a pipeline thread.
pub struct PipelineRx<'a, T, E> {
    inner: RxInner<'a, T, E>,
}

enum RxInner<'a, T, E> {
    Inline(&'a mut dyn FnMut() -> Option<Result<T, E>>),
    Queue(&'a PipeShared<T, E>),
}

impl<T, E> PipelineRx<'_, T, E> {
    /// Next produced item, or `None` once the producer is exhausted.
    /// Blocks while the pipeline thread is still filling the queue.
    pub fn pull(&mut self) -> Option<Result<T, E>> {
        match &mut self.inner {
            RxInner::Inline(produce) => produce(),
            RxInner::Queue(shared) => {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if let Some(item) = st.queue.pop_front() {
                        // A slot freed: wake a producer blocked on depth.
                        shared.cond.notify_all();
                        return Some(item);
                    }
                    if st.done {
                        return None;
                    }
                    st = shared.cond.wait(st).unwrap();
                }
            }
        }
    }
}

/// Runs `produce` and `consume` as a two-stage pipeline: the producer
/// fills a bounded queue (at most `depth` items in flight) while the
/// consumer drains it on the calling thread.
///
/// `produce` is called repeatedly until it returns `None`; each
/// `Some(item)` — `Ok` or `Err` — is delivered to the consumer in
/// production order through [`PipelineRx::pull`]. Sequential policies
/// call `produce` inline from `pull` with no thread and no queue: that
/// path is the reference semantics, and the pipelined path delivers the
/// bit-identical item sequence (a FIFO queue cannot reorder a single
/// producer). The only observable difference is eagerness: the
/// pipeline thread may run `produce` up to `depth` calls ahead of the
/// consumer, so producer side effects (trace counters, say) can exceed
/// what a consumer that stops early would have triggered inline.
///
/// If the consumer returns while the producer is still running, the
/// hand-off is closed and the producer stops after its in-flight call;
/// remaining queued items are dropped.
///
/// The streaming ingest path uses this to overlap inflating chunk N+1
/// with wire-decoding chunk N (paper §3's "profiles parse while they
/// load" requirement at GB scale).
pub fn with_pipeline<T, E, R>(
    policy: ExecPolicy,
    depth: usize,
    mut produce: impl FnMut() -> Option<Result<T, E>> + Send,
    consume: impl FnOnce(&mut PipelineRx<'_, T, E>) -> R,
) -> R
where
    T: Send,
    E: Send,
{
    if policy.is_sequential() {
        let mut rx = PipelineRx {
            inner: RxInner::Inline(&mut produce),
        };
        return consume(&mut rx);
    }
    let depth = depth.max(1);
    let shared = PipeShared {
        state: Mutex::new(PipeState {
            queue: VecDeque::with_capacity(depth),
            done: false,
            closed: false,
        }),
        cond: Condvar::new(),
    };
    ev_trace::counter("par.spawned").inc();
    // Unlike a fan-out group, the producer runs concurrently with the
    // consumer for the pipeline's whole lifetime, so it always gets a
    // thread of its own.
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let item = produce();
            let end = item.is_none();
            let mut st = shared.state.lock().unwrap();
            if let Some(item) = item {
                while st.queue.len() >= depth && !st.closed {
                    st = shared.cond.wait(st).unwrap();
                }
                if st.closed {
                    return;
                }
                st.queue.push_back(item);
            } else {
                st.done = true;
            }
            drop(st);
            shared.cond.notify_all();
            if end {
                return;
            }
        });
        let mut rx = PipelineRx {
            inner: RxInner::Queue(&shared),
        };
        let r = consume(&mut rx);
        let mut st = shared.state.lock().unwrap();
        st.closed = true;
        st.queue.clear();
        drop(st);
        shared.cond.notify_all();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in [0usize, 1, 5, 17, 100, 1001] {
            for tasks in [1usize, 2, 3, 7, 16] {
                let chunks = chunk_bounds(n, tasks);
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next);
                    next = c.end;
                }
                assert_eq!(next, n);
                if n > 0 {
                    assert!(chunks.iter().all(|c| !c.is_empty()));
                }
            }
        }
    }

    #[test]
    fn spawn_count_stays_below_the_core_count() {
        for cores in [1, 2, 3, 8, 32, max_threads()] {
            for threads in 1..=1024 {
                for items in [0, 1, 2, 3, 16, 1000, 1 << 20] {
                    let spawn = spawn_count(items, threads, cores);
                    assert!(
                        spawn < cores,
                        "cores {cores} threads {threads} items {items}"
                    );
                    assert!(spawn < threads.max(1));
                    assert!(spawn < items.max(1));
                }
            }
        }
        assert_eq!(spawn_count(1000, 1024, 2), 1);
        assert_eq!(spawn_count(1000, 3, 32), 2);
        assert_eq!(spawn_count(1, 8, 8), 0);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        // The VM's shape: index ranges of at least 16 as the items.
        let counters: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        for threads in [1, 2, 4, 8, 1024] {
            counters.iter().for_each(|c| c.store(0, Ordering::Relaxed));
            let ranges = chunk_bounds(5000, threads.min(5000usize.div_ceil(16)));
            fan_out(ranges, ExecPolicy::with_threads(threads), |range| {
                for i in range {
                    counters[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        // Owned items in, owned results out, one distinct result each.
        let items: Vec<String> = (0..3000).map(|i| format!("item{i}")).collect();
        let expected: Vec<String> = (0..3000).map(|i| format!("item{i}!")).collect();
        for threads in [1, 2, 4, 8, 1024] {
            let got = fan_out(items.clone(), ExecPolicy::with_threads(threads), |s| {
                s + "!"
            });
            assert_eq!(got, expected, "threads {threads}");
        }
        assert!(fan_out(Vec::<u8>::new(), ExecPolicy::with_threads(4), |b| b).is_empty());
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            fan_out(
                (0..100).collect(),
                ExecPolicy::with_threads(4),
                |i: usize| {
                    if i == 50 {
                        panic!("boom");
                    }
                },
            );
        });
        let payload = result.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn nested_scopes_complete() {
        let total = AtomicUsize::new(0);
        fan_out(vec![(); 4], ExecPolicy::with_threads(4), |()| {
            let ranges = chunk_bounds(100, 10);
            fan_out(ranges, ExecPolicy::with_threads(2), |range| {
                total.fetch_add(range.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn sequential_policy_runs_inline() {
        let thread_id = std::thread::current().id();
        fan_out((0..100).collect(), ExecPolicy::SEQUENTIAL, |_: usize| {
            assert_eq!(std::thread::current().id(), thread_id);
        });
    }

    #[test]
    fn pipeline_delivers_in_order_for_every_policy() {
        for threads in [1, 2, 8] {
            let mut next = 0u32;
            let got: Vec<u32> = with_pipeline(
                ExecPolicy::with_threads(threads),
                2,
                move || -> Option<Result<u32, ()>> {
                    if next < 500 {
                        next += 1;
                        Some(Ok(next))
                    } else {
                        None
                    }
                },
                |rx| {
                    let mut out = Vec::new();
                    while let Some(item) = rx.pull() {
                        out.push(item.unwrap());
                    }
                    out
                },
            );
            assert_eq!(got, (1..=500).collect::<Vec<u32>>(), "threads {threads}");
        }
    }

    #[test]
    fn pipeline_passes_errors_through_in_sequence() {
        for threads in [1, 4] {
            let mut n = 0;
            let got = with_pipeline(
                ExecPolicy::with_threads(threads),
                2,
                move || {
                    n += 1;
                    match n {
                        1 => Some(Ok(10)),
                        2 => Some(Err("bad")),
                        _ => None,
                    }
                },
                |rx| {
                    let mut out = Vec::new();
                    while let Some(item) = rx.pull() {
                        out.push(item);
                    }
                    out
                },
            );
            assert_eq!(got, vec![Ok(10), Err("bad")]);
        }
    }

    #[test]
    fn pipeline_consumer_may_stop_early() {
        // An unbounded producer with a consumer that takes three items:
        // closing the hand-off must stop the producer (no deadlock on a
        // full queue) and cap how far ahead it ran.
        let calls = AtomicUsize::new(0);
        let got = with_pipeline(
            ExecPolicy::with_threads(4),
            2,
            || -> Option<Result<usize, ()>> {
                Some(Ok(calls.fetch_add(1, Ordering::Relaxed)))
            },
            |rx| (0..3).map(|_| rx.pull().unwrap().unwrap()).collect::<Vec<_>>(),
        );
        assert_eq!(got, vec![0, 1, 2]);
        // 3 consumed + depth in flight + one call draining into the close.
        assert!(calls.load(Ordering::Relaxed) <= 3 + 2 + 1);
    }

    #[test]
    fn pipeline_pull_after_done_returns_none() {
        for threads in [1, 4] {
            with_pipeline(
                ExecPolicy::with_threads(threads),
                1,
                || -> Option<Result<(), ()>> { None },
                |rx| {
                    assert!(rx.pull().is_none());
                    assert!(rx.pull().is_none());
                },
            );
        }
    }
}
