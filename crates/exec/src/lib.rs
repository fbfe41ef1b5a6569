//! # dm-exec — the workspace's offline work-stealing execution runtime
//!
//! The build environment has no registry access, so this crate is the vendored
//! stand-in for a rayon-style runtime: a fixed work-stealing [`ThreadPool`]
//! (per-worker deques + a global injector + condvar parking), structured
//! [`ThreadPool::scope`]s whose spawned tasks may borrow stack data,
//! [`ThreadPool::join`] / [`ThreadPool::parallel_chunks`] /
//! [`ThreadPool::parallel_chunks_mut`] convenience primitives, rayon-style panic
//! propagation, and [`ExecStats`] counters (tasks, steals, park time) that
//! `Metrics`-keeping consumers snapshot around parallel regions.
//!
//! Consumers in the workspace:
//!
//! * `dm_core::pipeline::QueryPipeline` shards stage 3 (independent auxiliary
//!   partition groups) across the pool,
//! * `dm_nn::MultiTaskModel::forward_batch_flat` splits large inference batches
//!   into row chunks (with a serial fallback below a crossover threshold),
//! * the stress/bench harnesses drive stores from many OS threads and rely on
//!   the pool plus the single-flight `dm_storage::BufferPool` staying
//!   correct under that load.
//!
//! ## Sizing
//!
//! [`global()`] returns the shared process-wide pool, sized once from the
//! `DM_EXEC_THREADS` environment variable (default: the machine's available
//! parallelism).  `DM_EXEC_THREADS=1` is the fully serial debugging mode: no
//! worker threads exist and every task runs inline on the calling thread, in
//! submission order.  Stores that want an isolated pool (e.g. the
//! `DeepMappingBuilder::exec_threads` knob) hold an [`ExecHandle::with_threads`]
//! instead of the global.

mod pool;
mod scope;
mod stats;

pub use pool::{ThreadPool, MAX_THREADS};
pub use scope::Scope;
pub use stats::ExecStats;

use std::sync::{Arc, OnceLock};

/// The pool size `DM_EXEC_THREADS` requests, or the machine's available
/// parallelism when the variable is unset/unparsable.  Always at least 1 and at
/// most [`MAX_THREADS`].
pub fn threads_from_env() -> usize {
    parse_threads(std::env::var("DM_EXEC_THREADS").ok().as_deref())
}

fn parse_threads(value: Option<&str>) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(MAX_THREADS),
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS),
    }
}

/// The shared process-wide pool, created on first use and never torn down.  Its
/// size is read from `DM_EXEC_THREADS` once, at creation.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::from_env)
}

/// A cloneable reference to an execution pool: either the shared [`global`] pool
/// or an owned pool with an explicit size.  This is what stores embed so "use
/// the process default" stays the zero-cost default while tests and latency
/// islands can pin their own pool.
#[derive(Debug, Clone, Default)]
pub enum ExecHandle {
    /// Use the shared process-wide pool.
    #[default]
    Global,
    /// Use a dedicated pool (dropped with the last handle).
    Owned(Arc<ThreadPool>),
}

impl ExecHandle {
    /// A handle to a dedicated pool of `threads` contexts (1 = fully serial).
    pub fn with_threads(threads: usize) -> Self {
        ExecHandle::Owned(Arc::new(ThreadPool::new(threads)))
    }

    /// The pool this handle designates.
    pub fn get(&self) -> &ThreadPool {
        match self {
            ExecHandle::Global => global(),
            ExecHandle::Owned(pool) => pool,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn parse_threads_handles_unset_garbage_and_bounds() {
        assert_eq!(parse_threads(Some("4")), 4);
        assert_eq!(parse_threads(Some(" 2 ")), 2);
        assert_eq!(parse_threads(Some("1")), 1);
        assert_eq!(parse_threads(Some("100000")), MAX_THREADS);
        let default = parse_threads(None);
        assert!(default >= 1);
        assert_eq!(parse_threads(Some("0")), default, "0 falls back to the default");
        assert_eq!(parse_threads(Some("banana")), default);
    }

    #[test]
    fn serial_pool_runs_inline_on_the_calling_thread() {
        let pool = ThreadPool::new(1);
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let mut observed = None;
        pool.scope(|s| {
            s.spawn(|| observed = Some(std::thread::current().id()));
            // Inline execution means the task already ran.
            assert_eq!(s.pending_tasks(), 0);
        });
        assert_eq!(observed, Some(caller));
        assert_eq!(pool.stats().tasks_executed, 1);
    }

    #[test]
    fn scope_tasks_borrow_and_all_complete() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        let values: Vec<usize> = (0..100).collect();
        pool.scope(|s| {
            for &v in &values {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(v, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 99 * 100 / 2);
        assert!(pool.stats().tasks_executed >= 100);
    }

    #[test]
    fn zero_task_scope_returns_the_closure_value() {
        let pool = ThreadPool::new(2);
        let value = pool.scope(|_s| 42);
        assert_eq!(value, 42);
        let serial = ThreadPool::new(1);
        assert_eq!(serial.scope(|_s| "ok"), "ok");
    }

    #[test]
    fn nested_scopes_complete_inner_before_outer() {
        // More nested scopes than workers: waiting workers must help execute
        // queued tasks or this deadlocks.
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                    // Inner scope is done: its increments are visible here.
                    assert!(total.load(Ordering::SeqCst) >= 4);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panics_propagate_to_the_scope_owner_after_all_tasks_drain() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let completed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for i in 0..16 {
                        let completed = &completed;
                        s.spawn(move || {
                            if i == 3 {
                                panic!("boom {i}");
                            }
                            completed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }));
            let payload = result.expect_err("task panic must surface at the scope");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains("boom"), "unexpected payload {message:?}");
            // Structured lifetime: every non-panicking task still ran.
            assert_eq!(completed.load(Ordering::SeqCst), 15, "threads={threads}");
        }
    }

    #[test]
    fn panic_in_the_scope_closure_itself_still_waits_for_tasks() {
        let pool = ThreadPool::new(4);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    let completed = &completed;
                    s.spawn(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("owner panicked");
            })
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let data = [1u64, 2, 3, 4];
        let (a, b) = pool.join(
            || data.iter().sum::<u64>(),
            || data.iter().product::<u64>(),
        );
        assert_eq!(a, 10);
        assert_eq!(b, 24);
        let serial = ThreadPool::new(1);
        assert_eq!(serial.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn parallel_chunks_cover_every_element_once() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..1_000).collect();
            let sum = Mutex::new(0u64);
            let seen_offsets = Mutex::new(Vec::new());
            pool.parallel_chunks(&items, 64, |offset, chunk| {
                assert_eq!(items[offset], chunk[0]);
                *sum.lock().unwrap() += chunk.iter().sum::<u64>();
                seen_offsets.lock().unwrap().push(offset);
            });
            assert_eq!(*sum.lock().unwrap(), 999 * 1_000 / 2);
            let mut offsets = seen_offsets.into_inner().unwrap();
            offsets.sort_unstable();
            assert_eq!(offsets, (0..16).map(|c| c * 64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_chunks_mut_writes_disjoint_chunks() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0u64; 500];
            pool.parallel_chunks_mut(&mut out, 33, |offset, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (offset + i) as u64 * 2;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
        }
    }

    #[test]
    fn detached_spawn_catches_panics_and_counts_them() {
        let pool = ThreadPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.spawn(|| panic!("detached boom"));
        // Drain via a scope barrier: scope tasks queue behind the detached ones
        // only approximately, so poll the counters instead.
        for _ in 0..1_000 {
            let stats = pool.stats();
            if stats.panics_caught == 1 && done.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.stats().panics_caught, 1);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_report_parked_time_and_steal_accounting_is_sane() {
        let pool = ThreadPool::new(2);
        // Give workers longer than one park cycle (50 ms timeout) with nothing to
        // do, so at least one completed park is recorded.
        std::thread::sleep(std::time::Duration::from_millis(120));
        let stats = pool.stats();
        assert!(stats.park_nanos > 0, "idle workers must accumulate park time");
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    std::hint::black_box(17u64 * 3);
                });
            }
        });
        let stats = pool.stats();
        assert!(stats.tasks_executed >= 64);
        assert!(stats.steals <= stats.tasks_executed);
    }

    #[test]
    fn exec_handle_designates_global_or_owned_pools() {
        let global_handle = ExecHandle::Global;
        assert!(std::ptr::eq(global_handle.get(), global()));
        let owned = ExecHandle::with_threads(3);
        assert_eq!(owned.get().threads(), 3);
        let clone = owned.clone();
        assert!(std::ptr::eq(owned.get(), clone.get()));
    }

    #[test]
    fn dropping_a_pool_joins_workers_after_draining() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop without an explicit barrier: workers drain queues on shutdown.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }
}
