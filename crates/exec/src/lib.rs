//! # dm-exec — the names the frozen benchmark still calls
//!
//! A batch runs on the thread that asks for it: nothing in the workspace
//! spawns work for a single call, and cores serve concurrent requests through
//! dm-server's callers-run path.  What is left here is the surface the frozen
//! benchmark (`benchmark/src/layers.rs`) reads — [`global`],
//! [`ThreadPool::threads`], [`ThreadPool::stats`] and [`ExecStats`] — and it
//! goes together with that benchmark's lockfile.  The runtime has one thread,
//! the caller, and its counters stay zero.

/// The one runtime: the calling thread.
#[derive(Debug)]
pub struct ThreadPool(());

impl ThreadPool {
    /// Threads a batch runs on: always 1, the caller.
    pub fn threads(&self) -> usize {
        1
    }

    /// Runtime counters; nothing is ever handed to another thread, so all zero.
    pub fn stats(&self) -> ExecStats {
        ExecStats::default()
    }
}

/// The runtime's counters, as the frozen benchmark reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks handed to another thread.
    pub tasks_executed: u64,
    /// Tasks taken from another thread's queue.
    pub steals: u64,
    /// Nanoseconds threads spent parked waiting for work.
    pub park_nanos: u64,
}

/// The process-wide runtime.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: ThreadPool = ThreadPool(());
    &GLOBAL
}
