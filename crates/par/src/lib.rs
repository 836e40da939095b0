//! Persistent work-stealing thread pool for the BLASYS flow.
//!
//! The flow's hot loops — per-window BMF profiling and the per-step
//! candidate sweep of every exploration engine — are embarrassingly
//! parallel: every task reads a shared immutable model and writes only
//! its own result slot. This crate provides the one execution layer
//! they need, built on plain `std` threads (the build environment has
//! no access to crates.io, so no `rayon`):
//!
//! * [`Parallelism`] — the user-facing spelling of a worker count
//!   (`Serial`, `Threads(n)`, `Auto`), readable from the
//!   `BLASYS_THREADS` environment variable;
//! * [`Pool`] — persistent workers spawned once and reused by any
//!   number of fork-join maps over task indices `0..n`
//!   ([`Pool::run`], [`Pool::run_states`]), returning results **in
//!   task order** regardless of which worker executed what. A
//!   one-worker pool spawns no thread and runs every map inline on the
//!   caller: that is the serial path.
//!
//! # Scheduling
//!
//! Tasks are seeded round-robin-chunked into one deque per worker;
//! a worker pops from the front of its own deque and, when empty,
//! steals from the back of the fullest victim. This keeps mostly
//! cache-friendly contiguous runs per worker while letting short
//! tasks flow to idle workers when task sizes are uneven (BMF windows
//! and probe cones vary wildly in cost).
//!
//! # Panics and nesting
//!
//! A panic in any task aborts the remaining work and is re-raised on
//! the caller's thread with its original payload; the workers survive
//! it. Nested *parallel* maps are rejected (a task starting another
//! parallel run would deadlock-prone oversubscribe the machine);
//! running a one-task map, or any map on a one-worker pool, inside a
//! worker is always allowed. Code that may run on a worker checks
//! [`in_worker`] and falls back to a serial loop.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use blasys_obs::{Counter, Gauge, Registry};

/// How much parallelism a flow phase may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded execution on the calling thread (a one-worker
    /// [`Pool`], which spawns no thread).
    Serial,
    /// A fixed number of worker threads (`Threads(1)` ≡ `Serial`).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to on this machine.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Parse a user-facing spelling, shared by the `BLASYS_THREADS`
    /// environment variable and the experiment binaries' `--threads`
    /// flag: `auto` or `0` → `Auto`, `1` or anything unparseable →
    /// `Serial`, `n` → `Threads(n)`.
    pub fn parse(s: &str) -> Parallelism {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "0" => Parallelism::Auto,
            s => match s.parse::<usize>() {
                Ok(1) | Err(_) => Parallelism::Serial,
                Ok(n) => Parallelism::Threads(n),
            },
        }
    }

    /// Read the setting from the `BLASYS_THREADS` environment
    /// variable via [`Parallelism::parse`] (unset → `Serial`).
    pub fn from_env() -> Parallelism {
        match std::env::var("BLASYS_THREADS") {
            Ok(s) => Parallelism::parse(&s),
            Err(_) => Parallelism::Serial,
        }
    }
}

/// The default honors `BLASYS_THREADS` (see [`Parallelism::from_env`])
/// so the whole test suite and every flow exercise the parallel path
/// when CI sets the variable. Results are bit-identical either way.
impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::from_env()
    }
}

thread_local! {
    /// Set while the current thread is a pool worker: parallel runs
    /// must not nest.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is currently a pool worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Per-worker scheduling counters and a queue-depth gauge for a
/// [`Pool`], registered in a [`blasys_obs::Registry`].
///
/// These are **wall-clock observations**, not flow data: how many
/// tasks each worker executed, how many it obtained by stealing, and
/// how often it drained the queues and went idle all depend on thread
/// timing and vary run to run (unlike the flow's deterministic engine
/// counters). Attach via [`Pool::new_with_metrics`].
#[derive(Debug)]
pub struct PoolMetrics {
    /// `tasks[w]`: tasks worker `w` executed.
    tasks: Vec<Arc<Counter>>,
    /// `steals[w]`: tasks worker `w` took from another worker's queue.
    steals: Vec<Arc<Counter>>,
    /// `idle[w]`: times worker `w` found the queues empty and went
    /// idle for the rest of a job.
    idle: Vec<Arc<Counter>>,
    /// Task count of the job currently in flight (0 between jobs).
    queue_depth: Arc<Gauge>,
}

impl PoolMetrics {
    /// Register `pool.worker<w>.{tasks,steals,idle}` counters for
    /// `workers` workers plus the `pool.queue_depth` gauge.
    pub fn register(registry: &Registry, workers: usize) -> PoolMetrics {
        PoolMetrics {
            tasks: (0..workers)
                .map(|w| registry.counter(&format!("pool.worker{w}.tasks")))
                .collect(),
            steals: (0..workers)
                .map(|w| registry.counter(&format!("pool.worker{w}.steals")))
                .collect(),
            idle: (0..workers)
                .map(|w| registry.counter(&format!("pool.worker{w}.idle")))
                .collect(),
            queue_depth: registry.gauge("pool.queue_depth"),
        }
    }
}

/// A type-erased fork-join job: `call(ctx, worker_index)` drains the
/// job's task queues. The pointer is only dereferenced while the
/// submitting call blocks in [`Pool::run_states`], so the borrowed
/// closure/state/result storage it points at is always live.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: the ctx pointer crosses into worker threads, but the data it
// points at is a `JobCtx` whose fields are constrained to `Send`/`Sync`
// types by the `run_states` signature, and the submitter blocks until
// every worker is done with the job before the storage goes away.
unsafe impl Send for Job {}

struct JobSlot {
    /// Monotone job counter; workers run each epoch exactly once.
    epoch: u64,
    /// The in-flight job, cleared when the last worker finishes it.
    job: Option<Job>,
    /// Count of workers still active on the current job.
    remaining: usize,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    /// Idle workers wait here for a new job (or shutdown).
    job_ready: Condvar,
    /// Submitters wait here for job completion (or a free slot).
    job_done: Condvar,
}

/// Everything one fork-join job shares with the workers, borrowed from
/// the submitting call's stack frame.
struct JobCtx<'a, S, R, F> {
    f: &'a F,
    /// `states[w]` for worker `w < active`; workers never alias.
    states: *mut S,
    /// One slot per task; each task index is written exactly once.
    results: *mut Option<R>,
    queues: &'a [Mutex<VecDeque<usize>>],
    /// A worker with index `>= active` has no queue and does nothing.
    active: usize,
    abort: &'a AtomicBool,
    panic_payload: &'a Mutex<Option<Box<dyn std::any::Any + Send>>>,
    metrics: Option<&'a PoolMetrics>,
}

/// The erased worker entry point for one job. Catches panics itself so
/// the persistent worker thread survives them.
unsafe fn job_entry<S, R, F>(ctx: *const (), w: usize)
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let ctx = &*(ctx as *const JobCtx<'_, S, R, F>);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if w >= ctx.active {
            return;
        }
        // SAFETY: worker `w` is the only reader/writer of `states[w]`,
        // and the submitter holds the `&mut [S]` borrow for the whole
        // job, so no other access exists.
        let state = &mut *ctx.states.add(w);
        while !ctx.abort.load(Ordering::Relaxed) {
            let Some((task, stolen)) = next_task(ctx.queues, w) else {
                if let Some(m) = ctx.metrics {
                    m.idle[w].inc();
                }
                break;
            };
            if let Some(m) = ctx.metrics {
                m.tasks[w].inc();
                if stolen {
                    m.steals[w].inc();
                }
            }
            let r = (ctx.f)(state, task);
            // SAFETY: the queues dispense each task index exactly once,
            // so this slot is written by exactly one worker.
            *ctx.results.add(task) = Some(r);
        }
    }));
    if let Err(e) = outcome {
        ctx.abort.store(true, Ordering::Relaxed);
        ctx.panic_payload.lock().unwrap().get_or_insert(e);
    }
}

fn pool_worker(shared: &PoolShared, w: usize) {
    IN_WORKER.with(|g| g.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                match slot.job {
                    Some(job) if slot.epoch != seen => {
                        seen = slot.epoch;
                        break job;
                    }
                    _ => slot = shared.job_ready.wait(slot).unwrap(),
                }
            }
        };
        // SAFETY: the submitter blocks until `remaining` reaches zero,
        // which we only signal after this call returns, so the ctx and
        // everything it borrows outlive the dereference. `job_entry`
        // catches panics internally and never unwinds.
        unsafe { (job.call)(job.ctx, w) };
        let mut slot = shared.slot.lock().unwrap();
        slot.remaining -= 1;
        if slot.remaining == 0 {
            slot.job = None;
            shared.job_done.notify_all();
        }
    }
}

/// A persistent fork-join pool: worker threads are created **once**
/// and reused across any number of [`Pool::run`] / [`Pool::run_states`]
/// calls (see the [crate docs](crate) for scheduling, panics and
/// nesting). A flow session builds one pool at open time and drives
/// its profiling and every exploration sweep through it.
///
/// `Pool::new(n)` with `n <= 1` spawns no threads at all — every run
/// executes inline on the caller (the serial path). Several threads
/// may submit to one pool at once; their jobs run one after another.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    metrics: Option<PoolMetrics>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// Spawn a pool with `threads` persistent workers (`<= 1` spawns
    /// none; runs execute inline on the caller).
    pub fn new(threads: usize) -> Pool {
        Pool::new_with_metrics(threads, None)
    }

    /// Like [`Pool::new`], with per-worker scheduling counters
    /// recorded into `metrics`. Passing `None` is exactly `Pool::new`:
    /// the task loop then skips all accounting behind one branch.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` was registered for fewer workers than
    /// `threads`.
    pub fn new_with_metrics(threads: usize, metrics: Option<PoolMetrics>) -> Pool {
        let threads = threads.max(1);
        if let Some(m) = &metrics {
            assert!(
                m.tasks.len() >= threads,
                "PoolMetrics registered for {} workers, pool has {threads}",
                m.tasks.len()
            );
        }
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = if threads >= 2 {
            (0..threads)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || pool_worker(&shared, w))
                })
                .collect()
        } else {
            Vec::new()
        };
        Pool {
            shared,
            handles,
            threads,
            metrics,
        }
    }

    /// Build a pool sized by a [`Parallelism`] setting.
    pub fn with_parallelism(par: Parallelism) -> Pool {
        Pool::new(par.worker_count())
    }

    /// The worker count this pool resolves to (1 = inline execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0..tasks)` on the pool, returning results in task order.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic on the caller. Panics if called
    /// from inside a pool worker with more than one task on a
    /// multi-worker pool (nested parallel runs are rejected).
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut states: Vec<()> = vec![(); self.threads.min(tasks.max(1))];
        self.run_states(tasks, &mut states, |(), i| f(i))
    }

    /// Like [`Pool::run`], but worker `w` borrows `states[w]` mutably
    /// for every task it executes. The states survive the call, so hot
    /// loops can hoist them out and reuse them across many fork-joins
    /// (the Monte-Carlo probe overlay reused over every exploration
    /// step) with no per-call allocation. `states` must hold at least
    /// `min(self.threads(), tasks)` entries (extras are unused).
    ///
    /// # Panics
    ///
    /// Same contract as [`Pool::run`]; additionally panics if `states`
    /// has fewer entries than the active worker count.
    pub fn run_states<S, R, F>(&self, tasks: usize, states: &mut [S], f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let active = self.threads.min(tasks);
        assert!(
            states.len() >= active,
            "Pool::run_states needs one state per worker ({} < {active})",
            states.len()
        );
        if self.handles.is_empty() || active <= 1 {
            // Inline serial path; legal inside a worker.
            let state = &mut states[0];
            return (0..tasks).map(|i| f(state, i)).collect();
        }
        assert!(
            !in_worker(),
            "nested blasys-par parallel scope: a pool task attempted to start \
             another parallel run (use the serial path for inner maps)"
        );

        // One deque per active worker, seeded with contiguous chunks
        // so each worker starts on a cache-friendly run of neighboring
        // tasks; stealing drains imbalance.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..active)
            .map(|w| {
                let lo = tasks * w / active;
                let hi = tasks * (w + 1) / active;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let abort = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let mut results: Vec<Option<R>> = (0..tasks).map(|_| None).collect();

        let ctx = JobCtx {
            f: &f,
            states: states.as_mut_ptr(),
            results: results.as_mut_ptr(),
            queues: &queues,
            active,
            abort: &abort,
            panic_payload: &panic_payload,
            metrics: self.metrics.as_ref(),
        };
        if let Some(m) = &self.metrics {
            m.queue_depth.set(tasks as i64);
        }

        {
            let mut slot = self.shared.slot.lock().unwrap();
            // Another thread may be mid-job on this pool; wait for the
            // slot to free before installing ours.
            while slot.job.is_some() {
                slot = self.shared.job_done.wait(slot).unwrap();
            }
            slot.epoch += 1;
            let my_epoch = slot.epoch;
            slot.remaining = self.handles.len();
            slot.job = Some(Job {
                call: job_entry::<S, R, F>,
                ctx: &ctx as *const JobCtx<'_, S, R, F> as *const (),
            });
            self.shared.job_ready.notify_all();
            // Our job is done when the slot is free again at our epoch
            // (a later submitter can only install after ours cleared).
            while !(slot.epoch > my_epoch || slot.job.is_none()) {
                slot = self.shared.job_done.wait(slot).unwrap();
            }
        }

        if let Some(m) = &self.metrics {
            m.queue_depth.set(0);
        }
        if let Some(payload) = panic_payload.lock().unwrap().take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("every task produced a result"))
            .collect()
    }
}

/// A pool sized by [`Parallelism::default`], i.e. by the
/// `BLASYS_THREADS` environment variable (unset → one worker, inline).
impl Default for Pool {
    fn default() -> Pool {
        Pool::with_parallelism(Parallelism::default())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pop from our own deque's front, else steal from the back of the
/// fullest victim. The flag is true when the task was stolen.
fn next_task(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<(usize, bool)> {
    if let Some(t) = queues[me].lock().unwrap().pop_front() {
        return Some((t, false));
    }
    loop {
        // Snapshot victim loads without holding more than one lock.
        let victim = (0..queues.len())
            .filter(|&v| v != me)
            .map(|v| (queues[v].lock().unwrap().len(), v))
            .max();
        match victim {
            Some((len, v)) if len > 0 => {
                // Re-lock and steal; another thief may have raced us.
                if let Some(t) = queues[v].lock().unwrap().pop_back() {
                    return Some((t, true));
                }
                // Raced: rescan.
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn results_are_in_task_order() {
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let pool = Pool::with_parallelism(par);
            let got = pool.run(33, |i| i * i);
            let want: Vec<usize> = (0..33).map(|i| i * i).collect();
            assert_eq!(got, want, "{par:?}");
        }
    }

    #[test]
    fn zero_tasks_and_more_workers_than_tasks() {
        assert_eq!(Pool::new(4).run(0, |i| i), Vec::<usize>::new());
        assert_eq!(Pool::new(8).run(2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn uneven_task_sizes_are_stolen_by_idle_workers() {
        // Task 0 is huge — it blocks (bounded) until every small task
        // has completed, so the test is a handshake rather than a
        // timing race: while its worker is stuck, the other worker
        // must drain both chunks via stealing for task 0 to ever see
        // `done == 15` before the timeout.
        const TASKS: usize = 16;
        let pool = Pool::new(2);
        let done = AtomicUsize::new(0);
        let ran_by: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        let results = pool.run(TASKS, |i| {
            ran_by
                .lock()
                .unwrap()
                .push((i, std::thread::current().id()));
            if i == 0 {
                let start = std::time::Instant::now();
                while done.load(Ordering::Relaxed) < TASKS - 1
                    && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                done.fetch_add(1, Ordering::Relaxed);
            }
            i
        });
        assert_eq!(results, (0..TASKS).collect::<Vec<_>>());
        let ran_by = ran_by.lock().unwrap();
        let threads: HashSet<ThreadId> = ran_by.iter().map(|&(_, t)| t).collect();
        // On a heavily loaded machine the second worker may only pick
        // up the job after the first drained everything; the
        // distribution claim is meaningful (and deterministic) exactly
        // when both workers ran: a worker's first pop is its own
        // queue's front (task 0 for worker 0), and task 0 cannot
        // return before all small tasks are done — so the big-task
        // worker must have executed no small task at all.
        if threads.len() == 2 {
            let big_thread = ran_by.iter().find(|&&(i, _)| i == 0).unwrap().1;
            let big_thread_small_tasks = ran_by
                .iter()
                .filter(|&&(i, t)| i != 0 && t == big_thread)
                .count();
            assert_eq!(
                big_thread_small_tasks, 0,
                "worker stuck on the big task ran small tasks; stealing \
                 should have drained its queue while it waited"
            );
        }
    }

    #[test]
    fn too_few_states_is_rejected() {
        let pool = Pool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut states = vec![0usize; 1];
            pool.run_states(16, &mut states, |st, i| {
                *st += 1;
                i
            })
        }));
        assert!(caught.is_err(), "one state cannot serve four workers");
        // The rejection happens before any job is installed: the pool
        // still serves the next run.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("task five exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("task five exploded"), "payload: {msg}");
    }

    #[test]
    fn nested_parallel_scopes_are_rejected() {
        // An inner *parallel* run from inside a worker is rejected,
        // whichever multi-worker pool it targets.
        let outer = Pool::new(2);
        let inner = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            outer.run(4, |i| inner.run(4, |j| i + j))
        }));
        let payload = caught.expect_err("nested parallel run must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("nested"), "payload: {msg}");
    }

    #[test]
    fn nested_serial_maps_are_allowed() {
        let outer = Pool::new(2);
        let serial = Pool::new(1);
        let got = outer.run(4, |i| serial.run(3, |j| i * 10 + j));
        assert_eq!(got[2], vec![20, 21, 22]);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(7).worker_count(), 7);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
        assert_eq!(Pool::with_parallelism(Parallelism::Threads(3)).threads(), 3);
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn pool_matches_scoped_results_across_many_jobs() {
        // Every job on one pool matches the serial map.
        let pool = Pool::new(3);
        for round in 0..5usize {
            let got = pool.run(37, |i| i * i + round);
            let want: Vec<usize> = (0..37).map(|i| i * i + round).collect();
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn pool_serves_two_submitting_threads() {
        // Two threads submitting to one pool (as the daemon does when
        // several requests explore one cached session) queue behind
        // each other's jobs; every result stays complete and ordered.
        let pool = Pool::new(3);
        std::thread::scope(|scope| {
            for submitter in 0..2usize {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..200usize {
                        let tasks = 1 + (round * 7 + submitter) % 40;
                        let mut states = vec![0usize; 3];
                        let got = pool.run_states(tasks, &mut states, |st, i| {
                            *st += 1;
                            (submitter, round, i)
                        });
                        let want: Vec<_> = (0..tasks).map(|i| (submitter, round, i)).collect();
                        assert_eq!(got, want, "submitter {submitter} round {round}");
                        assert_eq!(states.iter().sum::<usize>(), tasks);
                    }
                });
            }
        });
    }

    #[test]
    fn pool_states_survive_between_jobs() {
        let pool = Pool::new(3);
        let mut states = vec![0usize; 3];
        for round in 1..=4 {
            let got = pool.run_states(30, &mut states, |st, i| {
                *st += 1;
                i
            });
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "round {round}");
            // Every task increments exactly one worker's state, and
            // nothing resets them between calls.
            assert_eq!(states.iter().sum::<usize>(), 30 * round);
        }
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the tasks it executed within one
        // run; the counts must sum to the task count, and at least one
        // worker must have seen a running count > 1, proving its state
        // is carried from task to task rather than rebuilt.
        let pool = Pool::new(3);
        let mut states = vec![0usize; pool.threads()];
        let counts = pool.run_states(64, &mut states, |count, _i| {
            *count += 1;
            *count
        });
        assert_eq!(counts.len(), 64);
        assert!(counts.iter().any(|&c| c > 1));
        assert_eq!(states.iter().sum::<usize>(), 64);
    }

    #[test]
    fn caller_owned_states_survive_across_calls() {
        // The states belong to the caller, not to a pool: they keep
        // their values across runs on different pools, parallel and
        // serial alike.
        let parallel = Pool::with_parallelism(Parallelism::Threads(3));
        let serial = Pool::with_parallelism(Parallelism::Serial);
        let mut states = vec![0usize; parallel.threads()];
        for round in 1..=4 {
            let pool = if round % 2 == 0 { &serial } else { &parallel };
            let got = pool.run_states(30, &mut states, |st, i| {
                *st += 1;
                i
            });
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "round {round}");
            assert_eq!(states.iter().sum::<usize>(), 30 * round);
        }
    }

    #[test]
    fn pool_serial_runs_inline_without_threads() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.run(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn pool_panics_propagate_and_workers_survive() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("pool task three exploded");
                }
                i
            })
        }));
        assert!(caught.is_err(), "panic must propagate");
        // The workers survived the panic and serve the next job.
        assert_eq!(pool.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_rejects_nested_parallel_runs() {
        // Re-entering the same pool from one of its own workers.
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| pool.run(4, move |j| i + j))
        }));
        let payload = caught.expect_err("nested parallel run must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("nested"), "payload: {msg}");
        // A one-task inner map runs inline and stays legal.
        let got = pool.run(4, |i| pool.run(1, move |j| i * 10 + j));
        assert_eq!(got[2], vec![20]);
    }

    #[test]
    fn pool_metrics_account_every_task() {
        let registry = Registry::new();
        let pool = Pool::new_with_metrics(3, Some(PoolMetrics::register(&registry, 3)));
        for _ in 0..4 {
            let got = pool.run(25, |i| i);
            assert_eq!(got, (0..25).collect::<Vec<_>>());
        }
        let snap = registry.snapshot();
        let executed: u64 = (0..3)
            .map(|w| snap.counter(&format!("pool.worker{w}.tasks")).unwrap())
            .sum();
        assert_eq!(executed, 100, "every task is counted exactly once");
        // The gauge is reset after the last job completes.
        let depth = snap
            .entries
            .iter()
            .find(|e| e.name == "pool.queue_depth")
            .unwrap();
        assert_eq!(depth.value, blasys_obs::SnapshotValue::Gauge(0));
    }

    #[test]
    fn from_env_parses_the_knob() {
        // This is the only test in the crate touching the variable, so
        // there is no cross-test race despite the parallel harness.
        std::env::set_var("BLASYS_THREADS", "4");
        assert_eq!(Parallelism::from_env(), Parallelism::Threads(4));
        std::env::set_var("BLASYS_THREADS", "auto");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var("BLASYS_THREADS", "1");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
        std::env::set_var("BLASYS_THREADS", "garbage");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
        std::env::remove_var("BLASYS_THREADS");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
    }
}
