//! Deterministic parallel trial execution with per-trial fault isolation.
//!
//! Two engines live here:
//!
//! * [`parallel_try_map`] — the default path: scoped workers, an atomic
//!   claiming cursor, per-trial `catch_unwind`. Zero supervision
//!   overhead, used whenever no [`RunPolicy`] is active, and guaranteed
//!   bit-identical to the single-threaded run.
//! * [`supervised_try_map`] — the self-healing path: the same claiming
//!   discipline plus a supervisor that **retries** failed trials with
//!   exponential backoff (the caller re-derives each attempt's seed
//!   deterministically from the attempt number) and a **watchdog** that
//!   abandons trials exceeding a deadline, recording them as structured
//!   [`TrialFault::Timeout`]s instead of hanging the sweep. A watchdog
//!   abort never cancels other work: the queue keeps draining, every
//!   completed trial is kept, and the sweep layer still flushes its
//!   checkpoint entry, so a timeout never loses finished results.
//!
//! Both engines parallelize *across* trials; each survey runs on the
//! one worker that owns its trial. Both stay on purpose: sending every
//! sweep through the supervised engine cost each batch workload of
//! `perfbench` throughput (ROADMAP.md records the measurement), so an
//! inert [`RunPolicy`] keeps the plain engine.

use std::collections::{HashMap, HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Resolves a thread-count setting: `0` means one thread per available
/// core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// A trial that panicked instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// The task index passed to the closure.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} panicked: {}", self.index, self.message)
    }
}

/// The outcome of a fault-tolerant map: every task either succeeded or is
/// accounted for in `failures`. Both vectors are in ascending index order.
#[derive(Debug)]
pub struct TryMapOutcome<T> {
    /// `(index, value)` for every task that completed.
    pub successes: Vec<(usize, T)>,
    /// Every task whose closure panicked.
    pub failures: Vec<TrialFailure>,
}

impl<T> TryMapOutcome<T> {
    /// Discards indices and returns the surviving values in index order.
    pub fn into_values(self) -> Vec<T> {
        self.successes.into_iter().map(|(_, v)| v).collect()
    }

    /// Whether every task completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(0..n)` across `threads` workers, catching per-task panics so a
/// single bad trial cannot abort a long sweep.
///
/// Work is claimed dynamically (an atomic cursor), so stragglers balance;
/// results are reassembled by index, so the output — and therefore every
/// downstream statistic — is **independent of the thread count and
/// scheduling**. Each task must derive its own randomness from its index.
pub fn parallel_try_map<T, F>(n: usize, threads: usize, f: F) -> TryMapOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> (usize, Result<T, String>) {
        match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => (i, Ok(v)),
            Err(payload) => (i, Err(panic_message(payload))),
        }
    };

    let threads = resolve_threads(threads).min(n.max(1));
    let mut raw: Vec<(usize, Result<T, String>)> = if threads <= 1 || n <= 1 {
        (0..n).map(run_one).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push(run_one(i));
                        }
                        local
                    })
                })
                .collect();
            let mut merged = Vec::with_capacity(n);
            for handle in handles {
                merged.extend(handle.join().expect("worker itself never panics"));
            }
            merged
        })
    };
    raw.sort_unstable_by_key(|(i, _)| *i);

    let mut outcome = TryMapOutcome {
        successes: Vec::with_capacity(raw.len()),
        failures: Vec::new(),
    };
    for (i, r) in raw {
        match r {
            Ok(v) => outcome.successes.push((i, v)),
            Err(message) => outcome.failures.push(TrialFailure { index: i, message }),
        }
    }
    outcome
}

/// Retry/watchdog settings for [`supervised_try_map`].
///
/// The inactive default (`retries == 0`, no timeout) routes sweeps
/// through the unsupervised [`parallel_try_map`], keeping the healthy
/// path bit-identical to previous releases and free of supervision
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Additional attempts granted to a failed trial (0 = fail fast).
    pub retries: u32,
    /// Wall-clock budget per trial attempt; `None` disables the
    /// watchdog.
    pub trial_timeout: Option<Duration>,
    /// Base delay of the exponential backoff between attempts (the
    /// `k`-th retry waits `backoff * 2^(k-1)`).
    pub backoff: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            retries: 0,
            trial_timeout: None,
            backoff: Duration::from_millis(250),
        }
    }
}

impl RunPolicy {
    /// Whether any supervision (retry or watchdog) is requested.
    pub fn is_active(&self) -> bool {
        self.retries > 0 || self.trial_timeout.is_some()
    }

    /// Backoff before attempt `attempt` (attempt 0 starts immediately;
    /// attempt `k >= 1` waits `backoff * 2^(k-1)`, saturating).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        self.backoff
            .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
    }
}

/// The retry deadline `now + backoff`, saturated to the farthest
/// representable `Instant` instead of panicking.
///
/// [`RunPolicy::backoff_before`] saturates toward `backoff * u32::MAX`,
/// which at pathological `--retry`/backoff combinations overflows
/// `Instant` addition (`Instant::now() + backoff` panics). Halving the
/// delay until the addition is representable keeps the deadline as far
/// out as the clock can express — the retry still waits "effectively
/// forever", it just no longer aborts the whole sweep.
pub fn retry_deadline(now: Instant, backoff: Duration) -> Instant {
    let mut delay = backoff;
    loop {
        if let Some(deadline) = now.checked_add(delay) {
            return deadline;
        }
        delay /= 2;
    }
}

/// Why a supervised trial ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialFault {
    /// The trial closure panicked.
    Panic {
        /// The panic payload rendered as text.
        message: String,
    },
    /// The trial exceeded the watchdog deadline and was abandoned.
    Timeout {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl std::fmt::Display for TrialFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrialFault::Panic { message } => write!(f, "panicked: {message}"),
            TrialFault::Timeout { limit } => {
                write!(f, "timed out after {:.3}s", limit.as_secs_f64())
            }
        }
    }
}

/// A trial that exhausted its attempts under [`supervised_try_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedFailure {
    /// The task index passed to the closure.
    pub index: usize,
    /// Attempts consumed (1 + retries granted).
    pub attempts: u32,
    /// The final attempt's fault.
    pub fault: TrialFault,
}

impl std::fmt::Display for SupervisedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trial {} {} (after {} attempt{})",
            self.index,
            self.fault,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" }
        )
    }
}

/// The outcome of a supervised map. Both vectors are in ascending index
/// order; `successes` holds exactly one entry per trial that eventually
/// succeeded, no matter how many attempts it took.
#[derive(Debug)]
pub struct SupervisedOutcome<T> {
    /// `(index, value)` for every task whose (first successful) attempt
    /// completed.
    pub successes: Vec<(usize, T)>,
    /// Every task that exhausted its attempts.
    pub failures: Vec<SupervisedFailure>,
    /// Total retry dispatches across all tasks.
    pub retries: u32,
}

impl<T> SupervisedOutcome<T> {
    /// Discards indices and returns the surviving values in index order.
    pub fn into_values(self) -> Vec<T> {
        self.successes.into_iter().map(|(_, v)| v).collect()
    }

    /// Whether every task eventually completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Progress callbacks emitted by [`supervised_try_map`] on the calling
/// thread (safe to borrow probes and other non-`'static` state).
#[derive(Debug)]
pub enum TrialEvent<'a> {
    /// An attempt completed successfully.
    Done {
        /// Task index.
        index: usize,
        /// The attempt that succeeded (0 = first try).
        attempt: u32,
        /// Wall-clock time the successful attempt took.
        busy: Duration,
    },
    /// An attempt failed and a retry was scheduled.
    Retry {
        /// Task index.
        index: usize,
        /// The attempt that failed (0-based).
        failed_attempt: u32,
        /// Why it failed.
        fault: &'a TrialFault,
        /// Delay before the next attempt starts.
        backoff: Duration,
    },
    /// A task exhausted its attempts.
    Failed {
        /// Task index.
        index: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The final fault.
        fault: &'a TrialFault,
    },
}

/// A unit of work in the supervised queue.
struct Task {
    index: usize,
    attempt: u32,
    not_before: Option<Instant>,
}

/// Shared worker queue: pending tasks + shutdown flag, with a condvar
/// for idle workers.
struct TaskQueue {
    inner: Mutex<(VecDeque<Task>, bool)>,
    available: Condvar,
}

impl TaskQueue {
    fn push(&self, task: Task) {
        self.inner.lock().expect("task queue").0.push_back(task);
        self.available.notify_one();
    }

    /// Blocks until a task is available or shutdown is signalled.
    fn pop(&self) -> Option<Task> {
        let mut guard = self.inner.lock().expect("task queue");
        loop {
            if let Some(task) = guard.0.pop_front() {
                return Some(task);
            }
            if guard.1 {
                return None;
            }
            guard = self.available.wait(guard).expect("task queue");
        }
    }

    fn shutdown(&self) {
        self.inner.lock().expect("task queue").1 = true;
        self.available.notify_all();
    }
}

/// Messages from workers to the supervisor.
enum WorkerMsg<T> {
    Started {
        index: usize,
        attempt: u32,
        at: Instant,
    },
    Finished {
        index: usize,
        attempt: u32,
        result: Result<T, String>,
        busy: Duration,
    },
}

fn spawn_worker<T, F>(
    queue: Arc<TaskQueue>,
    f: Arc<F>,
    tx: mpsc::Sender<WorkerMsg<T>>,
) -> std::thread::JoinHandle<()>
where
    T: Send + 'static,
    F: Fn(usize, u32) -> T + Send + Sync + 'static,
{
    std::thread::spawn(move || {
        while let Some(task) = queue.pop() {
            if let Some(not_before) = task.not_before {
                let now = Instant::now();
                if now < not_before {
                    std::thread::sleep(not_before - now);
                }
            }
            let started = Instant::now();
            // A send failure means the supervisor is gone (all tasks
            // settled while this one ran long); just stop quietly.
            if tx
                .send(WorkerMsg::Started {
                    index: task.index,
                    attempt: task.attempt,
                    at: started,
                })
                .is_err()
            {
                return;
            }
            let result = match panic::catch_unwind(AssertUnwindSafe(|| f(task.index, task.attempt)))
            {
                Ok(v) => Ok(v),
                Err(payload) => Err(panic_message(payload)),
            };
            let finished = WorkerMsg::Finished {
                index: task.index,
                attempt: task.attempt,
                result,
                busy: started.elapsed(),
            };
            if tx.send(finished).is_err() {
                return;
            }
        }
    })
}

/// Runs `f(index, attempt)` for `0..n` under a supervisor that retries
/// failures and aborts attempts exceeding the watchdog deadline.
///
/// * `f` receives the *attempt number* (0 = first try) so the caller can
///   re-derive attempt seeds deterministically — attempt 0 must use the
///   same seed as the unsupervised path, keeping healthy sweeps
///   bit-identical under any policy.
/// * A failed attempt (panic or timeout) is re-queued up to
///   `policy.retries` times, delayed by `policy.backoff * 2^(k-1)`.
/// * A timed-out attempt is *abandoned*: its worker thread keeps running
///   (safe Rust cannot kill it) but its eventual result is discarded, a
///   replacement worker keeps the pool at strength, and the trial is
///   recorded as a structured [`TrialFault::Timeout`] once its attempts
///   are exhausted. Other in-flight and queued trials are unaffected —
///   the sweep drains completely and every completed result is kept.
/// * `on_event` fires on the calling thread for every settled attempt,
///   so probes can stream progress without `Sync + 'static` bounds.
///
/// Successes are recorded exactly once per trial (whichever attempt
/// succeeds first); results are sorted by index, so downstream
/// statistics are independent of thread count and scheduling. Note that
/// *which* attempt of a wall-clock-limited trial succeeds can depend on
/// machine speed; determinism holds whenever trials fail (or succeed)
/// deterministically, which is the case for seed-derived panics and for
/// the healthy path.
pub fn supervised_try_map<T, F>(
    n: usize,
    threads: usize,
    policy: RunPolicy,
    f: F,
    mut on_event: impl FnMut(TrialEvent<'_>),
) -> SupervisedOutcome<T>
where
    T: Send + 'static,
    F: Fn(usize, u32) -> T + Send + Sync + 'static,
{
    let mut outcome = SupervisedOutcome {
        successes: Vec::with_capacity(n),
        failures: Vec::new(),
        retries: 0,
    };
    if n == 0 {
        return outcome;
    }

    let queue = Arc::new(TaskQueue {
        inner: Mutex::new((VecDeque::with_capacity(n), false)),
        available: Condvar::new(),
    });
    for index in 0..n {
        queue.inner.lock().expect("task queue").0.push_back(Task {
            index,
            attempt: 0,
            not_before: None,
        });
    }
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<WorkerMsg<T>>();
    let workers = resolve_threads(threads).min(n);
    for _ in 0..workers {
        spawn_worker(Arc::clone(&queue), Arc::clone(&f), tx.clone());
    }

    // Supervisor state: running attempts (for the watchdog) and attempts
    // abandoned by it (whose late results must be discarded).
    let mut running: HashMap<usize, (u32, Instant)> = HashMap::new();
    let mut abandoned: HashSet<(usize, u32)> = HashSet::new();
    let mut settled = 0usize;

    while settled < n {
        let msg = match policy.trial_timeout {
            Some(limit) => {
                let next_deadline = running.values().map(|&(_, at)| at + limit).min();
                match next_deadline {
                    Some(deadline) => {
                        let wait = deadline.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(wait) {
                            Ok(m) => Some(m),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                unreachable!("supervisor holds a sender")
                            }
                        }
                    }
                    None => Some(rx.recv().expect("supervisor holds a sender")),
                }
            }
            None => Some(rx.recv().expect("supervisor holds a sender")),
        };

        match msg {
            Some(WorkerMsg::Started { index, attempt, at }) => {
                if !abandoned.contains(&(index, attempt)) {
                    running.insert(index, (attempt, at));
                }
            }
            Some(WorkerMsg::Finished {
                index,
                attempt,
                result,
                busy,
            }) => {
                if abandoned.remove(&(index, attempt)) {
                    // The watchdog already charged this attempt; whatever
                    // it eventually produced is void.
                    continue;
                }
                running.remove(&index);
                match result {
                    Ok(value) => {
                        outcome.successes.push((index, value));
                        settled += 1;
                        on_event(TrialEvent::Done {
                            index,
                            attempt,
                            busy,
                        });
                    }
                    Err(message) => {
                        let fault = TrialFault::Panic { message };
                        settled += settle_failure(
                            &mut outcome,
                            &queue,
                            &policy,
                            index,
                            attempt,
                            fault,
                            &mut on_event,
                        );
                    }
                }
            }
            None => {
                // Watchdog tick: abandon every running attempt past its
                // deadline. The queue keeps draining regardless.
                let limit = policy.trial_timeout.expect("timeout armed");
                let now = Instant::now();
                let expired: Vec<(usize, u32)> = running
                    .iter()
                    .filter(|&(_, &(_, at))| now.saturating_duration_since(at) >= limit)
                    .map(|(&index, &(attempt, _))| (index, attempt))
                    .collect();
                for (index, attempt) in expired {
                    running.remove(&index);
                    abandoned.insert((index, attempt));
                    // The abandoned worker may be stuck for good; keep
                    // the pool at strength so the sweep still drains.
                    spawn_worker(Arc::clone(&queue), Arc::clone(&f), tx.clone());
                    let fault = TrialFault::Timeout { limit };
                    settled += settle_failure(
                        &mut outcome,
                        &queue,
                        &policy,
                        index,
                        attempt,
                        fault,
                        &mut on_event,
                    );
                }
            }
        }
    }

    queue.shutdown();
    outcome.successes.sort_unstable_by_key(|(i, _)| *i);
    outcome
        .failures
        .sort_unstable_by_key(|failure| failure.index);
    outcome
}

/// Handles a failed attempt: schedules a retry if the policy allows,
/// otherwise records the failure. Returns how many trials settled (0 or
/// 1) so the supervisor can track completion.
fn settle_failure<T>(
    outcome: &mut SupervisedOutcome<T>,
    queue: &TaskQueue,
    policy: &RunPolicy,
    index: usize,
    attempt: u32,
    fault: TrialFault,
    on_event: &mut impl FnMut(TrialEvent<'_>),
) -> usize {
    if attempt < policy.retries {
        let next = attempt + 1;
        let backoff = policy.backoff_before(next);
        on_event(TrialEvent::Retry {
            index,
            failed_attempt: attempt,
            fault: &fault,
            backoff,
        });
        outcome.retries += 1;
        queue.push(Task {
            index,
            attempt: next,
            not_before: Some(retry_deadline(Instant::now(), backoff)),
        });
        0
    } else {
        let attempts = attempt + 1;
        on_event(TrialEvent::Failed {
            index,
            attempts,
            fault: &fault,
        });
        outcome.failures.push(SupervisedFailure {
            index,
            attempts,
            fault,
        });
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_index_order() {
        let out = parallel_try_map(100, 8, |i| i * 3).into_values();
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn zero_and_one_tasks() {
        assert!(parallel_try_map(0, 4, |i| i).into_values().is_empty());
        assert_eq!(parallel_try_map(1, 4, |i| i + 7).into_values(), vec![7]);
    }

    #[test]
    fn single_thread_equals_multi_thread() {
        let seq = parallel_try_map(64, 1, |i| (i as f64).sqrt()).into_values();
        let par = parallel_try_map(64, 8, |i| (i as f64).sqrt()).into_values();
        assert_eq!(seq, par);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = parallel_try_map(500, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .into_values();
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn resolve_threads_defaults_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = parallel_try_map(3, 64, |i| i).into_values();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn try_map_isolates_panicking_trials() {
        let outcome = parallel_try_map(50, 4, |i| {
            if i == 17 {
                panic!("injected fault at {i}");
            }
            i * 2
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 17);
        assert!(outcome.failures[0].message.contains("injected fault"));
        assert_eq!(outcome.successes.len(), 49);
        assert!(!outcome.is_complete());
        for (i, v) in &outcome.successes {
            assert_eq!(*v, i * 2);
        }
        assert!(outcome.successes.iter().all(|(i, _)| *i != 17));
    }

    #[test]
    fn try_map_sequential_path_catches_too() {
        let outcome = parallel_try_map(3, 1, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 1);
        assert_eq!(outcome.into_values(), vec![0, 2]);
    }

    #[test]
    fn try_map_string_and_nonstring_payloads() {
        let outcome = parallel_try_map(2, 1, |i| {
            if i == 0 {
                panic!("{}", String::from("owned message"));
            }
            std::panic::panic_any(42_u32);
        });
        assert_eq!(outcome.failures[0].message, "owned message");
        assert_eq!(outcome.failures[1].message, "non-string panic payload");
    }

    #[test]
    fn thread_count_invariance_with_failures() {
        let run = |threads| {
            parallel_try_map(40, threads, |i| {
                if i % 13 == 0 {
                    panic!("fault {i}");
                }
                i as f64 * 1.5
            })
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.failures, b.failures);
    }

    fn quiet_policy(retries: u32) -> RunPolicy {
        RunPolicy {
            retries,
            trial_timeout: None,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn supervised_healthy_run_matches_unsupervised() {
        let plain = parallel_try_map(50, 4, |i| i * 3);
        let supervised = supervised_try_map(50, 4, quiet_policy(2), |i, _attempt| i * 3, |_| {});
        assert_eq!(plain.successes, supervised.successes);
        assert!(supervised.is_complete());
        assert_eq!(supervised.retries, 0);
    }

    #[test]
    fn panic_twice_then_succeed_is_counted_exactly_once() {
        // The acceptance scenario: a trial that fails its first two
        // attempts deterministically must be retried and contribute
        // exactly one sample to the final statistics.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = Arc::clone(&calls);
        let mut retry_events = 0u32;
        let outcome = supervised_try_map(
            10,
            4,
            quiet_policy(2),
            move |i, attempt| {
                if i == 4 {
                    calls_in.fetch_add(1, Ordering::Relaxed);
                    if attempt < 2 {
                        panic!("flaky trial, attempt {attempt}");
                    }
                }
                i + 100
            },
            |event| {
                if matches!(event, TrialEvent::Retry { index: 4, .. }) {
                    retry_events += 1;
                }
            },
        );
        assert!(outcome.is_complete());
        assert_eq!(outcome.retries, 2);
        assert_eq!(retry_events, 2);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "attempts 0, 1, 2");
        // Exactly one success for index 4, from the third attempt.
        let fours: Vec<_> = outcome.successes.iter().filter(|(i, _)| *i == 4).collect();
        assert_eq!(fours.len(), 1);
        assert_eq!(outcome.successes.len(), 10);
        assert_eq!(outcome.into_values(), (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn exhausted_retries_record_the_final_panic() {
        let outcome = supervised_try_map(
            6,
            3,
            quiet_policy(1),
            |i, attempt| {
                if i == 2 {
                    panic!("always bad (attempt {attempt})");
                }
                i
            },
            |_| {},
        );
        assert_eq!(outcome.failures.len(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.index, 2);
        assert_eq!(failure.attempts, 2, "1 try + 1 retry");
        assert!(
            matches!(&failure.fault, TrialFault::Panic { message } if message.contains("attempt 1"))
        );
        assert_eq!(outcome.successes.len(), 5);
        assert_eq!(outcome.retries, 1);
    }

    #[test]
    fn watchdog_times_out_stuck_trial_and_drains_the_rest() {
        // Satellite 6: one stuck trial must neither hang the sweep nor
        // lose any completed result.
        let policy = RunPolicy {
            retries: 0,
            trial_timeout: Some(Duration::from_millis(100)),
            backoff: Duration::from_millis(1),
        };
        let started = Instant::now();
        let outcome = supervised_try_map(
            8,
            4,
            policy,
            |i, _attempt| {
                if i == 3 {
                    // Far longer than the deadline: the watchdog must
                    // abandon it, not wait it out.
                    std::thread::sleep(Duration::from_secs(30));
                }
                i * 2
            },
            |_| {},
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "watchdog failed to abort the stuck trial"
        );
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 3);
        assert!(matches!(
            outcome.failures[0].fault,
            TrialFault::Timeout { .. }
        ));
        // Every other trial drained and kept its result.
        let indices: Vec<usize> = outcome.successes.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2, 4, 5, 6, 7]);
        for (i, v) in &outcome.successes {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn timed_out_attempt_is_retried_with_new_attempt_number() {
        let policy = RunPolicy {
            retries: 1,
            trial_timeout: Some(Duration::from_millis(100)),
            backoff: Duration::from_millis(1),
        };
        let outcome = supervised_try_map(
            4,
            2,
            policy,
            |i, attempt| {
                if i == 1 && attempt == 0 {
                    std::thread::sleep(Duration::from_secs(30));
                }
                (i, attempt)
            },
            |_| {},
        );
        assert!(outcome.is_complete(), "retry must rescue the stuck trial");
        assert_eq!(outcome.retries, 1);
        let rescued = outcome
            .successes
            .iter()
            .find(|(i, _)| *i == 1)
            .expect("index 1 present");
        assert_eq!(rescued.1, (1, 1), "success must come from attempt 1");
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let policy = RunPolicy {
            retries: 4,
            trial_timeout: None,
            backoff: Duration::from_millis(100),
        };
        assert_eq!(policy.backoff_before(0), Duration::ZERO);
        assert_eq!(policy.backoff_before(1), Duration::from_millis(100));
        assert_eq!(policy.backoff_before(2), Duration::from_millis(200));
        assert_eq!(policy.backoff_before(3), Duration::from_millis(400));
        assert!(policy.is_active());
        assert!(!RunPolicy::default().is_active());
    }

    #[test]
    fn retry_deadline_saturates_instead_of_panicking() {
        // Pathological policies saturate `backoff_before` toward
        // `backoff * u32::MAX`; the deadline must clamp, not panic
        // (regression: `Instant::now() + backoff` overflowed).
        let policy = RunPolicy {
            retries: u32::MAX,
            trial_timeout: None,
            backoff: Duration::MAX,
        };
        let now = Instant::now();
        for attempt in [1, 2, 31, 32, 63, u32::MAX] {
            let backoff = policy.backoff_before(attempt);
            let deadline = retry_deadline(now, backoff);
            assert!(deadline >= now, "deadline must not precede now");
        }
        // The saturated deadline still orders after any sane deadline.
        let sane = retry_deadline(now, Duration::from_secs(1));
        let saturated = retry_deadline(now, Duration::MAX);
        assert!(saturated >= sane);
        // And ordinary backoffs are exact.
        assert_eq!(sane, now + Duration::from_secs(1));
    }

    #[test]
    fn supervised_zero_tasks() {
        let outcome = supervised_try_map::<usize, _>(0, 4, quiet_policy(1), |i, _| i, |_| {});
        assert!(outcome.successes.is_empty());
        assert!(outcome.is_complete());
    }
}
