//! Deterministic parallel trial execution with per-trial fault isolation.
//!
//! One engine runs every trial, under any [`RunPolicy`]: a pool of
//! worker threads that the sweep driver starts at a sweep's first
//! computed point, hands every later point of that sweep, and joins
//! before it returns. Within a point:
//!
//! * workers claim trials from a shared queue, run each attempt under
//!   `catch_unwind`, and store the outcome by trial index, so results —
//!   and every statistic downstream — are independent of the thread
//!   count and of scheduling;
//! * a worker whose attempt panicked runs the trial's next attempt itself,
//!   after the policy's exponential backoff (capped at 4 s), until the
//!   policy's retries are spent (the caller re-derives each attempt's
//!   seed from the attempt number; attempt 0 uses the plain trial seed);
//! * the calling thread sleeps on one condvar and wakes only when the
//!   point settles, when the watchdog's next deadline is due, or after
//!   100 ms, to hand finished trials, retries and timeouts to its
//!   `on_event` callback. An attempt that overruns the policy's
//!   `trial_timeout` is abandoned: safe Rust cannot stop its thread, so
//!   the attempt is charged a [`TrialFault::Timeout`], its trial is
//!   retried or recorded as failed, and a replacement worker keeps the
//!   pool at strength. The abandoned worker exits when the attempt
//!   returns, and its result is discarded. A timeout never cancels other
//!   work: the queue keeps draining and every completed trial is kept.
//!
//! The default policy — no retries, no deadline — runs on the same code.
//! Each worker keeps its thread-local [`crate::TrialScratch`] for the
//! whole sweep, so only a sweep's first trials per worker grow buffers.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest a waiting caller goes without handing finished trials to
/// its `on_event` callback: `ProgressProbe`'s render throttle, so
/// `--progress` moves while a point runs.
const TICK: Duration = Duration::from_millis(100);

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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retry and watchdog settings for every sweep's trials.
///
/// The default grants no retries and arms no watchdog: a panicking trial
/// fails at once and no attempt is ever abandoned. Every policy runs on
/// the same engine, and attempt 0 always uses the plain trial seed, so a
/// healthy sweep is bit-identical under any policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Additional attempts granted to a failed trial (0 = fail fast).
    pub retries: u32,
    /// Wall-clock budget per trial attempt; `None` disables the
    /// watchdog.
    pub trial_timeout: Option<Duration>,
    /// Base delay of the exponential backoff between attempts (the
    /// `k`-th retry waits `backoff * 2^(k-1)`, at most 4 s).
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

/// The longest wait between two attempts of one trial, whatever the
/// attempt number or base backoff: the reconnect ceiling `abp top` uses.
const MAX_BACKOFF: Duration = Duration::from_secs(4);

impl RunPolicy {
    /// Backoff before attempt `attempt` (attempt 0 starts immediately;
    /// attempt `k >= 1` waits `backoff * 2^(k-1)`, capped at 4 s).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        self.backoff
            .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
            .min(MAX_BACKOFF)
    }
}

/// Why a trial ultimately failed.
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

/// A trial that exhausted its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MapFailure {
    /// The task index passed to the closure.
    pub index: usize,
    /// Attempts consumed (1 + retries granted).
    pub attempts: u32,
    /// The final attempt's fault.
    pub fault: TrialFault,
}

/// The outcome of one [`Pool::map`]. Both vectors are in ascending index
/// order; `successes` holds exactly one entry per trial that eventually
/// succeeded, no matter how many attempts it took.
pub(crate) struct MapOutcome<T> {
    /// `(index, value)` for every task whose (first successful) attempt
    /// completed.
    pub successes: Vec<(usize, T)>,
    /// Every task that exhausted its attempts.
    pub failures: Vec<MapFailure>,
}

impl<T> MapOutcome<T> {
    /// Discards indices and returns the surviving values in index order.
    pub fn into_values(self) -> Vec<T> {
        self.successes.into_iter().map(|(_, v)| v).collect()
    }
}

/// What a [`Pool::map`] hands its caller's `on_event` while a point runs.
pub(crate) enum TrialEvent {
    /// An attempt succeeded; `busy` is the time it took.
    Done { busy: Duration },
    /// The watchdog abandoned attempt `attempt` of trial `index`.
    TimedOut {
        index: usize,
        attempt: u32,
        limit: Duration,
    },
    /// Attempt `failed_attempt` of trial `index` failed; the next one
    /// starts after `backoff`.
    Retry {
        index: usize,
        failed_attempt: u32,
        fault: TrialFault,
        backoff: Duration,
    },
}

/// The trial function of the point being mapped.
type Job<T> = Arc<dyn Fn(usize, u32) -> T + Send + Sync>;

/// A trial waiting for a worker: the attempt to run next, and for a retry
/// after a timeout the earliest moment it may start.
struct Task {
    index: usize,
    attempt: u32,
    not_before: Option<Instant>,
}

/// One worker, as the watchdog sees it.
#[derive(Clone, Copy)]
enum Slot {
    Idle,
    Running {
        index: usize,
        attempt: u32,
        started: Instant,
    },
    /// The watchdog gave up on its attempt; the worker exits when the
    /// attempt returns.
    Abandoned,
}

/// Everything the workers and the caller share, under one lock.
struct State<T> {
    job: Option<Job<T>>,
    queue: VecDeque<Task>,
    /// By worker number, for every worker the pool ever started.
    slots: Vec<Slot>,
    /// The current point's settled trials, by index.
    outcomes: Vec<Option<Result<T, MapFailure>>>,
    settled: usize,
    /// Workers waiting for a task; the rest need no wake-up call.
    idle: usize,
    /// Events the caller has not handed on yet.
    events: Vec<TrialEvent>,
    shutdown: bool,
}

impl<T> State<T> {
    fn settle(&mut self, index: usize, outcome: Result<T, MapFailure>) {
        self.outcomes[index] = Some(outcome);
        self.settled += 1;
    }

    /// Settles a failed attempt: returns when the trial's next attempt may
    /// start if the policy grants one, and records the failure otherwise.
    fn fail(
        &mut self,
        policy: &RunPolicy,
        index: usize,
        attempt: u32,
        fault: TrialFault,
    ) -> Option<Instant> {
        if attempt < policy.retries {
            let backoff = policy.backoff_before(attempt + 1);
            self.events.push(TrialEvent::Retry {
                index,
                failed_attempt: attempt,
                fault,
                backoff,
            });
            Some(Instant::now() + backoff)
        } else {
            let attempts = attempt + 1;
            self.settle(
                index,
                Err(MapFailure {
                    index,
                    attempts,
                    fault,
                }),
            );
            None
        }
    }

    /// Hands over a settled point's outcomes in index order.
    fn take_outcome(&mut self) -> MapOutcome<T> {
        self.job = None;
        self.settled = 0;
        let mut outcome = MapOutcome {
            successes: Vec::with_capacity(self.outcomes.len()),
            failures: Vec::new(),
        };
        for (index, settled) in self.outcomes.drain(..).enumerate() {
            match settled.expect("a settled point has every outcome") {
                Ok(value) => outcome.successes.push((index, value)),
                Err(failure) => outcome.failures.push(failure),
            }
        }
        outcome
    }
}

struct Shared<T> {
    policy: RunPolicy,
    state: Mutex<State<T>>,
    /// Idle workers wait here for a task.
    work: Condvar,
    /// The caller waits here for its point to settle.
    settled: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .expect("pool state: no thread panics while holding the lock")
    }
}

/// One worker's life: claim a trial, run its attempts, store its outcome;
/// exit at shutdown, or once the watchdog has abandoned its attempt.
fn work<T>(shared: &Shared<T>, me: usize) {
    let mut state = shared.lock();
    loop {
        let Task {
            index,
            mut attempt,
            mut not_before,
        } = loop {
            if state.shutdown {
                return;
            }
            match state.queue.pop_front() {
                Some(task) => {
                    // Wake idle workers one by one, each by the last to
                    // claim a task: woken all at once by one thread, they
                    // tend to queue on that thread's CPU while another
                    // CPU idles.
                    if state.idle > 0 && !state.queue.is_empty() {
                        shared.work.notify_one();
                    }
                    break task;
                }
                None => {
                    state.idle += 1;
                    state = shared.work.wait(state).expect("pool state lock");
                    state.idle -= 1;
                }
            }
        };
        let job = Arc::clone(
            state
                .job
                .as_ref()
                .expect("a queued task has its point's job"),
        );
        loop {
            if let Some(at) = not_before {
                drop(state);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                state = shared.lock();
            }
            let started = Instant::now();
            state.slots[me] = Slot::Running {
                index,
                attempt,
                started,
            };
            drop(state);
            let result = panic::catch_unwind(AssertUnwindSafe(|| job(index, attempt)));
            let busy = started.elapsed();
            state = shared.lock();
            if matches!(state.slots[me], Slot::Abandoned) {
                return;
            }
            state.slots[me] = Slot::Idle;
            let fault = match result {
                Ok(value) => {
                    state.events.push(TrialEvent::Done { busy });
                    state.settle(index, Ok(value));
                    break;
                }
                Err(payload) => TrialFault::Panic {
                    message: panic_message(payload),
                },
            };
            match state.fail(&shared.policy, index, attempt, fault) {
                Some(at) => (attempt, not_before) = (attempt + 1, Some(at)),
                None => break,
            }
        }
        if state.settled == state.outcomes.len() {
            shared.settled.notify_one();
        }
    }
}

/// A sweep's workers (see the module docs). Dropping the pool stops them
/// and joins every one the watchdog did not abandon.
pub(crate) struct Pool<T> {
    shared: Arc<Shared<T>>,
    /// By worker number; `None` once the watchdog abandoned the worker.
    workers: Vec<Option<JoinHandle<()>>>,
}

impl<T: Send + 'static> Pool<T> {
    /// Starts `min(resolve_threads(threads), trials)` workers that run
    /// trials under `policy`.
    pub(crate) fn new(threads: usize, trials: usize, policy: RunPolicy) -> Self {
        let shared = Arc::new(Shared {
            policy,
            state: Mutex::new(State {
                job: None,
                queue: VecDeque::new(),
                slots: Vec::new(),
                outcomes: Vec::new(),
                settled: 0,
                idle: 0,
                events: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
        });
        let mut pool = Pool {
            shared: Arc::clone(&shared),
            workers: Vec::new(),
        };
        let mut state = shared.lock();
        for _ in 0..resolve_threads(threads).min(trials) {
            pool.spawn_worker(&mut state);
        }
        drop(state);
        pool
    }

    fn spawn_worker(&mut self, state: &mut State<T>) {
        let me = state.slots.len();
        state.slots.push(Slot::Idle);
        let shared = Arc::clone(&self.shared);
        self.workers
            .push(Some(std::thread::spawn(move || work(&shared, me))));
    }

    /// Runs `job(index, attempt)` for every index in `0..n` and returns
    /// once each has succeeded or spent its attempts.
    ///
    /// `job` receives the attempt number (0 = first try) so the caller
    /// can re-derive attempt seeds deterministically. `on_event` runs on
    /// the calling thread, and every event of the map reaches it before
    /// `map` returns. *Which* attempt of a wall-clock-limited trial
    /// succeeds can depend on machine speed; results are deterministic
    /// whenever trials fail (or succeed) deterministically, which is the
    /// case for seed-derived panics and for the healthy path.
    pub(crate) fn map(
        &mut self,
        n: usize,
        job: impl Fn(usize, u32) -> T + Send + Sync + 'static,
        mut on_event: impl FnMut(TrialEvent),
    ) -> MapOutcome<T> {
        let shared = Arc::clone(&self.shared);
        let mut events = Vec::new();
        let mut state = shared.lock();
        state.job = Some(Arc::new(job));
        state.outcomes.resize_with(n, || None);
        state.queue.extend((0..n).map(|index| Task {
            index,
            attempt: 0,
            not_before: None,
        }));
        // Nothing runs yet, so this is one tick from now.
        let mut wake = self.watchdog(&mut state);
        drop(state);
        shared.work.notify_one();
        loop {
            let mut state = shared.lock();
            if state.settled < n {
                let timeout = wake.saturating_duration_since(Instant::now());
                state = shared
                    .settled
                    .wait_timeout(state, timeout)
                    .expect("pool state lock")
                    .0;
            }
            wake = self.watchdog(&mut state);
            std::mem::swap(&mut state.events, &mut events);
            let outcome = (state.settled == n).then(|| state.take_outcome());
            drop(state);
            for event in events.drain(..) {
                on_event(event);
            }
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
    }

    /// Abandons every attempt past the policy's deadline and returns when
    /// to look again: the next deadline, or one tick from now. Without a
    /// deadline the tick is [`TICK`]; with one it is at most the
    /// deadline, so an attempt that starts while the caller sleeps is
    /// still seen before it expires.
    fn watchdog(&mut self, state: &mut State<T>) -> Instant {
        let now = Instant::now();
        let Some(limit) = self.shared.policy.trial_timeout else {
            return now + TICK;
        };
        let mut wake = now + limit.min(TICK);
        let mut expired = Vec::new();
        for (me, slot) in state.slots.iter().enumerate() {
            if let Slot::Running {
                index,
                attempt,
                started,
            } = *slot
            {
                match started.checked_add(limit) {
                    Some(deadline) if deadline <= now => expired.push((me, index, attempt)),
                    Some(deadline) => wake = wake.min(deadline),
                    None => {}
                }
            }
        }
        for (me, index, attempt) in expired {
            state.slots[me] = Slot::Abandoned;
            // Detach the stuck thread; a replacement takes its place.
            self.workers[me] = None;
            state.events.push(TrialEvent::TimedOut {
                index,
                attempt,
                limit,
            });
            let fault = TrialFault::Timeout { limit };
            if let Some(not_before) = state.fail(&self.shared.policy, index, attempt, fault) {
                state.queue.push_back(Task {
                    index,
                    attempt: attempt + 1,
                    not_before: Some(not_before),
                });
            }
            self.spawn_worker(state);
        }
        wake
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        // A poisoned lock means a worker already died; the join below
        // still reaps the rest, which fail on the same poison.
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for worker in self.workers.iter_mut().filter_map(Option::take) {
            // Trial panics are caught inside the worker, and a panic
            // outside a trial has already poisoned the lock the caller
            // reads; `drop` must not panic on top of it.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// One map on a fresh pool, as a sweep runs one point.
    fn try_map<T: Send + 'static>(
        n: usize,
        threads: usize,
        policy: RunPolicy,
        f: impl Fn(usize, u32) -> T + Send + Sync + 'static,
        on_event: impl FnMut(TrialEvent),
    ) -> MapOutcome<T> {
        Pool::new(threads, n, policy).map(n, f, on_event)
    }

    /// [`try_map`] under the default policy, ignoring attempts and events.
    fn plain_map<T: Send + 'static>(
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> MapOutcome<T> {
        try_map(n, threads, RunPolicy::default(), move |i, _| f(i), |_| {})
    }

    fn panic_text(failure: &MapFailure) -> &str {
        match &failure.fault {
            TrialFault::Panic { message } => message,
            other => panic!("expected a panic, got {other:?}"),
        }
    }

    fn is_retry(event: &TrialEvent) -> bool {
        matches!(event, TrialEvent::Retry { .. })
    }

    #[test]
    fn preserves_index_order() {
        let out = plain_map(100, 8, |i| i * 3).into_values();
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn zero_and_one_tasks() {
        assert!(plain_map(0, 4, |i| i).into_values().is_empty());
        assert_eq!(plain_map(1, 4, |i| i + 7).into_values(), vec![7]);
    }

    #[test]
    fn single_thread_equals_multi_thread() {
        let seq = plain_map(64, 1, |i| (i as f64).sqrt()).into_values();
        let par = plain_map(64, 8, |i| (i as f64).sqrt()).into_values();
        assert_eq!(seq, par);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let out = plain_map(500, 7, move |i| {
            counted.fetch_add(1, Ordering::Relaxed);
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
        let out = plain_map(3, 64, |i| i).into_values();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn try_map_isolates_panicking_trials() {
        let outcome = plain_map(50, 4, |i| {
            if i == 17 {
                panic!("injected fault at {i}");
            }
            i * 2
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 17);
        assert!(panic_text(&outcome.failures[0]).contains("injected fault"));
        assert_eq!(outcome.successes.len(), 49);
        assert!(!outcome.failures.is_empty());
        for (i, v) in &outcome.successes {
            assert_eq!(*v, i * 2);
        }
        assert!(outcome.successes.iter().all(|(i, _)| *i != 17));
    }

    #[test]
    fn try_map_sequential_path_catches_too() {
        let outcome = plain_map(3, 1, |i| {
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
        let outcome = plain_map(2, 1, |i| {
            if i == 0 {
                panic!("{}", String::from("owned message"));
            }
            std::panic::panic_any(42_u32);
        });
        assert_eq!(panic_text(&outcome.failures[0]), "owned message");
        assert_eq!(panic_text(&outcome.failures[1]), "non-string panic payload");
    }

    #[test]
    fn thread_count_invariance_with_failures() {
        let run = |threads| {
            plain_map(40, threads, |i| {
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
    fn armed_policy_healthy_run_matches_default_policy() {
        let plain = plain_map(50, 4, |i| i * 3);
        let mut retries = 0;
        let armed = try_map(
            50,
            4,
            quiet_policy(2),
            |i, _attempt| i * 3,
            |e| retries += u32::from(is_retry(&e)),
        );
        assert_eq!(plain.successes, armed.successes);
        assert!(armed.failures.is_empty());
        assert_eq!(retries, 0);
    }

    #[test]
    fn panic_twice_then_succeed_is_counted_exactly_once() {
        // The acceptance scenario: a trial that fails its first two
        // attempts deterministically must be retried and contribute
        // exactly one sample to the final statistics.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = Arc::clone(&calls);
        let (mut retries, mut retry_events) = (0u32, 0u32);
        let outcome = try_map(
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
                retries += u32::from(is_retry(&event));
                if matches!(event, TrialEvent::Retry { index: 4, .. }) {
                    retry_events += 1;
                }
            },
        );
        assert!(outcome.failures.is_empty());
        assert_eq!(retries, 2);
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
        let mut retries = 0;
        let outcome = try_map(
            6,
            3,
            quiet_policy(1),
            |i, attempt| {
                if i == 2 {
                    panic!("always bad (attempt {attempt})");
                }
                i
            },
            |e| retries += u32::from(is_retry(&e)),
        );
        assert_eq!(outcome.failures.len(), 1);
        let failure = &outcome.failures[0];
        assert_eq!(failure.index, 2);
        assert_eq!(failure.attempts, 2, "1 try + 1 retry");
        assert!(
            matches!(&failure.fault, TrialFault::Panic { message } if message.contains("attempt 1"))
        );
        assert_eq!(outcome.successes.len(), 5);
        assert_eq!(retries, 1);
    }

    #[test]
    fn watchdog_times_out_stuck_trial_and_drains_the_rest() {
        // One stuck trial must neither hang the sweep nor lose any
        // completed result.
        let policy = RunPolicy {
            retries: 0,
            trial_timeout: Some(Duration::from_millis(100)),
            backoff: Duration::from_millis(1),
        };
        let started = Instant::now();
        let outcome = try_map(
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
        let mut retries = 0;
        let outcome = try_map(
            4,
            2,
            policy,
            |i, attempt| {
                if i == 1 && attempt == 0 {
                    std::thread::sleep(Duration::from_secs(30));
                }
                (i, attempt)
            },
            |e| retries += u32::from(is_retry(&e)),
        );
        assert!(
            outcome.failures.is_empty(),
            "retry must rescue the stuck trial"
        );
        assert_eq!(retries, 1);
        let rescued = outcome
            .successes
            .iter()
            .find(|(i, _)| *i == 1)
            .expect("index 1 present");
        assert_eq!(rescued.1, (1, 1), "success must come from attempt 1");
    }

    #[test]
    fn abandoned_worker_exits_instead_of_rejoining() {
        // Trial 0 overruns the deadline; its replacement worker and the
        // other original one finish the map. When trial 0's sleep ends
        // the abandoned worker must exit, not take more trials: the
        // healthy trials never run more than `threads` at once.
        let policy = RunPolicy {
            trial_timeout: Some(Duration::from_millis(100)),
            ..RunPolicy::default()
        };
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (running_in, peak_in) = (Arc::clone(&running), Arc::clone(&peak));
        let outcome = try_map(
            40,
            2,
            policy,
            move |i, _attempt| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                    return i;
                }
                let now = running_in.fetch_add(1, Ordering::SeqCst) + 1;
                peak_in.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                running_in.fetch_sub(1, Ordering::SeqCst);
                i
            },
            |_| {},
        );
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 0);
        assert_eq!(outcome.successes.len(), 39);
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "{peak} healthy trials ran at once on 2 threads");
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
        assert_ne!(policy, RunPolicy::default());
        let inert = RunPolicy::default();
        assert_eq!((inert.retries, inert.trial_timeout), (0, None));
    }

    #[test]
    fn backoff_doubles_to_a_four_second_cap() {
        let policy = RunPolicy {
            retries: 12,
            ..RunPolicy::default()
        };
        let schedule: Vec<Duration> = (1..=6).map(|a| policy.backoff_before(a)).collect();
        let ms = Duration::from_millis;
        assert_eq!(
            schedule,
            [ms(250), ms(500), ms(1000), ms(2000), ms(4000), ms(4000)]
        );
        assert_eq!(policy.backoff_before(12), MAX_BACKOFF);
        // Pathological policies stay capped, so `Instant::now() + backoff`
        // can never overflow.
        let pathological = RunPolicy {
            retries: u32::MAX,
            trial_timeout: None,
            backoff: Duration::MAX,
        };
        for attempt in [1, 2, 31, 32, 33, 63, u32::MAX] {
            assert!(pathological.backoff_before(attempt) <= MAX_BACKOFF);
        }
    }

    #[test]
    fn zero_tasks_under_an_armed_policy() {
        let outcome = try_map::<usize>(0, 4, quiet_policy(1), |i, _| i, |_| {});
        assert!(outcome.successes.is_empty());
        assert!(outcome.failures.is_empty());
    }
}
