//! Per-worker trial scratch: survey buffers reused across trials.

use abp_survey::SurveyScratch;
use std::cell::RefCell;

/// Every reusable buffer one Monte-Carlo worker thread needs: the survey
/// scratch (error-map grids, quantile workspace) — and room for future
/// per-trial state.
///
/// One `TrialScratch` lives per OS thread (see [`with_trial_scratch`]).
/// Both `parallel_try_map` and the supervised engine run each worker on
/// its own thread for the duration of a sweep, so a thread-local scratch
/// is exactly one scratch per worker, reused across all trials that
/// worker executes: after the first trial at the sweep's largest
/// lattice, the steady-state trial loop performs no survey-side heap
/// allocations (see `docs/PERFORMANCE.md`).
#[derive(Debug, Default)]
pub struct TrialScratch {
    /// The survey-layer buffers (see [`SurveyScratch`]).
    pub survey: SurveyScratch,
}

thread_local! {
    static TRIAL_SCRATCH: RefCell<TrialScratch> = RefCell::new(TrialScratch::default());
}

/// Runs `f` with this thread's [`TrialScratch`].
///
/// The experiments' trial functions call this at their top; nested calls
/// would panic (RefCell), but trials never nest — each runs to completion
/// on its worker thread.
pub fn with_trial_scratch<R>(f: impl FnOnce(&mut TrialScratch) -> R) -> R {
    TRIAL_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_reused_within_a_thread() {
        let first = with_trial_scratch(|s| s as *mut TrialScratch as usize);
        let second = with_trial_scratch(|s| s as *mut TrialScratch as usize);
        assert_eq!(first, second, "same thread must see the same scratch");
    }

    #[test]
    fn threads_get_independent_scratches() {
        let here = with_trial_scratch(|s| s as *mut TrialScratch as usize);
        let there = std::thread::spawn(|| with_trial_scratch(|s| s as *mut TrialScratch as usize))
            .join()
            .unwrap();
        assert_ne!(here, there, "each worker thread owns its own scratch");
    }
}
