//! Correlated message loss: a Gilbert–Elliott on/off burst channel.
//!
//! The paper's reference-based localization listens for `T` beacon
//! messages per sample window and counts a beacon as *connected* when at
//! least `t` of them arrive (the 90 %-of-messages threshold, §2). Real
//! 433 MHz radios do not lose messages independently — interference and
//! fading arrive in *bursts*. The classic two-state model for that is the
//! Gilbert–Elliott channel: a hidden Markov chain alternates between a
//! **good** state (low loss) and a **bad** state (high loss), and the
//! geometric sojourn time in the bad state is the burst length.
//!
//! [`GilbertElliott::from_intensity`] parameterizes the chain by its
//! stationary bad-state probability (the *burst-loss intensity* swept by
//! the robustness figure) and the mean burst length, which is how the
//! experiment axes stay interpretable.
//!
//! Determinism: the chain is simulated with hashed uniforms derived from
//! a per-link seed, so the same `(seed, window)` query always sees the
//! same loss pattern — no RNG state leaks between links or trials.

use crate::{mix, unit};
use serde::{Deserialize, Serialize};

/// Salt of the per-link burst stream.
const BURST_SALT: u64 = 0x6E11_B357;

/// The integer form of the coin `unit(h) < p`: it holds exactly when
/// `h >> 11 < below(p)`.
///
/// `unit(h)` is `(h >> 11)·2^-53` with both steps exact, so the coin is
/// `h >> 11 < p·2^53`; that product is exact too, and an integer lies
/// below a real exactly when it lies below the real's ceiling. The cast
/// saturates: `p <= 0` maps to 0 (no draw is below it) and `p >= 1` to
/// at least 2^53 (every draw is). NaN, which no draw is below, maps to 0.
fn below(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The integer form of the delivery coin `unit(h) >= loss`: it holds
/// exactly when `h >> 11 >= deliver_from(loss)`. The complement of
/// [`below`], except that no draw reaches a NaN loss.
fn deliver_from(loss: f64) -> u64 {
    if loss.is_nan() {
        u64::MAX
    } else {
        below(loss)
    }
}

/// The least delivery count `r` with `r / window >= threshold`, or
/// `window + 1` when no count reaches the threshold. An empty window
/// counts as fully delivered, as in [`GilbertElliott::received_fraction`].
///
/// Correctly rounded division by a fixed `window` is monotone in `r`, so
/// the delivered fraction meets the threshold exactly when at least this
/// many messages arrive.
fn least_deliveries(window: u32, threshold: f64) -> u64 {
    let window = u64::from(window);
    (0..=window)
        .find(|&r| {
            let fraction = if window == 0 {
                1.0
            } else {
                r as f64 / window as f64
            };
            fraction >= threshold
        })
        .unwrap_or(window + 1)
}

/// A two-state Gilbert–Elliott loss channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-message probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-message probability of moving bad → good.
    pub p_exit_bad: f64,
    /// Per-message loss probability while in the good state.
    pub loss_good: f64,
    /// Per-message loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Builds a chain from its stationary bad-state probability
    /// (`intensity`, clamped to `[0, 0.95]`) and mean burst length in
    /// messages (`burst_len`, clamped to `>= 1`).
    ///
    /// `p_exit_bad = 1 / burst_len` makes bad-state sojourns geometric
    /// with the requested mean; `p_enter_bad` is then solved from the
    /// stationary equation `pi_bad = p_enter / (p_enter + p_exit)`.
    pub fn from_intensity(intensity: f64, burst_len: f64, loss_good: f64, loss_bad: f64) -> Self {
        let pi_bad = intensity.clamp(0.0, 0.95);
        let p_exit_bad = 1.0 / burst_len.max(1.0);
        let p_enter_bad = if pi_bad <= 0.0 {
            0.0
        } else {
            p_exit_bad * pi_bad / (1.0 - pi_bad)
        };
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_enter_bad / denom
        }
    }

    /// Long-run expected per-message loss probability.
    pub fn expected_loss(&self) -> f64 {
        let pi = self.stationary_bad();
        pi * self.loss_bad + (1.0 - pi) * self.loss_good
    }

    /// Whether the channel can never lose a message.
    pub fn is_transparent(&self) -> bool {
        self.loss_good <= 0.0 && (self.stationary_bad() <= 0.0 || self.loss_bad <= 0.0)
    }

    /// Fraction of `messages` delivered on the link identified by `seed`.
    ///
    /// Simulates the chain deterministically: the initial state is drawn
    /// from the stationary distribution and every loss/transition coin is
    /// a hashed uniform, so the identical query replays the identical
    /// burst pattern. Always walks the whole window; it is the oracle for
    /// [`BurstSchedule::link_up`], which walks the same chain but stops
    /// once the link's outcome is settled.
    pub fn received_fraction(&self, seed: u64, messages: u32) -> f64 {
        if messages == 0 {
            return 1.0;
        }
        if self.is_transparent() {
            return 1.0;
        }
        let mut h = mix(seed, BURST_SALT);
        let mut bad = unit(h) < self.stationary_bad();
        let mut received = 0u32;
        for _ in 0..messages {
            h = mix(h, 1);
            let loss = if bad { self.loss_bad } else { self.loss_good };
            if unit(h) >= loss {
                received += 1;
            }
            h = mix(h, 2);
            let flip = if bad {
                self.p_exit_bad
            } else {
                self.p_enter_bad
            };
            if unit(h) < flip {
                bad = !bad;
            }
        }
        f64::from(received) / f64::from(messages)
    }
}

/// Declarative burst-loss parameters for a [`crate::FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstPlan {
    /// Stationary bad-state probability (the swept *intensity*), `[0, 0.95]`.
    pub intensity: f64,
    /// Mean burst length in messages, `>= 1`.
    pub burst_len: f64,
    /// Per-message loss in the good state (0 for a clean good state).
    pub loss_good: f64,
    /// Per-message loss in the bad state.
    pub loss_bad: f64,
    /// Messages listened for per connectivity decision (the paper's `T`).
    pub window: u32,
    /// Fraction of the window that must arrive to count as connected
    /// (the paper's 90 % threshold is `0.9`).
    pub threshold: f64,
}

impl BurstPlan {
    /// The paper-style window: `T = 20` messages with a 90 % threshold,
    /// total blackout while the channel is in a bad burst of mean length
    /// five messages, at the given stationary intensity.
    pub fn paper(intensity: f64) -> Self {
        BurstPlan {
            intensity,
            burst_len: 5.0,
            loss_good: 0.0,
            loss_bad: 1.0,
            window: 20,
            threshold: 0.9,
        }
    }

    /// Folds the plan's parameters into a fingerprint hash.
    pub(crate) fn fingerprint(&self, h: u64) -> u64 {
        let h = mix(h, 0x4255_5253); // "BURS"
        let h = mix(h, self.intensity.to_bits());
        let h = mix(h, self.burst_len.to_bits());
        let h = mix(h, self.loss_good.to_bits());
        let h = mix(h, self.loss_bad.to_bits());
        let h = mix(h, u64::from(self.window));
        mix(h, self.threshold.to_bits())
    }
}

/// Links one batched decision walks side by side, each in its own lane
/// (see [`BurstSchedule::retain_up`]).
const LANES: usize = 8;

/// A compiled burst-loss realization for one trial.
///
/// Besides the seed and the chain, it holds the integer form of every
/// coin the chain flips, the counts that settle a link, and the verdict
/// of plans that settle every link without a walk, all computed once in
/// [`BurstSchedule::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstSchedule {
    seed: u64,
    chain: GilbertElliott,
    /// Every link's verdict when no walk is needed to reach it: up for a
    /// transparent chain or a threshold that no delivery is needed for,
    /// down for a threshold no count reaches. `None` when each link walks
    /// its chain.
    verdict: Option<bool>,
    /// Deliveries that settle a link up (see [`least_deliveries`]).
    need: u64,
    /// Losses that settle a link down: one beyond what `need` can spare.
    spare: u64,
    /// The chain starts in the bad state when `h >> 11` is below this.
    start_bad: u64,
    /// Per state (good, bad): a message arrives when `h >> 11` is at
    /// least this.
    deliver_from: [u64; 2],
    /// Per state (good, bad): the state flips when `h >> 11` is below
    /// this.
    flip_below: [u64; 2],
}

/// One link's chain part-way through its window: the hash state, the
/// chain state, and how many deliveries or losses still settle it.
#[derive(Debug, Clone, Copy)]
struct Walk {
    h: u64,
    bad: bool,
    to_receive: u64,
    to_lose: u64,
}

impl Walk {
    /// A lane with no link: its counts never run down.
    const IDLE: Walk = Walk {
        h: 0,
        bad: false,
        to_receive: u64::MAX,
        to_lose: u64::MAX,
    };
}

/// The set bits of a mask slice in order, each as (mask index, bit).
/// Each mask is read once, when the walk reaches it, so clearing the
/// bits already returned does not disturb it.
struct SetBits {
    mask: usize,
    left: u64,
}

impl SetBits {
    fn new(masks: &[u64]) -> SetBits {
        SetBits {
            mask: 0,
            left: masks.first().copied().unwrap_or(0),
        }
    }

    fn next(&mut self, masks: &[u64]) -> Option<(usize, u32)> {
        while self.left == 0 {
            self.mask += 1;
            self.left = *masks.get(self.mask)?;
        }
        let k = self.left.trailing_zeros();
        self.left &= self.left - 1;
        Some((self.mask, k))
    }
}

impl BurstSchedule {
    /// Compiles `plan` against a per-trial seed.
    pub fn new(seed: u64, plan: BurstPlan) -> Self {
        let chain = GilbertElliott::from_intensity(
            plan.intensity,
            plan.burst_len,
            plan.loss_good,
            plan.loss_bad,
        );
        let need = least_deliveries(plan.window, plan.threshold);
        let spare = u64::from(plan.window) + 1 - need;
        let verdict = if chain.is_transparent() || need == 0 {
            Some(true)
        } else if spare == 0 {
            Some(false)
        } else {
            None
        };
        BurstSchedule {
            seed,
            chain,
            verdict,
            need,
            spare,
            start_bad: below(chain.stationary_bad()),
            deliver_from: [deliver_from(chain.loss_good), deliver_from(chain.loss_bad)],
            flip_below: [below(chain.p_enter_bad), below(chain.p_exit_bad)],
        }
    }

    /// The underlying loss chain.
    pub fn chain(&self) -> GilbertElliott {
        self.chain
    }

    /// Whether some link can be cut: `false` for a transparent chain and
    /// for a threshold that no delivery is needed for.
    pub fn cuts(&self) -> bool {
        self.verdict != Some(true)
    }

    /// Whether enough of the listening window survives the bursts for
    /// the link keyed by `link_key` during `epoch`: exactly
    /// `chain().received_fraction(seed, window) >= threshold` for the
    /// link's derived seed, and always `true` for a transparent chain.
    ///
    /// Walks the same hash chain as the oracle, with each float coin in
    /// its exact integer form, but returns as soon as the outcome is
    /// settled: once `need` messages have arrived, or once more than
    /// `window - need` are lost. The deeper the bursts, the sooner a link
    /// settles down.
    pub fn link_up(&self, link_key: u64, epoch: u64) -> bool {
        if let Some(up) = self.verdict {
            return up;
        }
        let mut walk = self.start(link_key, epoch);
        loop {
            if let Some(up) = self.step(&mut walk) {
                return up;
            }
        }
    }

    /// [`BurstSchedule::link_up`] for every set bit of `masks`: clears
    /// each bit whose link the bursts cut during `epoch`, where bit `k`
    /// of `masks[i]` is the link keyed by `key(i, k)`. Clear bits are
    /// never keyed or walked.
    ///
    /// One link's chain is a serial run of hash rounds, so the links are
    /// walked eight at a time in interleaved lanes: each lane takes the
    /// next set bit, keys it, and walks its chain one message per pass;
    /// when its link settles, the lane answers it and takes the next
    /// bit. Every link gets exactly `link_up`'s answer. The lanes live
    /// on the stack: the call allocates nothing.
    pub fn retain_up(&self, epoch: u64, masks: &mut [u64], mut key: impl FnMut(usize, u32) -> u64) {
        match self.verdict {
            Some(true) => return,
            Some(false) => return masks.fill(0),
            None => {}
        }
        let mut bits = SetBits::new(masks);
        // Puts the next set bit's link in a lane: false, and the lane
        // idle, when no bit is left.
        let mut take = |masks: &[u64], walk: &mut Walk, link: &mut (usize, u32)| {
            let Some((i, k)) = bits.next(masks) else {
                *walk = Walk::IDLE;
                return false;
            };
            *walk = self.start(key(i, k), epoch);
            *link = (i, k);
            true
        };
        let mut walks = [Walk::IDLE; LANES];
        let mut links = [(0, 0); LANES];
        let mut live = 0;
        for (walk, link) in walks.iter_mut().zip(&mut links) {
            live += usize::from(take(masks, walk, link));
        }
        while live > 0 {
            for (walk, link) in walks.iter_mut().zip(&mut links) {
                let Some(up) = self.step(walk) else {
                    continue;
                };
                if !up {
                    masks[link.0] &= !(1 << link.1);
                }
                live -= usize::from(!take(masks, walk, link));
            }
        }
    }

    /// The chain of the link keyed by `link_key` during `epoch`, before
    /// its first message: its state drawn from the stationary
    /// distribution.
    #[inline]
    fn start(&self, link_key: u64, epoch: u64) -> Walk {
        let h = mix(self.link_seed(link_key, epoch), BURST_SALT);
        Walk {
            h,
            bad: (h >> 11) < self.start_bad,
            to_receive: self.need,
            to_lose: self.spare,
        }
    }

    /// Sends `walk`'s next message: the link's verdict if this message
    /// settles it, else `None` after the chain's state transition. Each
    /// count runs down to the message that settles the link: the
    /// `need`-th delivery, or the loss one beyond what it can spare.
    #[inline]
    fn step(&self, walk: &mut Walk) -> Option<bool> {
        walk.h = mix(walk.h, 1);
        let delivered = (walk.h >> 11) >= self.deliver_from[usize::from(walk.bad)];
        walk.to_receive -= u64::from(delivered);
        walk.to_lose -= u64::from(!delivered);
        // `|`, not `||`: both counts are tested before one branch, which
        // ran the lanes of `retain_up` a few percent faster than two.
        if (walk.to_receive == 0) | (walk.to_lose == 0) {
            return Some(walk.to_receive == 0);
        }
        walk.h = mix(walk.h, 2);
        walk.bad ^= (walk.h >> 11) < self.flip_below[usize::from(walk.bad)];
        None
    }

    /// The chain seed of the link keyed by `link_key` during `epoch`.
    fn link_seed(&self, link_key: u64, epoch: u64) -> u64 {
        mix(self.seed, mix(epoch.rotate_left(23), link_key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_intensity_is_transparent() {
        let ge = GilbertElliott::from_intensity(0.0, 5.0, 0.0, 1.0);
        assert!(ge.is_transparent());
        assert_eq!(ge.received_fraction(123, 20), 1.0);
        assert_eq!(ge.expected_loss(), 0.0);
    }

    #[test]
    fn stationary_probability_matches_request() {
        for &pi in &[0.1, 0.3, 0.5, 0.8] {
            let ge = GilbertElliott::from_intensity(pi, 5.0, 0.0, 1.0);
            assert!((ge.stationary_bad() - pi).abs() < 1e-12, "pi={pi}");
        }
    }

    #[test]
    fn received_fraction_replays_bit_for_bit() {
        let ge = GilbertElliott::from_intensity(0.4, 4.0, 0.05, 0.95);
        for seed in 0..50u64 {
            assert_eq!(
                ge.received_fraction(seed, 32),
                ge.received_fraction(seed, 32)
            );
        }
    }

    #[test]
    fn higher_intensity_loses_more() {
        let lo = GilbertElliott::from_intensity(0.1, 5.0, 0.0, 1.0);
        let hi = GilbertElliott::from_intensity(0.7, 5.0, 0.0, 1.0);
        let avg = |ge: &GilbertElliott| {
            (0..400u64)
                .map(|s| ge.received_fraction(s, 20))
                .sum::<f64>()
                / 400.0
        };
        assert!(avg(&hi) < avg(&lo));
        // And the empirical mean should be near the analytic expectation.
        assert!((avg(&lo) - (1.0 - lo.expected_loss())).abs() < 0.05);
    }

    #[test]
    fn burst_schedule_is_deterministic_and_epoch_varying() {
        let plan = BurstPlan::paper(0.5);
        let a = BurstSchedule::new(77, plan);
        let b = BurstSchedule::new(77, plan);
        let mut varies = false;
        for key in 0..300u64 {
            assert_eq!(a.link_up(key, 0), b.link_up(key, 0));
            assert_eq!(a.link_up(key, 1), b.link_up(key, 1));
            varies |= a.link_up(key, 0) != a.link_up(key, 1);
        }
        assert!(varies, "bursts should differ between epochs");
    }

    #[test]
    fn transparent_schedule_never_cuts_links() {
        let s = BurstSchedule::new(5, BurstPlan::paper(0.0));
        assert!(!s.cuts());
        assert!((0..100u64).all(|k| s.link_up(k, 0)));
    }

    #[test]
    fn paper_window_settles_at_eighteen_of_twenty() {
        let s = BurstSchedule::new(5, BurstPlan::paper(0.4));
        assert_eq!((s.need, s.spare, s.verdict), (18, 3, None));
        assert!(s.cuts());
        assert_eq!(least_deliveries(20, 0.85), 17);
        assert_eq!(least_deliveries(20, 0.0), 0);
        assert_eq!(least_deliveries(20, 1.0), 20);
        assert_eq!(least_deliveries(20, 1.5), 21);
        assert_eq!(least_deliveries(0, 1.0), 0);
        assert_eq!(least_deliveries(0, 1.5), 1);
    }

    /// `below(p)` is the exact boundary of the float coin: the draw just
    /// under it passes `unit(h) < p` and the draw on it fails, for any
    /// low bits the shift discards.
    #[test]
    fn integer_coins_match_the_float_coins_at_their_boundary() {
        let top = 1u64 << 53;
        let ps = [
            0.0,
            2f64.powi(-60),
            0.05,
            1.0 / 3.0,
            1.0 - 2f64.powi(-53),
            1.0,
            1.5,
        ];
        for p in ps {
            let t = below(p);
            assert_eq!(deliver_from(p), t, "p = {p}");
            for k in [t.wrapping_sub(1), t] {
                if k >= top {
                    continue;
                }
                for low in [0, 0x7FF] {
                    let h = k << 11 | low;
                    assert_eq!(unit(h) < p, (h >> 11) < t, "p = {p}, h >> 11 = {k}");
                    assert_eq!(unit(h) < p, k < t);
                    assert_eq!(unit(h) >= p, (h >> 11) >= deliver_from(p));
                }
            }
        }
        assert_eq!(below(0.0), 0);
        assert_eq!(below(1.0), top);
        assert!(below(1.5) > top);
        assert_eq!(below(f64::NAN), 0);
        assert_eq!(deliver_from(f64::NAN), u64::MAX);
    }

    /// The decision `link_up` replaced: the full-window fraction against
    /// the threshold.
    fn full_window_link_up(s: &BurstSchedule, plan: &BurstPlan, key: u64, epoch: u64) -> bool {
        s.chain.is_transparent()
            || s.chain
                .received_fraction(s.link_seed(key, epoch), plan.window)
                >= plan.threshold
    }

    /// A probability that is 0, 1 or NaN as often as it is interior.
    fn edgy(pick: u8, x: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => 1.0,
            2 => f64::NAN,
            _ => x,
        }
    }

    /// A schedule seed and a random plan, including clamped intensities,
    /// certain, impossible and NaN losses, empty windows, and thresholds
    /// on, just below, and beyond every count boundary.
    fn plans() -> impl Strategy<Value = (u64, BurstPlan)> {
        (
            any::<u64>(),
            (0u8..10, 0.0..=0.95f64),
            1.0..=20.0f64,
            (0u8..6, 0.0..=1.0f64, 0u8..6, 0.0..=1.0f64),
            0u32..=40,
            (0u8..8, 0.0..=1.0f64, 0u32..=40),
        )
            .prop_map(|(seed, intensity, burst_len, losses, window, threshold)| {
                let intensity = match intensity.0 {
                    0 => 1.0,
                    1 => 0.0,
                    _ => intensity.1,
                };
                let boundary = if window == 0 {
                    1.0
                } else {
                    f64::from(threshold.2 % (window + 1)) / f64::from(window)
                };
                let threshold = match threshold.0 {
                    0 => 0.0,
                    1 => 0.9,
                    2 => 1.0,
                    3 => 1.0 + threshold.1,
                    4 => boundary,
                    5 => f64::from_bits(boundary.to_bits().saturating_sub(1)),
                    _ => threshold.1,
                };
                let plan = BurstPlan {
                    intensity,
                    burst_len,
                    loss_good: edgy(losses.0, losses.1),
                    loss_bad: edgy(losses.2, losses.3),
                    window,
                    threshold,
                };
                (seed, plan)
            })
    }

    /// `n` links laid out over masks by `layout`: mostly adjacent bits,
    /// with gaps that skip whole masks now and then, and every third key a
    /// repeat of an earlier one. Returns the masks and the key of bit `k`
    /// of mask `i` at `64 * i + k`.
    fn batch(layout: u64, n: usize) -> (Vec<u64>, Vec<u64>) {
        let mut masks = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut chosen = Vec::new();
        let mut pos = 0;
        for i in 0..n {
            let h = mix(layout, i as u64);
            if h % 4 == 0 {
                pos += (h >> 8) as usize % 130;
            }
            let key = if i % 3 == 2 {
                chosen[(h >> 32) as usize % i]
            } else {
                h
            };
            chosen.push(key);
            masks.resize(masks.len().max(pos / 64 + 1), 0);
            keys.resize(masks.len() * 64, 0);
            masks[pos / 64] |= 1 << (pos % 64);
            keys[pos] = key;
            pos += 1;
        }
        (masks, keys)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The early exit is exact: over random plans, `link_up` decides
        /// every link as the full window does.
        #[test]
        fn early_exit_matches_the_full_window(case in plans()) {
            let (seed, plan) = case;
            let s = BurstSchedule::new(seed, plan);
            for i in 0..300u64 {
                let key = mix(seed, i);
                for epoch in [0, 1] {
                    prop_assert_eq!(
                        s.link_up(key, epoch),
                        full_window_link_up(&s, &plan, key, epoch),
                        "{:?}, key {}, epoch {}", plan, key, epoch
                    );
                }
            }
        }

        /// The batched decider is exact: over random plans and batches
        /// shorter than, as long as, and longer than its lanes, with
        /// repeated keys, it keeps exactly the bits whose links `link_up`
        /// and the full window decide up, keys each set bit once, and
        /// never keys a clear bit.
        #[test]
        fn batched_decisions_match_link_up(case in plans(), layout in any::<u64>()) {
            let (seed, plan) = case;
            let s = BurstSchedule::new(seed, plan);
            for n in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 1, 300] {
                let (masks, keys) = batch(layout, n);
                for epoch in [0, 1] {
                    let mut kept = masks.clone();
                    let mut keyed = vec![0u32; keys.len()];
                    s.retain_up(epoch, &mut kept, |i, k| {
                        let at = 64 * i + k as usize;
                        keyed[at] += 1;
                        keys[at]
                    });
                    let mut walked = 0;
                    for (i, (&mask, &kept)) in masks.iter().zip(&kept).enumerate() {
                        prop_assert_eq!(kept & !mask, 0, "mask {} gained bits", i);
                        for k in 0..64 {
                            let at = 64 * i + k;
                            if mask >> k & 1 == 0 {
                                prop_assert_eq!(keyed[at], 0, "clear bit {} keyed", at);
                                continue;
                            }
                            let (key, up) = (keys[at], kept >> k & 1 == 1);
                            prop_assert_eq!(up, s.link_up(key, epoch), "{:?}, bit {}, epoch {}", plan, at, epoch);
                            prop_assert_eq!(up, full_window_link_up(&s, &plan, key, epoch));
                            walked += keyed[at];
                            prop_assert!(keyed[at] <= 1, "bit {} keyed {} times", at, keyed[at]);
                        }
                    }
                    let expected = if s.verdict.is_none() { n as u32 } else { 0 };
                    prop_assert_eq!(walked, expected, "{:?}: {} links", plan, n);
                }
            }
        }
    }
}
