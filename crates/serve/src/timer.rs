//! A hashed timer wheel for the reactor's deadlines and idle reaping.
//!
//! Slots advance at a fixed tick; each slot holds the timers landing in
//! that tick (mod one wheel revolution). Scheduling and firing are O(1)
//! amortized, and cancellation is **lazy**: timers carry the connection's
//! generation, and stale ones (connection since closed or recycled) are
//! discarded when their slot comes around rather than searched for at
//! cancel time.

use std::time::{Duration, Instant};

/// Wheel tick: the granularity of idle and deadline detection.
pub const TICK: Duration = Duration::from_millis(25);

/// Slots per revolution (256 × 25 ms ≈ 6.4 s per lap). Timers beyond one
/// lap stay in their slot and are re-examined each pass (their deadline
/// has not arrived, so they are pushed back).
const SLOTS: usize = 256;

/// What a timer means when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Connection idle check: reap if quiet past the idle window.
    Idle,
    /// A service timer for a waiting request (a deadline, a hedge delay),
    /// carrying the service's own tag.
    Service(u64),
}

/// A scheduled timer. `key` is the connection token (idle timers) or the
/// request ticket (service timers); both carry a generation or are never
/// reused, and the reactor validates them before acting, which is what
/// makes lazy cancellation safe.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// When the timer is due.
    pub deadline: Instant,
    /// Connection token or request ticket the timer refers to.
    pub key: u64,
    /// What to do on fire.
    pub kind: TimerKind,
}

/// The wheel itself.
pub struct TimerWheel {
    slots: Vec<Vec<Timer>>,
    /// Absolute tick index the cursor has processed up to.
    cursor: u64,
    /// Wall-clock origin of tick 0.
    origin: Instant,
}

impl TimerWheel {
    /// An empty wheel whose tick 0 is `now`.
    #[must_use]
    pub fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); SLOTS],
            cursor: 0,
            origin: now,
        }
    }

    fn tick_of(&self, when: Instant) -> u64 {
        let since = when.saturating_duration_since(self.origin);
        (since.as_millis() / TICK.as_millis()) as u64
    }

    /// Schedules a timer. Due times in the past land in the next
    /// `advance` call.
    pub fn schedule(&mut self, timer: Timer) {
        let tick = self.tick_of(timer.deadline).max(self.cursor);
        let slot = (tick % SLOTS as u64) as usize;
        self.slots[slot].push(timer);
    }

    /// Advances the cursor to `now`, appending every due timer to `out`.
    /// Not-yet-due timers sharing a slot (later laps) are retained.
    pub fn advance(&mut self, now: Instant, out: &mut Vec<Timer>) {
        let target = self.tick_of(now);
        // Scan at most one full revolution: beyond that every slot has
        // been visited once, which is all a lap can require.
        let span = (target.saturating_sub(self.cursor)).min(SLOTS as u64);
        for tick in self.cursor..=self.cursor + span {
            let slot = (tick % SLOTS as u64) as usize;
            self.slots[slot].retain(|timer| {
                if timer.deadline <= now {
                    out.push(*timer);
                    false
                } else {
                    true
                }
            });
        }
        self.cursor = target;
    }

    /// Number of scheduled (possibly stale) timers, across all slots;
    /// exported by the reactor as the `<service>.reactor.timer_wheel.occupancy`
    /// gauge.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Whether no timers are scheduled.
    #[must_use]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(deadline: Instant, key: u64, kind: TimerKind) -> Timer {
        Timer {
            deadline,
            key,
            kind,
        }
    }

    #[test]
    fn fires_due_timers_in_any_order_and_keeps_future_ones() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.schedule(timer(start + Duration::from_millis(30), 1, TimerKind::Idle));
        wheel.schedule(timer(
            start + Duration::from_millis(80),
            2,
            TimerKind::Service(0),
        ));
        wheel.schedule(timer(start + Duration::from_secs(60), 3, TimerKind::Idle));
        let mut fired = Vec::new();
        wheel.advance(start + Duration::from_millis(100), &mut fired);
        let mut tokens: Vec<u64> = fired.iter().map(|t| t.key).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![1, 2]);
        assert_eq!(wheel.len(), 1, "the 60 s timer stays");
        // A lap later, the long timer is still waiting.
        fired.clear();
        wheel.advance(start + Duration::from_secs(30), &mut fired);
        assert!(fired.is_empty());
        fired.clear();
        wheel.advance(start + Duration::from_secs(61), &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].key, 3);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.advance(start + Duration::from_millis(500), &mut Vec::new());
        // Scheduled "in the past" relative to the cursor.
        wheel.schedule(timer(
            start + Duration::from_millis(100),
            9,
            TimerKind::Idle,
        ));
        let mut fired = Vec::new();
        wheel.advance(start + Duration::from_millis(525), &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].key, 9);
    }
}
