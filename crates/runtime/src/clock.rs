//! The shared scaled wall clock: every thread in the live engine derives
//! "simulation time" from one `Instant` origin, so a run over a 60-second
//! trace can execute in a couple of wall seconds (`time_scale` > 1) while
//! keeping every schedule, queue bound, and control-loop period expressed
//! in the same time unit the simulator uses.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Below this much remaining wall time, [`ScaledClock::wait_until`] stops
/// sleeping and yields instead: OS sleeps overshoot by roughly the kernel's
/// default timer slack (~50µs), so sleeping closer than this would carry the
/// waiter past the deadline. Kept tight — every microsecond of slack is a
/// microsecond of yield-burn per wakeup on a busy host.
const SLEEP_SLACK: Duration = Duration::from_micros(60);

/// Below this much remaining wall time, the waiter stops yielding and
/// spins: a yield that gets the CPU back later than this would overshoot.
const YIELD_SLACK: Duration = Duration::from_micros(40);

/// Whether busy-spinning across the last few microseconds is safe. On a
/// single-core machine a spinning thread holds the core for its whole
/// scheduler quantum (milliseconds), starving the very threads it is
/// waiting on — there, yielding is both kinder and *more* precise.
fn spin_allowed() -> bool {
    static SPIN: OnceLock<bool> = OnceLock::new();
    *SPIN.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
}

/// A monotonically increasing clock mapping wall time to trace time.
#[derive(Debug, Clone, Copy)]
pub struct ScaledClock {
    origin: Instant,
    scale: f64,
}

impl ScaledClock {
    /// Start the clock now; `scale` trace-seconds elapse per wall second.
    pub fn start(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "time scale must be positive"
        );
        ScaledClock {
            origin: Instant::now(),
            scale,
        }
    }

    /// Current trace time in seconds.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * self.scale
    }

    /// Park the calling thread for about `trace_secs` of trace time, or
    /// until someone `unpark`s it — the idle-worker nap. Unlike
    /// a sleeping thread, a parked one can be woken early (e.g. at
    /// shutdown, or by a producer with fresh work), so long naps never
    /// delay a join. Spurious wakeups are allowed, as with
    /// [`std::thread::park_timeout`]; callers re-check their condition.
    pub fn park_for(&self, trace_secs: f64) {
        let wall = (trace_secs / self.scale).max(0.0);
        if wall > 0.0 {
            std::thread::park_timeout(Duration::from_secs_f64(wall));
        }
    }

    /// Wait until the clock reads at least `trace_deadline`, adaptively:
    /// sleep while the remaining wall time is long, yield as the deadline
    /// approaches, and spin across the last few microseconds. Unlike
    /// a plain sleep, this never overshoots by more than the
    /// OS scheduling jitter of a yield — at high `time_scale`, where one
    /// tick is a few microseconds of wall time, a plain sleep overshoots
    /// by an order of magnitude and the caller's loop coarsens.
    ///
    /// Returns immediately when the deadline is already in the past, so an
    /// overslept caller re-anchors to *measured* time instead of bursting.
    pub fn wait_until(&self, trace_deadline: f64) {
        let wall = (trace_deadline / self.scale).max(0.0);
        if !wall.is_finite() {
            return;
        }
        let deadline = self.origin + Duration::from_secs_f64(wall);
        // Already behind on entry: the caller is overloaded and will call
        // straight back in. Yield once so threads sharing the CPU make
        // progress — a free-running loop would otherwise hold its core for
        // a whole scheduler quantum, starving the very threads that feed
        // it (and at high `time_scale` one quantum is many trace-seconds).
        if Instant::now() >= deadline {
            std::thread::yield_now();
            return;
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let remaining = deadline - now;
            if remaining > SLEEP_SLACK {
                std::thread::sleep(remaining - SLEEP_SLACK);
            } else if remaining > YIELD_SLACK || !spin_allowed() {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_advances_faster_than_wall_time() {
        let clock = ScaledClock::start(100.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t = clock.now();
        assert!(
            t >= 1.0,
            "100x clock after 20ms wall should pass 1s, got {t}"
        );
        assert!(t < 60.0, "sanity upper bound, got {t}");
    }

    #[test]
    fn wait_until_reaches_the_deadline_without_bursting() {
        let clock = ScaledClock::start(1000.0);
        // A deadline several ticks out: the waiter must not return early.
        clock.wait_until(2.0);
        assert!(clock.now() >= 2.0);
        // A deadline in the past returns immediately (re-anchor semantics):
        // well under one OS timer quantum.
        let before = Instant::now();
        clock.wait_until(1.0);
        assert!(before.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn monotonic() {
        let clock = ScaledClock::start(50.0);
        let mut prev = clock.now();
        for _ in 0..100 {
            let t = clock.now();
            assert!(t >= prev);
            prev = t;
        }
    }
}
