//! The performance guard ("automatic performance boosts").
//!
//! The allocator's predictions can be wrong — workloads shift mid-epoch,
//! the M/G/1 model is an approximation, migration lags the plan. The guard
//! is the safety net: it watches the *measured* windowed mean response time
//! and, the moment it crosses the goal, demands a **boost** (everything to
//! full speed, migrations paused). The boost is released only after the
//! windowed mean has stayed comfortably below the goal (a margin) for a
//! hysteresis period, preventing boost/relax oscillation.

use simkit::{SimDuration, SimTime, SlidingWindow};

/// What the policy should do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAction {
    /// Keep the current (energy-saving) configuration.
    Normal,
    /// Enter boost: all disks to full speed immediately.
    EnterBoost,
    /// Stay boosted.
    HoldBoost,
    /// Leave boost: safe to re-optimise.
    ExitBoost,
}

/// Tunables for the guard.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// The response-time goal, seconds.
    pub goal_s: f64,
    /// Width of the observation window.
    pub window: SimDuration,
    /// Boost ends only after the windowed mean has stayed below
    /// `exit_margin × goal` for this long.
    pub hysteresis: SimDuration,
    /// Fraction of the goal the windowed mean must drop below to arm the
    /// exit timer (< 1.0).
    pub exit_margin: f64,
    /// Minimum samples in the window before the guard may trigger
    /// (prevents one outlier from boosting an idle array).
    pub min_samples: usize,
    /// Number of consecutive violating checks required to enter boost
    /// (debounces single noisy windows around marginal configurations).
    pub entry_checks: u32,
}

/// The guard state machine.
pub struct PerfGuard {
    cfg: GuardConfig,
    window: SlidingWindow,
    boosted: bool,
    /// Instant the windowed mean last dropped below the exit margin while
    /// boosted (`None` = still above it).
    calm_since: Option<SimTime>,
    /// Consecutive violating checks while not boosted.
    violating_checks: u32,
}

impl PerfGuard {
    /// Creates the guard.
    ///
    /// # Panics
    /// Panics if the exit margin is not in `(0, 1]`.
    pub fn new(cfg: GuardConfig) -> PerfGuard {
        assert!(
            cfg.exit_margin > 0.0 && cfg.exit_margin <= 1.0,
            "exit margin must be in (0, 1]"
        );
        PerfGuard {
            window: SlidingWindow::new(cfg.window),
            cfg,
            boosted: false,
            calm_since: None,
            violating_checks: 0,
        }
    }

    /// True while boosted.
    pub fn is_boosted(&self) -> bool {
        self.boosted
    }

    /// Feed one completed-request response time.
    pub fn record(&mut self, now: SimTime, response_s: f64) {
        self.window.record(now, response_s);
    }

    /// Force an immediate boost regardless of the measured window — used
    /// when an external emergency (a disk failure) makes the current plan
    /// unsafe. The calm timer restarts, so the boost holds for a full
    /// hysteresis period from the next calm check. Returns true when this
    /// entered a boost, false when the guard was boosted already.
    pub fn force_boost(&mut self) -> bool {
        let entered = !self.boosted;
        self.boosted = true;
        self.calm_since = None;
        self.violating_checks = 0;
        entered
    }

    /// The current windowed mean response time (the guard's own view),
    /// or `None` when the window is empty.
    pub fn windowed_mean(&mut self, now: SimTime) -> Option<f64> {
        self.window.mean(now)
    }

    /// Evaluate the state machine at `now` and return the action to take.
    pub fn check(&mut self, now: SimTime) -> GuardAction {
        let mean = self.window.mean(now);
        let samples = self.window.len(now);
        if !self.boosted {
            match mean {
                Some(m) if samples >= self.cfg.min_samples && m > self.cfg.goal_s => {
                    self.violating_checks += 1;
                    if self.violating_checks >= self.cfg.entry_checks {
                        self.boosted = true;
                        self.calm_since = None;
                        self.violating_checks = 0;
                        GuardAction::EnterBoost
                    } else {
                        GuardAction::Normal
                    }
                }
                _ => {
                    self.violating_checks = 0;
                    GuardAction::Normal
                }
            }
        } else {
            let calm = match mean {
                Some(m) => m <= self.cfg.goal_s * self.cfg.exit_margin,
                // An empty window means no traffic at all — that is calm.
                None => true,
            };
            if calm {
                let since = *self.calm_since.get_or_insert(now);
                if now.saturating_since(since) >= self.cfg.hysteresis {
                    self.boosted = false;
                    self.calm_since = None;
                    return GuardAction::ExitBoost;
                }
            } else {
                self.calm_since = None;
            }
            GuardAction::HoldBoost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn guard() -> PerfGuard {
        PerfGuard::new(GuardConfig {
            goal_s: 0.020,
            window: SimDuration::from_secs(60.0),
            hysteresis: SimDuration::from_secs(120.0),
            exit_margin: 0.9,
            min_samples: 5,
            entry_checks: 1,
        })
    }

    fn debounced_guard() -> PerfGuard {
        PerfGuard::new(GuardConfig {
            goal_s: 0.020,
            window: SimDuration::from_secs(60.0),
            hysteresis: SimDuration::from_secs(120.0),
            exit_margin: 0.9,
            min_samples: 5,
            entry_checks: 2,
        })
    }

    #[test]
    fn quiet_guard_stays_normal() {
        let mut g = guard();
        assert_eq!(g.check(t(10.0)), GuardAction::Normal);
        assert!(!g.is_boosted());
    }

    #[test]
    fn good_latencies_stay_normal() {
        let mut g = guard();
        for i in 0..20 {
            g.record(t(i as f64), 0.010);
        }
        assert_eq!(g.check(t(20.0)), GuardAction::Normal);
    }

    #[test]
    fn violation_triggers_boost_once_enough_samples() {
        let mut g = guard();
        // Too few samples: no boost yet even though the mean violates.
        for i in 0..3 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(3.0)), GuardAction::Normal);
        for i in 3..10 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(10.0)), GuardAction::EnterBoost);
        assert!(g.is_boosted());
        assert_eq!(g.check(t(11.0)), GuardAction::HoldBoost);
    }

    #[test]
    fn boost_exits_after_hysteresis() {
        let mut g = guard();
        for i in 0..10 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(10.0)), GuardAction::EnterBoost);
        // Latencies recover.
        for i in 11..200 {
            g.record(t(i as f64), 0.005);
        }
        // Calm but hysteresis not yet elapsed.
        assert_eq!(g.check(t(100.0)), GuardAction::HoldBoost);
        // Keep calm past the hysteresis period (window keeps fresh samples).
        for i in 200..260 {
            g.record(t(i as f64), 0.005);
        }
        assert_eq!(g.check(t(230.0)), GuardAction::ExitBoost);
        assert!(!g.is_boosted());
    }

    #[test]
    fn relapse_resets_hysteresis_timer() {
        let mut g = guard();
        for i in 0..10 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(10.0)), GuardAction::EnterBoost);
        // Calm for a while…
        for i in 11..60 {
            g.record(t(i as f64), 0.005);
        }
        assert_eq!(g.check(t(60.0)), GuardAction::HoldBoost);
        // …then a relapse above the goal resets the calm timer.
        for i in 61..80 {
            g.record(t(i as f64), 0.150);
        }
        assert_eq!(g.check(t(80.0)), GuardAction::HoldBoost);
        // Calm again; the clock restarts, so +60s is still holding…
        for i in 81..260 {
            g.record(t(i as f64), 0.005);
        }
        assert_eq!(g.check(t(150.0)), GuardAction::HoldBoost);
        // …but +120s of calm finally exits.
        assert_eq!(g.check(t(270.0)), GuardAction::ExitBoost);
    }

    #[test]
    fn empty_window_counts_as_calm() {
        let mut g = guard();
        for i in 0..10 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(10.0)), GuardAction::EnterBoost);
        // No traffic at all afterwards; window drains.
        assert_eq!(g.check(t(100.0)), GuardAction::HoldBoost);
        assert_eq!(g.check(t(400.0)), GuardAction::ExitBoost);
    }

    #[test]
    fn entry_debounce_requires_consecutive_violations() {
        let mut g = debounced_guard();
        for i in 0..10 {
            g.record(t(i as f64), 0.100);
        }
        // First violating check: armed but not boosted.
        assert_eq!(g.check(t(10.0)), GuardAction::Normal);
        assert!(!g.is_boosted());
        // Second consecutive violating check: boost.
        assert_eq!(g.check(t(11.0)), GuardAction::EnterBoost);
    }

    #[test]
    fn entry_debounce_resets_on_clean_check() {
        let mut g = debounced_guard();
        for i in 0..10 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(10.0)), GuardAction::Normal); // armed
                                                           // Window recovers before the second check.
        for i in 11..120 {
            g.record(t(i as f64), 0.001);
        }
        assert_eq!(g.check(t(120.0)), GuardAction::Normal); // reset
                                                            // A later single violation must again need two checks.
        for i in 121..180 {
            g.record(t(i as f64), 0.100);
        }
        assert_eq!(g.check(t(180.0)), GuardAction::Normal);
        assert_eq!(g.check(t(181.0)), GuardAction::EnterBoost);
    }

    #[test]
    fn forced_boost_enters_once_and_restarts_the_calm_timer() {
        let mut g = guard();
        assert!(g.force_boost());
        assert!(g.is_boosted());
        // Calm (an empty window) for 100 s, then forced again: the calm
        // timer restarts, so the boost holds a full hysteresis period.
        assert_eq!(g.check(t(100.0)), GuardAction::HoldBoost);
        assert!(!g.force_boost(), "already boosted");
        assert_eq!(g.check(t(200.0)), GuardAction::HoldBoost);
        assert_eq!(g.check(t(320.0)), GuardAction::ExitBoost);
    }

    #[test]
    fn can_boost_repeatedly() {
        let mut g = guard();
        let mut entered = 0;
        for round in 0..3 {
            let base = round as f64 * 1000.0;
            for i in 0..10 {
                g.record(t(base + i as f64), 0.100);
            }
            entered += usize::from(g.check(t(base + 10.0)) == GuardAction::EnterBoost);
            // Drain, then let the hysteresis clock run between two checks.
            assert_eq!(g.check(t(base + 300.0)), GuardAction::HoldBoost);
            assert_eq!(g.check(t(base + 500.0)), GuardAction::ExitBoost);
        }
        assert_eq!(entered, 3);
    }
}
