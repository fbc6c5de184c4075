//! Watchdog policy: per-phase deadlines and the escalation ladder.
//!
//! The mechanism lives in [`er_solver::cancel`] (a cooperative token the
//! hot loops tick); this module is the *policy* the scheduler applies
//! around it: initial per-phase budgets, the multiplication factor a
//! cancelled iteration's budgets grow by before the occurrence is
//! re-queued, and the escalation cap after which the session takes a typed
//! give-up ([`er_core::reconstruct::GiveUpReason::WatchdogExhausted`])
//! instead of burning occurrences forever.

use er_solver::cancel::PhaseBudgets;

/// Watchdog supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Initial per-phase work budgets for every supervised iteration.
    pub budgets: PhaseBudgets,
    /// Budget multiplier applied on each escalation.
    pub escalation_factor: u64,
    /// Escalations allowed per group before the typed give-up.
    pub max_escalations: u32,
}

impl WatchdogConfig {
    /// A config with the given initial budgets, doubling twice before
    /// giving up (factor 4, cap 3 — the final attempt runs at 64× the
    /// original deadline, enough that only a genuine livelock still
    /// trips).
    pub fn new(budgets: PhaseBudgets) -> WatchdogConfig {
        WatchdogConfig {
            budgets,
            escalation_factor: 4,
            max_escalations: 3,
        }
    }
}

/// One group's position on the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogState {
    budgets: PhaseBudgets,
    escalations: u32,
}

impl WatchdogState {
    /// A fresh state at the bottom of the ladder.
    pub fn new(config: &WatchdogConfig) -> WatchdogState {
        WatchdogState {
            budgets: config.budgets,
            escalations: 0,
        }
    }

    /// The budgets the next supervised iteration should be armed with.
    pub fn budgets(&self) -> PhaseBudgets {
        self.budgets
    }

    /// Escalations taken so far.
    pub fn escalations(&self) -> u32 {
        self.escalations
    }

    /// Climbs one rung: scales the budgets and counts the escalation.
    /// Returns `false` when the cap is exhausted — the caller must stop
    /// re-queueing and close the session with a typed give-up.
    pub fn escalate(&mut self, config: &WatchdogConfig) -> bool {
        if self.escalations >= config.max_escalations {
            return false;
        }
        self.escalations += 1;
        self.budgets = self.budgets.scaled(config.escalation_factor);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budgets(n: u64) -> PhaseBudgets {
        PhaseBudgets {
            decode: n,
            shepherd: n,
            solve: n,
            select: n,
        }
    }

    #[test]
    fn ladder_scales_then_caps() {
        let cfg = WatchdogConfig::new(budgets(100));
        let mut st = WatchdogState::new(&cfg);
        assert_eq!(st.budgets().shepherd, 100);
        assert!(st.escalate(&cfg));
        assert_eq!(st.budgets().shepherd, 400);
        assert!(st.escalate(&cfg));
        assert!(st.escalate(&cfg));
        assert_eq!(st.budgets().shepherd, 6400);
        assert_eq!(st.escalations(), 3);
        assert!(!st.escalate(&cfg), "cap reached");
        assert_eq!(st.escalations(), 3, "failed escalation does not count");
    }
}
