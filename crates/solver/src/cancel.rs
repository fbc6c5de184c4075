//! Cooperative cancellation for watchdog supervision.
//!
//! The fleet watchdog cannot preempt a stuck phase — symbolic execution and
//! CDCL search are single-threaded loops — so instead it arms a
//! *thread-local* token with per-phase work budgets before driving a
//! session iteration, and the hot loops cooperate: the symex stepper and
//! the SAT conflict loop call [`tick`] as they burn work, and unwind with
//! [`crate::solve::StallReason::Cancelled`] once the current phase's budget
//! trips. Work units (events stepped, conflicts resolved) stand in for
//! wall-clock deadlines so supervision stays deterministic and replayable.
//!
//! The token lives in a thread-local because fleet work items run either
//! inline (serial pool) or pinned to one worker thread for their whole
//! iteration — a phase never migrates mid-flight. When nothing is armed,
//! [`tick`] is a single thread-local flag check.

use std::cell::{Cell, RefCell};

/// A supervised phase of one session iteration, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Trace packet decoding.
    Decode,
    /// Shepherded symbolic execution along the trace.
    Shepherd,
    /// Constraint solving (initial and final queries).
    Solve,
    /// Key data value selection.
    Select,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Decode, Phase::Shepherd, Phase::Solve, Phase::Select];

    /// Stable lower-case name (used in counter names and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::Shepherd => "shepherd",
            Phase::Solve => "solve",
            Phase::Select => "select",
        }
    }

    const fn idx(self) -> usize {
        match self {
            Phase::Decode => 0,
            Phase::Shepherd => 1,
            Phase::Solve => 2,
            Phase::Select => 3,
        }
    }
}

/// Per-phase work budgets, in phase-native units: events for decode,
/// events stepped for shepherd, SAT conflicts for solve, candidate sites
/// for select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBudgets {
    /// Decode budget (decoded events).
    pub decode: u64,
    /// Shepherd budget (symex events stepped).
    pub shepherd: u64,
    /// Solve budget (SAT conflicts).
    pub solve: u64,
    /// Select budget (candidate sites examined).
    pub select: u64,
}

impl PhaseBudgets {
    /// No limits — an armed token that never trips.
    pub fn unlimited() -> PhaseBudgets {
        PhaseBudgets {
            decode: u64::MAX,
            shepherd: u64::MAX,
            solve: u64::MAX,
            select: u64::MAX,
        }
    }

    /// The budget for one phase.
    pub fn get(self, phase: Phase) -> u64 {
        match phase {
            Phase::Decode => self.decode,
            Phase::Shepherd => self.shepherd,
            Phase::Solve => self.solve,
            Phase::Select => self.select,
        }
    }

    /// All budgets multiplied by `factor` (saturating) — the watchdog's
    /// escalation step after it cancels a stalled iteration.
    #[must_use]
    pub fn scaled(self, factor: u64) -> PhaseBudgets {
        PhaseBudgets {
            decode: self.decode.saturating_mul(factor),
            shepherd: self.shepherd.saturating_mul(factor),
            solve: self.solve.saturating_mul(factor),
            select: self.select.saturating_mul(factor),
        }
    }
}

struct Token {
    budgets: PhaseBudgets,
    spent: [u64; 4],
    phase: Phase,
    tripped: Option<Phase>,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static TOKEN: RefCell<Option<Token>> = const { RefCell::new(None) };
}

/// Disarms the token on drop, so a panicking (or crashing) iteration
/// cannot leak a half-spent budget into the next session on this thread.
#[must_use = "dropping the guard disarms the token"]
#[derive(Debug)]
pub struct CancelGuard(());

impl Drop for CancelGuard {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(false));
        TOKEN.with(|t| *t.borrow_mut() = None);
    }
}

/// Arms this thread's token with `budgets`, replacing any armed token.
/// The current phase starts at [`Phase::Decode`].
pub fn arm(budgets: PhaseBudgets) -> CancelGuard {
    TOKEN.with(|t| {
        *t.borrow_mut() = Some(Token {
            budgets,
            spent: [0; 4],
            phase: Phase::Decode,
            tripped: None,
        });
    });
    ARMED.with(|a| a.set(true));
    CancelGuard(())
}

/// Whether a token is armed on this thread (one thread-local flag read).
#[inline]
pub fn armed() -> bool {
    ARMED.with(std::cell::Cell::get)
}

/// Marks the start of `phase`; subsequent [`tick`]s bill against its
/// budget. Phase spend accumulates across re-entries (a solve after a
/// resume continues the solve budget, it does not reset it).
pub fn begin_phase(phase: Phase) {
    if !armed() {
        return;
    }
    TOKEN.with(|t| {
        if let Some(tok) = t.borrow_mut().as_mut() {
            tok.phase = phase;
        }
    });
}

/// Bills `work` units against the current phase. Returns `true` when the
/// phase budget has tripped — the caller must unwind with a
/// [`crate::solve::StallReason::Cancelled`] stall as soon as it can do so
/// safely.
#[inline]
pub fn tick(work: u64) -> bool {
    if !armed() {
        return false;
    }
    TOKEN.with(|t| {
        let mut b = t.borrow_mut();
        let Some(tok) = b.as_mut() else { return false };
        if tok.tripped.is_some() {
            return true;
        }
        let i = tok.phase.idx();
        tok.spent[i] = tok.spent[i].saturating_add(work);
        if tok.spent[i] > tok.budgets.get(tok.phase) {
            tok.tripped = Some(tok.phase);
            match tok.phase {
                Phase::Decode => er_telemetry::counter!("watchdog.tripped.decode").incr(),
                Phase::Shepherd => er_telemetry::counter!("watchdog.tripped.shepherd").incr(),
                Phase::Solve => er_telemetry::counter!("watchdog.tripped.solve").incr(),
                Phase::Select => er_telemetry::counter!("watchdog.tripped.select").incr(),
            }
            return true;
        }
        false
    })
}

/// The work units the current phase can still bill without tripping:
/// `tick(n)` trips exactly when `n > headroom()`. `0` once tripped, and
/// `u64::MAX` when nothing is armed. A loop that knows its work up front
/// runs at most this many units and then bills them in one [`tick`].
pub fn headroom() -> u64 {
    if !armed() {
        return u64::MAX;
    }
    TOKEN.with(|t| match t.borrow().as_ref() {
        Some(tok) if tok.tripped.is_none() => {
            let i = tok.phase.idx();
            tok.budgets.get(tok.phase).saturating_sub(tok.spent[i])
        }
        Some(_) => 0,
        None => u64::MAX,
    })
}

/// Runs `f` with this thread's token disarmed: `f`'s work bills nothing
/// and trips nothing, and the token is as it was afterwards. For checks
/// that repeat supervised work to compare against it.
pub fn unsupervised<R>(f: impl FnOnce() -> R) -> R {
    /// Re-arms on drop, so a panicking `f` leaves the token as it was.
    struct Rearm(bool);
    impl Drop for Rearm {
        fn drop(&mut self) {
            ARMED.with(|a| a.set(self.0));
        }
    }
    let _rearm = Rearm(ARMED.with(|a| a.replace(false)));
    f()
}

/// Whether the armed token has tripped.
pub fn cancelled() -> bool {
    tripped_phase().is_some()
}

/// The phase whose budget tripped, if any.
pub fn tripped_phase() -> Option<Phase> {
    if !armed() {
        return None;
    }
    TOKEN.with(|t| t.borrow().as_ref().and_then(|tok| tok.tripped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_ticks_are_free_and_never_trip() {
        assert!(!armed());
        assert!(!tick(u64::MAX));
        assert!(!cancelled());
    }

    #[test]
    fn trips_only_the_overspent_phase() {
        let _g = arm(PhaseBudgets {
            decode: 10,
            shepherd: 5,
            solve: 100,
            select: 100,
        });
        assert!(!tick(10), "decode within budget");
        begin_phase(Phase::Shepherd);
        assert_eq!(headroom(), 5, "decode's spend is not shepherd's");
        assert!(!tick(5));
        assert!(tick(1), "shepherd budget tripped");
        assert_eq!(tripped_phase(), Some(Phase::Shepherd));
        // Once tripped, every tick keeps reporting cancellation.
        begin_phase(Phase::Solve);
        assert!(tick(0));
    }

    #[test]
    fn headroom_is_what_tick_can_bill_without_tripping() {
        assert_eq!(headroom(), u64::MAX, "disarmed");
        let _g = arm(PhaseBudgets {
            decode: u64::MAX,
            shepherd: 7,
            solve: u64::MAX,
            select: u64::MAX,
        });
        begin_phase(Phase::Shepherd);
        assert_eq!(headroom(), 7);
        assert!(!tick(3));
        assert_eq!(headroom(), 4);
        assert!(
            !tick(headroom()),
            "billing exactly the headroom never trips"
        );
        assert_eq!(headroom(), 0);
        assert!(tick(1));
        assert_eq!(headroom(), 0, "tripped");
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _g = arm(PhaseBudgets::unlimited());
            assert!(armed());
            assert!(!tick(u64::MAX - 1), "unlimited never trips");
        }
        assert!(!armed());
        assert!(!cancelled());
    }

    #[test]
    fn scaled_escalates_saturating() {
        let b = PhaseBudgets {
            decode: 2,
            shepherd: 3,
            solve: u64::MAX / 2 + 1,
            select: 4,
        };
        let s = b.scaled(4);
        assert_eq!((s.decode, s.shepherd, s.select), (8, 12, 16));
        assert_eq!(s.solve, u64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn phase_spend_accumulates_across_reentries() {
        let _g = arm(PhaseBudgets {
            decode: u64::MAX,
            shepherd: u64::MAX,
            solve: 10,
            select: u64::MAX,
        });
        begin_phase(Phase::Solve);
        assert!(!tick(6));
        begin_phase(Phase::Shepherd);
        assert!(!tick(1));
        begin_phase(Phase::Solve);
        assert!(!tick(4), "6+4 = 10, exactly at budget");
        assert!(tick(1), "re-entered solve continues its spend");
    }
}
