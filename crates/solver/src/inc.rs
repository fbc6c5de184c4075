//! Incremental lowering + SAT engine.
//!
//! Shepherded symbolic execution issues thousands of queries over a path
//! condition that only ever *grows*: each query is `prefix + assumptions`
//! where the prefix extends the previous query's prefix. The engine
//! exploits that monotonicity end to end:
//!
//! - **Array elimination** results are cached per [`ExprRef`] in a
//!   persistent [`Eliminator`]; a constraint is rewritten once, ever. A
//!   rewrite that would trip the cell budget is found by a dry run
//!   ([`Eliminator::would_trip`]) and never built.
//! - **Bit-blasting** keeps its Tseitin cache in a persistent
//!   [`BitBlaster`]. Its CNF holds only the clauses of the lowering in
//!   progress: each query drains them into the SAT solver, so every
//!   committed clause is stored exactly once. Gates are hash-consed on
//!   their inputs for the engine's life, so a gate that an earlier
//!   constraint built is not built or fed again.
//! - **CDCL state** (clause database, learned clauses, VSIDS activity,
//!   saved phases) lives in a persistent [`SatSolver`] fed only the *new*
//!   clauses each query.
//!
//! One engine serves a whole shepherded run: the final input solve checks
//! `path + failure constraint`, another prefix extension, on the engine the
//! symbolic machine hands over, so only the failure constraint is lowered.
//!
//! Assumptions must not contaminate the persistent state. Their lowering
//! runs inside a scope that is rolled back afterwards (the in-bounds axiom
//! an array read emits is a real constraint, so even "definitional" output
//! is undone; variable numbers are never reused). Their clauses go into the
//! persistent solver guarded by a fresh *activation literal* `act` — each
//! clause `c` is added as `!act ∨ c` — which is assumed for that one search
//! and released afterwards, MiniSat style. Learned clauses that depend on
//! the guarded clauses carry `!act` and die with them; all other learned
//! clauses stay and speed up later queries.
//!
//! Budget accounting is designed to match a fresh per-query solver: cell
//! counts are cumulative over the deduplicated constraint set (exactly what
//! a fresh whole-query elimination would count), the clause budget checks
//! the full CNF extent, and the conflict budget is per call. State already
//! committed is only reused when it fits the query's budget, so a fresh
//! solver would have lowered the same prefix without tripping. Stall points
//! therefore land in the same place in either mode, which keeps
//! reproduction results identical. The one intentional divergence: learned
//! clauses can steer the incremental search through *fewer* conflicts than
//! a fresh search, so conflict-budget stalls may differ — conflict budgets
//! are orders of magnitude above what the workloads reach.

use crate::arrays::{DryRun, Eliminator};
use crate::bitblast::BitBlaster;
use crate::cnf::Lit;
use crate::expr::{ExprPool, ExprRef, Sort};
use crate::sat::{SatOutcome, SatSolver, SatStats};
use crate::solve::{Budget, Model, SatResult, SolveStats, StallReason};

/// Persistent solver state for a monotonically growing constraint prefix.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    /// The constraint prefix already validated and (where non-constant)
    /// lowered. Queries whose constraint slice does not extend this prefix
    /// reset the engine.
    prefix: Vec<ExprRef>,
    elim: Eliminator,
    blast: BitBlaster,
    sat: SatSolver,
    /// Scratch for building activation-guarded clauses.
    guarded: Vec<Lit>,
    last_stats: SolveStats,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// An engine with empty persistent state.
    pub fn new() -> Self {
        IncrementalSolver {
            prefix: Vec::new(),
            elim: Eliminator::new(),
            blast: BitBlaster::new(),
            sat: SatSolver::new(),
            guarded: Vec::new(),
            last_stats: SolveStats::default(),
        }
    }

    fn reset(&mut self) {
        *self = IncrementalSolver::new();
    }

    /// Whether a check of `constraints` under `budget` may build on the
    /// committed state: the committed prefix must be a prefix of
    /// `constraints`, and the work committed so far must fit `budget`, so
    /// that a fresh engine would have lowered the same prefix without
    /// tripping.
    fn can_extend(&self, constraints: &[ExprRef], budget: &Budget) -> bool {
        self.prefix.len() <= constraints.len()
            && self.prefix.iter().zip(constraints).all(|(&p, &c)| p == c)
            && self.elim.stats().cells <= budget.max_array_cells
            && self.blast.cnf.clause_count() <= budget.max_clauses
    }

    /// CNF clauses a check of `constraints` under `budget` would reuse
    /// rather than lower again: every committed clause if the check
    /// extends the committed prefix, otherwise none (the engine resets).
    pub fn reusable_clauses(&self, constraints: &[ExprRef], budget: &Budget) -> usize {
        if self.can_extend(constraints, budget) {
            self.blast.cnf.clause_count()
        } else {
            0
        }
    }

    /// Checks `constraints` under `budget`, reusing all lowering and search
    /// state from previous calls whose constraints form a prefix of this
    /// call's.
    ///
    /// This is the solve a chaos [`er_chaos::Fault::SolverStall`] hits;
    /// [`IncrementalSolver::check_assuming`] probes are never injected.
    ///
    /// # Panics
    ///
    /// Panics if a constraint is not boolean-sorted.
    pub fn check(
        &mut self,
        pool: &mut ExprPool,
        constraints: &[ExprRef],
        budget: &Budget,
    ) -> SatResult {
        if let Some(stall) = chaos_stall(budget) {
            return stall;
        }
        self.check_assuming(pool, constraints, &[], budget)
    }

    /// Checks `constraints + assumptions` under `budget` without retaining
    /// the assumptions in any persistent state.
    ///
    /// # Panics
    ///
    /// Panics if a constraint or assumption is not boolean-sorted.
    pub fn check_assuming(
        &mut self,
        pool: &mut ExprPool,
        constraints: &[ExprRef],
        assumptions: &[ExprRef],
        budget: &Budget,
    ) -> SatResult {
        let _span = er_telemetry::span!("solver.query");
        let (result, hits, misses, reused) =
            self.check_assuming_inner(pool, constraints, assumptions, budget);
        let gates_shared = self.blast.cnf.take_gates_shared();
        if er_telemetry::enabled() {
            // One batched update per query: the lowering pipeline itself
            // runs uninstrumented.
            er_telemetry::counter!("solver.queries").incr();
            er_telemetry::counter!("solver.work_units").add(self.last_stats.work_units());
            er_telemetry::counter!("solver.array_cells").add(self.last_stats.array_cells);
            er_telemetry::counter!("solver.cnf_clauses").add(self.last_stats.cnf_clauses as u64);
            er_telemetry::counter!("solver.cache_hits").add(hits);
            er_telemetry::counter!("solver.cache_misses").add(misses);
            er_telemetry::counter!("solver.clauses_reused").add(reused);
            er_telemetry::counter!("solver.gates_shared").add(gates_shared);
            if matches!(result, SatResult::Unknown(_)) {
                er_telemetry::counter!("solver.stalls").incr();
            }
        }
        result
    }

    /// `constraints + assumptions` decided by a fresh engine over a copy of
    /// `pool`: the check that an answer reached without a search is the
    /// one a search gives. It bills no cancel token and counts no
    /// `solver.*` telemetry, so the caller's engine, pool and accounting
    /// are as if it never ran.
    pub fn detached_check(
        pool: &ExprPool,
        constraints: &[ExprRef],
        assumptions: &[ExprRef],
        budget: &Budget,
    ) -> SatResult {
        crate::cancel::unsupervised(|| {
            IncrementalSolver::new()
                .check_assuming_inner(&mut pool.clone(), constraints, assumptions, budget)
                .0
        })
    }

    /// Returns (result, cache_hits, cache_misses, clauses_reused).
    fn check_assuming_inner(
        &mut self,
        pool: &mut ExprPool,
        constraints: &[ExprRef],
        assumptions: &[ExprRef],
        budget: &Budget,
    ) -> (SatResult, u64, u64, u64) {
        self.last_stats = SolveStats::default();

        // Prefix validation: reuse everything if this call extends the
        // previous constraint slice within budget, otherwise start over.
        if !self.can_extend(constraints, budget) {
            self.reset();
        }
        let hits = self.prefix.len() as u64;
        let mut misses = 0u64;

        // Sort check and constant-fold scan first, exactly like a fresh
        // solver: a constant-false anywhere decides the query before any
        // lowering.
        let new = &constraints[self.prefix.len()..];
        if new.iter().chain(assumptions).any(|&e| {
            assert_eq!(pool.sort(e), Sort::Bool, "assertions must be boolean");
            pool.as_const(e) == Some(0)
        }) {
            return (SatResult::Unsat, hits, misses, 0);
        }
        let assum_pending: Vec<ExprRef> = assumptions
            .iter()
            .copied()
            .filter(|&a| pool.as_const(a).is_none())
            .collect();

        // Lower the new constraints, each inside an elimination scope that
        // is committed on success. A failed constraint is rolled back
        // wholesale so a retry observes the same budget trip point a fresh
        // solver would. Elimination is the only step that can fail, and it
        // fails before the constraint emits any clause, so the blaster
        // needs no scope here.
        for &c in &constraints[self.prefix.len()..] {
            if pool.as_const(c).is_some() {
                self.prefix.push(c); // constant-true: nothing to lower
                continue;
            }
            misses += 1;
            self.elim.begin_scope();
            match self.lower(pool, c, budget) {
                Ok(()) => {
                    self.elim.commit_scope();
                    self.prefix.push(c);
                }
                Err(reason) => {
                    self.fill_stall_stats(&reason);
                    self.elim.rollback_scope();
                    return (SatResult::Unknown(reason), hits, misses, 0);
                }
            }
            // A trip here leaves the constraint committed; the next call
            // fails `can_extend` and re-lowers from scratch, tripping at
            // this same point as a fresh solver would.
            let clauses = self.blast.cnf.clause_count();
            if clauses > budget.max_clauses {
                self.last_stats.cnf_clauses = clauses;
                return (
                    SatResult::Unknown(StallReason::Clauses { clauses }),
                    hits,
                    misses,
                    0,
                );
            }
        }
        let committed_clauses = self.blast.cnf.clause_count();

        // Everything constant-folded away: trivially satisfiable.
        if committed_clauses == 0 && assum_pending.is_empty() {
            return (SatResult::Sat(Model::default()), hits, misses, 0);
        }

        self.feed();

        if assum_pending.is_empty() {
            let before = self.sat.stats();
            let outcome = {
                let _span = er_telemetry::span!("solver.sat");
                self.sat.solve(budget.max_conflicts)
            };
            self.record_search(before, committed_clauses);
            let result = self.finish(pool, outcome, constraints, &[]);
            return (result, hits, misses, 0);
        }

        // Assumption query: lower inside a rollback scope, add the scope's
        // clauses (all that is pending, the committed ones having just been
        // drained) guarded by a fresh activation literal, assume it for this
        // one search, then release it.
        misses += assum_pending.len() as u64;
        self.elim.begin_scope();
        self.blast.begin_scope();
        for &a in &assum_pending {
            if let Err(reason) = self.lower(pool, a, budget) {
                self.fill_stall_stats(&reason);
                self.elim.rollback_scope();
                self.blast.rollback_scope();
                return (SatResult::Unknown(reason), hits, misses, 0);
            }
            let clauses = self.blast.cnf.clause_count();
            if clauses > budget.max_clauses {
                self.last_stats.cnf_clauses = clauses;
                self.elim.rollback_scope();
                self.blast.rollback_scope();
                return (
                    SatResult::Unknown(StallReason::Clauses { clauses }),
                    hits,
                    misses,
                    0,
                );
            }
        }

        let act = Lit::pos(self.blast.cnf.new_var());
        let reused = self.sat.clause_count() as u64;
        {
            let _span = er_telemetry::span!("solver.feed");
            self.sat.ensure_vars(self.blast.cnf.var_count() as usize);
            for clause in self.blast.cnf.pending() {
                self.guarded.clear();
                self.guarded.push(!act);
                self.guarded.extend_from_slice(clause);
                self.sat.push_clause(&self.guarded);
            }
        }
        let before = self.sat.stats();
        let outcome = {
            let _span = er_telemetry::span!("solver.sat");
            self.sat.solve_assuming(&[act], budget.max_conflicts)
        };
        self.record_search(before, self.blast.cnf.clause_count());
        // Extract the model while the scope's var_bits entries still exist.
        let result = self.finish(pool, outcome, constraints, &assum_pending);
        self.sat.release(act);
        self.elim.rollback_scope();
        self.blast.rollback_scope();
        (result, hits, misses, reused)
    }

    /// Rewrites one boolean constraint and asserts it (plus any array
    /// axioms it spawned) into the CNF. Fails only in elimination, before
    /// any clause is emitted; a cell-budget trip is decided by a dry run
    /// before anything is built, so it leaves the pool as it was.
    fn lower(
        &mut self,
        pool: &mut ExprPool,
        e: ExprRef,
        budget: &Budget,
    ) -> Result<(), StallReason> {
        let mut axioms = Vec::new();
        let flat = {
            let _span = er_telemetry::span!("solver.elim");
            let max_cells = budget.max_array_cells;
            let forecast = self.elim.would_trip(pool, e, max_cells);
            if let DryRun::Trips(err) = forecast {
                // The real rewrite, on copies so that debug and release
                // builds go on with the same pool.
                debug_assert_eq!(
                    self.elim
                        .clone()
                        .rewrite(&mut pool.clone(), e, max_cells, &mut Vec::new())
                        .err(),
                    Some(err),
                    "the dry run must predict the rewrite's trip"
                );
                return Err(StallReason::ArrayCells { cells: err.cells });
            }
            let flat = self.elim.rewrite(pool, e, max_cells, &mut axioms);
            debug_assert!(
                forecast == DryRun::Declined || flat.is_ok(),
                "the dry run must predict every trip it does not decline"
            );
            flat.map_err(|err| StallReason::ArrayCells { cells: err.cells })?
        };
        let _span = er_telemetry::span!("solver.blast");
        if let Err(err) = self.blast.assert_true(pool, flat) {
            unreachable!("arrays were eliminated: {err}");
        }
        for ax in axioms {
            if let Err(err) = self.blast.assert_true(pool, ax) {
                unreachable!("axioms are array-free: {err}");
            }
        }
        Ok(())
    }

    fn fill_stall_stats(&mut self, reason: &StallReason) {
        if let StallReason::ArrayCells { cells } = reason {
            self.last_stats.array_cells = *cells;
        }
    }

    /// Fills `last_stats` after a search that started at SAT stats `before`
    /// over a formula of `cnf_clauses` clauses.
    fn record_search(&mut self, before: SatStats, cnf_clauses: usize) {
        let after = self.sat.stats();
        self.last_stats.array_cells = self.elim.stats().cells;
        self.last_stats.cnf_clauses = cnf_clauses;
        self.last_stats.conflicts = after.conflicts - before.conflicts;
    }

    /// Moves the CNF's pending clauses into the persistent solver.
    fn feed(&mut self) {
        let _span = er_telemetry::span!("solver.feed");
        self.sat.ensure_vars(self.blast.cnf.var_count() as usize);
        let sat = &mut self.sat;
        self.blast.cnf.drain(|clause| sat.push_clause(clause));
    }

    fn finish(
        &self,
        pool: &ExprPool,
        outcome: SatOutcome,
        constraints: &[ExprRef],
        assumptions: &[ExprRef],
    ) -> SatResult {
        match outcome {
            SatOutcome::Sat(assignment) => {
                let mut model = Model::default();
                for (id, bits) in self.blast.var_bits() {
                    let mut v = 0u64;
                    for (i, var) in bits.iter().enumerate() {
                        if assignment.get(var.0 as usize).copied().unwrap_or_default() {
                            v |= 1 << i;
                        }
                    }
                    model.set(*id, v);
                }
                debug_assert!(
                    constraints
                        .iter()
                        .chain(assumptions)
                        .all(|&a| model.eval_bool(pool, a)),
                    "model must satisfy the asserted formula"
                );
                SatResult::Sat(model)
            }
            SatOutcome::Unsat => SatResult::Unsat,
            // An Unknown with a tripped watchdog token is a cancellation,
            // not a budget exhaustion — the distinction matters upstream
            // (cancelled sessions re-queue with escalated budgets; stalled
            // ones reinstrument).
            SatOutcome::Unknown if crate::cancel::cancelled() => {
                SatResult::Unknown(StallReason::Cancelled)
            }
            SatOutcome::Unknown => SatResult::Unknown(StallReason::Conflicts {
                conflicts: self.last_stats.conflicts,
            }),
        }
    }

    /// Work counters from the most recent check, mirroring what a fresh
    /// whole-query solver would report (cells and clauses are cumulative
    /// over the deduplicated constraint set; conflicts are per call).
    pub fn last_stats(&self) -> SolveStats {
        self.last_stats
    }
}

/// Injected solver stall ([`er_chaos::Fault::SolverStall`]): models the
/// paper's 30-second wall-clock timeout tripping before the search decides.
/// Reported as an ordinary conflict-budget stall so every caller's existing
/// stall handling — key data value selection, retry on the next occurrence —
/// exercises unchanged; no caller can tell an injected stall from a real one.
fn chaos_stall(budget: &Budget) -> Option<SatResult> {
    if er_chaos::inject(er_chaos::Fault::SolverStall).is_some() {
        er_chaos::note_degraded(er_chaos::Domain::Solver);
        return Some(SatResult::Unknown(StallReason::Conflicts {
            conflicts: budget.max_conflicts,
        }));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpKind};

    fn fresh_verdict(pool: &mut ExprPool, cs: &[ExprRef], assume: &[ExprRef]) -> SatResult {
        IncrementalSolver::new().check_assuming(pool, cs, assume, &Budget::default())
    }

    fn same_verdict(a: &SatResult, b: &SatResult) -> bool {
        matches!(
            (a, b),
            (SatResult::Sat(_), SatResult::Sat(_))
                | (SatResult::Unsat, SatResult::Unsat)
                | (SatResult::Unknown(_), SatResult::Unknown(_))
        )
    }

    #[test]
    fn growing_prefix_reuses_lowering() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        let y = pool.var("y", 16);
        let ten = pool.bv_const(10, 16);
        let fifty = pool.bv_const(50, 16);
        let c1 = pool.cmp(CmpKind::Ult, x, fifty);
        let sum = pool.bin(BvOp::Add, x, y);
        let c2 = pool.cmp(CmpKind::Eq, sum, fifty);
        let c3 = pool.cmp(CmpKind::Ult, ten, x);

        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        assert!(matches!(inc.check(&mut pool, &[c1], &b), SatResult::Sat(_)));
        let clauses_after_c1 = inc.blast.cnf.clause_count();
        assert!(matches!(
            inc.check(&mut pool, &[c1, c2], &b),
            SatResult::Sat(_)
        ));
        assert!(inc.blast.cnf.clause_count() > clauses_after_c1);
        assert!(matches!(
            inc.check(&mut pool, &[c1, c2, c3], &b),
            SatResult::Sat(_)
        ));
        // Re-checking the same slice lowers nothing new.
        let clauses = inc.blast.cnf.clause_count();
        assert!(matches!(
            inc.check(&mut pool, &[c1, c2, c3], &b),
            SatResult::Sat(_)
        ));
        assert_eq!(inc.blast.cnf.clause_count(), clauses);
    }

    #[test]
    fn committed_clauses_are_stored_only_in_the_sat_solver() {
        // After a check, a probe, and a probe that stalls in elimination,
        // the CNF holds nothing pending: every committed clause lives in
        // the SAT arena alone, and the cumulative count still covers it.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        let hundred = pool.bv_const(100, 16);
        let base = pool.cmp(CmpKind::Ult, x, hundred);
        let fifty = pool.bv_const(50, 16);
        let probe = pool.cmp(CmpKind::Eq, x, fifty);
        let arr = pool.array("BIG", 1 << 20, 16, None);
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let huge = pool.cmp(CmpKind::Eq, r, x);
        let pending_lits =
            |inc: &IncrementalSolver| -> usize { inc.blast.cnf.pending().map(<[Lit]>::len).sum() };
        let mut inc = IncrementalSolver::new();
        let b = Budget::small();
        assert!(matches!(
            inc.check(&mut pool, &[base], &b),
            SatResult::Sat(_)
        ));
        let committed = inc.blast.cnf.clause_count();
        assert!(committed > 0);
        assert_eq!(pending_lits(&inc), 0);
        assert!(matches!(
            inc.check_assuming(&mut pool, &[base], &[probe], &b),
            SatResult::Sat(_)
        ));
        assert_eq!(pending_lits(&inc), 0);
        assert_eq!(inc.blast.cnf.clause_count(), committed);
        assert!(matches!(
            inc.check_assuming(&mut pool, &[base], &[huge], &b),
            SatResult::Unknown(StallReason::ArrayCells { .. })
        ));
        assert_eq!(pending_lits(&inc), 0);
        assert_eq!(inc.blast.cnf.clause_count(), committed);
        assert_eq!(inc.reusable_clauses(&[base], &b), committed);
    }

    #[test]
    fn assumptions_do_not_leak_into_persistent_state() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let one = pool.bv_const(1, 8);
        let two = pool.bv_const(2, 8);
        let is1 = pool.cmp(CmpKind::Eq, x, one);
        let is2 = pool.cmp(CmpKind::Eq, x, two);
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        assert!(matches!(
            inc.check(&mut pool, &[is1], &b),
            SatResult::Sat(_)
        ));
        let clauses = inc.blast.cnf.clause_count();
        assert_eq!(
            inc.check_assuming(&mut pool, &[is1], &[is2], &b),
            SatResult::Unsat
        );
        assert_eq!(
            inc.blast.cnf.clause_count(),
            clauses,
            "assumption rolled back"
        );
        assert!(matches!(
            inc.check(&mut pool, &[is1], &b),
            SatResult::Sat(_)
        ));
    }

    #[test]
    fn assumption_array_read_rolls_back_in_bounds_axiom() {
        // Reading A[i] under an assumption emits an in-bounds axiom on i.
        // If it leaked, the later prefix-only check would wrongly constrain
        // i < 4.
        let mut pool = ExprPool::new();
        let arr = pool.array("A", 4, 8, Some(vec![1, 2, 3, 4]));
        let i = pool.var("i", 64);
        let big = pool.bv_const(1000, 64);
        let c = pool.cmp(CmpKind::Eq, i, big); // i = 1000 (out of bounds)
        let r = pool.read(arr, i);
        let one = pool.bv_const(1, 8);
        let assume = pool.cmp(CmpKind::Eq, r, one);
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        // Under the assumption the read's in-bounds axiom contradicts i=1000.
        assert_eq!(
            inc.check_assuming(&mut pool, &[c], &[assume], &b),
            SatResult::Unsat
        );
        // Without it, i = 1000 is perfectly satisfiable.
        assert!(matches!(inc.check(&mut pool, &[c], &b), SatResult::Sat(_)));
    }

    #[test]
    fn prefix_mismatch_resets() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let one = pool.bv_const(1, 8);
        let two = pool.bv_const(2, 8);
        let is1 = pool.cmp(CmpKind::Eq, x, one);
        let is2 = pool.cmp(CmpKind::Eq, x, two);
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        assert!(matches!(
            inc.check(&mut pool, &[is1], &b),
            SatResult::Sat(_)
        ));
        // A different constraint slice (not an extension) must reset.
        assert!(matches!(
            inc.check(&mut pool, &[is2], &b),
            SatResult::Sat(_)
        ));
        assert_eq!(inc.check(&mut pool, &[is2, is1], &b), SatResult::Unsat);
    }

    #[test]
    fn const_false_decides_before_lowering() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let one = pool.bv_const(1, 8);
        let is1 = pool.cmp(CmpKind::Eq, x, one);
        let f = pool.bool_const(false);
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        assert_eq!(inc.check(&mut pool, &[is1, f], &b), SatResult::Unsat);
        assert_eq!(
            inc.check_assuming(&mut pool, &[is1], &[f], &b),
            SatResult::Unsat
        );
        assert!(matches!(
            inc.check(&mut pool, &[is1], &b),
            SatResult::Sat(_)
        ));
    }

    #[test]
    fn array_budget_stall_is_stable_across_retries() {
        let mut pool = ExprPool::new();
        let arr = pool.array("BIG", 1 << 20, 32, None);
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let zero = pool.bv_const(0, 32);
        let eq = pool.cmp(CmpKind::Eq, r, zero);
        let mut inc = IncrementalSolver::new();
        let b = Budget::small();
        let first = inc.check(&mut pool, &[eq], &b);
        let second = inc.check(&mut pool, &[eq], &b);
        assert!(matches!(
            first,
            SatResult::Unknown(StallReason::ArrayCells { .. })
        ));
        assert_eq!(first, second, "retry must observe the same trip point");
    }

    #[test]
    fn a_stall_decided_by_the_dry_run_builds_nothing() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        let hundred = pool.bv_const(100, 16);
        let base = pool.cmp(CmpKind::Ult, x, hundred);
        let arr = pool.array("BIG", 1 << 20, 16, None);
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let huge = pool.cmp(CmpKind::Eq, r, x);
        let mut inc = IncrementalSolver::new();
        let b = Budget::small();
        let nodes = pool.len();
        let stall = SatResult::Unknown(StallReason::ArrayCells { cells: 1 << 20 });
        assert_eq!(inc.check(&mut pool, &[base, huge], &b), stall);
        assert_eq!(inc.check_assuming(&mut pool, &[base], &[huge], &b), stall);
        assert_eq!(pool.len(), nodes, "no node built for a stalled rewrite");
    }

    #[test]
    fn a_read_index_over_a_long_shared_chain_is_walked_once() {
        // The last read's index is a 10k-step chain in which each step
        // uses the one before twice, over a read at the bottom: walked
        // without a memo it would take 2^10000 steps. The rewrite and the
        // dry run recurse once per node, hence the big stack.
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                let mut pool = ExprPool::new();
                let small = pool.array("S", 16, 8, None);
                let big = pool.array("BIG", 1 << 20, 8, None);
                let i = pool.var("i", 64);
                let r = pool.read(small, i);
                let mut acc = pool.zext(r, 64);
                let c = pool.bv_const(0x9e37_79b9, 64);
                for _ in 0..10_000 {
                    let x = pool.bin(BvOp::Xor, acc, c);
                    acc = pool.bin(BvOp::Add, x, acc);
                }
                let last = pool.read(big, acc);
                let zero = pool.bv_const(0, 8);
                let is_zero = pool.cmp(CmpKind::Eq, last, zero);

                // The bottom read alone trips a 10-cell budget: the dry
                // run decides it and builds nothing.
                let nodes = pool.len();
                let tight = Budget {
                    max_array_cells: 10,
                    ..Budget::default()
                };
                assert_eq!(
                    IncrementalSolver::new().check(&mut pool, &[is_zero], &tight),
                    SatResult::Unknown(StallReason::ArrayCells { cells: 16 })
                );
                assert_eq!(pool.len(), nodes);

                // Under the default budget the dry run declines at the
                // chain (it contains a read), and the rewrite trips at BIG.
                assert_eq!(
                    IncrementalSolver::new().check(&mut pool, &[is_zero], &Budget::default()),
                    SatResult::Unknown(StallReason::ArrayCells {
                        cells: 16 + (1 << 20)
                    })
                );
            })
            .expect("spawn")
            .join()
            .expect("shared chain");
    }

    #[test]
    fn committed_work_over_a_smaller_budget_is_redone() {
        // Lowered under a generous budget, then re-checked under one the
        // committed CNF already exceeds: the engine must not reuse it and
        // must stall exactly as a fresh engine does.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        let y = pool.var("y", 16);
        let prod = pool.bin(BvOp::Mul, x, y);
        let target = pool.bv_const(143, 16);
        let eq = pool.cmp(CmpKind::Eq, prod, target);
        let one = pool.bv_const(1, 16);
        let x_big = pool.cmp(CmpKind::Ult, one, x);
        let mut inc = IncrementalSolver::new();
        assert!(matches!(
            inc.check(&mut pool, &[eq], &Budget::default()),
            SatResult::Sat(_)
        ));
        let committed = inc.blast.cnf.clause_count();
        let tight = Budget {
            max_clauses: committed / 2,
            ..Budget::default()
        };
        assert_eq!(
            inc.reusable_clauses(&[eq, x_big], &Budget::default()),
            committed
        );
        assert_eq!(inc.reusable_clauses(&[eq, x_big], &tight), 0);
        let fresh = IncrementalSolver::new().check(&mut pool, &[eq, x_big], &tight);
        assert!(matches!(
            fresh,
            SatResult::Unknown(StallReason::Clauses { .. })
        ));
        assert_eq!(inc.check(&mut pool, &[eq, x_big], &tight), fresh);
    }

    #[test]
    fn probes_leave_no_trace_in_later_answers() {
        // Many contradicting probes against one engine: each answers like
        // a fresh solver, and the prefix alone stays satisfiable with the
        // full range of x available.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let hundred = pool.bv_const(100, 8);
        let base = pool.cmp(CmpKind::Ult, x, hundred);
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        for v in 0..120u64 {
            let c = pool.bv_const(v, 8);
            let is_v = pool.cmp(CmpKind::Eq, x, c);
            let got = inc.check_assuming(&mut pool, &[base], &[is_v], &b);
            let fresh = fresh_verdict(&mut pool, &[base], &[is_v]);
            assert!(same_verdict(&got, &fresh), "{v}: {got:?} vs {fresh:?}");
            assert_eq!(matches!(got, SatResult::Sat(_)), v < 100);
        }
        let ninety_nine = pool.bv_const(99, 8);
        let top = pool.cmp(CmpKind::Eq, x, ninety_nine);
        assert!(matches!(
            inc.check(&mut pool, &[base, top], &b),
            SatResult::Sat(_)
        ));
    }

    #[test]
    fn matches_fresh_solver_on_growing_prefixes() {
        // Drive one incremental engine through a growing prefix with
        // alternating assumption probes; every verdict must match a fresh
        // engine given the same full query.
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.bin(BvOp::Add, x, y);
        let c40 = pool.bv_const(40, 8);
        let c100 = pool.bv_const(100, 8);
        let c200 = pool.bv_const(200, 8);
        let cs = [
            pool.cmp(CmpKind::Ult, x, c100),
            pool.cmp(CmpKind::Ult, y, c100),
            pool.cmp(CmpKind::Eq, sum, c40),
            pool.cmp(CmpKind::Ult, c40, sum),
        ];
        let probes = vec![
            pool.cmp(CmpKind::Eq, x, c40),
            pool.cmp(CmpKind::Ult, c200, sum),
            pool.cmp(CmpKind::Ule, x, y),
        ];
        let mut inc = IncrementalSolver::new();
        let b = Budget::default();
        for n in 1..=cs.len() {
            let inc_res = inc.check(&mut pool, &cs[..n], &b);
            let fresh = fresh_verdict(&mut pool, &cs[..n], &[]);
            assert!(
                same_verdict(&inc_res, &fresh),
                "{n}: {inc_res:?} vs {fresh:?}"
            );
            for &p in &probes {
                let inc_res = inc.check_assuming(&mut pool, &cs[..n], &[p], &b);
                let fresh = fresh_verdict(&mut pool, &cs[..n], &[p]);
                assert!(
                    same_verdict(&inc_res, &fresh),
                    "{n}: {inc_res:?} vs {fresh:?}"
                );
                if let SatResult::Sat(m) = &inc_res {
                    assert!(cs[..n].iter().chain([&p]).all(|&e| m.eval_bool(&pool, e)));
                }
            }
        }
    }
}
