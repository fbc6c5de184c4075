//! Solver vocabulary: budgets, verdicts, models and work counters shared by
//! every client of [`IncrementalSolver`](crate::inc::IncrementalSolver).

use crate::expr::{ExprPool, ExprRef, VarId};
use crate::simplify;
use std::collections::HashMap;
use std::fmt;

/// Deterministic resource limits standing in for the paper's 30-second
/// wall-clock solver timeout (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum SAT conflicts.
    pub max_conflicts: u64,
    /// Maximum array cells instantiated during elimination.
    pub max_array_cells: u64,
    /// Maximum CNF clauses after bit-blasting.
    pub max_clauses: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: 100_000,
            max_array_cells: 200_000,
            max_clauses: 4_000_000,
        }
    }
}

impl Budget {
    /// A small budget that stalls quickly — convenient for tests and for
    /// ER configurations targeting frequently reoccurring failures.
    pub fn small() -> Self {
        Budget {
            max_conflicts: 2_000,
            max_array_cells: 4_000,
            max_clauses: 400_000,
        }
    }
}

/// Why a check stalled (the analogue of a solver timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Array elimination exceeded the cell budget.
    ArrayCells {
        /// Cells instantiated when the budget tripped.
        cells: u64,
    },
    /// Bit-blasting produced too many clauses.
    Clauses {
        /// Clauses produced when the budget tripped.
        clauses: usize,
    },
    /// CDCL search exceeded the conflict budget.
    Conflicts {
        /// Conflicts reached.
        conflicts: u64,
    },
    /// Reported by solver clients (e.g. the symbolic executor) when a
    /// query's budget ran out while disambiguating a symbolic memory
    /// address — the access could not be proven unique nor confined to one
    /// object within the budget.
    AddressAmbiguity,
    /// A watchdog cancellation token ([`crate::cancel`]) tripped mid-query:
    /// the supervising scheduler cancelled this iteration's phase budget,
    /// not the solver's own.
    Cancelled,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallReason::ArrayCells { cells } => write!(f, "array budget ({cells} cells)"),
            StallReason::Clauses { clauses } => write!(f, "clause budget ({clauses} clauses)"),
            StallReason::Conflicts { conflicts } => {
                write!(f, "conflict budget ({conflicts} conflicts)")
            }
            StallReason::AddressAmbiguity => write!(f, "ambiguous symbolic address"),
            StallReason::Cancelled => write!(f, "cancelled by watchdog"),
        }
    }
}

/// A satisfying assignment for the original (pre-elimination) variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<VarId, u64>,
}

impl Model {
    /// The value assigned to variable `id` (variables absent from the final
    /// formula default to zero, which satisfies no remaining constraint).
    pub fn value(&self, id: VarId) -> u64 {
        self.values.get(&id).copied().unwrap_or(0)
    }

    /// Sets a variable's value (used by tests and by ER when seeding models
    /// from recorded data).
    pub fn set(&mut self, id: VarId, value: u64) {
        self.values.insert(id, value);
    }

    /// Evaluates `e` under this model (array reads resolve against declared
    /// initial contents and store chains).
    pub fn eval(&self, pool: &ExprPool, e: ExprRef) -> u64 {
        simplify::eval_concrete(pool, e, &|id| self.value(id))
    }

    /// Evaluates a boolean expression under this model.
    pub fn eval_bool(&self, pool: &ExprPool, e: ExprRef) -> bool {
        self.eval(pool, e) != 0
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Result of [`IncrementalSolver::check`](crate::inc::IncrementalSolver::check).
#[derive(Debug, Clone, PartialEq)]
pub enum SatResult {
    /// Satisfiable.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver stalled before deciding.
    Unknown(StallReason),
}

/// Work counters for the last check — ER's offline-overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Array cells instantiated.
    pub array_cells: u64,
    /// CNF clauses.
    pub cnf_clauses: usize,
    /// SAT conflicts.
    pub conflicts: u64,
}

impl SolveStats {
    /// A single scalar "work" measure used as the deterministic time proxy.
    pub fn work_units(&self) -> u64 {
        self.array_cells + self.cnf_clauses as u64 + 10 * self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpKind};
    use crate::inc::IncrementalSolver;

    fn check(pool: &mut ExprPool, assertions: &[ExprRef]) -> SatResult {
        IncrementalSolver::new().check(pool, assertions, &Budget::default())
    }

    #[test]
    fn linear_equation() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 32);
        let three = pool.bv_const(3, 32);
        let five = pool.bv_const(5, 32);
        let hundred = pool.bv_const(100, 32);
        let t = pool.bin(BvOp::Mul, x, three);
        let t = pool.bin(BvOp::Add, t, five);
        let eq = pool.cmp(CmpKind::Eq, t, hundred);
        let SatResult::Sat(m) = check(&mut pool, &[eq]) else {
            panic!("expected SAT");
        };
        // 3x + 5 == 100 has no integer solution... except modular: check it.
        let xv = m.value(VarId(0));
        assert_eq!(xv.wrapping_mul(3).wrapping_add(5) & 0xffff_ffff, 100);
    }

    #[test]
    fn unsat_detected() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let ten = pool.bv_const(10, 8);
        let lt = pool.cmp(CmpKind::Ult, x, ten);
        let ge = pool.cmp(CmpKind::Ule, ten, x);
        assert_eq!(check(&mut pool, &[lt, ge]), SatResult::Unsat);
    }

    #[test]
    fn trivially_true_needs_no_search() {
        let mut pool = ExprPool::new();
        let t = pool.bool_const(true);
        let mut s = IncrementalSolver::new();
        assert!(matches!(
            s.check(&mut pool, &[t], &Budget::default()),
            SatResult::Sat(_)
        ));
        assert_eq!(s.last_stats().cnf_clauses, 0);
    }

    #[test]
    fn trivially_false_is_unsat() {
        let mut pool = ExprPool::new();
        let f = pool.bool_const(false);
        assert_eq!(check(&mut pool, &[f]), SatResult::Unsat);
    }

    #[test]
    fn check_assuming_does_not_retain() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let one = pool.bv_const(1, 8);
        let two = pool.bv_const(2, 8);
        let is1 = pool.cmp(CmpKind::Eq, x, one);
        let is2 = pool.cmp(CmpKind::Eq, x, two);
        let mut s = IncrementalSolver::new();
        let b = Budget::default();
        assert_eq!(
            s.check_assuming(&mut pool, &[is1], &[is2], &b),
            SatResult::Unsat
        );
        // Without the assumption it is satisfiable again.
        assert!(matches!(s.check(&mut pool, &[is1], &b), SatResult::Sat(_)));
    }

    #[test]
    fn array_stall_reports_unknown() {
        let mut pool = ExprPool::new();
        let arr = pool.array("BIG", 1 << 20, 32, None);
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let zero = pool.bv_const(0, 32);
        let eq = pool.cmp(CmpKind::Eq, r, zero);
        let res = IncrementalSolver::new().check(&mut pool, &[eq], &Budget::small());
        assert!(matches!(
            res,
            SatResult::Unknown(StallReason::ArrayCells { .. })
        ));
    }

    #[test]
    fn model_eval_handles_arrays() {
        let mut pool = ExprPool::new();
        let arr = pool.array("V", 4, 32, Some(vec![5, 6, 7, 8]));
        let i = pool.var("i", 64);
        let r = pool.read(arr, i);
        let seven = pool.bv_const(7, 32);
        let eq = pool.cmp(CmpKind::Eq, r, seven);
        let SatResult::Sat(m) = check(&mut pool, &[eq]) else {
            panic!("SAT expected");
        };
        assert_eq!(m.value(VarId(0)), 2);
        assert!(m.eval_bool(&pool, eq));
    }

    #[test]
    fn paper_example_constraints() {
        // The Fig. 3 flavor: x = a + b, x < 256, V[x] = 1 then read back.
        let mut pool = ExprPool::new();
        let a = pool.var("a", 32);
        let b = pool.var("b", 32);
        let x = pool.bin(BvOp::Add, a, b);
        let lim = pool.bv_const(256, 32);
        let in_range = pool.cmp(CmpKind::Ult, x, lim);
        let arr = pool.array("V", 256, 32, None);
        let x64 = pool.zext(x, 64);
        let one = pool.bv_const(1, 32);
        let w = pool.write(arr, x64, one);
        let r = pool.read(w, x64);
        let r_is_1 = pool.cmp(CmpKind::Eq, r, one);
        let neg = pool.not(r_is_1);
        assert_eq!(check(&mut pool, &[in_range, neg]), SatResult::Unsat);
    }

    #[test]
    fn stats_accumulate() {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 16);
        let y = pool.var("y", 16);
        let m = pool.bin(BvOp::Mul, x, y);
        let target = pool.bv_const(143, 16);
        let eq = pool.cmp(CmpKind::Eq, m, target);
        let two = pool.bv_const(2, 16);
        let x_big = pool.cmp(CmpKind::Ule, two, x);
        let y_big = pool.cmp(CmpKind::Ule, two, y);
        let mut s = IncrementalSolver::new();
        let SatResult::Sat(model) = s.check(&mut pool, &[eq, x_big, y_big], &Budget::default())
        else {
            panic!("11 * 13 = 143 should be found");
        };
        let (xv, yv) = (model.value(VarId(0)), model.value(VarId(1)));
        assert_eq!(xv.wrapping_mul(yv) & 0xffff, 143);
        assert!(s.last_stats().cnf_clauses > 0);
        assert!(s.last_stats().work_units() > 0);
    }
}
