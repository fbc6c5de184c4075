//! Fault injection at the solver boundary: an injected stall must look
//! exactly like the conflict budget tripping — `Unknown(Conflicts)`, never
//! a panic, never a wrong `Sat`/`Unsat`. Only `IncrementalSolver::check`,
//! the final input solve, is injected; `check_assuming` probes never are.
//! Lives in its own integration test binary because chaos arming is
//! process-global.

use er_solver::expr::{CmpKind, ExprPool, ExprRef};
use er_solver::inc::IncrementalSolver;
use er_solver::solve::{Budget, SatResult, StallReason};

/// A satisfiable constraint `x < 10` and a satisfiable probe `x == 3`.
fn satisfiable(pool: &mut ExprPool) -> (ExprRef, ExprRef) {
    let x = pool.var("x", 32);
    let ten = pool.bv_const(10, 32);
    let three = pool.bv_const(3, 32);
    (
        pool.cmp(CmpKind::Ult, x, ten),
        pool.cmp(CmpKind::Eq, x, three),
    )
}

#[test]
fn injected_stall_is_a_budget_stall_and_then_clears() {
    let plan = er_chaos::ChaosPlan::new(0xd00d).with(
        er_chaos::Fault::SolverStall,
        er_chaos::FaultPolicy::always(1),
    );
    let guard = er_chaos::arm(plan);

    let budget = Budget::small();
    let mut pool = ExprPool::new();
    let (lt, probe) = satisfiable(&mut pool);
    let mut s = IncrementalSolver::new();
    // Probes are never injected, even while the injection is still unspent.
    assert!(matches!(
        s.check_assuming(&mut pool, &[lt], &[probe], &budget),
        SatResult::Sat(_)
    ));
    assert_eq!(
        er_chaos::stats()
            .expect("armed")
            .domain(er_chaos::Domain::Solver)
            .injected,
        0
    );
    // The first check eats the injection: a plain budget stall, no panic.
    assert_eq!(
        s.check(&mut pool, &[lt], &budget),
        SatResult::Unknown(StallReason::Conflicts {
            conflicts: budget.max_conflicts
        })
    );
    // Budget spent: the very next check (the "retry") succeeds.
    assert!(matches!(
        s.check(&mut pool, &[lt], &budget),
        SatResult::Sat(_)
    ));

    let stats = er_chaos::stats().expect("armed");
    let dom = stats.domain(er_chaos::Domain::Solver);
    assert_eq!(dom.injected, 1);
    assert_eq!(dom.degraded, 1);
    drop(guard);

    // Disarmed: no injection at all.
    let mut pool = ExprPool::new();
    let (lt, _) = satisfiable(&mut pool);
    assert!(matches!(
        IncrementalSolver::new().check(&mut pool, &[lt], &budget),
        SatResult::Sat(_)
    ));
}
