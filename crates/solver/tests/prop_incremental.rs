//! Property tests for the incremental engine: a persistent
//! [`IncrementalSolver`] driven through growing prefixes and assumption
//! probes must agree with a fresh (uncached) solve of each full query; the
//! draining [`Cnf`] encoder must agree with a `Vec<Vec<Lit>>` model under
//! mark/rollback and drains; and assumption searches on a persistent
//! [`SatSolver`] must agree with a fresh solver given the assumptions as
//! unit clauses.

use er_solver::cnf::{Cnf, Lit, Var};
use er_solver::expr::{BvOp, CmpKind, ExprPool, ExprRef};
use er_solver::inc::IncrementalSolver;
use er_solver::sat::{SatOutcome, SatSolver};
use er_solver::solve::{Budget, SatResult};
use proptest::prelude::*;

/// Variables in the random SAT instances; one more is the activation
/// literal.
const SAT_VARS: u32 = 6;
const SAT_BUDGET: u64 = 1_000_000;

fn lits(spec: &[(u32, bool)]) -> Vec<Lit> {
    spec.iter().map(|&(v, pos)| Lit::new(Var(v), pos)).collect()
}

/// Satisfiability of `clauses` by a fresh solver.
fn fresh_sat(clauses: &[Vec<Lit>]) -> bool {
    let mut s = SatSolver::new();
    s.ensure_vars(SAT_VARS as usize + 1);
    for c in clauses {
        s.push_clause(c);
    }
    match s.solve(SAT_BUDGET) {
        SatOutcome::Sat(_) => true,
        SatOutcome::Unsat => false,
        SatOutcome::Unknown => panic!("tiny instance exhausted its budget"),
    }
}

fn satisfies(model: &[bool], clause: &[Lit]) -> bool {
    clause
        .iter()
        .any(|l| model[l.var().0 as usize] == l.is_pos())
}

fn cmpkind() -> impl Strategy<Value = CmpKind> {
    prop_oneof![
        Just(CmpKind::Eq),
        Just(CmpKind::Ult),
        Just(CmpKind::Ule),
        Just(CmpKind::Slt),
        Just(CmpKind::Sle),
    ]
}

fn bvop() -> impl Strategy<Value = BvOp> {
    prop_oneof![
        Just(BvOp::Add),
        Just(BvOp::Sub),
        Just(BvOp::Mul),
        Just(BvOp::And),
        Just(BvOp::Or),
        Just(BvOp::Xor),
    ]
}

/// One random boolean constraint over `x`, `y`, and a constant.
fn constraint(
    pool: &mut ExprPool,
    x: ExprRef,
    y: ExprRef,
    op: BvOp,
    cmp: CmpKind,
    k: u64,
) -> ExprRef {
    let mixed = pool.bin(op, x, y);
    let kv = pool.bv_const(k, 8);
    pool.cmp(cmp, mixed, kv)
}

fn verdicts_match(a: &SatResult, b: &SatResult) -> bool {
    matches!(
        (a, b),
        (SatResult::Sat(_), SatResult::Sat(_))
            | (SatResult::Unsat, SatResult::Unsat)
            | (SatResult::Unknown(_), SatResult::Unknown(_))
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checking a growing assertion prefix on one persistent engine gives
    /// the same satisfiability verdict as an uncached solve of each full
    /// set, and any model produced satisfies everything asserted.
    #[test]
    fn cached_prefix_checks_match_fresh(
        specs in prop::collection::vec((bvop(), cmpkind(), any::<u8>()), 1..6),
    ) {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let cs: Vec<ExprRef> = specs
            .iter()
            .map(|&(op, cmp, k)| constraint(&mut pool, x, y, op, cmp, u64::from(k)))
            .collect();
        let budget = Budget::default();
        let mut inc = IncrementalSolver::new();
        for n in 1..=cs.len() {
            let cached = inc.check(&mut pool, &cs[..n], &budget);
            let fresh = IncrementalSolver::new().check(&mut pool, &cs[..n], &budget);
            prop_assert!(
                verdicts_match(&cached, &fresh),
                "prefix {n}: cached {cached:?} vs fresh {fresh:?}"
            );
            if let SatResult::Sat(m) = &cached {
                prop_assert!(cs[..n].iter().all(|&c| m.eval_bool(&pool, c)));
            }
        }
    }

    /// Assumption probes answered on the persistent solver match a fresh
    /// solve of prefix + assumption, and never perturb
    /// subsequent prefix-only answers.
    #[test]
    fn cached_assumption_probes_match_fresh(
        specs in prop::collection::vec((bvop(), cmpkind(), any::<u8>()), 1..4),
        probes in prop::collection::vec((bvop(), cmpkind(), any::<u8>()), 1..4),
    ) {
        let mut pool = ExprPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let cs: Vec<ExprRef> = specs
            .iter()
            .map(|&(op, cmp, k)| constraint(&mut pool, x, y, op, cmp, u64::from(k)))
            .collect();
        let ps: Vec<ExprRef> = probes
            .iter()
            .map(|&(op, cmp, k)| constraint(&mut pool, x, y, op, cmp, u64::from(k)))
            .collect();
        let budget = Budget::default();
        let mut inc = IncrementalSolver::new();
        let baseline = inc.check(&mut pool, &cs, &budget);
        for &p in &ps {
            let cached = inc.check_assuming(&mut pool, &cs, &[p], &budget);
            let fresh = IncrementalSolver::new().check_assuming(&mut pool, &cs, &[p], &budget);
            prop_assert!(
                verdicts_match(&cached, &fresh),
                "probe: cached {cached:?} vs fresh {fresh:?}"
            );
            if let SatResult::Sat(m) = &cached {
                prop_assert!(cs.iter().chain([&p]).all(|&c| m.eval_bool(&pool, c)));
            }
            // The probe must leave the persistent state unchanged.
            let after = inc.check(&mut pool, &cs, &budget);
            prop_assert!(verdicts_match(&baseline, &after));
        }
    }

    /// Random clause additions interleaved with nested mark/rollback and
    /// drains keep the same pending clauses as a `Vec<Vec<Lit>>` model; a
    /// drain hands over exactly those clauses, in order; `clause_count`
    /// stays cumulative over drained and pending clauses; and rollback
    /// never hands out a variable number twice.
    #[test]
    fn flat_cnf_matches_vec_model(
        ops in prop::collection::vec(
            (0u8..6, prop::collection::vec((0u32..8, any::<bool>()), 0..5)),
            1..40,
        ),
    ) {
        let mut cnf = Cnf::new();
        let mut pending: Vec<Vec<Lit>> = Vec::new();
        let mut drained = 0;
        let mut marks = Vec::new();
        let mut vars = 0;
        for (kind, spec) in ops {
            match kind {
                0 | 1 => {
                    let c = lits(&spec);
                    cnf.add_clause(&c);
                    pending.push(c);
                }
                2 => marks.push((cnf.mark(), pending.len())),
                3 => {
                    if let Some((mark, len)) = marks.pop() {
                        cnf.rollback(&mark);
                        pending.truncate(len);
                    }
                }
                4 => {
                    let mut got: Vec<Vec<Lit>> = Vec::new();
                    cnf.drain(|c| got.push(c.to_vec()));
                    prop_assert_eq!(&got, &pending);
                    drained += pending.len();
                    pending.clear();
                    // Drained clauses cannot be rolled back.
                    marks.clear();
                }
                _ => {
                    let v = cnf.new_var();
                    prop_assert_eq!(v.0, vars, "variable numbers are never reused");
                    vars += 1;
                }
            }
            prop_assert_eq!(cnf.var_count(), vars);
            prop_assert_eq!(cnf.clause_count(), drained + pending.len());
            prop_assert!(cnf.pending().eq(pending.iter().map(Vec::as_slice)));
        }
    }

    /// On one persistent solver: plain assumptions, then clauses guarded by
    /// an activation literal, each answer like a fresh solver given the
    /// assumptions (and guarded clauses) as plain clauses; after release,
    /// a query without them sees nothing left over.
    #[test]
    fn solve_assuming_matches_unit_clauses(
        base in prop::collection::vec(
            prop::collection::vec((0u32..SAT_VARS, any::<bool>()), 1..4),
            1..24,
        ),
        assume in prop::collection::vec((0u32..SAT_VARS, any::<bool>()), 1..4),
        extra in prop::collection::vec(
            prop::collection::vec((0u32..SAT_VARS, any::<bool>()), 1..4),
            0..8,
        ),
    ) {
        let base: Vec<Vec<Lit>> = base.iter().map(|c| lits(c)).collect();
        let assume = lits(&assume);
        let extra: Vec<Vec<Lit>> = extra.iter().map(|c| lits(c)).collect();
        let act = Lit::pos(Var(SAT_VARS));
        let units: Vec<Vec<Lit>> = assume.iter().map(|&l| vec![l]).collect();

        let mut s = SatSolver::new();
        s.ensure_vars(SAT_VARS as usize + 1);
        for c in &base {
            s.push_clause(c);
        }
        let base_sat = fresh_sat(&base);
        // A first search leaves learned clauses and saved phases behind.
        prop_assert_eq!(matches!(s.solve(SAT_BUDGET), SatOutcome::Sat(_)), base_sat);

        let with_units: Vec<Vec<Lit>> = base.iter().chain(&units).cloned().collect();
        match s.solve_assuming(&assume, SAT_BUDGET) {
            SatOutcome::Sat(m) => {
                prop_assert!(fresh_sat(&with_units));
                prop_assert!(with_units.iter().all(|c| satisfies(&m, c)));
            }
            SatOutcome::Unsat => prop_assert!(!fresh_sat(&with_units)),
            SatOutcome::Unknown => prop_assert!(false, "budget exhausted"),
        }

        for c in &extra {
            let mut g = vec![!act];
            g.extend_from_slice(c);
            s.push_clause(&g);
        }
        let mut guarded_query = vec![act];
        guarded_query.extend_from_slice(&assume);
        let all: Vec<Vec<Lit>> = with_units.iter().chain(&extra).cloned().collect();
        match s.solve_assuming(&guarded_query, SAT_BUDGET) {
            SatOutcome::Sat(m) => {
                prop_assert!(fresh_sat(&all));
                prop_assert!(all.iter().all(|c| satisfies(&m, c)));
            }
            SatOutcome::Unsat => prop_assert!(!fresh_sat(&all)),
            SatOutcome::Unknown => prop_assert!(false, "budget exhausted"),
        }
        s.release(act);

        match s.solve(SAT_BUDGET) {
            SatOutcome::Sat(m) => {
                prop_assert!(base_sat);
                prop_assert!(base.iter().all(|c| satisfies(&m, c)));
            }
            SatOutcome::Unsat => prop_assert!(!base_sat),
            SatOutcome::Unknown => prop_assert!(false, "budget exhausted"),
        }
    }
}
