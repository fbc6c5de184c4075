//! CNF representation and Tseitin gate helpers.

use std::fmt;

/// A propositional variable (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable or its negation, encoded as `2*var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// A literal of `v` with the given polarity.
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Index suitable for watch lists (`0..2*n_vars`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "!x{}", self.var().0)
        }
    }
}

/// A snapshot of a [`Cnf`]'s extent (see [`Cnf::mark`]).
#[derive(Debug, Clone, Copy)]
pub struct CnfMark {
    n_clauses: usize,
    const_true: Option<Lit>,
}

/// A CNF formula under construction, with Tseitin helpers.
///
/// Clauses are stored flat: every literal back to back in one vector, plus
/// the end offset of each clause, so adding a clause never allocates on its
/// own. An empty clause means trivially unsatisfiable.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    n_vars: u32,
    lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of clause `i` in `lits`.
    ends: Vec<usize>,
    const_true: Option<Lit>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Number of variables allocated.
    pub fn var_count(&self) -> u32 {
        self.n_vars
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.ends.len()
    }

    /// The literals of clause `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.clause_count()`.
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start..self.ends[i]]
    }

    /// Every clause, in insertion order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        (0..self.clause_count()).map(|i| self.clause(i))
    }

    /// Adds a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        self.ends.push(self.lits.len());
    }

    /// Captures the current formula extent for a later [`Cnf::rollback`].
    pub fn mark(&self) -> CnfMark {
        CnfMark {
            n_clauses: self.ends.len(),
            const_true: self.const_true,
        }
    }

    /// Discards every clause added since `mark` was taken.
    ///
    /// Used by the incremental solver to scope assumption-only lowering:
    /// nothing added after the mark may be referenced by clauses before it
    /// (Tseitin outputs are only consumed by later clauses), so truncation
    /// restores exactly the pre-mark formula. Variables allocated since the
    /// mark stay allocated and their numbers are never handed out again: a
    /// persistent SAT solver may still hold (disabled) clauses over them.
    pub fn rollback(&mut self, mark: &CnfMark) {
        debug_assert!(mark.n_clauses <= self.ends.len());
        self.ends.truncate(mark.n_clauses);
        self.lits.truncate(self.ends.last().copied().unwrap_or(0));
        self.const_true = mark.const_true;
    }

    /// A literal that is always true (lazily created).
    pub fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.const_true {
            return l;
        }
        let v = self.new_var();
        let l = Lit::pos(v);
        self.add_clause(&[l]);
        self.const_true = Some(l);
        l
    }

    /// A literal that is always false.
    pub fn false_lit(&mut self) -> Lit {
        !self.true_lit()
    }

    /// Whether `l` is the constant-true or constant-false literal.
    fn known(&self, l: Lit) -> Option<bool> {
        let t = self.const_true?;
        if l == t {
            Some(true)
        } else if l == !t {
            Some(false)
        } else {
            None
        }
    }

    /// `out <-> a AND b`.
    pub fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.known(a), self.known(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) | (_, Some(false)) => return self.false_lit(),
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        let out = Lit::pos(self.new_var());
        self.add_clause(&[!out, a]);
        self.add_clause(&[!out, b]);
        self.add_clause(&[out, !a, !b]);
        out
    }

    /// `out <-> a OR b`.
    pub fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and_gate(!a, !b)
    }

    /// `out <-> a XOR b`.
    pub fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.known(a), self.known(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return !b,
            (_, Some(true)) => return !a,
            _ => {}
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit();
        }
        let out = Lit::pos(self.new_var());
        self.add_clause(&[!out, a, b]);
        self.add_clause(&[!out, !a, !b]);
        self.add_clause(&[out, !a, b]);
        self.add_clause(&[out, a, !b]);
        out
    }

    /// `out <-> (c ? t : e)`.
    pub fn ite_gate(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        match self.known(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        match (self.known(t), self.known(e)) {
            (Some(true), Some(false)) => return c,
            (Some(false), Some(true)) => return !c,
            (Some(true), None) => return self.or_gate(c, e),
            (Some(false), None) => {
                let nc = !c;
                return self.and_gate(nc, e);
            }
            (None, Some(true)) => {
                let nc = !c;
                return self.or_gate(nc, t);
            }
            (None, Some(false)) => return self.and_gate(c, t),
            _ => {}
        }
        let out = Lit::pos(self.new_var());
        self.add_clause(&[!out, !c, t]);
        self.add_clause(&[!out, c, e]);
        self.add_clause(&[out, !c, !t]);
        self.add_clause(&[out, c, !e]);
        out
    }

    /// `out <-> (a <-> b)`.
    pub fn iff_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor_gate(a, b)
    }

    /// Full adder: returns `(sum, carry_out)` for `a + b + cin`.
    pub fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let ab = self.xor_gate(a, b);
        let sum = self.xor_gate(ab, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(ab, cin);
        let cout = self.or_gate(c1, c2);
        (sum, cout)
    }

    /// Evaluates the formula under a full assignment (for tests).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().0 as usize] == l.is_pos())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(3);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(p.to_string(), "x3");
        assert_eq!(n.to_string(), "!x3");
    }

    fn exhaustive_gate(
        build: impl Fn(&mut Cnf, Lit, Lit) -> Lit,
        truth: impl Fn(bool, bool) -> bool,
    ) {
        for a_val in [false, true] {
            for b_val in [false, true] {
                let mut cnf = Cnf::new();
                let a = Lit::pos(cnf.new_var());
                let b = Lit::pos(cnf.new_var());
                let out = build(&mut cnf, a, b);
                // Force inputs, then check that out's forced value matches.
                cnf.add_clause(&[if a_val { a } else { !a }]);
                cnf.add_clause(&[if b_val { b } else { !b }]);
                cnf.add_clause(&[if truth(a_val, b_val) { out } else { !out }]);
                let sat = crate::sat::solve_for_tests(&cnf);
                assert!(sat, "gate disagrees at ({a_val},{b_val})");
                let mut cnf2 = Cnf::new();
                let a2 = Lit::pos(cnf2.new_var());
                let b2 = Lit::pos(cnf2.new_var());
                let out2 = build(&mut cnf2, a2, b2);
                cnf2.add_clause(&[if a_val { a2 } else { !a2 }]);
                cnf2.add_clause(&[if b_val { b2 } else { !b2 }]);
                cnf2.add_clause(&[if truth(a_val, b_val) { !out2 } else { out2 }]);
                assert!(
                    !crate::sat::solve_for_tests(&cnf2),
                    "gate output not forced at ({a_val},{b_val})"
                );
            }
        }
    }

    #[test]
    fn and_gate_truth_table() {
        exhaustive_gate(|c, a, b| c.and_gate(a, b), |x, y| x && y);
    }

    #[test]
    fn or_gate_truth_table() {
        exhaustive_gate(|c, a, b| c.or_gate(a, b), |x, y| x || y);
    }

    #[test]
    fn xor_gate_truth_table() {
        exhaustive_gate(|c, a, b| c.xor_gate(a, b), |x, y| x ^ y);
    }

    #[test]
    fn ite_gate_truth_table() {
        for c_val in [false, true] {
            for t_val in [false, true] {
                for e_val in [false, true] {
                    let mut cnf = Cnf::new();
                    let c = Lit::pos(cnf.new_var());
                    let t = Lit::pos(cnf.new_var());
                    let e = Lit::pos(cnf.new_var());
                    let out = cnf.ite_gate(c, t, e);
                    for (l, v) in [(c, c_val), (t, t_val), (e, e_val)] {
                        cnf.add_clause(&[if v { l } else { !l }]);
                    }
                    let expect = if c_val { t_val } else { e_val };
                    cnf.add_clause(&[if expect { !out } else { out }]);
                    assert!(!crate::sat::solve_for_tests(&cnf));
                }
            }
        }
    }

    #[test]
    fn full_adder_counts() {
        for a_val in [false, true] {
            for b_val in [false, true] {
                for c_val in [false, true] {
                    let mut cnf = Cnf::new();
                    let a = Lit::pos(cnf.new_var());
                    let b = Lit::pos(cnf.new_var());
                    let c = Lit::pos(cnf.new_var());
                    let (s, co) = cnf.full_adder(a, b, c);
                    for (l, v) in [(a, a_val), (b, b_val), (c, c_val)] {
                        cnf.add_clause(&[if v { l } else { !l }]);
                    }
                    let total = u8::from(a_val) + u8::from(b_val) + u8::from(c_val);
                    cnf.add_clause(&[if total & 1 == 1 { s } else { !s }]);
                    cnf.add_clause(&[if total >= 2 { co } else { !co }]);
                    assert!(crate::sat::solve_for_tests(&cnf));
                }
            }
        }
    }

    #[test]
    fn eval_checks_assignments() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause(&[Lit::neg(a)]);
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, false]));
    }
}
