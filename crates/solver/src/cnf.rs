//! CNF representation and Tseitin gate helpers.

use crate::hash::FxHashMap;
use std::collections::hash_map::Entry;
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
    n_fresh_gates: usize,
    const_true: Option<Lit>,
}

/// A gate's normalized input literals, the key it is shared under.
///
/// Folding has already returned every gate with a repeated input, so the
/// three kinds cannot collide: an ITE `(c, t, e)` has `t != e`, an AND of
/// `a < b` is `(a, b, b)`, and an XOR of positive `p > q` is `(p, q, q)`.
type GateKey = (u32, u32, u32);

/// A CNF formula under construction, with Tseitin helpers.
///
/// The formula is not its clauses' permanent home: it holds only the
/// *pending* clauses, those added since the last [`Cnf::drain`], which
/// hands them to their consumer (the persistent SAT solver) and forgets
/// them. Variable numbers and [`Cnf::clause_count`] stay cumulative over
/// every clause ever added.
///
/// Pending clauses are stored flat: every literal back to back in one
/// vector, plus the end offset of each clause, so adding a clause never
/// allocates on its own. An empty clause means trivially unsatisfiable.
///
/// Gates are hash-consed: a second AND, XOR or ITE over the same
/// normalized inputs returns the first one's output and adds no clause.
/// An entry lives exactly as long as its defining clauses: one added
/// since a [`Cnf::mark`] leaves the table at the matching
/// [`Cnf::rollback`], and a drained one stays for the formula's life.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    n_vars: u32,
    /// Clauses handed off by [`Cnf::drain`].
    drained: usize,
    lits: Vec<Lit>,
    /// `ends[i]` is one past the last literal of pending clause `i` in
    /// `lits`.
    ends: Vec<usize>,
    const_true: Option<Lit>,
    /// Every gate's output literal, by its normalized inputs.
    gates: FxHashMap<GateKey, Lit>,
    /// Keys of the gates added since the last drain, oldest first: the
    /// entries a rollback may have to take out again.
    fresh_gates: Vec<GateKey>,
    /// Gate requests answered from the table since the last
    /// [`Cnf::take_gates_shared`].
    gates_shared: u64,
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

    /// Number of clauses ever added (drained or pending), less those
    /// rolled back.
    pub fn clause_count(&self) -> usize {
        self.drained + self.ends.len()
    }

    /// The pending clauses, in insertion order.
    pub fn pending(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end];
            start = end;
            clause
        })
    }

    /// Hands every pending clause to `push`, in insertion order, and
    /// forgets them. They still count in [`Cnf::clause_count`].
    pub fn drain(&mut self, mut push: impl FnMut(&[Lit])) {
        for clause in self.pending() {
            push(clause);
        }
        self.drained += self.ends.len();
        self.lits.clear();
        self.ends.clear();
        self.fresh_gates.clear();
    }

    /// Adds a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.lits.extend_from_slice(lits);
        self.ends.push(self.lits.len());
    }

    /// Captures the current formula extent for a later [`Cnf::rollback`].
    pub fn mark(&self) -> CnfMark {
        CnfMark {
            n_clauses: self.clause_count(),
            n_fresh_gates: self.fresh_gates.len(),
            const_true: self.const_true,
        }
    }

    /// Discards every clause added since `mark` was taken. Clauses drained
    /// since then cannot be taken back, so the mark must not predate the
    /// last [`Cnf::drain`].
    ///
    /// Used by the incremental solver to scope assumption-only lowering:
    /// nothing added after the mark may be referenced by clauses before it
    /// (Tseitin outputs are only consumed by later clauses), so truncation
    /// restores exactly the pre-mark formula. Variables allocated since the
    /// mark stay allocated and their numbers are never handed out again: a
    /// persistent SAT solver may still hold (disabled) clauses over them.
    /// Gates defined since the mark leave the table with their clauses, so
    /// a later request builds them afresh.
    pub fn rollback(&mut self, mark: &CnfMark) {
        debug_assert!(self.drained <= mark.n_clauses && mark.n_clauses <= self.clause_count());
        self.ends.truncate(mark.n_clauses - self.drained);
        self.lits.truncate(self.ends.last().copied().unwrap_or(0));
        self.const_true = mark.const_true;
        for key in self.fresh_gates.drain(mark.n_fresh_gates..) {
            self.gates.remove(&key);
        }
    }

    /// Gate requests answered by an existing gate since the last call.
    pub(crate) fn take_gates_shared(&mut self) -> u64 {
        std::mem::take(&mut self.gates_shared)
    }

    /// The output literal of the gate keyed `key`, negated if `flip` is 1:
    /// `Ok` with the existing gate's, or `Err` with a fresh variable's,
    /// now entered under `key`, for the caller to define by its clauses.
    fn gate(&mut self, key: GateKey, flip: u32) -> Result<Lit, Lit> {
        match self.gates.entry(key) {
            Entry::Occupied(e) => {
                self.gates_shared += 1;
                Ok(Lit(e.get().0 ^ flip))
            }
            Entry::Vacant(e) => {
                let out = Lit::pos(Var(self.n_vars));
                self.n_vars += 1;
                e.insert(Lit(out.0 ^ flip));
                self.fresh_gates.push(key);
                Err(out)
            }
        }
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
    pub(crate) fn known(&self, l: Lit) -> Option<bool> {
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
        let key = (a.0.min(b.0), a.0.max(b.0), a.0.max(b.0));
        let out = match self.gate(key, 0) {
            Ok(shared) => return shared,
            Err(out) => out,
        };
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
        // Keyed on the positive inputs: each negated input flips the output.
        let (p, q) = (a.0 & !1, b.0 & !1);
        let flip = (a.0 ^ b.0) & 1;
        let key = (p.max(q), p.min(q), p.min(q));
        let out = match self.gate(key, flip) {
            Ok(shared) => return shared,
            Err(out) => out,
        };
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
        // A negated condition swaps the branches.
        let key = if c.is_pos() {
            (c.0, t.0, e.0)
        } else {
            ((!c).0, e.0, t.0)
        };
        let out = match self.gate(key, 0) {
            Ok(shared) => return shared,
            Err(out) => out,
        };
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

    /// A formula with `n` free input variables.
    fn inputs<const N: usize>() -> (Cnf, [Lit; N]) {
        let mut cnf = Cnf::new();
        let lits = [(); N].map(|()| Lit::pos(cnf.new_var()));
        (cnf, lits)
    }

    #[test]
    fn repeated_and_gate_is_shared_in_either_order() {
        let (mut cnf, [a, b]) = inputs();
        let out = cnf.and_gate(a, b);
        let (vars, clauses) = (cnf.var_count(), cnf.clause_count());
        assert_eq!(cnf.and_gate(a, b), out);
        assert_eq!(cnf.and_gate(b, a), out);
        assert_eq!(cnf.or_gate(!a, !b), !out, "an OR is a negated AND");
        assert_eq!((cnf.var_count(), cnf.clause_count()), (vars, clauses));
        assert_eq!(cnf.take_gates_shared(), 3);
        assert_eq!(cnf.take_gates_shared(), 0);
        assert_ne!(cnf.and_gate(!a, b), out, "other polarities are other gates");
    }

    #[test]
    fn xor_gate_shares_across_input_negations() {
        let (mut cnf, [a, b]) = inputs();
        let out = cnf.xor_gate(!a, b);
        let clauses = cnf.clause_count();
        assert_eq!(cnf.xor_gate(a, b), !out);
        assert_eq!(cnf.xor_gate(b, !a), out);
        assert_eq!(cnf.xor_gate(!a, !b), !out);
        assert_eq!(cnf.iff_gate(a, b), out);
        assert_eq!(cnf.clause_count(), clauses);
        assert_eq!(cnf.take_gates_shared(), 4);
    }

    #[test]
    fn ite_gate_with_a_negated_condition_swaps_branches() {
        let (mut cnf, [c, t, e]) = inputs();
        let out = cnf.ite_gate(!c, t, e);
        let clauses = cnf.clause_count();
        assert_eq!(cnf.ite_gate(c, e, t), out);
        assert_eq!(cnf.ite_gate(!c, t, e), out);
        assert_eq!(cnf.clause_count(), clauses);
        assert_ne!(cnf.ite_gate(c, t, e), out);
    }

    #[test]
    fn kinds_never_share_with_each_other() {
        // Same input literals, three kinds: three gates.
        let (mut cnf, [a, b]) = inputs();
        let and = cnf.and_gate(a, b);
        let xor = cnf.xor_gate(a, b);
        let ite = cnf.ite_gate(a, b, !b);
        let outs = [and, xor, ite].map(Lit::var);
        assert!(outs[0] != outs[1] && outs[1] != outs[2] && outs[0] != outs[2]);
        assert_eq!(cnf.take_gates_shared(), 0);
    }

    #[test]
    fn a_rolled_back_gate_is_built_afresh() {
        let (mut cnf, [a, b, c]) = inputs();
        let kept = cnf.and_gate(a, b);
        let mark = cnf.mark();
        let gone = cnf.xor_gate(b, c);
        assert_eq!(cnf.and_gate(b, a), kept, "a scope shares pre-mark gates");
        let vars = cnf.var_count();
        cnf.rollback(&mark);
        let clauses = cnf.clause_count();
        let again = cnf.xor_gate(b, c);
        assert_ne!(again.var(), gone.var(), "not the truncated literal");
        assert_eq!(again.var().0, vars, "a fresh variable");
        assert_eq!(cnf.clause_count(), clauses + 4, "with its clauses");
        assert_eq!(cnf.and_gate(a, b), kept, "pre-mark gates survive");
    }

    #[test]
    fn drained_gates_stay_shared() {
        let (mut cnf, [a, b]) = inputs();
        let out = cnf.and_gate(a, b);
        cnf.drain(|_| {});
        let mark = cnf.mark();
        cnf.rollback(&mark);
        assert_eq!(cnf.and_gate(b, a), out);
        assert_eq!(cnf.pending().count(), 0);
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
}
