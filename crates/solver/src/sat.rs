//! A CDCL SAT solver: two-watched literals, VSIDS decisions, phase saving,
//! first-UIP clause learning, and Luby restarts.
//!
//! The solver runs under a deterministic *conflict budget*; exhausting it
//! returns [`SatOutcome::Unknown`], which the ER layer interprets as a
//! solver stall (the paper's 30-second timeout, made reproducible).

use crate::cnf::{Lit, Var};

/// Result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable, with a full assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer — a stall.
    Unknown,
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    Undef,
    True,
    False,
}

/// A binary max-heap over variables ordered by VSIDS activity.
#[derive(Debug, Default, Clone)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<i32>, // position in heap, -1 if absent
}

impl VarHeap {
    fn less(activity: &[f64], a: Var, b: Var) -> bool {
        activity[a.0 as usize] > activity[b.0 as usize]
    }

    fn sift_up(&mut self, activity: &[f64], mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(activity, self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, activity: &[f64], mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && Self::less(activity, self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && Self::less(activity, self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].0 as usize] = i as i32;
        self.pos[self.heap[j].0 as usize] = j as i32;
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.len() - 1;
        self.swap(0, last);
        self.heap.pop();
        self.pos[top.0 as usize] = -1;
        if !self.heap.is_empty() {
            self.sift_down(activity, 0);
        }
        Some(top)
    }

    fn insert(&mut self, activity: &[f64], v: Var) {
        if self.pos[v.0 as usize] >= 0 {
            return;
        }
        self.pos[v.0 as usize] = self.heap.len() as i32;
        self.heap.push(v);
        let at = self.heap.len() - 1;
        self.sift_up(activity, at);
    }

    fn update(&mut self, activity: &[f64], v: Var) {
        let p = self.pos[v.0 as usize];
        if p >= 0 {
            self.sift_up(activity, p as usize);
        }
    }
}

/// Where one clause lives in the solver's literal arena.
#[derive(Debug, Clone, Copy)]
struct ClauseRef {
    start: u32,
    len: u32,
}

/// One literal's watch list: `len` clause indices at `buf[start..]`, with
/// room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every literal's watch list in one buffer (MiniSat's pooled watches, Eén
/// & Sörensson, SAT 2003), so growing, cloning and dropping a solver costs
/// two allocations however many literals it has.
///
/// `push` and `swap_remove` leave a list's elements in exactly the order a
/// `Vec` would, so propagation visits clauses in the same order. A full
/// segment moves to the buffer's end at twice its capacity (at least 4),
/// leaving its old slots dead. A segment that has moved from capacity `c`
/// up to `C` has left `c + 2c + ... + C/2 = C - c` slots behind, so dead
/// space stays below the live capacity; [`Watches::rebuild`] reclaims it.
#[derive(Debug, Clone, Default)]
struct Watches {
    buf: Vec<u32>,
    segs: Vec<Segment>,
}

impl Watches {
    /// Grows to `n` lists; new lists are empty.
    fn resize(&mut self, n: usize) {
        self.segs.resize(n, Segment::default());
    }

    fn len(&self, lit: usize) -> usize {
        self.segs[lit].len as usize
    }

    fn get(&self, lit: usize, i: usize) -> u32 {
        let seg = self.segs[lit];
        debug_assert!(i < seg.len as usize);
        self.buf[seg.start as usize + i]
    }

    fn push(&mut self, lit: usize, ci: u32) {
        let mut seg = self.segs[lit];
        if seg.len == seg.cap {
            let start = self.buf.len();
            let cap = (2 * seg.cap).max(4);
            self.buf.resize(start + cap as usize, 0);
            let old = seg.start as usize;
            self.buf.copy_within(old..old + seg.len as usize, start);
            seg.start = start as u32;
            seg.cap = cap;
        }
        self.buf[(seg.start + seg.len) as usize] = ci;
        seg.len += 1;
        self.segs[lit] = seg;
    }

    /// Removes element `i`, moving the last element into its place.
    fn swap_remove(&mut self, lit: usize, i: usize) {
        let seg = &mut self.segs[lit];
        debug_assert!(i < seg.len as usize);
        seg.len -= 1;
        let start = seg.start as usize;
        self.buf[start + i] = self.buf[start + seg.len as usize];
    }

    /// Replaces every list with the `(literal, clause)` pairs of
    /// `entries`, each list in the order its pairs come. The buffer is
    /// laid out afresh with each segment exactly full, so no dead space is
    /// left.
    fn rebuild<I: Iterator<Item = (usize, u32)> + Clone>(&mut self, entries: I) {
        for seg in &mut self.segs {
            *seg = Segment::default();
        }
        for (lit, _) in entries.clone() {
            self.segs[lit].cap += 1;
        }
        let mut start = 0;
        for seg in &mut self.segs {
            seg.start = start;
            start += seg.cap;
        }
        self.buf.clear();
        self.buf.resize(start as usize, 0);
        for (lit, ci) in entries {
            let seg = &mut self.segs[lit];
            self.buf[(seg.start + seg.len) as usize] = ci;
            seg.len += 1;
        }
    }
}

/// Databases smaller than this are never swept (see [`SatSolver::release`]).
const SWEEP_MIN_CLAUSES: usize = 1024;

fn lit_value(assign: &[LBool], l: Lit) -> LBool {
    match assign[l.var().0 as usize] {
        LBool::Undef => LBool::Undef,
        assigned => {
            if (assigned == LBool::True) == l.is_pos() {
                LBool::True
            } else {
                LBool::False
            }
        }
    }
}

/// The CDCL solver.
///
/// The solver is built for *incremental* use: start from
/// [`SatSolver::new`], grow the variable space with
/// [`SatSolver::ensure_vars`], feed clauses with [`SatSolver::push_clause`],
/// and call [`SatSolver::solve`] as often as needed. Clauses learned in
/// earlier calls are implied by the clause database and therefore remain
/// sound for every later call, as long as the problem only ever *gains*
/// clauses (the monotone-prefix discipline the incremental ER solver
/// follows).
///
/// Temporary constraints use MiniSat-style activation literals: add each
/// temporary clause as `!act ∨ clause` for a fresh variable `act`, call
/// [`SatSolver::solve_assuming`] with `act`, then [`SatSolver::release`]
/// it. Clauses learned meanwhile that depend on the temporary clauses
/// carry `!act`, so releasing `act` disables all of them at once.
///
/// Clauses live in one literal arena addressed by `(start, len)` refs, and
/// watch lists in one buffer of segments (`Watches`), so adding a clause
/// costs no allocation of its own and a clone copies a fixed number of
/// vectors.
#[derive(Debug, Clone)]
pub struct SatSolver {
    n_vars: usize,
    /// Literals of every clause, problem and learned, back to back.
    arena: Vec<Lit>,
    clauses: Vec<ClauseRef>,
    watches: Watches,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<i32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SatStats,
    /// Scratch for clause normalization in `add_clause`.
    add_buf: Vec<Lit>,
    /// Scratch for the clause `analyze` learns.
    learnt_buf: Vec<Lit>,
    /// Clause count right after the last sweep of satisfied clauses.
    swept_at: usize,
}

impl SatSolver {
    /// A solver with no variables and no clauses.
    pub fn new() -> Self {
        SatSolver {
            n_vars: 0,
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Watches::default(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SatStats::default(),
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
            swept_at: 0,
        }
    }

    /// Grows the variable space to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if n <= self.n_vars {
            return;
        }
        self.watches.resize(2 * n);
        self.assign.resize(n, LBool::Undef);
        self.level.resize(n, 0);
        self.reason.resize(n, -1);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.heap.pos.resize(n, -1);
        for v in self.n_vars..n {
            self.heap.insert(&self.activity, Var(v as u32));
        }
        self.n_vars = n;
    }

    /// Adds a clause incrementally. The search is first backtracked to
    /// level 0 so clause normalization only sees root-level assignments.
    /// Variables must already exist (see [`SatSolver::ensure_vars`]).
    pub fn push_clause(&mut self, lits: &[Lit]) {
        self.backtrack(0);
        if self.ok {
            self.add_clause(lits);
        }
    }

    /// Permanently disables activation literal `act`: asserts `!act` at the
    /// root, which satisfies every clause guarded by it and every clause
    /// learned from those. Once the database has doubled since the last
    /// sweep, satisfied clauses are swept out so disabled ones stop costing
    /// propagation work.
    pub fn release(&mut self, act: Lit) {
        self.push_clause(&[!act]);
        if self.ok && self.clauses.len() >= 2 * self.swept_at.max(SWEEP_MIN_CLAUSES) {
            self.sweep();
        }
    }

    /// Total clauses in the database (problem + learned).
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    fn value(&self, l: Lit) -> LBool {
        lit_value(&self.assign, l)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        // Normalize in scratch space: drop duplicates and literals false at
        // level 0; a tautology or a literal true at level 0 drops the clause.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                satisfied = true; // tautology: l and !l both present
                break;
            }
            match self.value(l) {
                LBool::True => {
                    satisfied = true; // already satisfied at level 0
                    break;
                }
                LBool::False if self.level[l.var().0 as usize] == 0 => {}
                _ => {
                    c[kept] = l;
                    kept += 1;
                }
            }
        }
        if !satisfied {
            c.truncate(kept);
            match c.len() {
                0 => self.ok = false,
                1 => {
                    // Unit clause: assert at level 0 and propagate immediately.
                    self.ok &= self.enqueue(c[0], -1) && self.propagate().is_none();
                }
                _ => {
                    self.attach(&c);
                }
            }
        }
        self.add_buf = c;
    }

    /// Stores a clause of at least two literals, watching the first two.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.clauses.push(ClauseRef {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
        });
        self.arena.extend_from_slice(lits);
        self.watches.push((!lits[0]).index(), idx);
        self.watches.push((!lits[1]).index(), idx);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: i32) -> bool {
        match self.value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = l.var().0 as usize;
                self.assign[v] = if l.is_pos() {
                    LBool::True
                } else {
                    LBool::False
                };
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.phase[v] = l.is_pos();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching !p (p just became true, so !p became false).
            let mut i = 0;
            let watch_idx = p.index();
            let false_lit = !p;
            'clauses: while i < self.watches.len(watch_idx) {
                let ci = self.watches.get(watch_idx, i);
                let cr = self.clauses[ci as usize];
                let clause =
                    &mut self.arena[cr.start as usize..cr.start as usize + cr.len as usize];
                // Ensure the false literal is at position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                if lit_value(&self.assign, first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                for k in 2..clause.len() {
                    if lit_value(&self.assign, clause[k]) != LBool::False {
                        clause.swap(1, k);
                        let new_watch = !clause[1];
                        self.watches.swap_remove(watch_idx, i);
                        self.watches.push(new_watch.index(), ci);
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, ci as i32) {
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(&self.activity, v);
    }

    /// First-UIP conflict analysis: fills `learned` (asserting literal
    /// first, a highest-level literal second) and returns the backjump
    /// level.
    fn analyze(&mut self, conflict: u32, learned: &mut Vec<Lit>) -> u32 {
        learned.clear();
        learned.push(Lit(0)); // slot 0 for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause_idx = conflict as i32;
        let cur_level = self.trail_lim.len() as u32;

        loop {
            debug_assert!(clause_idx >= 0, "reason must exist during analysis");
            let cr = self.clauses[clause_idx as usize];
            let start = cr.start as usize + usize::from(p.is_some());
            for k in start..cr.start as usize + cr.len as usize {
                let q = self.arena[k];
                let v = q.var();
                let vi = v.0 as usize;
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump(v);
                    if self.level[vi] >= cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next trail literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().0 as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause_idx = self.reason[lit.var().0 as usize];
        }
        learned[0] = !p.expect("UIP found");
        for &l in &learned[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        let backjump = learned[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Put a highest-backjump-level literal at slot 1 for watching.
        if learned.len() > 1 {
            let (mi, _) = learned[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var().0 as usize])
                .expect("nonempty");
            learned.swap(1, mi + 1);
        }
        backjump
    }

    fn backtrack(&mut self, to_level: u32) {
        if (self.trail_lim.len() as u32) <= to_level {
            return;
        }
        let bound = self.trail_lim[to_level as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail nonempty");
            let v = l.var().0 as usize;
            self.assign[v] = LBool::Undef;
            self.reason[v] = -1;
            self.heap.insert(&self.activity, l.var());
        }
        self.trail_lim.truncate(to_level as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v.0 as usize] == LBool::Undef {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = Lit::new(v, self.phase[v.0 as usize]);
                let ok = self.enqueue(lit, -1);
                debug_assert!(ok);
                return true;
            }
        }
        false
    }

    /// Drops every clause satisfied at the root level and rebuilds the
    /// watch lists over the compacted arena, in clause order. Only called at level 0 with
    /// propagation complete, where each surviving clause's two watched
    /// literals are unassigned.
    fn sweep(&mut self) {
        debug_assert!(self.trail_lim.is_empty() && self.qhead == self.trail.len());
        let mut kept = 0;
        let mut end = 0;
        for i in 0..self.clauses.len() {
            let cr = self.clauses[i];
            let range = cr.start as usize..cr.start as usize + cr.len as usize;
            if self.arena[range.clone()]
                .iter()
                .any(|&l| lit_value(&self.assign, l) == LBool::True)
            {
                continue;
            }
            self.arena.copy_within(range, end);
            self.clauses[kept] = ClauseRef {
                start: end as u32,
                len: cr.len,
            };
            kept += 1;
            end += cr.len as usize;
        }
        self.arena.truncate(end);
        self.clauses.truncate(kept);
        let (arena, assign) = (&self.arena, &self.assign);
        self.watches
            .rebuild(self.clauses.iter().enumerate().flat_map(|(i, cr)| {
                let s = cr.start as usize;
                debug_assert!(lit_value(assign, arena[s]) == LBool::Undef);
                debug_assert!(lit_value(assign, arena[s + 1]) == LBool::Undef);
                [(!arena[s]).index(), (!arena[s + 1]).index()].map(|w| (w, i as u32))
            }));
        // Sweeping renumbers clauses. Root-level reasons are never read by
        // conflict analysis, so clearing them keeps every stored index valid.
        for &l in &self.trail {
            self.reason[l.var().0 as usize] = -1;
        }
        self.swept_at = kept;
    }

    /// Runs the search with at most `max_conflicts` conflicts.
    pub fn solve(&mut self, max_conflicts: u64) -> SatOutcome {
        self.solve_assuming(&[], max_conflicts)
    }

    /// Runs the search with `assumptions` forced true, with at most
    /// `max_conflicts` conflicts. Each assumption is decided first, on its
    /// own decision level, so [`SatOutcome::Unsat`] here means
    /// unsatisfiable *under the assumptions*: the solver stays usable and
    /// keeps only clauses implied by its database.
    pub fn solve_assuming(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SatOutcome {
        let before = self.stats;
        let outcome = self.solve_inner(assumptions, max_conflicts);
        if er_telemetry::enabled() {
            // Batch the per-search deltas so the search loop itself stays
            // free of instrumentation.
            er_telemetry::counter!("sat.conflicts").add(self.stats.conflicts - before.conflicts);
            er_telemetry::counter!("sat.decisions").add(self.stats.decisions - before.decisions);
            er_telemetry::counter!("sat.propagations")
                .add(self.stats.propagations - before.propagations);
            er_telemetry::counter!("sat.restarts").add(self.stats.restarts - before.restarts);
            er_telemetry::counter!("sat.learned").add(self.stats.learned - before.learned);
        }
        outcome
    }

    fn solve_inner(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        // Incremental re-entry: restart the search from the root level so
        // clauses added since the last call take effect everywhere.
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false; // root-level conflict: permanently unsat
            return SatOutcome::Unsat;
        }
        // The conflict budget is per *call*: a persistent solver re-solved
        // after new clauses arrive gets the same allowance a fresh solver
        // would, keeping stall behavior comparable between the two modes.
        let budget_end = self.stats.conflicts.saturating_add(max_conflicts);
        let mut restart_idx = 0u32;
        let mut conflicts_until_restart = luby(restart_idx) * 128;
        let mut learned = std::mem::take(&mut self.learnt_buf);
        let outcome = loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.stats.conflicts > budget_end {
                    break SatOutcome::Unknown;
                }
                // One conflict = one unit of supervised solve work; a
                // tripped watchdog token looks like an early budget
                // exhaustion and unwinds through the same path.
                if crate::cancel::tick(1) {
                    break SatOutcome::Unknown;
                }
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    break SatOutcome::Unsat;
                }
                let backjump = self.analyze(conflict, &mut learned);
                self.backtrack(backjump);
                self.stats.learned += 1;
                if learned.len() == 1 {
                    if !self.enqueue(learned[0], -1) {
                        self.ok = false;
                        break SatOutcome::Unsat;
                    }
                } else {
                    let idx = self.attach(&learned);
                    let ok = self.enqueue(learned[0], idx as i32);
                    debug_assert!(ok);
                }
                self.var_inc /= 0.95;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = luby(restart_idx) * 128;
                    self.backtrack(0);
                }
            } else if let Some(&a) = assumptions.get(self.trail_lim.len()) {
                // Assumptions come first, one decision level each; an
                // already-true one still opens its (empty) level so levels
                // and assumption indices stay aligned.
                match self.value(a) {
                    LBool::False => break SatOutcome::Unsat,
                    LBool::True => self.trail_lim.push(self.trail.len()),
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, -1);
                        debug_assert!(ok);
                    }
                }
            } else if !self.decide() {
                let model = self.assign.iter().map(|&a| a == LBool::True).collect();
                break SatOutcome::Sat(model);
            }
        };
        self.learnt_buf = learned;
        outcome
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.n_vars
    }
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < u64::from(i) + 2 {
        k += 1;
    }
    let mut size = (1u64 << k) - 1;
    let mut idx = u64::from(i);
    while size > 1 {
        let half = size / 2;
        if idx == size - 1 {
            return size.div_ceil(2);
        }
        if idx >= half {
            idx -= half;
        }
        size = half;
    }
    1
}

/// A solver loaded with `cnf`'s pending clauses (for unit tests across the
/// crate).
#[cfg(test)]
pub(crate) fn load(cnf: &crate::cnf::Cnf) -> SatSolver {
    let mut s = SatSolver::new();
    s.ensure_vars(cnf.var_count() as usize);
    for clause in cnf.pending() {
        s.push_clause(clause);
    }
    s
}

/// Solves `cnf`'s pending clauses with a large budget, checks any model
/// against them, and returns satisfiability.
///
/// # Panics
///
/// Panics if the budget is exhausted (tests are expected to be tiny) or
/// the model violates a clause.
#[cfg(test)]
pub(crate) fn solve_for_tests(cnf: &crate::cnf::Cnf) -> bool {
    match load(cnf).solve(1_000_000) {
        SatOutcome::Sat(m) => {
            assert!(
                cnf.pending().all(|c| satisfies(&m, c)),
                "model must satisfy the formula"
            );
            true
        }
        SatOutcome::Unsat => false,
        SatOutcome::Unknown => panic!("test formula exhausted budget"),
    }
}

/// Whether `assignment` satisfies `clause`.
#[cfg(test)]
fn satisfies(assignment: &[bool], clause: &[Lit]) -> bool {
    clause
        .iter()
        .any(|l| assignment[l.var().0 as usize] == l.is_pos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use proptest::prelude::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var(v), pos)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause(&[Lit::pos(a)]);
        assert!(solve_for_tests(&cnf));
        cnf.add_clause(&[Lit::neg(a)]);
        assert!(!solve_for_tests(&cnf));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause(&[]);
        assert!(!solve_for_tests(&cnf));
    }

    #[test]
    fn chain_of_implications() {
        // x0 & (x0 -> x1) & ... & (x98 -> x99) & !x99 : unsat
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..100).map(|_| cnf.new_var()).collect();
        cnf.add_clause(&[Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            cnf.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert!(solve_for_tests(&cnf));
        cnf.add_clause(&[Lit::neg(vars[99])]);
        assert!(!solve_for_tests(&cnf));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p(i,j): pigeon i in hole j; 3 pigeons, 2 holes.
        let mut cnf = Cnf::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = cnf.new_var();
            }
        }
        for row in &p {
            cnf.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        // At most one pigeon per hole: iterate column-wise over the grid.
        for hole in 0..2 {
            let column: Vec<Var> = p.iter().map(|row| row[hole]).collect();
            for i1 in 0..column.len() {
                for i2 in (i1 + 1)..column.len() {
                    cnf.add_clause(&[Lit::neg(column[i1]), Lit::neg(column[i2])]);
                }
            }
        }
        assert!(!solve_for_tests(&cnf));
    }

    #[test]
    fn random_3sat_instances_agree_with_bruteforce() {
        let mut seed = 0x1234_5678_u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let n_vars = 8;
            let n_clauses = 3 + (rand() % 30) as usize;
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| cnf.new_var()).collect();
            for _ in 0..n_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vars[(rand() % n_vars as u64) as usize];
                    c.push(Lit::new(v, rand() % 2 == 0));
                }
                cnf.add_clause(&c);
            }
            let brute = (0..(1u32 << n_vars)).any(|bits| {
                let assignment: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
                cnf.pending().all(|c| satisfies(&assignment, c))
            });
            assert_eq!(solve_for_tests(&cnf), brute);
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A hard-ish pigeonhole instance with a budget of 1 conflict.
        let mut cnf = Cnf::new();
        let n = 6; // 6 pigeons, 5 holes
        let holes = 5;
        let mut p = vec![vec![Var(0); holes]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = cnf.new_var();
            }
        }
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            cnf.add_clause(&c);
        }
        for hole in 0..holes {
            let column: Vec<Var> = p.iter().map(|row| row[hole]).collect();
            for i1 in 0..column.len() {
                for i2 in (i1 + 1)..column.len() {
                    cnf.add_clause(&[Lit::neg(column[i1]), Lit::neg(column[i2])]);
                }
            }
        }
        let mut s = load(&cnf);
        assert_eq!(s.solve(1), SatOutcome::Unknown);
        // With a big budget it resolves to Unsat.
        let mut s2 = load(&cnf);
        assert_eq!(s2.solve(1_000_000), SatOutcome::Unsat);
        assert!(s2.stats().conflicts > 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    #[test]
    fn incremental_feed_resolves_and_stays_unsat() {
        let mut s = SatSolver::new();
        s.ensure_vars(3);
        s.push_clause(&[lit(0, true), lit(1, true)]);
        s.push_clause(&[lit(0, false), lit(2, true)]);
        assert!(matches!(s.solve(1_000), SatOutcome::Sat(_)));
        // Add more constraints after a solve and re-solve.
        s.ensure_vars(4);
        s.push_clause(&[lit(3, true)]);
        s.push_clause(&[lit(3, false), lit(1, false)]);
        assert!(matches!(s.solve(1_000), SatOutcome::Sat(_)));
        // Force a contradiction; unsat must stick across calls.
        s.push_clause(&[lit(0, false)]);
        s.push_clause(&[lit(0, true), lit(1, true)]);
        s.push_clause(&[lit(1, false)]);
        assert_eq!(s.solve(1_000), SatOutcome::Unsat);
        assert_eq!(s.solve(1_000), SatOutcome::Unsat);
    }

    #[test]
    fn incremental_matches_batch_on_random_instances() {
        let mut seed = 0x9e37_79b9_u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let n_vars = 7usize;
            let n_clauses = 4 + (rand() % 24) as usize;
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..n_vars).map(|_| cnf.new_var()).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..n_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vars[(rand() % n_vars as u64) as usize];
                    c.push(Lit::new(v, rand() % 2 == 0));
                }
                clauses.push(c);
            }
            for c in &clauses {
                cnf.add_clause(c);
            }
            let batch = matches!(load(&cnf).solve(1_000_000), SatOutcome::Sat(_));
            // Feed the same clauses one at a time, solving between batches.
            let mut inc = SatSolver::new();
            inc.ensure_vars(n_vars);
            for (i, c) in clauses.iter().enumerate() {
                inc.push_clause(c);
                if i % 3 == 0 {
                    let _ = inc.solve(1_000_000);
                }
            }
            let incr = matches!(inc.solve(1_000_000), SatOutcome::Sat(_));
            assert_eq!(batch, incr, "incremental disagrees with batch");
        }
    }

    #[test]
    fn cloned_solver_searches_independently() {
        let mut s = SatSolver::new();
        s.ensure_vars(2);
        s.push_clause(&[lit(0, true), lit(1, true)]);
        assert!(matches!(s.solve(1_000), SatOutcome::Sat(_)));
        let mut scratch = s.clone();
        scratch.push_clause(&[lit(0, false)]);
        scratch.push_clause(&[lit(1, false)]);
        assert_eq!(scratch.solve(1_000), SatOutcome::Unsat);
        // The original is unaffected by the clone's extra clauses.
        assert!(matches!(s.solve(1_000), SatOutcome::Sat(_)));
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause(&[Lit::pos(a), Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause(&[Lit::pos(a), Lit::neg(a)]); // tautology
        cnf.add_clause(&[Lit::neg(b)]);
        assert!(solve_for_tests(&cnf));
        let _ = lit(0, true);
    }

    #[test]
    fn assumptions_do_not_stick() {
        let mut s = SatSolver::new();
        s.ensure_vars(2);
        s.push_clause(&[lit(0, true), lit(1, true)]);
        assert_eq!(
            s.solve_assuming(&[lit(0, false), lit(1, false)], 1_000),
            SatOutcome::Unsat
        );
        let SatOutcome::Sat(m) = s.solve_assuming(&[lit(0, false)], 1_000) else {
            panic!("x1 can carry the clause");
        };
        assert!(!m[0] && m[1]);
        assert!(matches!(s.solve(1_000), SatOutcome::Sat(_)));
    }

    #[test]
    fn released_activation_literal_disables_guarded_clauses() {
        let mut s = SatSolver::new();
        s.ensure_vars(3);
        let act = lit(2, true);
        s.push_clause(&[lit(0, true)]);
        s.push_clause(&[!act, lit(0, false), lit(1, true)]);
        s.push_clause(&[!act, lit(1, false)]);
        assert_eq!(s.solve_assuming(&[act], 1_000), SatOutcome::Unsat);
        s.release(act);
        let SatOutcome::Sat(m) = s.solve(1_000) else {
            panic!("guarded clauses are gone");
        };
        assert!(m[0] && !m[2]);
    }

    #[test]
    fn sweep_drops_released_clauses_and_keeps_answers() {
        // A chain x0 -> x1 -> ... -> x(n-1) plus a guarded copy of it; the
        // release doubles the database past the sweep threshold.
        let n = SWEEP_MIN_CLAUSES + 8;
        let mut s = SatSolver::new();
        s.ensure_vars(n + 1);
        let act = lit(n as u32, true);
        for v in 0..n as u32 - 1 {
            s.push_clause(&[lit(v, false), lit(v + 1, true)]);
        }
        for v in 0..n as u32 - 1 {
            s.push_clause(&[!act, lit(v, false), lit(v + 1, true)]);
        }
        s.push_clause(&[!act, lit(0, true)]);
        s.push_clause(&[!act, lit(n as u32 - 1, false)]);
        assert_eq!(s.solve_assuming(&[act], 100_000), SatOutcome::Unsat);
        let before = s.clause_count();
        s.release(act);
        assert!(s.clause_count() < before, "satisfied clauses swept");
        assert_eq!(s.clause_count(), n - 1);
        s.push_clause(&[lit(0, true)]);
        let SatOutcome::Sat(m) = s.solve(100_000) else {
            panic!("the unguarded chain is satisfiable");
        };
        assert!(m[..n].iter().all(|&b| b));
        s.push_clause(&[lit(n as u32 - 1, false)]);
        assert_eq!(s.solve(100_000), SatOutcome::Unsat);
    }

    #[test]
    fn clone_after_sweep_answers_like_the_original() {
        // Feed, search under a guard, release the guard (sweeping the
        // guarded clauses out), then clone: both must answer a run of
        // assumption searches with the same outcomes, models and stats.
        let mut seed = 0x5eed_cafe_u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let vars = 600;
        let mut s = SatSolver::new();
        s.ensure_vars(vars as usize + 1);
        for _ in 0..1_500 {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit((rand() % u64::from(vars)) as u32, rand() % 2 == 0))
                .collect();
            s.push_clause(&c);
        }
        let act = lit(vars, true);
        for _ in 0..700 {
            let c = [
                !act,
                lit((rand() % u64::from(vars)) as u32, rand() % 2 == 0),
                lit((rand() % u64::from(vars)) as u32, rand() % 2 == 0),
            ];
            s.push_clause(&c);
        }
        assert!(matches!(
            s.solve_assuming(&[act], 100_000),
            SatOutcome::Sat(_) | SatOutcome::Unsat
        ));
        let before = s.clause_count();
        s.release(act);
        assert!(s.clause_count() < before, "the release swept");
        let mut twin = s.clone();
        let mut outcomes = [0; 2];
        for _ in 0..40 {
            let assumptions: Vec<Lit> = (0..4)
                .map(|_| lit((rand() % u64::from(vars)) as u32, rand() % 2 == 0))
                .collect();
            let a = s.solve_assuming(&assumptions, 100_000);
            let b = twin.solve_assuming(&assumptions, 100_000);
            assert_eq!(a, b);
            assert_eq!(s.stats(), twin.stats());
            outcomes[usize::from(matches!(a, SatOutcome::Sat(_)))] += 1;
        }
        assert!(
            outcomes[1] > 0,
            "some searches are satisfiable: {outcomes:?}"
        );
    }

    /// Every list of `w`, in order.
    fn lists(w: &Watches) -> Vec<Vec<u32>> {
        (0..w.segs.len())
            .map(|l| (0..w.len(l)).map(|i| w.get(l, i)).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pushes, swap-removes and sweeps (a sweep keeps some
        /// entries and lays them out again in clause order) leave every
        /// list as a `Vec` would, with dead space below live capacity.
        #[test]
        fn watch_buffer_keeps_vec_order(
            steps in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..400),
        ) {
            const LITS: usize = 12;
            let mut w = Watches::default();
            w.resize(LITS);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); LITS];
            for &(kind, at, x) in &steps {
                let l = usize::from(at) % LITS;
                match kind % 8 {
                    0..=4 => {
                        w.push(l, u32::from(x));
                        model[l].push(u32::from(x));
                    }
                    5 | 6 => {
                        if !model[l].is_empty() {
                            let i = usize::from(x) % model[l].len();
                            w.swap_remove(l, i);
                            model[l].swap_remove(i);
                        }
                    }
                    _ => {
                        let mut kept: Vec<(usize, u32)> = model
                            .iter()
                            .enumerate()
                            .flat_map(|(l, list)| list.iter().map(move |&c| (l, c)))
                            .filter(|&(_, c)| (c ^ u32::from(x)) % 3 != 0)
                            .collect();
                        kept.sort_by_key(|&(_, c)| c);
                        w.rebuild(kept.iter().copied());
                        for list in &mut model {
                            list.clear();
                        }
                        for &(l, c) in &kept {
                            model[l].push(c);
                        }
                        prop_assert_eq!(w.buf.len(), kept.len(), "a rebuild leaves no dead space");
                    }
                }
                prop_assert_eq!(&lists(&w), &model);
                let live: usize = w.segs.iter().map(|s| s.cap as usize).sum();
                let dead = w.buf.len() - live;
                prop_assert!(dead == 0 || dead < live, "dead {} vs live capacity {}", dead, live);
            }
        }
    }
}
