//! Key data value selection (paper §3.3.2): from the bottleneck set to a
//! minimal-cost recording set.
//!
//! Each candidate value `E_i` has recording cost
//! `C_i = sizeof(E_i) × Count(E_i)`, where the count is the number of times
//! its defining site executes in the recorded control-flow trace (every
//! execution emits a `ptwrite`). A depth-first search over the constraint
//! graph replaces an element by a cheaper set of descendants whenever the
//! descendants determine it; finally, elements deducible from the rest of
//! the set are dropped (the paper's `V[x]` reduction).

use crate::graph::{children, ConstraintGraph, Deducibility};
use er_minilang::ir::InstrId;
use er_solver::expr::{ExprPool, ExprRef, Node};
use er_symex::{Origins, SiteCounts};
use std::collections::{HashMap, HashSet};

/// One site to instrument with `ptwrite`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingSite {
    /// The instruction whose result value is recorded.
    pub site: InstrId,
    /// Bytes per recorded occurrence.
    pub size_bytes: u64,
    /// Dynamic executions of the site in the analyzed trace.
    pub count: u64,
    /// The expression that motivated recording this site.
    pub expr: ExprRef,
}

impl RecordingSite {
    /// Total bytes this site adds to one failing trace.
    pub fn cost(&self) -> u64 {
        self.size_bytes * self.count
    }
}

/// The chosen set of recording sites.
#[derive(Debug, Clone, Default)]
pub struct RecordingSet {
    /// Sites to instrument.
    pub sites: Vec<RecordingSite>,
}

impl RecordingSet {
    /// Total recording cost in bytes per failing run.
    pub fn total_cost(&self) -> u64 {
        self.sites.iter().map(RecordingSite::cost).sum()
    }

    /// The instruction ids to instrument.
    pub fn site_ids(&self) -> Vec<InstrId> {
        let mut ids: Vec<InstrId> = self.sites.iter().map(|s| s.site).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// Which selection strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// The paper's key data value selection.
    #[default]
    KeyValue,
    /// Random data selection with a matched byte budget (the §5.2
    /// ablation baseline).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Context needed to cost and place recordings.
#[derive(Debug)]
pub struct SelectionInput<'a> {
    /// The expression pool (constraint graph nodes).
    pub pool: &'a ExprPool,
    /// First definition site of each symbolic expression.
    pub origins: &'a Origins,
    /// Dynamic execution count per site.
    pub site_counts: &'a SiteCounts,
}

impl<'a> SelectionInput<'a> {
    fn cost_of(&self, e: ExprRef) -> Option<u64> {
        let site = self.origins.get(&e)?;
        let count = self.site_counts.get(site).copied().unwrap_or(1).max(1);
        let size = u64::from(self.pool.sort(e).bits().div_ceil(8));
        Some(size * count)
    }

    fn site_of(&self, e: ExprRef) -> Option<RecordingSite> {
        let site = *self.origins.get(&e)?;
        let count = self.site_counts.get(&site).copied().unwrap_or(1).max(1);
        let size = u64::from(self.pool.sort(e).bits().div_ceil(8));
        Some(RecordingSite {
            site,
            size_bytes: size,
            count,
            expr: e,
        })
    }
}

/// Runs key data value selection over an analyzed constraint graph.
pub fn select_key_values(graph: &ConstraintGraph, input: &SelectionInput<'_>) -> RecordingSet {
    let elements: Vec<ExprRef> = graph.bottleneck.iter().map(|b| b.expr).collect();
    select_from_elements(&elements, input)
}

/// Runs cost-minimizing selection starting from an explicit element set.
///
/// This also powers the *stall-site fallback* (an extension beyond the
/// paper): when a stall occurs before any write chain exists — e.g. the
/// solver chokes on heavy pure-bitvector arithmetic — the bottleneck set is
/// empty, and ER instead seeds selection with the symbolic values appearing
/// in the path constraints themselves.
pub fn select_from_elements(elements: &[ExprRef], input: &SelectionInput<'_>) -> RecordingSet {
    // Step 1: replace each element by the cheapest recordable determining
    // set found by DFS.
    let mut chosen: Vec<ExprRef> = Vec::new();
    let mut seen: HashSet<ExprRef> = HashSet::new();
    let mut memo: HashMap<ExprRef, (u64, Vec<ExprRef>)> = HashMap::new();
    for &elem in elements {
        let (_, set) = best_cover(input, elem, &mut memo);
        for e in set {
            if seen.insert(e) {
                chosen.push(e);
            }
        }
    }

    // Step 2: drop elements deducible from the rest (paper's V[x] rule).
    // Process most-expensive first so costly redundancies go first.
    chosen.sort_by_key(|&e| std::cmp::Reverse(input.cost_of(e).unwrap_or(0)));
    let mut kept: Vec<ExprRef> = chosen.clone();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept[i];
        let others = kept
            .iter()
            .copied()
            .filter(|&e| e != candidate)
            .collect::<Vec<_>>();
        let mut ded = Deducibility::new(input.pool, others);
        if ded.deducible(candidate) {
            kept.remove(i);
        } else {
            i += 1;
        }
    }

    let mut sites: Vec<RecordingSite> = kept.into_iter().filter_map(|e| input.site_of(e)).collect();
    sites.sort_by_key(|s| (s.site, s.expr));
    sites.dedup_by_key(|s| s.site);
    RecordingSet { sites }
}

/// The cheapest set of recordable expressions determining `e`:
/// `min(record e itself, sum of the cheapest covers of its children)`.
fn best_cover(
    input: &SelectionInput<'_>,
    e: ExprRef,
    memo: &mut HashMap<ExprRef, (u64, Vec<ExprRef>)>,
) -> (u64, Vec<ExprRef>) {
    const INFINITE: u64 = u64::MAX / 4;
    if let Some(hit) = memo.get(&e) {
        return hit.clone();
    }
    if input.pool.as_const(e).is_some() {
        return (0, vec![]);
    }
    // Guard against re-entry (the DAG has no cycles, but memoize early to
    // keep the traversal linear).
    memo.insert(e, (INFINITE, vec![e]));

    let self_cost = input.cost_of(e).unwrap_or(INFINITE);
    let kids = children(input.pool, e);
    let (child_cost, child_set) = if kids.is_empty() {
        (INFINITE, vec![])
    } else {
        let mut total = 0u64;
        let mut set: Vec<ExprRef> = Vec::new();
        let mut seen: HashSet<ExprRef> = HashSet::new();
        for k in kids {
            let (c, s) = best_cover(input, k, memo);
            total = total.saturating_add(c);
            for e2 in s {
                if seen.insert(e2) {
                    set.push(e2);
                }
            }
        }
        (total, set)
    };

    // Ties go to the descendants: recording values closer to the inputs
    // concretizes strictly more downstream state for the same bytes.
    let result = if self_cost < child_cost {
        (self_cost, vec![e])
    } else {
        (child_cost, child_set)
    };
    memo.insert(e, result.clone());
    result
}

/// The §5.2 ablation: records randomly chosen graph values whose total
/// byte cost matches `budget`.
pub fn select_random(input: &SelectionInput<'_>, budget: u64, seed: u64) -> RecordingSet {
    // Candidates: any symbolic expression with a recordable site.
    let mut candidates: Vec<ExprRef> = (0..input.pool.len() as u32)
        .map(ExprRef)
        .filter(|e| {
            input.origins.contains_key(e)
                && input.pool.as_const(*e).is_none()
                && !matches!(input.pool.node(*e), Node::Var { .. } if false)
        })
        .collect();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Fisher-Yates shuffle.
    for i in (1..candidates.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        candidates.swap(i, j);
    }
    let mut sites = Vec::new();
    let mut spent = 0u64;
    let mut used: HashSet<InstrId> = HashSet::new();
    for e in candidates {
        if spent >= budget {
            break;
        }
        if let Some(site) = input.site_of(e) {
            if used.insert(site.site) {
                spent += site.cost();
                sites.push(site);
            }
        }
    }
    RecordingSet { sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::ir::{BlockId, FuncId};
    use er_solver::expr::BvOp;

    fn site(i: usize) -> InstrId {
        InstrId {
            func: FuncId(0),
            block: BlockId(0),
            index: i,
        }
    }

    /// Rebuilds the paper's running example selection scenario:
    /// bottleneck {x, λc, V[x]} reduces to recording {x, λc}.
    #[test]
    fn paper_reduction_drops_deducible_read() {
        let mut p = ExprPool::new();
        let la = p.var("a", 32);
        let lb = p.var("b", 32);
        let lc = p.var("c", 32);
        let x = p.bin(BvOp::Add, la, lb);
        let v = p.array("V", 1024, 8, None);
        let x64 = p.zext(x, 64);
        let lc64 = p.zext(lc, 64);
        let one = p.bv_const(1, 8);
        let w2 = p.write(v, x64, one);
        let v512 = p.bv_const(0x99, 8);
        let w3 = p.write(w2, lc64, v512);
        let r4 = p.read(w3, x64); // V[x]
        let r4_64 = p.zext(r4, 64);
        let x8 = p.trunc(x, 8);
        let _w4 = p.write(w3, r4_64, x8);

        let mut origins = Origins::default();
        origins.insert(la, site(0));
        origins.insert(lb, site(1));
        origins.insert(lc, site(2));
        origins.insert(x, site(3));
        origins.insert(r4, site(4));
        let mut site_counts = SiteCounts::default();
        for i in 0..5 {
            site_counts.insert(site(i), 1);
        }
        let input = SelectionInput {
            pool: &p,
            origins: &origins,
            site_counts: &site_counts,
        };
        let graph = ConstraintGraph::analyze(&p);
        let set = select_key_values(&graph, &input);
        let chosen: HashSet<InstrId> = set.sites.iter().map(|s| s.site).collect();
        // x (site 3) is cheaper than {a, b} (sites 0+1 cost 8 > 4).
        assert!(chosen.contains(&site(3)), "records x: {set:?}");
        // λc (site 2) is a leaf input.
        assert!(chosen.contains(&site(2)), "records λc: {set:?}");
        // V[x] (site 4) is deducible from x and λc, so it is dropped.
        assert!(!chosen.contains(&site(4)), "V[x] must be dropped: {set:?}");
        assert_eq!(set.total_cost(), 8);
    }

    #[test]
    fn dfs_prefers_cheaper_children() {
        // e = a + b where e's site runs 100 times but a, b run once:
        // recording a and b (8 bytes) beats recording e (400 bytes).
        let mut p = ExprPool::new();
        let a = p.var("a", 32);
        let b = p.var("b", 32);
        let e = p.bin(BvOp::Add, a, b);
        let mut origins = Origins::default();
        origins.insert(a, site(0));
        origins.insert(b, site(1));
        origins.insert(e, site(2));
        let mut counts = SiteCounts::default();
        counts.insert(site(0), 1);
        counts.insert(site(1), 1);
        counts.insert(site(2), 100);
        let input = SelectionInput {
            pool: &p,
            origins: &origins,
            site_counts: &counts,
        };
        let mut memo = HashMap::new();
        let (cost, set) = best_cover(&input, e, &mut memo);
        assert_eq!(cost, 8);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn unrecordable_values_fall_through_to_children() {
        let mut p = ExprPool::new();
        let a = p.var("a", 32);
        let two = p.bv_const(2, 32);
        let e = p.bin(BvOp::Mul, a, two);
        // e has no origin; a does.
        let mut origins = Origins::default();
        origins.insert(a, site(0));
        let mut counts = SiteCounts::default();
        counts.insert(site(0), 1);
        let input = SelectionInput {
            pool: &p,
            origins: &origins,
            site_counts: &counts,
        };
        let mut memo = HashMap::new();
        let (cost, set) = best_cover(&input, e, &mut memo);
        assert_eq!(cost, 4);
        assert_eq!(set, vec![a]);
    }

    #[test]
    fn random_selector_respects_budget_and_seed() {
        let mut p = ExprPool::new();
        let mut origins = Origins::default();
        let mut counts = SiteCounts::default();
        for i in 0..20 {
            let v = p.var(format!("v{i}"), 32);
            origins.insert(v, site(i));
            counts.insert(site(i), 1);
        }
        let input = SelectionInput {
            pool: &p,
            origins: &origins,
            site_counts: &counts,
        };
        let a = select_random(&input, 12, 7);
        assert!(a.total_cost() >= 12, "keeps selecting until budget met");
        assert!(a.total_cost() <= 16);
        let b = select_random(&input, 12, 7);
        assert_eq!(a.sites, b.sites, "same seed, same choice");
        let c = select_random(&input, 12, 8);
        assert!(a.sites != c.sites || a.sites.is_empty());
    }
}
