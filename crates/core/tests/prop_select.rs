//! Property tests for constraint-graph analysis and key data value
//! selection over randomly shaped write chains.

use er_core::graph::{ConstraintGraph, Deducibility};
use er_core::select::{self, SelectionInput, SiteCountMap};
use er_minilang::ir::{BlockId, FuncId, InstrId};
use er_solver::expr::{BvOp, ExprPool, ExprRef};
use er_symex::Origins;
use proptest::prelude::*;

fn site(i: usize) -> InstrId {
    InstrId {
        func: FuncId(0),
        block: BlockId(0),
        index: i,
    }
}

/// Builds a pool with `n_chains` write chains of the given lengths over
/// tables of the given sizes, all indices derived from registered inputs.
#[allow(clippy::type_complexity)]
fn build(
    chains: &[(u64, usize)], // (table len, chain length)
) -> (ExprPool, Origins, SiteCountMap, Vec<ExprRef>) {
    let mut pool = ExprPool::new();
    let mut origins = Origins::default();
    let mut counts = SiteCountMap::default();
    let mut inputs = Vec::new();
    let mut next = 0usize;
    for (c, &(len, depth)) in chains.iter().enumerate() {
        let mut arr = pool.array(format!("T{c}"), len, 8, None);
        for d in 0..depth {
            let v = pool.var(format!("k{c}_{d}"), 64);
            origins.insert(v, site(next));
            counts.insert(site(next), 1);
            next += 1;
            inputs.push(v);
            let eight = pool.bv_const(8, 64);
            let idx = pool.bin(BvOp::Mul, v, eight);
            origins.insert(idx, site(next));
            counts.insert(site(next), 1);
            next += 1;
            let val = pool.bv_const(d as u64, 8);
            arr = pool.write(arr, idx, val);
        }
        // One read through the chain.
        let p = pool.var(format!("p{c}"), 64);
        origins.insert(p, site(next));
        counts.insert(site(next), 1);
        next += 1;
        let r = pool.read(arr, p);
        if pool.as_const(r).is_none() {
            origins.insert(r, site(next));
            counts.insert(site(next), 1);
            next += 1;
        }
        inputs.push(p);
    }
    (pool, origins, counts, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recording set never costs more than naively recording the whole
    /// bottleneck set, and it renders every bottleneck element deducible.
    #[test]
    fn recording_set_is_cheaper_and_sufficient(
        chains in prop::collection::vec((4u64..64, 1usize..6), 1..4),
    ) {
        let (pool, origins, counts, _) = build(&chains);
        let graph = ConstraintGraph::analyze(&pool);
        prop_assert!(graph.has_chains());
        prop_assert!(!graph.bottleneck.is_empty());
        let input = SelectionInput {
            pool: &pool,
            origins: &origins,
            site_counts: &counts,
        };
        let set = select::select_key_values(&graph, &input);
        prop_assert!(!set.is_empty());

        // Cost bound: paper's goal is to beat naive bottleneck recording.
        let naive: u64 = graph
            .bottleneck
            .iter()
            .filter_map(|b| {
                let s = origins.get(&b.expr)?;
                Some(b.size_bytes * counts.get(s).copied().unwrap_or(1))
            })
            .sum();
        if naive > 0 {
            prop_assert!(
                set.total_cost() <= naive,
                "recording {} must not exceed naive {naive}",
                set.total_cost()
            );
        }

        // Sufficiency: given the recorded expressions, every bottleneck
        // element is deducible.
        let recorded: Vec<ExprRef> = set.sites.iter().map(|s| s.expr).collect();
        let mut ded = Deducibility::new(&pool, recorded);
        for b in &graph.bottleneck {
            prop_assert!(
                ded.deducible(b.expr),
                "bottleneck element {} must be deducible",
                pool.display(b.expr)
            );
        }
    }

    /// The longest chain reported really is the deepest, and the largest
    /// object chain really has the largest object.
    #[test]
    fn chain_extremes_are_correct(
        chains in prop::collection::vec((4u64..64, 1usize..6), 1..4),
    ) {
        let (pool, _, _, _) = build(&chains);
        let graph = ConstraintGraph::analyze(&pool);
        let longest = graph.longest_chain.as_ref().unwrap();
        let max_depth = chains.iter().map(|&(_, d)| d as u64).max().unwrap();
        prop_assert_eq!(longest.len, max_depth);
        let largest = graph.largest_object_chain.as_ref().unwrap();
        let max_obj = chains.iter().map(|&(l, _)| l).max().unwrap();
        prop_assert_eq!(largest.object_bytes, max_obj);
    }
}

#[test]
fn largest_object_chain_prefers_a_different_base_on_ties() {
    // Two equal-size tables: the two-chain heuristic must cover both.
    let (pool, _, _, _) = build(&[(32, 4), (32, 2)]);
    let graph = ConstraintGraph::analyze(&pool);
    let longest = graph.longest_chain.as_ref().unwrap();
    let largest = graph.largest_object_chain.as_ref().unwrap();
    assert_eq!(longest.object_name, "T0", "deeper chain");
    assert_eq!(
        largest.object_name, "T1",
        "tied object size must break toward the other base"
    );
}
