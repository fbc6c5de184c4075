//! Failure triage: clustering crash reports from many instances into
//! *failure groups* by fault signature.
//!
//! The signature is the fleet-side analogue of the paper's failure
//! identity (§4: "the same failure" = same faulting PC, call stack, and
//! fault class): the crash site, the innermost frames of the call stack
//! (truncated, so unbounded recursion still clusters), and the failing
//! assertion/abort message when there is one. Reports with equal
//! signatures are reoccurrences of one failure and share one
//! reconstruction investigation; their redundant traces are deduplicated
//! by the store.

use er_minilang::error::{Failure, FailureKind, RuntimeFault};
use er_minilang::ir::{FuncId, InstrId};
use std::collections::HashMap;

/// Innermost call-stack frames retained by a signature. Deep or recursive
/// stacks differ only in their outer frames, which carry no identity.
pub const SIGNATURE_STACK_DEPTH: usize = 8;

/// The clustering key for one failure class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultSignature {
    /// Broad fault class (Table 1's "Bug Type" granularity).
    pub kind: FailureKind,
    /// Faulting instruction.
    pub at: InstrId,
    /// Innermost [`SIGNATURE_STACK_DEPTH`] frames, outermost first.
    pub stack: Vec<FuncId>,
    /// Abort / failed-assertion message, when the fault carries one —
    /// distinguishes two assertions compiled to the same site.
    pub assertion: Option<String>,
}

impl FaultSignature {
    /// The signature of `failure`.
    pub fn of(failure: &Failure) -> FaultSignature {
        let stack = &failure.call_stack;
        let keep = stack.len().saturating_sub(SIGNATURE_STACK_DEPTH);
        FaultSignature {
            kind: failure.fault.kind(),
            at: failure.at,
            stack: stack[keep..].to_vec(),
            assertion: match &failure.fault {
                RuntimeFault::Abort { message } | RuntimeFault::AssertFailed { message } => {
                    Some(message.clone())
                }
                _ => None,
            },
        }
    }

    /// A stable 64-bit FNV-1a hash of the signature — the group key the
    /// store and report use. Grouping still confirms full signature
    /// equality, so a collision costs a comparison, never a mis-merge.
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(&[self.kind as u8]);
        eat(&self.at.func.0.to_le_bytes());
        eat(&self.at.block.0.to_le_bytes());
        eat(&self.at.index.to_le_bytes());
        for f in &self.stack {
            eat(&f.0.to_le_bytes());
        }
        if let Some(a) = &self.assertion {
            eat(a.as_bytes());
        }
        h
    }
}

/// One clustered failure and its reoccurrence statistics.
#[derive(Debug)]
pub struct FailureGroup {
    /// Group id: the signature hash (what `fleet.*` telemetry and the
    /// report key on).
    pub id: u64,
    /// The clustering key.
    pub signature: FaultSignature,
    /// Total sightings across all instances, including redundant ones.
    pub occurrences: u64,
}

impl FailureGroup {
    /// Reoccurrence rate in occurrences per 1000 observed production runs
    /// (fixed point, so scheduling priorities stay integer-deterministic).
    pub fn rate_per_mille(&self, runs_observed: u64) -> u64 {
        self.occurrences
            .saturating_mul(1000)
            .checked_div(runs_observed.max(1))
            .unwrap_or(0)
    }

    /// Short human label, e.g. `g3f2a…:Abort@f1b0i4`.
    pub fn label(&self) -> String {
        format!(
            "g{:08x}:{:?}@f{}b{}i{}",
            self.id & 0xffff_ffff,
            self.signature.kind,
            self.signature.at.func.0,
            self.signature.at.block.0,
            self.signature.at.index
        )
    }
}

/// The triage table: signature hash to failure groups.
#[derive(Debug, Default)]
pub struct Triage {
    groups: Vec<FailureGroup>,
    by_hash: HashMap<u64, Vec<usize>>,
}

impl Triage {
    /// An empty table.
    pub fn new() -> Triage {
        Triage::default()
    }

    /// Routes one failure sighting to its group, creating the group on
    /// first sight. Returns the group id and whether it is new.
    pub fn classify(&mut self, failure: &Failure) -> (u64, bool) {
        er_telemetry::counter!("fleet.triage.occurrences").incr();
        let sig = FaultSignature::of(failure);
        let hash = sig.hash64();
        if let Some(idxs) = self.by_hash.get(&hash) {
            for &i in idxs {
                if self.groups[i].signature == sig {
                    let g = &mut self.groups[i];
                    g.occurrences += 1;
                    return (g.id, false);
                }
            }
        }
        // Hash collisions are broken by probing the low bits so distinct
        // signatures always get distinct group ids.
        let mut id = hash;
        while self.groups.iter().any(|g| g.id == id) {
            id = id.wrapping_add(1);
        }
        er_telemetry::counter!("fleet.triage.groups").incr();
        let idx = self.groups.len();
        self.groups.push(FailureGroup {
            id,
            signature: sig,
            occurrences: 1,
        });
        self.by_hash.entry(hash).or_default().push(idx);
        (id, true)
    }

    /// All groups, in creation order.
    pub fn groups(&self) -> &[FailureGroup] {
        &self.groups
    }

    /// The group with the given id.
    pub fn group(&self, id: u64) -> Option<&FailureGroup> {
        self.groups.iter().find(|g| g.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_minilang::ir::BlockId;

    fn failure(site: usize, stack: &[u32], message: &str) -> Failure {
        Failure {
            fault: RuntimeFault::Abort {
                message: message.to_string(),
            },
            at: InstrId {
                func: FuncId(0),
                block: BlockId(0),
                index: site,
            },
            call_stack: stack.iter().map(|&f| FuncId(f)).collect(),
            tid: 0,
        }
    }

    #[test]
    fn reoccurrences_cluster_and_count() {
        let mut t = Triage::new();
        let (a1, new1) = t.classify(&failure(3, &[0, 1], "boom"));
        let (a2, new2) = t.classify(&failure(3, &[0, 1], "boom"));
        assert!(new1 && !new2);
        assert_eq!(a1, a2);
        let g = t.group(a1).unwrap();
        assert_eq!(g.occurrences, 2);
        assert_eq!(g.rate_per_mille(100), 20);
    }

    #[test]
    fn distinct_sites_and_messages_split() {
        let mut t = Triage::new();
        let (a, _) = t.classify(&failure(3, &[0, 1], "boom"));
        let (b, _) = t.classify(&failure(4, &[0, 1], "boom"));
        let (c, _) = t.classify(&failure(3, &[0, 1], "other"));
        let (d, _) = t.classify(&failure(3, &[0, 2], "boom"));
        assert_eq!(t.groups().len(), 4);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn deep_stacks_truncate_to_innermost_frames() {
        let mut t = Triage::new();
        let deep1: Vec<u32> = (0..40).collect();
        let mut deep2 = deep1.clone();
        deep2[0] = 99; // outer frame differs: same signature
        let (a, _) = t.classify(&failure(3, &deep1, "boom"));
        let (b, _) = t.classify(&failure(3, &deep2, "boom"));
        assert_eq!(a, b);
        assert_eq!(
            t.group(a).unwrap().signature.stack.len(),
            SIGNATURE_STACK_DEPTH
        );
    }

    #[test]
    fn tid_does_not_split_groups() {
        let mut t = Triage::new();
        let mut f1 = failure(3, &[0, 1], "boom");
        let mut f2 = f1.clone();
        f1.tid = 0;
        f2.tid = 7; // same crash from another thread is the same failure
        let (a, _) = t.classify(&f1);
        let (b, _) = t.classify(&f2);
        assert_eq!(a, b);
    }
}
