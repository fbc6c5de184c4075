//! Property: recovery from ANY truncation point of a valid WAL yields
//! exactly the longest prefix of complete records — never a partial
//! record, never a lost complete one (satellite: torn-tail recovery).

use er_durable::event::{ConsumeOutcome, DurableEvent};
use er_durable::Wal;
use proptest::prelude::*;

fn sample_events(n: usize) -> Vec<DurableEvent> {
    (0..n as u64)
        .map(|i| match i % 3 {
            0 => DurableEvent::SessionStarted {
                group: i,
                label: format!("wl-{i}"),
            },
            1 => DurableEvent::OccurrenceConsumed {
                group: i,
                run_index: i * 11,
                outcome: ConsumeOutcome::NeedMore,
            },
            _ => DurableEvent::Terminal {
                group: i,
                reproduced: i % 2 == 0,
                reason: format!("verdict-{i}"),
                occurrences: i as u32,
            },
        })
        .collect()
}

/// A per-process scratch path, so concurrent test processes never share
/// a file.
fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("er-durable-proptests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate a healthy WAL at an arbitrary byte and recover.
    #[test]
    fn any_truncation_point_recovers_the_complete_prefix(
        n_events in 1usize..8,
        cut_seed in any::<u64>(),
    ) {
        let events = sample_events(n_events);
        let path = tmp(&format!("trunc_{n_events}_{cut_seed:x}.wal"));
        let mut wal = Wal::create(&path).expect("create");
        // Record where each append's frame ends, so the expected
        // surviving prefix is computable from the cut point alone.
        let mut frame_ends = Vec::with_capacity(events.len());
        for ev in &events {
            wal.append(ev).expect("append");
            frame_ends.push(std::fs::metadata(&path).expect("meta").len());
        }
        let total = *frame_ends.last().expect("nonempty");
        let cut = cut_seed % (total + 1);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncate");
        file.set_len(cut).expect("truncate");
        drop(file);

        let survivors = frame_ends.iter().filter(|&&end| end <= cut).count();
        let (reopened, recovered, info) = Wal::open(&path).expect("recover");
        prop_assert_eq!(&recovered[..], &events[..survivors]);
        prop_assert_eq!(reopened.records(), survivors as u64);
        prop_assert_eq!(info.records, survivors as u64);
        let expect_torn = frame_ends.get(survivors).map_or(0, |_| {
            cut - if survivors == 0 { 0 } else { frame_ends[survivors - 1] }
        });
        prop_assert_eq!(info.torn_bytes, expect_torn);

        // The repaired file is stable: a second open sees no tail.
        let (_, again, info2) = Wal::open(&path).expect("reopen repaired");
        prop_assert_eq!(again, recovered);
        prop_assert_eq!(info2.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    /// A truncated-then-recovered log accepts appends and the composite
    /// log round-trips.
    #[test]
    fn recovery_then_append_is_seamless(
        n_events in 2usize..6,
        cut_back in 1u64..20,
    ) {
        let events = sample_events(n_events);
        let path = tmp(&format!("resume_{n_events}_{cut_back}.wal"));
        let mut wal = Wal::create(&path).expect("create");
        for ev in &events {
            wal.append(ev).expect("append");
        }
        let total = std::fs::metadata(&path).expect("meta").len();
        let cut = total.saturating_sub(cut_back);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for truncate");
        file.set_len(cut).expect("truncate");
        drop(file);

        let (mut wal, mut recovered, _) = Wal::open(&path).expect("recover");
        let tail = DurableEvent::Terminal {
            group: 99,
            reproduced: true,
            reason: String::new(),
            occurrences: recovered.len() as u32,
        };
        wal.append(&tail).expect("append after recovery");
        let (_, all, info) = Wal::open(&path).expect("final open");
        recovered.push(tail);
        prop_assert_eq!(all, recovered);
        prop_assert_eq!(info.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}
