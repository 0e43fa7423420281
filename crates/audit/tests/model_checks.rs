//! Exhaustive-interleaving model checks (loom-style, behind the
//! `model-checks` feature: `cargo test -p mmds-audit --features
//! model-checks`).
//!
//! Each check enumerates **every** schedule of the participating
//! ranks' operations with [`mmds_audit::interleave`] and asserts the
//! protocol invariants under all of them. Steps are method calls — the
//! objects under test guard their state with one internal lock, so
//! methods are the atomic units a real scheduler can interleave.
//! (Spans are modelled as complete open/close pairs per step: the
//! span stack and rank tag are thread-locals, so intra-span
//! interleavings on one OS thread do not correspond to any real
//! execution.)
#![cfg(feature = "model-checks")]

use mmds_audit::interleave::{explore, schedule_count};
use mmds_swmpi::onesided::{PutRecord, WindowHub};
use mmds_telemetry::{rank_scope, Event, MemorySink, Mode, Telemetry};

fn rec(src: usize, region: u32, tag: u8) -> PutRecord {
    PutRecord {
        src,
        region,
        depart_time: 0.0,
        seq: 0,
        lamport: 0,
        payload: vec![tag],
    }
}

/// Window fence/put protocol: two source ranks each deposit two
/// records into rank 0's window in program order. Under every
/// interleaving of the four puts: no record is lost or duplicated
/// (`pending` counts every put exactly once), and the post-fence
/// `drain` returns the same `(src, region)`-sorted sequence —
/// delivery order is schedule-independent, which is what makes the
/// on-demand exchange deterministic.
#[test]
fn window_put_fence_drain_is_schedule_independent() {
    // Descending regions per thread so raw arrival order is *never*
    // the sorted order — the sort has to do the work.
    let scripts: [[(u32, u8); 2]; 2] = [
        [(3, 10), (1, 11)], // rank 1 puts regions 3 then 1
        [(2, 20), (0, 21)], // rank 2 puts regions 2 then 0
    ];
    let mut canonical: Option<Vec<(usize, u32, u8)>> = None;
    let n = explore(
        &[2, 2],
        || (WindowHub::new(3), 0usize),
        |(hub, puts), tid, k| {
            let (region, tag) = scripts[tid][k];
            hub.put(0, rec(tid + 1, region, tag));
            *puts += 1;
            assert_eq!(hub.pending(0), *puts, "every put lands exactly once");
        },
        |(hub, puts), schedule| {
            assert_eq!(*puts, 4);
            let drained: Vec<_> = hub
                .drain(0)
                .into_iter()
                .map(|r| (r.src, r.region, r.payload[0]))
                .collect();
            assert_eq!(hub.pending(0), 0, "drain empties the board");
            match &canonical {
                None => canonical = Some(drained),
                Some(c) => assert_eq!(
                    &drained, c,
                    "drain order diverged under schedule {schedule:?}"
                ),
            }
        },
    );
    assert_eq!(n as u128, schedule_count(&[2, 2]));
    assert_eq!(
        canonical.unwrap(),
        vec![(1, 1, 11), (1, 3, 10), (2, 0, 21), (2, 2, 20)],
        "sorted by (src, region), not by arrival"
    );
}

/// Same protocol at (4,4) — 70 schedules — with both ranks writing the
/// same regions, checking that ties preserve multiset equality.
#[test]
fn window_protocol_all_seventy_schedules() {
    let mut canonical: Option<Vec<(usize, u32)>> = None;
    let n = explore(
        &[4, 4],
        || WindowHub::new(2),
        |hub, tid, k| hub.put(1, rec(tid, (3 - k) as u32, 0)),
        |hub, schedule| {
            let drained: Vec<_> = hub
                .drain(1)
                .into_iter()
                .map(|r| (r.src, r.region))
                .collect();
            match &canonical {
                None => canonical = Some(drained),
                Some(c) => assert_eq!(&drained, c, "schedule {schedule:?}"),
            }
        },
    );
    assert_eq!(n, 70);
    assert_eq!(n as u128, schedule_count(&[4, 4]));
}

/// Span-registry keying: two modelled ranks interleave spans with the
/// *same* path. Under every schedule the registry must keep the ranks'
/// statistics separate — keyed `(rank, path)` — with exact per-rank
/// counts, and the aggregate view must still total both.
#[test]
fn span_registry_keys_by_rank_and_path_under_all_schedules() {
    let n = explore(
        &[3, 3],
        || Telemetry::with_mode(Mode::Summary),
        |tele, tid, _k| {
            let _rank = rank_scope(tid as u32);
            let _span = tele.span("model_step");
        },
        |tele, schedule| {
            let per_rank = tele.rank_span_reports();
            assert_eq!(per_rank.len(), 2, "one entry per rank: {schedule:?}");
            for (rank, report) in &per_rank {
                assert!(matches!(rank, Some(0) | Some(1)));
                assert_eq!(report.path, "model_step");
                assert_eq!(report.count, 3, "rank {rank:?} under {schedule:?}");
            }
            let merged = tele.span_reports();
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].count, 6, "aggregate totals both ranks");
        },
    );
    assert_eq!(n as u128, schedule_count(&[3, 3]));
}

/// JSONL sink sequence counter: three ranks emit interleaved events.
/// Under every schedule the sink receives a gapless, strictly
/// increasing `seq` (0..n in arrival order) — the property the run
/// inspector relies on to detect truncated logs — and every rank's
/// own events appear in its program order.
#[test]
fn sink_sequence_is_gapless_under_all_schedules() {
    let n = explore(
        &[2, 2, 2],
        || {
            let tele = Telemetry::with_mode(Mode::Summary);
            let sink = MemorySink::new();
            tele.install_sink(Box::new(sink.clone()));
            (tele, sink)
        },
        |(tele, _), tid, k| {
            let _rank = rank_scope(tid as u32);
            tele.emit(Event::Counter {
                name: format!("r{tid}.e{k}"),
                value: 1.0,
            });
        },
        |(_, sink), schedule| {
            let records = sink.records();
            assert_eq!(records.len(), 6);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(
                    r.seq, i as u64,
                    "gapless seq in arrival order under {schedule:?}"
                );
            }
            for rank in 0..3u32 {
                let names: Vec<_> = records
                    .iter()
                    .filter(|r| r.rank == Some(rank))
                    .map(|r| match &r.event {
                        Event::Counter { name, .. } => name.clone(),
                        other => panic!("unexpected event {other:?}"),
                    })
                    .collect();
                assert_eq!(
                    names,
                    vec![format!("r{rank}.e0"), format!("r{rank}.e1")],
                    "rank {rank} program order under {schedule:?}"
                );
            }
        },
    );
    assert_eq!(n as u128, schedule_count(&[2, 2, 2]));
}
