//! Event-trace facility tests.

use gpu_sim::{Scheduler, TraceEvent, TraceKind};

fn kinds_for(agent: usize, trace: &[TraceEvent]) -> Vec<TraceKind> {
    trace.iter().filter(|e| e.agent == agent).map(|e| e.kind).collect()
}

#[test]
fn trace_records_lock_protocol() {
    let sched = Scheduler::new(2);
    sched.enable_trace(1024);
    let l = sched.create_locks(1);
    std::thread::scope(|s| {
        for id in 0..2 {
            let mut w = sched.worker(id);
            s.spawn(move || {
                w.begin();
                w.advance(id as u64 * 10); // stagger: agent 0 first
                w.lock(l, 5);
                w.advance(100);
                w.unlock(l, 5);
                w.finish();
            });
        }
    });
    let trace = sched.take_trace();
    assert!(!trace.is_empty());
    // Virtual times are non-decreasing in emission order per agent.
    for id in 0..2 {
        let times: Vec<u64> = trace.iter().filter(|e| e.agent == id).map(|e| e.vtime).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "agent {id} times {times:?}");
    }
    // Agent 0 acquires without waiting; agent 1 waits then acquires.
    let k0 = kinds_for(0, &trace);
    assert!(k0.contains(&TraceKind::LockAcquired(l)));
    assert!(!k0.contains(&TraceKind::LockWait(l)), "agent 0 should not wait: {k0:?}");
    let k1 = kinds_for(1, &trace);
    let wait_pos = k1.iter().position(|k| *k == TraceKind::LockWait(l)).expect("agent 1 waits");
    let acq_pos = k1.iter().position(|k| *k == TraceKind::LockAcquired(l)).expect("then acquires");
    assert!(wait_pos < acq_pos);
    // Both finish.
    assert!(k0.contains(&TraceKind::Finished));
    assert!(k1.contains(&TraceKind::Finished));
    // Releases present for both.
    assert_eq!(trace.iter().filter(|e| e.kind == TraceKind::LockReleased(l)).count(), 2);
}

#[test]
fn trace_is_bounded() {
    let sched = Scheduler::new(1);
    sched.enable_trace(4);
    let l = sched.create_locks(1);
    std::thread::scope(|s| {
        let mut w = sched.worker(0);
        s.spawn(move || {
            w.begin();
            for _ in 0..50 {
                w.lock(l, 1);
                w.unlock(l, 1);
            }
            w.finish();
        });
    });
    let trace = sched.take_trace();
    assert_eq!(trace.len(), 4, "capacity bound must hold");
}

/// A capacity-N trace is a ring: it keeps exactly the newest N events
/// of an unbounded trace of the same run, in emission order.
#[test]
fn bounded_trace_keeps_newest_events_in_order() {
    let run = |capacity: usize| {
        let sched = Scheduler::new(1);
        sched.enable_trace(capacity);
        let l = sched.create_locks(1);
        std::thread::scope(|s| {
            let mut w = sched.worker(0);
            s.spawn(move || {
                w.begin();
                for i in 0..50u64 {
                    w.lock(l, 1);
                    w.advance(i); // distinct timestamps per event pair
                    w.unlock(l, 1);
                }
                w.finish();
            });
        });
        sched.take_trace()
    };
    let full = run(1 << 12);
    assert!(full.len() > 100, "unbounded run recorded {} events", full.len());
    for n in [1, 7, 64] {
        let ring = run(n);
        assert_eq!(ring, full[full.len() - n..], "capacity {n}");
    }
}

#[test]
fn trace_disabled_by_default() {
    let sched = Scheduler::new(1);
    let l = sched.create_locks(1);
    std::thread::scope(|s| {
        let mut w = sched.worker(0);
        s.spawn(move || {
            w.begin();
            w.lock(l, 1);
            w.unlock(l, 1);
            w.finish();
        });
    });
    assert!(sched.take_trace().is_empty());
}
