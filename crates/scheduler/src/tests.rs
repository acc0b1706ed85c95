//! Scheduler unit tests. The `start_paused` knob makes queue states
//! deterministic: tests enqueue everything while paused, then resume
//! with a single worker and observe the dequeue order.

use super::*;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc;

fn single_worker_paused() -> Scheduler {
    Scheduler::new(SchedulerConfig {
        workers: 1,
        queue_capacity: 64,
        start_paused: true,
        ..Default::default()
    })
}

#[test]
fn runs_a_job_and_counts_completion() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    sched
        .submit("alice", SubmitOptions::default(), move |ctx| {
            tx.send(ctx.queue_wait).unwrap();
            JobDisposition::Completed
        })
        .unwrap();
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let stats = sched.stats();
    assert_eq!(stats.totals.submitted, 1);
    assert_eq!(stats.totals.completed, 1);
    assert_eq!(stats.tenants["alice"].completed, 1);
}

#[test]
fn fair_dequeue_interleaves_skewed_tenants() {
    // Tenant "heavy" floods 6 jobs before "light" submits 2. The
    // scheduler must alternate turns, so light's jobs run long before
    // heavy's backlog drains.
    let sched = single_worker_paused();
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..6 {
        let order = Arc::clone(&order);
        sched
            .submit("heavy", SubmitOptions::default(), move |_| {
                order.lock().unwrap().push(format!("heavy{i}"));
                JobDisposition::Completed
            })
            .unwrap();
    }
    for i in 0..2 {
        let order = Arc::clone(&order);
        sched
            .submit("light", SubmitOptions::default(), move |_| {
                order.lock().unwrap().push(format!("light{i}"));
                JobDisposition::Completed
            })
            .unwrap();
    }
    sched.resume();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let order = order.lock().unwrap().clone();
    assert_eq!(order.len(), 8);
    // Round-robin, one job per turn: H L H L H H H H.
    let light_positions: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(_, s)| s.starts_with("light"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        light_positions,
        vec![1, 3],
        "light tenant should interleave, got order {order:?}"
    );
    // Within each tenant, FIFO order is preserved.
    let heavy: Vec<_> = order.iter().filter(|s| s.starts_with("heavy")).collect();
    assert_eq!(heavy, ["heavy0", "heavy1", "heavy2", "heavy3", "heavy4", "heavy5"]);
}

#[test]
fn admission_control_rejects_at_capacity() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        queue_capacity: 2,
        start_paused: true,
        ..Default::default()
    });
    for _ in 0..2 {
        sched
            .submit("bob", SubmitOptions::default(), |_| JobDisposition::Completed)
            .unwrap();
    }
    let err = sched
        .submit("bob", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert!(err.message().contains("bob"));
    // Other tenants are unaffected by bob's full queue.
    sched
        .submit("carol", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap();
    let stats = sched.stats();
    assert_eq!(stats.tenants["bob"].rejected, 1);
    assert_eq!(stats.tenants["bob"].queue_depth, 2);
    assert_eq!(stats.tenants["carol"].rejected, 0);
    sched.resume();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(sched.stats().totals.completed, 3);
}

#[test]
fn deadline_trips_token_mid_execution() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    let ticket = sched
        .submit(
            "dave",
            SubmitOptions {
                deadline: Some(Duration::from_millis(30)),
                ..Default::default()
            },
            |ctx| {
                // Busy-loop like the engine does, polling the token.
                let start = Instant::now();
                while !ctx.token.is_cancelled() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return JobDisposition::Failed; // never hit
                    }
                    std::thread::yield_now();
                }
                match ctx.token.reason() {
                    Some(CancelReason::Timeout) => JobDisposition::TimedOut,
                    _ => JobDisposition::Cancelled,
                }
            },
        )
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(ticket.token.reason(), Some(CancelReason::Timeout));
    let stats = sched.stats();
    assert_eq!(stats.tenants["dave"].timed_out, 1);
    assert_eq!(stats.tenants["dave"].completed, 0);
}

#[test]
fn cancel_before_start_job_observes_token_immediately() {
    // A queued job whose token is tripped before a worker picks it up:
    // the job body sees the cancellation on entry and can skip all work.
    let sched = single_worker_paused();
    let executed_work = Arc::new(AtomicUsize::new(0));
    let ew = Arc::clone(&executed_work);
    let ticket = sched
        .submit("erin", SubmitOptions::default(), move |ctx| {
            if ctx.token.is_cancelled() {
                return JobDisposition::Cancelled;
            }
            ew.fetch_add(1, AtomicOrdering::SeqCst);
            JobDisposition::Completed
        })
        .unwrap();
    assert!(ticket.token.cancel(CancelReason::Cancelled));
    sched.resume();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(executed_work.load(AtomicOrdering::SeqCst), 0);
    let stats = sched.stats();
    assert_eq!(stats.tenants["erin"].cancelled, 1);
    assert_eq!(stats.tenants["erin"].completed, 0);
}

#[test]
fn cancel_mid_execution_unwinds_cooperatively() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    let (started_tx, started_rx) = mpsc::channel();
    let ticket = sched
        .submit("frank", SubmitOptions::default(), move |ctx| {
            started_tx.send(()).unwrap();
            let start = Instant::now();
            while !ctx.token.is_cancelled() {
                if start.elapsed() > Duration::from_secs(10) {
                    return JobDisposition::Failed; // never hit
                }
                std::thread::yield_now();
            }
            JobDisposition::Cancelled
        })
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(ticket.token.cancel(CancelReason::Cancelled));
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(sched.stats().tenants["frank"].cancelled, 1);
}

#[test]
fn shutdown_cancels_queued_jobs() {
    let sched = single_worker_paused();
    let executed_work = Arc::new(AtomicUsize::new(0));
    let tickets: Vec<JobTicket> = (0..3)
        .map(|_| {
            let ew = Arc::clone(&executed_work);
            sched
                .submit("grace", SubmitOptions::default(), move |ctx| {
                    if ctx.token.is_cancelled() {
                        return JobDisposition::Cancelled;
                    }
                    ew.fetch_add(1, AtomicOrdering::SeqCst);
                    JobDisposition::Completed
                })
                .unwrap()
        })
        .collect();
    drop(sched); // Drop drains queues with tokens tripped as Shutdown.
    assert_eq!(executed_work.load(AtomicOrdering::SeqCst), 0);
    for t in tickets {
        assert_eq!(t.token.reason(), Some(CancelReason::Shutdown));
    }
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    // Simulate the shutdown flag without dropping (drop joins threads).
    sched.lock().shutdown = true;
    let err = sched
        .submit("heidi", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    // Undo so Drop's worker join doesn't deadlock on a paused queue.
    sched.lock().shutdown = false;
}

#[test]
fn stats_track_queue_wait_and_exec_time() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    sched
        .submit("ivan", SubmitOptions::default(), |_| {
            std::thread::sleep(Duration::from_millis(5));
            JobDisposition::Completed
        })
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let stats = sched.stats();
    let t = &stats.tenants["ivan"];
    assert_eq!(t.finished(), 1);
    assert!(t.total_exec_micros >= 4_000, "exec {} µs", t.total_exec_micros);
    assert!(t.mean_exec_micros() >= 4_000.0);
}

#[test]
fn cancelled_wide_job_releases_all_slots() {
    // Cancelling a running job gives its worker back promptly: with a
    // single worker, another tenant's queued job runs right after.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    let (started_tx, started_rx) = mpsc::channel();
    let ticket = sched
        .submit("kate", SubmitOptions::default(), move |ctx| {
            started_tx.send(()).unwrap();
            let start = Instant::now();
            while !ctx.token.is_cancelled() {
                if start.elapsed() > Duration::from_secs(10) {
                    return JobDisposition::Failed; // never hit
                }
                std::thread::yield_now();
            }
            JobDisposition::Cancelled
        })
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    sched
        .submit("lena", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap();
    assert_eq!(sched.queue_depth("lena"), 1, "the only worker is busy");
    assert!(ticket.token.cancel(CancelReason::Cancelled));
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let stats = sched.stats();
    assert_eq!(stats.tenants["kate"].cancelled, 1);
    assert_eq!(stats.tenants["lena"].completed, 1);
    assert_eq!(stats.totals.running, 0);
}

#[test]
fn default_deadline_applies_when_not_overridden() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        queue_capacity: 8,
        default_deadline: Some(Duration::from_millis(20)),
        ..Default::default()
    });
    sched
        .submit("judy", SubmitOptions::default(), |ctx| {
            let start = Instant::now();
            while !ctx.token.is_cancelled() {
                if start.elapsed() > Duration::from_secs(10) {
                    return JobDisposition::Failed;
                }
                std::thread::yield_now();
            }
            JobDisposition::TimedOut
        })
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(sched.stats().tenants["judy"].timed_out, 1);
}

#[test]
fn panicking_job_fails_alone_and_releases_slots() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    sched
        .submit("kate", SubmitOptions::default(), |_| -> JobDisposition {
            panic!("worker bug")
        })
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    // The panic was contained: the only worker thread is alive and
    // idle, and the next submission runs normally on it.
    assert_eq!(sched.stats().totals.running, 0);
    sched
        .submit("kate", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let kate = &sched.stats().tenants["kate"];
    assert_eq!(kate.failed, 1);
    assert_eq!(kate.failed_internal, 1);
    assert_eq!(kate.completed, 1);
    assert_eq!(kate.running, 0);
}

#[test]
fn job_reports_attribute_failure_class_and_degraded_retries() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..Default::default()
    });
    sched
        .submit("lena", SubmitOptions::default(), |_| {
            JobReport::failed(FailureClass::Resource)
        })
        .unwrap();
    sched
        .submit("lena", SubmitOptions::default(), |_| {
            JobReport::new(JobDisposition::Completed).with_degraded_retry(true)
        })
        .unwrap();
    sched
        .submit("lena", SubmitOptions::default(), |_| {
            JobReport::failed(FailureClass::Execution)
        })
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let lena = &sched.stats().tenants["lena"];
    assert_eq!(lena.completed, 1);
    assert_eq!(lena.failed, 2);
    assert_eq!(lena.failed_resource, 1);
    assert_eq!(lena.failed_internal, 0);
    assert_eq!(lena.degraded_retries, 1);
}

#[test]
fn load_snapshot_tracks_queue_pressure_and_backoff() {
    let sched = single_worker_paused();
    let idle = sched.load();
    assert_eq!(idle.queued, 0);
    assert_eq!(idle.retry_after_secs(), 1, "empty backlog still hints >= 1s");

    for _ in 0..5 {
        sched
            .submit("ada", SubmitOptions::default(), |_| JobDisposition::Completed)
            .unwrap();
    }
    let queued = sched.load();
    assert_eq!(queued.queued, 5);
    assert_eq!(queued.workers, 1);
    assert_eq!(queued.retry_after_secs(), 5, "5 queued / 1 worker = 5s hint");

    sched.resume();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(sched.load().queued, 0);
}

#[test]
fn load_snapshot_backoff_is_clamped() {
    let snap = LoadSnapshot {
        workers: 1,
        queued: 10_000,
        queue_capacity: 64,
    };
    assert_eq!(snap.retry_after_secs(), 30);
}
