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
    // Tenant "heavy" floods 6 jobs before "light" submits 2. With
    // equal weights the scheduler must alternate turns, so light's
    // jobs run long before heavy's backlog drains.
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
    // Round-robin with weight 1: H L H L H H H H.
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
fn tenant_weight_grants_longer_turns() {
    let sched = single_worker_paused();
    sched.set_tenant_weight("big", 2);
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4 {
        let order = Arc::clone(&order);
        sched
            .submit("big", SubmitOptions::default(), move |_| {
                order.lock().unwrap().push(format!("big{i}"));
                JobDisposition::Completed
            })
            .unwrap();
    }
    for i in 0..2 {
        let order = Arc::clone(&order);
        sched
            .submit("small", SubmitOptions::default(), move |_| {
                order.lock().unwrap().push(format!("small{i}"));
                JobDisposition::Completed
            })
            .unwrap();
    }
    sched.resume();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let order = order.lock().unwrap().clone();
    // Weight 2 for big: B B S B B S.
    assert_eq!(
        order,
        ["big0", "big1", "small0", "big2", "big3", "small1"],
        "weighted turn order mismatch"
    );
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
fn parallel_job_holds_multiple_slots() {
    // A DOP-4 query consumes 4 worker slots: while it runs, a serial
    // job from another tenant must wait even though worker threads are
    // free.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 4,
        ..Default::default()
    });
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel();
    sched
        .submit(
            "wide",
            SubmitOptions {
                slots: 4,
                ..Default::default()
            },
            move |_| {
                started_tx.send(()).unwrap();
                hold_rx.recv().unwrap();
                JobDisposition::Completed
            },
        )
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let narrow_ran = Arc::new(AtomicUsize::new(0));
    let nr = Arc::clone(&narrow_ran);
    sched
        .submit("narrow", SubmitOptions::default(), move |_| {
            nr.fetch_add(1, AtomicOrdering::SeqCst);
            JobDisposition::Completed
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let stats = sched.stats();
    assert_eq!(stats.totals.running, 1);
    assert_eq!(stats.totals.running_slots, 4);
    assert_eq!(stats.tenants["wide"].running_slots, 4);
    assert_eq!(sched.free_slots(), 0);
    assert_eq!(narrow_ran.load(AtomicOrdering::SeqCst), 0, "narrow job must be slot-gated");
    hold_tx.send(()).unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(narrow_ran.load(AtomicOrdering::SeqCst), 1);
    let stats = sched.stats();
    assert_eq!(stats.totals.running_slots, 0);
    assert_eq!(sched.free_slots(), stats.workers);
}

#[test]
fn narrow_job_slips_past_queued_wide_job() {
    // First fit over the rotation: a queued DOP-2 job that doesn't fit
    // must not block another tenant's serial job from using the one
    // free slot.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    });
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel();
    sched
        .submit("holder", SubmitOptions::default(), move |_| {
            started_tx.send(()).unwrap();
            hold_rx.recv().unwrap();
            JobDisposition::Completed
        })
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    sched
        .submit(
            "wide",
            SubmitOptions {
                slots: 2,
                ..Default::default()
            },
            move |_| {
                o.lock().unwrap().push("wide");
                JobDisposition::Completed
            },
        )
        .unwrap();
    let o = Arc::clone(&order);
    let (narrow_done_tx, narrow_done_rx) = mpsc::channel();
    sched
        .submit("narrow", SubmitOptions::default(), move |_| {
            o.lock().unwrap().push("narrow");
            narrow_done_tx.send(()).unwrap();
            JobDisposition::Completed
        })
        .unwrap();
    // The narrow job runs in the free slot while the wide one waits.
    narrow_done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(order.lock().unwrap().clone(), vec!["narrow"]);
    assert_eq!(sched.queue_depth("wide"), 1);
    hold_tx.send(()).unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    assert_eq!(order.lock().unwrap().clone(), vec!["narrow", "wide"]);
}

#[test]
fn starved_wide_job_earns_reservation_against_narrow_stream() {
    // A DOP-4 job behind a stream of narrow jobs: first fit would let
    // each narrow job slip through the free slots forever (one slot is
    // pinned by a holder, so the wide job never fits). After enough
    // pass-overs the wide job must earn a reservation that holds the
    // narrow stream back, drains the pinned slot's tenant, and runs.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 4,
        ..Default::default()
    });
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel();
    sched
        .submit("holder", SubmitOptions::default(), move |_| {
            started_tx.send(()).unwrap();
            hold_rx.recv().unwrap();
            JobDisposition::Completed
        })
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    sched
        .submit(
            "wide",
            SubmitOptions {
                slots: 4,
                ..Default::default()
            },
            |_| JobDisposition::Completed,
        )
        .unwrap();
    // Feed narrow jobs until the reservation engages: once it does, new
    // narrow jobs stay queued even though a slot is free for them.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut submitted = 0;
    loop {
        sched
            .submit("narrow", SubmitOptions::default(), |_| JobDisposition::Completed)
            .unwrap();
        submitted += 1;
        std::thread::sleep(Duration::from_millis(2));
        if sched.queue_depth("narrow") > 0 {
            break; // held back: the wide job's slots are reserved
        }
        assert!(
            Instant::now() < deadline,
            "reservation never engaged after {submitted} narrow jobs slipped past the wide job"
        );
    }
    assert_eq!(sched.queue_depth("wide"), 1, "wide job still queued");
    // Release the pinned slot: the reserved wide job must now run, and
    // the held-back narrow jobs drain after it.
    hold_tx.send(()).unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    let stats = sched.stats();
    assert_eq!(stats.tenants["wide"].completed, 1);
    assert_eq!(stats.tenants["narrow"].completed, submitted);
    assert_eq!(stats.totals.running_slots, 0);
}

#[test]
fn cancelled_wide_job_releases_all_slots() {
    // Cancelling a DOP-4 job mid-execution must return every slot to
    // the pool promptly.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 4,
        ..Default::default()
    });
    let (started_tx, started_rx) = mpsc::channel();
    let ticket = sched
        .submit(
            "kate",
            SubmitOptions {
                slots: 4,
                ..Default::default()
            },
            move |ctx| {
                started_tx.send(()).unwrap();
                let start = Instant::now();
                while !ctx.token.is_cancelled() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return JobDisposition::Failed; // never hit
                    }
                    std::thread::yield_now();
                }
                JobDisposition::Cancelled
            },
        )
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(sched.free_slots(), 0);
    assert!(ticket.token.cancel(CancelReason::Cancelled));
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let stats = sched.stats();
    assert_eq!(stats.tenants["kate"].cancelled, 1);
    assert_eq!(stats.totals.running_slots, 0);
    assert_eq!(sched.free_slots(), stats.workers);
}

#[test]
fn oversized_slot_request_is_clamped_to_capacity() {
    // A job asking for more slots than exist must still be runnable.
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..Default::default()
    });
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (started_tx, started_rx) = mpsc::channel();
    sched
        .submit(
            "greedy",
            SubmitOptions {
                slots: 100,
                ..Default::default()
            },
            move |_| {
                started_tx.send(()).unwrap();
                hold_rx.recv().unwrap();
                JobDisposition::Completed
            },
        )
        .unwrap();
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(sched.stats().totals.running_slots, 2);
    hold_tx.send(()).unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
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
        workers: 4,
        ..Default::default()
    });
    let total_slots = sched.stats().workers;
    sched
        .submit(
            "kate",
            SubmitOptions {
                slots: 4,
                ..Default::default()
            },
            |_| -> JobDisposition { panic!("worker bug") },
        )
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    // The panic was contained: slots are back, the worker thread is
    // alive, and the next submission runs normally.
    assert_eq!(sched.free_slots(), total_slots);
    sched
        .submit("kate", SubmitOptions::default(), |_| JobDisposition::Completed)
        .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(5)));
    let kate = &sched.stats().tenants["kate"];
    assert_eq!(kate.failed, 1);
    assert_eq!(kate.failed_internal, 1);
    assert_eq!(kate.completed, 1);
    assert_eq!(sched.free_slots(), total_slots);
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
    assert!(!idle.saturated());
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
        running_slots: 1,
        queued: 10_000,
        queue_capacity: 64,
    };
    assert!(snap.saturated());
    assert_eq!(snap.retry_after_secs(), 30);
}
