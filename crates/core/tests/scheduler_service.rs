//! Service-level tests for the multi-tenant query scheduler: genuine
//! async lifecycle, concurrency, deadlines, cancellation, and fairness.

use std::time::Duration;

use sqlshare_core::{JobStatus, SchedulerConfig, SqlShare, Visibility};
use sqlshare_core::dataset::DatasetName;
use sqlshare_ingest::IngestOptions;

/// A service with a public `ada.nums` table of `n` rows.
fn service_with_nums(config: SchedulerConfig, n: usize) -> SqlShare {
    let mut s = SqlShare::with_scheduler(config);
    s.register_user("ada", "ada@example.com").unwrap();
    let mut csv = String::from("n\n");
    for i in 0..n {
        csv.push_str(&format!("{i}\n"));
    }
    s.upload("ada", "nums", &csv, &IngestOptions::default()).unwrap();
    s.set_visibility("ada", &DatasetName::new("ada", "nums"), Visibility::Public)
        .unwrap();
    s
}

/// A cross join whose row count grows cubically — slow enough to be
/// observed in flight, fast enough to finish.
fn cross(owner_prefix: &str) -> String {
    format!(
        "SELECT COUNT(*) FROM {p}nums a JOIN {p}nums b ON 1=1 JOIN {p}nums c ON 1=1",
        p = owner_prefix
    )
}

/// Regression test for the fake-async bug: `submit_query` used to run
/// the query synchronously before returning, so a handle could never be
/// observed in a non-terminal state. A slow query must now be `Queued`
/// or `Running` immediately after submission.
#[test]
fn slow_query_is_observed_in_flight() {
    let s = service_with_nums(SchedulerConfig::default(), 60);
    let id = s.submit_query("ada", &cross("")).unwrap();
    let status = s.query_status(id).unwrap();
    assert!(
        !status.is_terminal(),
        "submit_query must not block until completion; saw {status:?}"
    );
    // Results are refused while the job is in flight.
    assert!(s.query_results(id).is_err());
    // ...and the job still finishes with the right answer.
    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Complete), "got {status:?}");
    let result = s.query_results(id).unwrap();
    assert_eq!(result.rows[0][0].to_text(), (60u64 * 60 * 60).to_string());
}

/// Hammer `submit_query` from 8 threads against an 8-worker pool: every
/// submission gets a handle, execution is genuinely parallel (at some
/// instant at least two jobs are `Running`), and every job completes.
#[test]
fn eight_threads_hammering_submit_query() {
    use std::sync::{Arc, Mutex};

    let mut s = service_with_nums(
        SchedulerConfig { workers: 8, ..Default::default() },
        60,
    );
    for i in 0..8 {
        s.register_user(&format!("user{i}"), &format!("u{i}@example.com"))
            .unwrap();
    }
    let s = Arc::new(Mutex::new(s));
    let ids = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let s = Arc::clone(&s);
            let ids = Arc::clone(&ids);
            std::thread::spawn(move || {
                let user = format!("user{i}");
                for _ in 0..3 {
                    let id = s
                        .lock()
                        .unwrap()
                        .submit_query(&user, &cross("ada."))
                        .unwrap();
                    ids.lock().unwrap().push(id);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let ids = Arc::try_unwrap(ids).unwrap().into_inner().unwrap();
    assert_eq!(ids.len(), 24);

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut peak = 0usize;
    while std::time::Instant::now() < deadline {
        let svc = s.lock().unwrap();
        let running = ids
            .iter()
            .filter(|&&id| matches!(svc.query_status(id), Ok(JobStatus::Running)))
            .count();
        drop(svc);
        peak = peak.max(running);
        if peak >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(peak >= 2, "never saw two jobs running concurrently (peak {peak})");
    let svc = s.lock().unwrap();
    for &id in &ids {
        let status = svc.wait_for_job(id, Duration::from_secs(120)).unwrap();
        assert!(matches!(status, JobStatus::Complete), "job {id}: {status:?}");
    }
    // Job status goes terminal inside the job closure; wait for the
    // workers to finish bookkeeping before reading stats.
    assert!(svc.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = svc.scheduler_stats();
    assert_eq!(stats.totals.completed, 24);
    assert_eq!(stats.tenants.len(), 8);
}

/// Fair dequeue across tenants: with one worker and equal weights, a
/// tenant with a short queue is not starved behind a tenant with a long
/// one — completions interleave round-robin.
#[test]
fn light_tenant_is_not_starved_behind_heavy_one() {
    let mut s = service_with_nums(
        SchedulerConfig { workers: 1, start_paused: true, ..Default::default() },
        5,
    );
    s.register_user("bob", "bob@example.com").unwrap();
    // Six queries from ada, then two from bob, all while paused.
    for _ in 0..6 {
        s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    }
    let bob_ids: Vec<u64> = (0..2)
        .map(|_| s.submit_query("bob", "SELECT COUNT(*) FROM ada.nums").unwrap())
        .collect();
    s.scheduler().resume();
    assert!(s.scheduler().wait_idle(Duration::from_secs(60)));
    for id in bob_ids {
        let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
        assert!(matches!(status, JobStatus::Complete));
    }
    // The query log records completion order: round-robin puts bob's
    // two queries at positions 1 and 3, not after all six of ada's.
    let log = s.log();
    let entries = log.entries();
    let users: Vec<&str> = entries.iter().map(|e| e.user.as_str()).collect();
    assert_eq!(users.len(), 8);
    assert_eq!(users[1], "bob", "completion order {users:?}");
    assert_eq!(users[3], "bob", "completion order {users:?}");
}

/// A query that outlives its deadline terminates `TimedOut` instead of
/// hanging, and its results surface as a timeout error.
#[test]
fn deadline_expired_query_times_out() {
    let s = service_with_nums(SchedulerConfig::default(), 120);
    let id = s
        .submit_query_with_deadline("ada", &cross(""), Some(Duration::from_millis(10)))
        .unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::TimedOut(_)), "got {status:?}");
    assert_eq!(s.query_results(id).unwrap_err().kind(), "timeout");
    let log = s.log();
    let entries = log.entries();
    let last = entries.last().unwrap();
    assert!(matches!(&last.outcome, sqlshare_core::Outcome::Error(k) if k == "timeout"));
    drop(log);
    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.timed_out, 1);
}

/// A query cancelled while still queued never executes: it goes
/// straight to `Cancelled` and the engine is never invoked.
#[test]
fn cancelled_queued_query_never_executes() {
    let s = service_with_nums(
        SchedulerConfig { workers: 1, start_paused: true, ..Default::default() },
        5,
    );
    let id = s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    s.cancel_query("ada", id).unwrap();
    s.scheduler().resume();
    let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, JobStatus::Cancelled(_)), "got {status:?}");
    assert_eq!(s.query_results(id).unwrap_err().kind(), "cancelled");
    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.cancelled, 1);
    assert_eq!(stats.totals.completed, 0);
    // The cancelled job spent no measurable time executing a query.
    let ada = &stats.tenants["ada"];
    assert!(ada.mean_exec_micros() < 5_000.0);
}

/// Only the owner or an admin may cancel a query.
#[test]
fn cancel_requires_ownership_or_admin() {
    let mut s = service_with_nums(
        SchedulerConfig { workers: 1, start_paused: true, ..Default::default() },
        5,
    );
    s.register_user("bob", "bob@example.com").unwrap();
    s.register_user("root", "root@example.com").unwrap();
    s.set_admin("root", true).unwrap();
    let id = s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    let err = s.cancel_query("bob", id).unwrap_err();
    assert_eq!(err.kind(), "permission");
    s.cancel_query("root", id).unwrap();
    s.scheduler().resume();
    let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, JobStatus::Cancelled(_)));
}

/// Admission control at the service layer: a tenant whose queue is full
/// gets `Error::Overloaded`, and the rejection is logged.
#[test]
fn overloaded_tenant_is_rejected() {
    let s = service_with_nums(
        SchedulerConfig {
            workers: 1,
            queue_capacity: 2,
            start_paused: true,
            ..Default::default()
        },
        5,
    );
    s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    let err = s
        .submit_query("ada", "SELECT COUNT(*) FROM ada.nums")
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    {
        let log = s.log();
        let entries = log.entries();
        let last = entries.last().unwrap();
        assert!(matches!(&last.outcome, sqlshare_core::Outcome::Error(k) if k == "overloaded"));
    }
    s.scheduler().resume();
    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.rejected, 1);
    assert_eq!(stats.totals.completed, 2);
}

/// A query the optimizer parallelizes at DOP 4 holds one scheduler
/// worker, like any other query: its region's threads are the engine's.
/// With two workers, a serial query from another tenant runs to
/// completion while the join is still running.
#[test]
fn a_parallel_query_holds_one_worker() {
    let mut s = service_with_nums(
        SchedulerConfig { workers: 2, ..Default::default() },
        20_000,
    );
    s.register_user("bob", "bob@example.com").unwrap();
    s.set_parallelism(4, 0.0);
    // A bucketed self-equijoin: plans as a parallel hash join and
    // produces enough probe output to be observed mid-flight.
    let sql = "SELECT COUNT(*) FROM ada.nums a JOIN ada.nums b ON a.n % 5 = b.n % 5";
    let canonical = s.canonicalize("ada", sql).unwrap();
    assert_eq!(s.engine().plan_dop(&canonical), 4, "query must plan at DOP 4");

    let join = s.submit_query("ada", sql).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if matches!(s.query_status(join), Ok(JobStatus::Running)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(s.query_status(join), Ok(JobStatus::Running)));

    let serial = s.submit_query("bob", "SELECT COUNT(*) FROM ada.nums").unwrap();
    let status = s.wait_for_job(serial, Duration::from_secs(30)).unwrap();
    assert!(matches!(status, JobStatus::Complete), "got {status:?}");
    assert!(
        matches!(s.query_status(join), Ok(JobStatus::Running)),
        "the serial query must complete while the join still runs"
    );

    s.cancel_query("ada", join).unwrap();
    let status = s.wait_for_job(join, Duration::from_secs(30)).unwrap();
    assert!(matches!(status, JobStatus::Cancelled(_)), "got {status:?}");
    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.running, 0);
    assert_eq!(stats.totals.queue_depth, 0);
}

/// Cancelling a DOP-4 hash join mid-execution stops every thread of
/// its parallel region promptly and gives its scheduler worker back.
#[test]
fn cancelled_dop4_hash_join_releases_all_slots_promptly() {
    let mut s = service_with_nums(
        SchedulerConfig { workers: 4, ..Default::default() },
        20_000,
    );
    s.set_parallelism(4, 0.0);
    let sql = "SELECT COUNT(*) FROM ada.nums a JOIN ada.nums b ON a.n % 10 = b.n % 10";
    let id = s.submit_query("ada", sql).unwrap();

    // Wait until the join is genuinely running across the pool.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if matches!(s.query_status(id), Ok(JobStatus::Running)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(s.query_status(id), Ok(JobStatus::Running)));

    let cancelled_at = std::time::Instant::now();
    s.cancel_query("ada", id).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(30)).unwrap();
    assert!(matches!(status, JobStatus::Cancelled(_)), "got {status:?}");
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(5),
        "cancellation took {:?}; parallel workers did not stop promptly",
        cancelled_at.elapsed()
    );
    assert_eq!(s.query_results(id).unwrap_err().kind(), "cancelled");

    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.cancelled, 1);
    assert_eq!(stats.totals.running, 0, "cancelled job kept its worker");
    assert_eq!(stats.totals.queue_depth, 0);
}

/// A job cancelled while its retry-at-DOP-1 is in flight must end
/// `Cancelled`, not `Complete`, and give its worker back. The
/// forced dequeue-exhaustion fault makes the first attempt fail the
/// moment a worker picks the job up, so the degraded serial retry is
/// what the cancel lands on.
#[test]
fn cancel_during_degraded_retry_ends_cancelled() {
    use sqlshare_engine::{FaultPlan, FaultSite};

    let mut s = service_with_nums(SchedulerConfig::default(), 80);
    s.set_fault_plan(Some(FaultPlan::exhaust_at(FaultSite::SchedDequeue)));
    let id = s.submit_query("ada", &cross("")).unwrap();

    // Wait until a worker owns the job; the forced fault fails the
    // first attempt instantly, so a Running job is in (or entering)
    // the degraded retry.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if matches!(s.query_status(id), Ok(JobStatus::Running)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(s.query_status(id), Ok(JobStatus::Running)));
    std::thread::sleep(Duration::from_millis(10));

    s.cancel_query("ada", id).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(30)).unwrap();
    assert!(
        matches!(status, JobStatus::Cancelled(_)),
        "cancel during degraded retry must win; got {status:?}"
    );
    assert_eq!(s.query_results(id).unwrap_err().kind(), "cancelled");

    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.cancelled, 1);
    assert_eq!(stats.totals.completed, 0);
    assert_eq!(stats.totals.degraded_retries, 1);
    assert_eq!(stats.totals.running, 0, "cancelled job kept its worker");
    assert_eq!(stats.totals.queue_depth, 0);
    // The cancelled retry is logged with its failure class and flag.
    let log = s.log();
    let entries = log.entries();
    let last = entries.last().unwrap();
    assert!(last.degraded_retry);
    assert!(matches!(&last.outcome, sqlshare_core::Outcome::Error(k) if k == "cancelled"));
}

/// The memory governor is per query, not per service: a tenant whose
/// query blows its budget (even after the DOP-1 retry) gets a typed
/// resource error, while another tenant's modest query running on the
/// same engine completes untouched.
#[test]
fn memory_killed_query_does_not_take_down_other_tenants() {
    let mut s = service_with_nums(SchedulerConfig::default(), 60);
    s.register_user("bob", "bob@example.com").unwrap();
    // ~200 KB of result rows against a 96 KB budget: too big even for
    // the serial retry's minimal footprint.
    s.set_query_mem_limit(96 * 1024);
    let big = "SELECT a.n, b.n FROM ada.nums a JOIN ada.nums b ON a.n % 1 = b.n % 1";
    let big_id = s.submit_query("ada", big).unwrap();
    let small_id = s.submit_query("bob", "SELECT COUNT(*) FROM ada.nums").unwrap();

    let big_status = s.wait_for_job(big_id, Duration::from_secs(60)).unwrap();
    assert!(matches!(big_status, JobStatus::Failed(_)), "got {big_status:?}");
    assert_eq!(s.query_results(big_id).unwrap_err().kind(), "resource");
    let small_status = s.wait_for_job(small_id, Duration::from_secs(60)).unwrap();
    assert!(matches!(small_status, JobStatus::Complete), "got {small_status:?}");
    assert_eq!(s.query_results(small_id).unwrap().rows[0][0].to_text(), "60");

    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.completed, 1);
    assert_eq!(stats.totals.failed, 1);
    assert_eq!(stats.tenants["ada"].failed_resource, 1);
    assert_eq!(stats.tenants["ada"].degraded_retries, 1);
    assert_eq!(stats.tenants["bob"].completed, 1);
    assert_eq!(stats.totals.running, 0, "a job kept its worker");
    assert_eq!(stats.totals.queue_depth, 0);
}

/// An injected panic inside a parallel worker at DOP 4 fails only its
/// own job: the panic is contained into `Error::Internal`, its worker
/// comes back, and the very next submission runs clean.
#[test]
fn worker_panic_at_dop4_fails_one_job_and_service_survives() {
    use sqlshare_engine::{FaultPlan, FaultSite};

    let mut s = service_with_nums(
        SchedulerConfig { workers: 4, ..Default::default() },
        20_000,
    );
    s.set_parallelism(4, 0.0);
    let sql = "SELECT COUNT(*) FROM ada.nums a JOIN ada.nums b ON a.n % 10 = b.n % 10";
    let canonical = s.canonicalize("ada", sql).unwrap();
    assert_eq!(s.engine().plan_dop(&canonical), 4, "query must plan at DOP 4");

    s.set_fault_plan(Some(FaultPlan::panic_at(FaultSite::Scan)));
    let id = s.submit_query("ada", sql).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Failed(_)), "got {status:?}");
    let err = s.query_results(id).unwrap_err();
    assert_eq!(err.kind(), "internal", "{err}");

    assert!(s.scheduler().wait_idle(Duration::from_secs(30)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.failed, 1);
    assert_eq!(stats.tenants["ada"].failed_internal, 1);
    assert_eq!(stats.totals.running, 0, "panicked job kept its worker");
    assert_eq!(stats.totals.queue_depth, 0);

    // The process kept serving: clear the plan and run again.
    s.set_fault_plan(None);
    let id = s.submit_query("ada", sql).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Complete), "got {status:?}");
}

/// Queue-wait and execution time are split in the query log.
#[test]
fn query_log_records_queue_wait_split() {
    let s = service_with_nums(
        SchedulerConfig { workers: 1, start_paused: true, ..Default::default() },
        5,
    );
    let id = s.submit_query("ada", "SELECT COUNT(*) FROM ada.nums").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    s.scheduler().resume();
    let status = s.wait_for_job(id, Duration::from_secs(10)).unwrap();
    assert!(matches!(status, JobStatus::Complete));
    let log = s.log();
    let entries = log.entries();
    let last = entries.last().unwrap();
    // The job sat in the paused queue for >= 20ms before running.
    assert!(
        last.queue_wait_micros >= 20_000,
        "queue wait {} micros",
        last.queue_wait_micros
    );
}
