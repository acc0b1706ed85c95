//! Parallelism is sized from the CPUs the engine may run on, measured
//! once by `Engine::new` on the thread that builds it; an explicit DOP
//! runs that many workers whatever the host has.
//!
//! One test in its own binary: it installs a process-wide panic hook.

use sqlshare_engine::faults::{FaultPlan, FaultSite, INJECTED_PANIC};
use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread (and the threads it spawns) to the first CPU
/// it may run on.
fn pin_to_one_cpu() {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes; pid 0 is the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, size, &mut allowed) }, 0);
    let word = allowed.iter().position(|w| *w != 0).expect("the thread may run somewhere");
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly `size` bytes naming one
    // CPU the thread is already allowed on; pid 0 is the calling thread.
    assert_eq!(unsafe { sched_setaffinity(0, size, &one) }, 0);
}

/// `facts(k, v)`: 60,000 rows over 500 keys; `dims(id, name)`: 500 rows.
fn tables(e: &mut Engine) {
    let facts = (0..60_000).map(|i| vec![Value::Int(i % 500), Value::Float((i % 97) as f64)]).collect();
    e.create_table(Table::new(
        "facts",
        Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)]),
        facts,
    ))
    .unwrap();
    let dims = (0..500).map(|i| vec![Value::Int(i), Value::Text(format!("dim{i}"))]).collect();
    e.create_table(Table::new(
        "dims",
        Schema::from_pairs([("id", DataType::Int), ("name", DataType::Text)]),
        dims,
    ))
    .unwrap();
}

const JOIN_AGG: &str = "SELECT d.name, COUNT(*), SUM(f.v) FROM facts AS f JOIN dims AS d ON f.k = d.id GROUP BY d.name";

#[test]
fn on_one_cpu_plans_are_serial_and_an_explicit_dop_still_runs_workers() {
    std::thread::spawn(|| {
        pin_to_one_cpu();
        let mut engine = Engine::new();
        assert_eq!(engine.max_dop(), 1);
        tables(&mut engine);
        let plan = engine.explain(JOIN_AGG).unwrap();
        let names = plan.operator_names();
        assert!(!names.iter().any(|n| n.starts_with("Parallelism")), "{names:?}");
        // The plan is serial for want of CPUs, not for want of cost.
        engine.set_max_dop(4);
        assert_eq!(engine.explain(JOIN_AGG).unwrap().max_parallelism(), 4);

        // Every morsel's probe panics (contained, the query fails), and
        // the hook notes which thread it ran on; the pause lets the other
        // workers start and claim morsels even on one CPU.
        engine.set_fault_plan(Some(FaultPlan::panic_at(FaultSite::JoinProbe)));
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&threads);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.to_string().contains(INJECTED_PANIC) {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        let err = engine.run(JOIN_AGG).unwrap_err();
        std::panic::set_hook(previous);
        assert!(err.message().contains(INJECTED_PANIC), "{err}");
        let threads = threads.lock().unwrap().len();
        assert!(threads > 1, "the morsels ran on {threads} thread(s)");
    })
    .join()
    .unwrap();
}
