//! Deterministic fault injection for chaos testing.
//!
//! A public SQL service survives by containing failure, and the only way
//! to trust containment is to exercise it constantly. A [`FaultPlan`] is
//! a seeded source of injected failures at named execution sites
//! ([`FaultSite`]): each check draws from a counter-indexed hash stream
//! (a pure function of seed, site, and draw index — no wall clock, no OS
//! randomness), and with probability `rate` injects one of three faults:
//!
//! * an `Error::Execution` ("injected fault at <site>") — the well-typed
//!   failure path,
//! * a `panic!` — exercising the `catch_unwind` containment barriers in
//!   the engine, morsel workers, and scheduler, or
//! * a short artificial delay — shaking out timing assumptions.
//!
//! Installed only by a caller, through `Engine::set_fault_plan` /
//! `SqlShare::set_fault_plan`: no deployment setting reaches it. The
//! chaos differential suite (`tests/chaos_differential.rs`) replays the
//! wlgen corpora under injection and asserts containment invariants.

use crate::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Named execution sites where faults can be injected. The set follows
/// the allocation/handoff points of a query's life: scans feed joins,
/// builds feed probes, partials feed merges, results feed the cache, and
/// the scheduler hands jobs to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Base-table scan / seek (serial executor and each parallel morsel).
    Scan,
    /// Hash-join build-table construction.
    JoinBuild,
    /// Hash-join probe.
    JoinProbe,
    /// Aggregate state construction / partial merge.
    AggMerge,
    /// Result-cache insertion (after a successful execution).
    CacheInsert,
    /// Scheduler dequeue — the moment a worker picks the job up.
    SchedDequeue,
    /// Write-ahead-log append (durable storage). An injected failure
    /// here models a failed or short write: the storage layer leaves a
    /// deterministic torn prefix on disk, then repairs it, so the
    /// mutation is rejected atomically and recovery never sees it.
    WalAppend,
    /// WAL fsync. An injected failure models an fsync error after the
    /// record bytes were written; the storage layer aborts (truncates)
    /// the record so the unacknowledged mutation leaves no trace.
    WalFsync,
    /// Catalog snapshot write. Failure skips the snapshot (and the WAL
    /// truncation that would follow it); the WAL keeps full history.
    SnapshotWrite,
    /// WAL scan at recovery/replication time. Bit-rot injection flips a
    /// seeded bit in the scanned image, modeling interior WAL rot.
    WalScan,
    /// Snapshot candidate load. Bit-rot injection flips a seeded bit in
    /// the snapshot bytes, modeling a decayed snapshot file.
    SnapshotLoad,
}

impl FaultSite {
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Scan => "scan",
            FaultSite::JoinBuild => "join-build",
            FaultSite::JoinProbe => "join-probe",
            FaultSite::AggMerge => "agg-merge",
            FaultSite::CacheInsert => "cache-insert",
            FaultSite::SchedDequeue => "sched-dequeue",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalFsync => "wal-fsync",
            FaultSite::SnapshotWrite => "snapshot-write",
            FaultSite::WalScan => "wal-scan",
            FaultSite::SnapshotLoad => "snapshot-load",
        }
    }

    fn index(self) -> u64 {
        match self {
            FaultSite::Scan => 1,
            FaultSite::JoinBuild => 2,
            FaultSite::JoinProbe => 3,
            FaultSite::AggMerge => 4,
            FaultSite::CacheInsert => 5,
            FaultSite::SchedDequeue => 6,
            FaultSite::WalAppend => 7,
            FaultSite::WalFsync => 8,
            FaultSite::SnapshotWrite => 9,
            FaultSite::WalScan => 11,
            FaultSite::SnapshotLoad => 12,
        }
    }
}

/// Message prefix of every injected panic, so containment code and tests
/// can tell an injected panic from a genuine bug if they need to.
pub const INJECTED_PANIC: &str = "injected panic at ";

/// A seeded fault-injection schedule, shared (via `Arc`) by every guard
/// an engine creates. The draw counter advances on every check, so under
/// a serial replay the fault sequence is a pure function of the seed;
/// under parallel workers the per-site decisions stay seed-deterministic
/// even though thread interleaving varies which query absorbs them.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Injection probability per check, in parts per million.
    rate_ppm: u64,
    /// Bit-rot probability per at-rest read, in parts per million.
    /// Separate from `rate_ppm` so `seed:rate` chaos runs keep their
    /// historical behavior unless rot is asked for explicitly.
    rot_ppm: u64,
    draws: AtomicU64,
    /// Deterministic override: always inject one specific fault at one
    /// site and nothing anywhere else. Regression-test hook — seeded
    /// plans never set this.
    forced: Option<(FaultSite, ForcedFault)>,
}

/// The fault kind a forced plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForcedFault {
    Panic,
    Exhausted,
    Fail,
    Rot,
}

impl FaultPlan {
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate_ppm: ((rate.clamp(0.0, 1.0)) * 1_000_000.0) as u64,
            rot_ppm: 0,
            draws: AtomicU64::new(0),
            forced: None,
        }
    }

    /// Enable seeded bit-rot at the at-rest sites ([`FaultSite::WalScan`],
    /// [`FaultSite::SnapshotLoad`]) with the given per-read probability.
    /// Rot draws come from the same counter-indexed stream as fault
    /// draws, so a rot schedule is a pure function of the seed.
    pub fn with_rot(mut self, rate: f64) -> Self {
        self.rot_ppm = ((rate.clamp(0.0, 1.0)) * 1_000_000.0) as u64;
        self
    }

    /// A plan that flips one seeded bit on *every* rot check at `site`
    /// and nothing anywhere else — the deterministic worst case for
    /// corruption-detection tests.
    pub fn rot_at(site: FaultSite) -> Self {
        FaultPlan {
            forced: Some((site, ForcedFault::Rot)),
            ..FaultPlan::new(0, 0.0)
        }
    }

    /// A plan that panics on *every* check at `site` and is a no-op
    /// everywhere else — the deterministic worst case for containment
    /// tests (the seeded path makes panics probabilistic).
    pub fn panic_at(site: FaultSite) -> Self {
        FaultPlan {
            forced: Some((site, ForcedFault::Panic)),
            ..FaultPlan::new(0, 0.0)
        }
    }

    /// A plan that injects `Error::ResourceExhausted` on every check at
    /// `site` — deterministically drives the degraded-retry path.
    pub fn exhaust_at(site: FaultSite) -> Self {
        FaultPlan {
            forced: Some((site, ForcedFault::Exhausted)),
            ..FaultPlan::new(0, 0.0)
        }
    }

    /// A plan that injects a typed `Error::Execution` on every check at
    /// `site` — deterministically drives well-typed failure paths (e.g.
    /// every WAL append fails, every fsync fails).
    pub fn fail_at(site: FaultSite) -> Self {
        FaultPlan {
            forced: Some((site, ForcedFault::Fail)),
            ..FaultPlan::new(0, 0.0)
        }
    }

    /// Parse a `seed:rate` spec, e.g. `12345:0.05`.
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let (seed, rate) = spec.trim().split_once(':')?;
        let seed = seed.trim().parse::<u64>().ok()?;
        let rate = rate.trim().parse::<f64>().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        Some(FaultPlan::new(seed, rate))
    }

    /// Draw once for `site`: usually a no-op, sometimes an injected
    /// error, panic, or delay. Callers must sit under a `catch_unwind`
    /// containment barrier (every `ExecGuard::fault` site does).
    pub fn check(&self, site: FaultSite) -> Result<()> {
        if let Some((forced_site, kind)) = self.forced {
            if forced_site != site {
                return Ok(());
            }
            match kind {
                // Rot plans only act through `rot()`.
                ForcedFault::Rot => return Ok(()),
                ForcedFault::Panic => panic!("{INJECTED_PANIC}{}", site.name()),
                ForcedFault::Exhausted => {
                    return Err(Error::ResourceExhausted(format!(
                        "injected exhaustion at {}",
                        site.name()
                    )))
                }
                ForcedFault::Fail => {
                    return Err(Error::Execution(format!(
                        "injected fault at {}",
                        site.name()
                    )))
                }
            }
        }
        if self.rate_ppm == 0 {
            return Ok(());
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed, site.index(), draw);
        if h % 1_000_000 >= self.rate_ppm {
            return Ok(());
        }
        match (h / 1_000_000) % 3 {
            0 => Err(Error::Execution(format!(
                "injected fault at {}",
                site.name()
            ))),
            1 => panic!("{INJECTED_PANIC}{}", site.name()),
            _ => {
                // An artificial stall, long enough to reorder racing
                // workers, short enough that a 5% rate stays fast.
                std::thread::sleep(Duration::from_micros(200));
                Ok(())
            }
        }
    }

    /// Draw once for an at-rest read of `buf` at `site`: usually a
    /// no-op, sometimes (per the rot rate, or always under a
    /// [`FaultPlan::rot_at`] plan) flips one seeded bit in `buf` before
    /// the caller verifies its checksum. Returns the flipped bit offset.
    ///
    /// The flip happens in the *read* image, never the file, so rot is
    /// repeatable per draw stream without physically damaging state a
    /// later read in the same test depends on.
    pub fn rot(&self, site: FaultSite, buf: &mut [u8]) -> Option<usize> {
        if buf.is_empty() {
            return None;
        }
        let h = match self.forced {
            Some((forced_site, ForcedFault::Rot)) => {
                if forced_site != site {
                    return None;
                }
                mix(
                    self.seed,
                    site.index(),
                    self.draws.fetch_add(1, Ordering::Relaxed),
                )
            }
            Some(_) => return None,
            None => {
                if self.rot_ppm == 0 {
                    return None;
                }
                let draw = self.draws.fetch_add(1, Ordering::Relaxed);
                let h = mix(self.seed, site.index(), draw);
                if h % 1_000_000 >= self.rot_ppm {
                    return None;
                }
                h
            }
        };
        let bit = (h >> 20) as usize % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        Some(bit)
    }

    /// Draws made so far (test observability).
    pub fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }
}

/// SplitMix64-style avalanche over (seed, site, draw).
fn mix(seed: u64, site: u64, draw: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(site.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(draw.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate_and_rejects_garbage() {
        let p = FaultPlan::parse("12345:0.05").unwrap();
        assert_eq!(p.seed, 12345);
        assert_eq!(p.rate_ppm, 50_000);
        assert!(FaultPlan::parse("12345").is_none());
        assert!(FaultPlan::parse("x:0.05").is_none());
        assert!(FaultPlan::parse("1:1.5").is_none());
        assert!(FaultPlan::parse("1:-0.1").is_none());
        assert!(FaultPlan::parse("7 : 0.5 ").is_some());
    }

    #[test]
    fn zero_rate_never_fires_and_never_draws() {
        let p = FaultPlan::new(99, 0.0);
        for _ in 0..10_000 {
            p.check(FaultSite::Scan).unwrap();
        }
        assert_eq!(p.draws(), 0);
    }

    #[test]
    fn rate_is_roughly_honored_and_all_kinds_appear() {
        let p = FaultPlan::new(42, 0.2);
        let (mut errs, mut panics, mut oks) = (0u32, 0u32, 0u32);
        for _ in 0..5_000 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.check(FaultSite::JoinProbe)
            })) {
                Ok(Ok(())) => oks += 1,
                Ok(Err(e)) => {
                    assert_eq!(e.kind(), "execution");
                    assert!(e.message().contains("join-probe"));
                    errs += 1;
                }
                Err(payload) => {
                    let msg = Error::from_panic(payload);
                    assert!(msg.message().contains(INJECTED_PANIC), "{msg}");
                    panics += 1;
                }
            }
        }
        assert!(errs > 0 && panics > 0, "errs={errs} panics={panics}");
        let fired = errs + panics;
        // Delays count as "fired" draws too, but are invisible here; the
        // visible failure rate must be near 2/3 of 20%.
        assert!(
            (300..=1_100).contains(&fired),
            "fired={fired} of 5000 at rate 0.2"
        );
        assert!(oks > 3_000);
    }

    #[test]
    fn forced_plans_fire_only_at_their_site() {
        let p = FaultPlan::exhaust_at(FaultSite::CacheInsert);
        p.check(FaultSite::Scan).unwrap();
        p.check(FaultSite::JoinProbe).unwrap();
        let err = p.check(FaultSite::CacheInsert).unwrap_err();
        assert_eq!(err.kind(), "resource");

        let p = FaultPlan::panic_at(FaultSite::Scan);
        p.check(FaultSite::AggMerge).unwrap();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.check(FaultSite::Scan);
        }))
        .unwrap_err();
        assert!(Error::from_panic(payload).message().contains("scan"));
    }

    #[test]
    fn storage_sites_have_distinct_names_and_indexes() {
        let sites = [
            FaultSite::Scan,
            FaultSite::JoinBuild,
            FaultSite::JoinProbe,
            FaultSite::AggMerge,
            FaultSite::CacheInsert,
            FaultSite::SchedDequeue,
            FaultSite::WalAppend,
            FaultSite::WalFsync,
            FaultSite::SnapshotWrite,
            FaultSite::WalScan,
            FaultSite::SnapshotLoad,
        ];
        let mut names: Vec<&str> = sites.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sites.len());
        let mut idx: Vec<u64> = sites.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), sites.len());
    }

    #[test]
    fn fail_at_injects_typed_execution_errors_only_at_its_site() {
        let p = FaultPlan::fail_at(FaultSite::WalAppend);
        p.check(FaultSite::WalFsync).unwrap();
        p.check(FaultSite::Scan).unwrap();
        let err = p.check(FaultSite::WalAppend).unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("injected fault at wal-append"));
    }

    #[test]
    fn rot_plans_flip_exactly_one_bit_only_at_their_site() {
        let p = FaultPlan::rot_at(FaultSite::WalScan);
        let clean = vec![0xAAu8; 64];

        let mut buf = clean.clone();
        assert!(p.rot(FaultSite::Scan, &mut buf).is_none());
        assert!(p.rot(FaultSite::SnapshotLoad, &mut buf).is_none());
        assert_eq!(buf, clean, "rot fired at a foreign site");
        p.check(FaultSite::WalScan).unwrap();

        let bit = p.rot(FaultSite::WalScan, &mut buf).expect("forced rot");
        let differing: u32 = clean
            .iter()
            .zip(&buf)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1, "exactly one bit must flip");
        assert_eq!(buf[bit / 8] ^ clean[bit / 8], 1 << (bit % 8));

        // Same seed, same draw index, same flip.
        let q = FaultPlan::rot_at(FaultSite::WalScan);
        let mut other = clean.clone();
        let _ = q.rot(FaultSite::Scan, &mut other);
        let _ = q.rot(FaultSite::SnapshotLoad, &mut other);
        let _ = q.check(FaultSite::WalScan);
        assert_eq!(q.rot(FaultSite::WalScan, &mut other), Some(bit));

        // Seeded plans honor the separate rot rate.
        let seeded = FaultPlan::new(7, 0.0).with_rot(1.0);
        let mut buf = clean.clone();
        assert!(seeded.rot(FaultSite::WalScan, &mut buf).is_some());
        let silent = FaultPlan::new(7, 0.5);
        let mut buf = clean.clone();
        assert!(silent.rot(FaultSite::WalScan, &mut buf).is_none());
        assert_eq!(buf, clean, "fault-only plans must never rot");
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(7, 0.5);
        let b = FaultPlan::new(7, 0.5);
        for _ in 0..200 {
            let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.check(FaultSite::Scan).is_ok()
            }));
            let rb = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.check(FaultSite::Scan).is_ok()
            }));
            match (ra, rb) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(_), Err(_)) => {}
                other => panic!("decision streams diverged: {other:?}"),
            }
        }
    }
}
