//! The fsync policy of the durable suites (recovery, failover,
//! integrity): their own parameter, read here and nowhere else.

use sqlshare_core::FsyncPolicy;

/// `SQLSHARE_FSYNC` as the CI leg set it, the default when it is unset.
/// Crashes and bit flips in these suites are simulated, so `off` is as
/// strong as `always` and much faster. A value that is not a policy
/// fails the suite: a typo on the `always` leg must not test `batch`.
pub fn policy() -> FsyncPolicy {
    match std::env::var("SQLSHARE_FSYNC") {
        Err(std::env::VarError::NotPresent) => FsyncPolicy::default(),
        value => {
            let value = value.expect("SQLSHARE_FSYNC");
            FsyncPolicy::parse(&value)
                .unwrap_or_else(|| panic!("SQLSHARE_FSYNC={value:?}: not `always`, `batch` or `off`"))
        }
    }
}
