//! Replication roles, ack modes, and configuration.
//!
//! SQLShare replicates by streaming the primary's WAL — the
//! self-contained [`Mutation`](crate::persist) journal — to standbys,
//! which apply each record through the same LSN-idempotent path startup
//! recovery uses. This module holds the pieces that are pure state or
//! configuration; the service-side hooks (`apply_replicated`,
//! `promote`, `demote`) live on
//! [`SqlShare`](crate::SqlShare), and the transport (HTTP pull +
//! heartbeat) lives in `sqlshare-server`.

use std::time::Duration;

/// What a node is allowed to do with writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Accepts mutations, stamps them with its lease epoch, serves its
    /// WAL to standbys. Every node starts here unless configured as a
    /// standby.
    #[default]
    Primary,
    /// Applies replicated records and answers what reads state without
    /// writing any: previews, listings, job status polls and the stats
    /// routes. Mutations *and queries* (`POST /api/queries`, downloads)
    /// get a typed `read-only` rejection (503 + `Retry-After` over
    /// REST): a query logs an entry and ticks the clock, and both must
    /// follow the primary's. Promoted to primary when the lease lapses.
    Standby,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
        }
    }
}

/// When a mutation is acknowledged to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// Acknowledged once journaled locally; standbys catch up behind
    /// the ack. Primary loss can lose the un-replicated tail.
    #[default]
    Async,
    /// Acknowledged only after the configured number of standbys
    /// confirm the LSN. An acknowledged write survives primary loss.
    Quorum,
}

/// How a node replicates: whom it follows, when it acknowledges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplConfig {
    /// Address of the primary to follow. Set ⇒ this node boots as a
    /// standby.
    pub primary: Option<String>,
    pub ack: AckMode,
    /// Standby confirmations required per LSN in quorum mode.
    pub quorum: usize,
    /// How long a quorum-mode commit waits for confirmations before
    /// returning a timeout to the client.
    pub ack_timeout: Duration,
    /// Standby poll cadence; each successful poll renews the primary's
    /// lease.
    pub heartbeat: Duration,
    /// Consecutive failed polls after which a standby considers the
    /// lease lapsed and promotes itself.
    pub lease_misses: u32,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            primary: None,
            ack: AckMode::Async,
            quorum: 1,
            ack_timeout: Duration::from_millis(2000),
            heartbeat: Duration::from_millis(500),
            lease_misses: 3,
        }
    }
}

/// What [`SqlShare::apply_replicated`](crate::SqlShare) did with one
/// upstream WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplApply {
    /// New record: journaled and applied locally.
    Applied,
    /// Already have this LSN at the same (or newer) epoch — idempotent
    /// redelivery, safely skipped.
    Duplicate,
    /// The local WAL tail and the upstream history disagree: either the
    /// upstream record's LSN is already occupied locally by a record
    /// from an *older* epoch (a deposed primary rejoining with writes
    /// the new primary never saw), or the record would leave an LSN gap.
    /// The local tail cannot be reconciled record-by-record; the caller
    /// must reseed from a primary snapshot.
    Diverged,
}

/// Per-node replication state carried by the service.
#[derive(Debug, Default)]
pub(crate) struct ReplState {
    pub role: Role,
    /// Current lease epoch: bumped on promotion, adopted from records
    /// on standby, stamped on every journaled mutation for fencing.
    pub epoch: u64,
    /// Epoch of the record at the local last LSN (the WAL tail). Lags
    /// `epoch` when a promotion or adoption has happened but nothing
    /// has been journaled since; `apply_replicated` compares it against
    /// incoming records to detect a divergent tail.
    pub tail_epoch: u64,
    /// Applied-LSN mirror for ephemeral nodes (durable nodes read the
    /// store's high-water mark instead).
    pub applied_lsn: u64,
    /// Newest primary LSN a standby has seen advertised; lag =
    /// hint − local last LSN.
    pub primary_lsn_hint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_node_friendly() {
        let c = ReplConfig::default();
        assert_eq!(c.ack, AckMode::Async);
        assert!(c.primary.is_none());
        assert_eq!(Role::default(), Role::Primary);
        assert_eq!(Role::Standby.name(), "standby");
    }
}
