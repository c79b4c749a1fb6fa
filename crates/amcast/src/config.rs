//! Multicast configuration.

use std::time::Duration;

/// Configuration for an atomic multicast deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McastConfig {
    /// Number of groups (= Heron partitions). Must be ≤ 64.
    pub groups: usize,
    /// Replicas per group, `n = 2f + 1`. Must be odd and ≥ 1.
    pub replicas_per_group: usize,
    /// Maximum number of client processes that may attach.
    pub max_clients: usize,
    /// Maximum message payload in bytes.
    pub max_payload: usize,
    /// Submission-ring slots per client per replica node.
    pub sub_slots: usize,
    /// Control-ring slots per writer node per replica node.
    pub ctrl_slots: usize,
    /// Replicated-log slots per group.
    pub log_slots: usize,
    /// Leader heartbeat period.
    pub heartbeat_interval: Duration,
    /// A follower suspects the leader after this much heartbeat silence.
    pub leader_timeout: Duration,
    /// CPU time a client spends preparing and posting one multicast
    /// (serialization + verb posting, calibrated to the paper's Java
    /// prototype).
    pub submit_cpu: Duration,
    /// CPU time the leader spends per message it orders.
    pub ordering_cpu: Duration,
    /// Marginal leader CPU for the 2nd..Nth message ordered within one
    /// group-commit window (header parsing and bookkeeping amortize once
    /// the per-batch costs — cache misses, verb posting, doorbells — are
    /// paid). Never charged at `max_batch = 1`, where a window holds one
    /// message.
    pub ordering_cpu_batched: Duration,
    /// CPU time a follower spends applying one log entry.
    pub follower_cpu: Duration,
    /// Group-commit batch cap: the leader drains finalizable messages in
    /// rounds of up to this many and replicates each round to followers
    /// as one doorbell-batched log append with a single majority-ack
    /// round. `1` (the default, the paper's system) runs the same code
    /// with rounds of one message and doorbells of one write.
    pub max_batch: usize,
    /// Self-test-only knob: drop the `await_epoch` gate on `has_work`'s
    /// truncation-horizon check, re-introducing the PR 8 zero-virtual-time
    /// livelock so `explore_suite --selftest` can prove the livelock
    /// detector catches it. Never enable outside self-tests.
    pub break_has_work_gate: bool,
}

impl McastConfig {
    /// A configuration with `groups` groups of `replicas_per_group`
    /// replicas and calibrated default costs.
    pub fn new(groups: usize, replicas_per_group: usize) -> Self {
        assert!((1..=64).contains(&groups), "1..=64 groups supported");
        assert!(
            replicas_per_group >= 1 && replicas_per_group % 2 == 1,
            "replicas per group must be odd (n = 2f + 1)"
        );
        McastConfig {
            groups,
            replicas_per_group,
            max_clients: 64,
            max_payload: 512,
            sub_slots: 16,
            ctrl_slots: 1024,
            log_slots: 16 * 1024,
            heartbeat_interval: Duration::from_micros(200),
            leader_timeout: Duration::from_millis(2),
            submit_cpu: Duration::from_nanos(3_000),
            ordering_cpu: Duration::from_nanos(6_500),
            ordering_cpu_batched: Duration::from_nanos(850),
            follower_cpu: Duration::from_nanos(800),
            max_batch: 1,
            break_has_work_gate: false,
        }
    }

    /// Sets the maximum number of attachable clients.
    #[must_use]
    pub fn with_max_clients(mut self, n: usize) -> Self {
        self.max_clients = n;
        self
    }

    /// Sets the maximum payload size in bytes.
    #[must_use]
    pub fn with_max_payload(mut self, bytes: usize) -> Self {
        self.max_payload = bytes;
        self
    }

    /// Sets the group-commit batch cap (`1`: rounds of one message).
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_batch must be at least 1");
        self.max_batch = n;
        self
    }

    /// Number of faulty replicas tolerated per group.
    pub fn f(&self) -> usize {
        (self.replicas_per_group - 1) / 2
    }

    /// Quorum size per group (`f + 1`).
    pub fn quorum(&self) -> usize {
        self.f() + 1
    }

    /// Majority size per group (`f + 1` out of `2f + 1`).
    pub fn majority(&self) -> usize {
        self.replicas_per_group / 2 + 1
    }

    /// Total replica nodes across all groups.
    pub fn total_replicas(&self) -> usize {
        self.groups * self.replicas_per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_math() {
        let c = McastConfig::new(4, 3);
        assert_eq!(c.f(), 1);
        assert_eq!(c.quorum(), 2);
        assert_eq!(c.majority(), 2);
        assert_eq!(c.total_replicas(), 12);
        let c5 = McastConfig::new(2, 5);
        assert_eq!(c5.f(), 2);
        assert_eq!(c5.majority(), 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_group_size_rejected() {
        McastConfig::new(2, 4);
    }

    #[test]
    fn builder_setters() {
        let c = McastConfig::new(1, 3)
            .with_max_clients(128)
            .with_max_payload(2048)
            .with_max_batch(8);
        assert_eq!(c.max_clients, 128);
        assert_eq!(c.max_payload, 2048);
        assert_eq!(c.max_batch, 8);
        assert_eq!(
            McastConfig::new(1, 3).max_batch,
            1,
            "batching off by default"
        );
    }
}
