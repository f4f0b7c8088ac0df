//! Simulated time.
//!
//! Each process carries a local clock (simulated nanoseconds) advanced by
//! one fixed cost model, loosely a late-90s workstation cluster: ~50 µs
//! latency, ~10 MB/s effective bandwidth (100 ns per byte), microsecond
//! overheads. Message arrival is sender completion plus wire time; a
//! receive completes at `max(post time, arrival) + overhead`. Timestamps
//! therefore respect causality (no message is received before it is sent —
//! the property §4.1 derives breakpoint consistency from) and are *schedule
//! independent*: they depend only on local work and message matching, so a
//! faithful replay reproduces the time-space diagram exactly.

/// Fixed local cost of a send call.
pub const SEND_OVERHEAD: u64 = 2_000;
/// Fixed local cost of completing a receive.
pub const RECV_OVERHEAD: u64 = 2_000;
/// Network latency from send completion to availability at the
/// destination; a collective completes this long after its last entry.
pub const LATENCY: u64 = 50_000;
/// Wire cost per byte, added to the latency.
pub const NS_PER_BYTE: u64 = 100;

/// Wire time for a message of `bytes` bytes.
pub fn wire_time(bytes: usize) -> u64 {
    LATENCY + bytes as u64 * NS_PER_BYTE
}

/// Sender-side completion time of a send starting at `t`.
pub fn send_done(t: u64) -> u64 {
    t + SEND_OVERHEAD
}

/// Arrival time at the destination for a send completing at `t_done`.
pub fn arrival(t_done: u64, bytes: usize) -> u64 {
    t_done + wire_time(bytes)
}

/// Completion time of a receive posted at `t_post` for a message arriving
/// at `arrival`.
pub fn recv_done(t_post: u64, arrival: u64) -> u64 {
    t_post.max(arrival) + RECV_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_causal() {
        let t_send_done = send_done(1_000);
        let arr = arrival(t_send_done, 1024);
        let t_recv = recv_done(0, arr);
        assert!(t_recv > t_send_done, "recv must complete after send");
        assert!(arr >= t_send_done + LATENCY);
    }

    #[test]
    fn recv_waits_for_late_message() {
        assert_eq!(recv_done(100_000, 50), 100_000 + RECV_OVERHEAD);
        assert_eq!(recv_done(50, 100_000), 100_000 + RECV_OVERHEAD);
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        assert!(wire_time(1 << 20) > wire_time(1));
        assert_eq!(wire_time(0), LATENCY);
    }
}
