//! Lock-free server counters: the `net` group of the counter table in
//! [`ssq_engine::metrics`], recorded here.

use ssq_engine::metrics::NetCells;
use ssq_engine::NetCounters;
use std::sync::atomic::Ordering;

/// Atomic counters for one [`Server`](crate::Server). Every recorder is
/// a single relaxed `fetch_add`; nothing here is on a lock.
#[derive(Debug, Default)]
pub struct NetMetrics {
    cells: NetCells,
}

impl NetMetrics {
    /// Zeroed counters.
    pub fn new() -> NetMetrics {
        NetMetrics::default()
    }

    /// Records an accepted connection (also bumps the active gauge).
    pub fn record_accept(&self) {
        self.cells.accepted.fetch_add(1, Ordering::Relaxed);
        self.cells.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection teardown.
    pub fn record_close(&self) {
        // Saturating decrement: a double-close bug must not wrap the
        // gauge to u64::MAX and poison every later report.
        let _ = self
            .cells
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Connections currently open.
    pub fn active(&self) -> u64 {
        self.cells.active.load(Ordering::Relaxed)
    }

    /// Records a connection refused at the cap.
    pub fn record_shed_connection(&self) {
        self.cells.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request refused by admission control.
    pub fn record_shed_request(&self) {
        self.cells.shed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records bytes read off a socket.
    pub fn record_bytes_in(&self, n: usize) {
        self.cells.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records bytes written to a socket.
    pub fn record_bytes_out(&self, n: usize) {
        self.cells.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a malformed/oversized/wrong-version frame.
    pub fn record_frame_error(&self) {
        self.cells.frame_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write abandoned on a stalled socket.
    pub fn record_write_timeout(&self) {
        self.cells.write_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetCounters {
        self.cells.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_and_snapshot() {
        let m = NetMetrics::new();
        m.record_accept();
        m.record_accept();
        m.record_close();
        m.record_shed_connection();
        m.record_shed_request();
        m.record_bytes_in(100);
        m.record_bytes_out(50);
        m.record_frame_error();
        m.record_write_timeout();
        let s = m.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.active, 1);
        assert_eq!(s.shed_connections, 1);
        assert_eq!(s.shed_requests, 1);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 50);
        assert_eq!(s.frame_errors, 1);
        assert_eq!(s.write_timeouts, 1);
    }

    #[test]
    fn active_gauge_saturates_at_zero() {
        let m = NetMetrics::new();
        m.record_close();
        assert_eq!(m.active(), 0);
    }
}
