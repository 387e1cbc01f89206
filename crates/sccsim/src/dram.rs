//! Off-chip DRAM behind FIFO memory controllers.
//!
//! Each controller is a single-server FIFO queue: a request arriving while
//! the controller is busy waits until it drains. This is the mechanism
//! behind the paper's observation that Dot Product and LU Decomposition —
//! with "at least 8 cores in contention per memory controller" — gain the
//! least from conversion.

/// The bank of memory controllers.
#[derive(Debug, Clone)]
pub struct DramBank {
    /// Time each controller becomes free again.
    busy_until: Vec<u64>,
    default_occupancy: u64,
}

/// Result of one DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramResponse {
    /// Time the request completes (data available at the controller).
    pub done_at: u64,
    /// Cycles spent waiting behind earlier requests.
    pub queued_for: u64,
}

impl DramBank {
    /// Creates `controllers` FIFO servers with the given default
    /// per-request occupancy.
    pub fn new(controllers: usize, default_occupancy: u64) -> Self {
        DramBank {
            busy_until: vec![0; controllers],
            default_occupancy,
        }
    }

    /// Issues a request to controller `mc` arriving at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    pub fn request(&mut self, mc: usize, at: u64) -> DramResponse {
        let occ = self.default_occupancy;
        self.request_with_occupancy(mc, at, occ)
    }

    /// Issues a request with an explicit controller occupancy (uncached
    /// word accesses burn a whole burst; cacheline fills stream).
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    pub(crate) fn request_with_occupancy(
        &mut self,
        mc: usize,
        at: u64,
        occupancy: u64,
    ) -> DramResponse {
        let start = at.max(self.busy_until[mc]);
        let queued_for = start - at;
        let done_at = start + occupancy;
        self.busy_until[mc] = done_at;
        DramResponse {
            done_at,
            queued_for,
        }
    }

    /// Number of controllers.
    pub fn controllers(&self) -> usize {
        self.busy_until.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_request_is_unqueued() {
        let mut d = DramBank::new(4, 30);
        let r = d.request(0, 100);
        assert_eq!(r.queued_for, 0);
        assert_eq!(r.done_at, 130);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = DramBank::new(1, 30);
        let r1 = d.request(0, 0);
        let r2 = d.request(0, 0);
        let r3 = d.request(0, 0);
        assert_eq!(r1.done_at, 30);
        assert_eq!(r2.queued_for, 30);
        assert_eq!(r2.done_at, 60);
        assert_eq!(r3.queued_for, 60);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut d = DramBank::new(1, 30);
        d.request(0, 0);
        let r = d.request(0, 50);
        assert_eq!(r.queued_for, 0);
        assert_eq!(r.done_at, 80);
    }

    #[test]
    fn controllers_are_independent() {
        let mut d = DramBank::new(2, 30);
        d.request(0, 0);
        let r = d.request(1, 0);
        assert_eq!(r.queued_for, 0, "other controller is free");
    }

    #[test]
    fn contention_grows_with_cores_per_mc() {
        // 8 cores hammering one MC vs 2 cores: mean wait must be higher.
        let mean_wait = |cores: u64| {
            let mut d = DramBank::new(1, 30);
            let waits: u64 = (0..cores).map(|i| d.request(0, i).queued_for).sum();
            waits as f64 / cores as f64
        };
        assert!(mean_wait(8) > mean_wait(2));
    }
}
