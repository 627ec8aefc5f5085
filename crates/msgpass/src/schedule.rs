//! Update schedules: the frequency knobs of §4.3 and Figure 3.
//!
//! Each of the four transaction types has an independent frequency
//! parameter; the paper's tables sweep them. A type set to `None` is
//! disabled, giving pure sender-initiated, pure receiver-initiated, or
//! mixed schedules.

/// Frequencies of the four update transaction types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateSchedule {
    /// Send absolute own-region data to mesh neighbours every `N` wires
    /// routed (sender-initiated; "SendLocData" column of Table 1).
    pub send_loc_data: Option<u32>,
    /// Send accumulated deltas to foreign owners every `N` wires routed
    /// (sender-initiated; "SendRmtData" column of Table 1).
    pub send_rmt_data: Option<u32>,
    /// After receiving `N` `ReqRmtData` requests from one processor, ask
    /// it for its deltas to our region (receiver-initiated, owner side;
    /// "ReqLocData" column of Table 2).
    pub req_loc_data: Option<u32>,
    /// After `N` upcoming-wire touches of a foreign region, request that
    /// region from its owner (receiver-initiated, non-owner side;
    /// "ReqRmtData" column of Table 2).
    pub req_rmt_data: Option<u32>,
    /// Whether a processor that has requested an update blocks until the
    /// response arrives (§4.3.3). Only meaningful with `req_rmt_data`.
    pub blocking: bool,
}

impl UpdateSchedule {
    /// Pure sender-initiated schedule (Table 1 rows): `SendRmtData` every
    /// `rmt` wires, `SendLocData` every `loc` wires.
    pub fn sender_initiated(rmt: u32, loc: u32) -> Self {
        UpdateSchedule {
            send_loc_data: Some(loc),
            send_rmt_data: Some(rmt),
            req_loc_data: None,
            req_rmt_data: None,
            blocking: false,
        }
    }

    /// Pure non-blocking receiver-initiated schedule (Table 2 rows):
    /// `ReqLocData` after `loc` requests, `ReqRmtData` after `rmt`
    /// region touches.
    pub fn receiver_initiated(loc: u32, rmt: u32) -> Self {
        UpdateSchedule {
            send_loc_data: None,
            send_rmt_data: None,
            req_loc_data: Some(loc),
            req_rmt_data: Some(rmt),
            blocking: false,
        }
    }

    /// Blocking variant of [`Self::receiver_initiated`] (§5.1.3).
    pub fn receiver_initiated_blocking(loc: u32, rmt: u32) -> Self {
        UpdateSchedule { blocking: true, ..Self::receiver_initiated(loc, rmt) }
    }

    /// The paper's headline sender-initiated schedule (2,10): the Table 1
    /// row whose traffic and time Tables 4 and 6 and §5.2 repeat.
    pub fn sender_paper() -> Self {
        Self::sender_initiated(2, 10)
    }

    /// The paper's headline receiver-initiated schedule (1,5), the one
    /// §5.2 compares against shared memory.
    pub fn receiver_paper() -> Self {
        Self::receiver_initiated(1, 5)
    }

    /// The mixed schedule quoted in §5.1.3: `SendLocData = 5`,
    /// `SendRmtData = 2`, `ReqLocData = 1`, `ReqRmtData = 5`.
    pub fn mixed_paper() -> Self {
        UpdateSchedule {
            send_loc_data: Some(5),
            send_rmt_data: Some(2),
            req_loc_data: Some(1),
            req_rmt_data: Some(5),
            blocking: false,
        }
    }

    /// No updates at all — processors route on frozen foreign views.
    /// Used as a degenerate baseline in tests and ablations.
    pub fn never() -> Self {
        UpdateSchedule {
            send_loc_data: None,
            send_rmt_data: None,
            req_loc_data: None,
            req_rmt_data: None,
            blocking: false,
        }
    }

    /// Whether any receiver-initiated transaction is enabled.
    pub(crate) fn is_receiver_initiated(&self) -> bool {
        self.req_loc_data.is_some() || self.req_rmt_data.is_some()
    }

    /// Validates frequency values (zero would mean "update before any
    /// work", which the paper's parameterization excludes).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("send_loc_data", self.send_loc_data),
            ("send_rmt_data", self.send_rmt_data),
            ("req_loc_data", self.req_loc_data),
            ("req_rmt_data", self.req_rmt_data),
        ] {
            if v == Some(0) {
                return Err(format!("{name} frequency must be >= 1"));
            }
        }
        if self.blocking && self.req_rmt_data.is_none() {
            return Err("blocking requires req_rmt_data".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let s = UpdateSchedule::sender_initiated(2, 10);
        assert_eq!(s.send_rmt_data, Some(2));
        assert_eq!(s.send_loc_data, Some(10));
        assert!(!s.is_receiver_initiated());

        let r = UpdateSchedule::receiver_initiated(1, 5);
        assert_eq!(r.req_loc_data, Some(1));
        assert_eq!(r.req_rmt_data, Some(5));
        assert!(!r.blocking);
        assert!(r.is_receiver_initiated());

        let b = UpdateSchedule::receiver_initiated_blocking(1, 5);
        assert!(b.blocking);

        let m = UpdateSchedule::mixed_paper();
        assert!(m.is_receiver_initiated());
    }

    #[test]
    fn validation_rejects_zero_frequencies() {
        let mut s = UpdateSchedule::sender_initiated(2, 10);
        assert!(s.validate().is_ok());
        s.send_loc_data = Some(0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_blocking_without_requests() {
        let s = UpdateSchedule { blocking: true, ..UpdateSchedule::never() };
        assert!(s.validate().is_err());
    }
}
