//! Router configuration.

/// Parameters shared by every router implementation (sequential,
/// shared-memory, message-passing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterParams {
    /// Number of routing iterations. "Performing several of these
    /// iterations, with all wires routed once per iteration, improves the
    /// final solution quality" (§3). Iteration 1 routes onto an empty
    /// array; later iterations rip up and re-route.
    pub iterations: usize,
    /// How many channels above/below the pin bounding box VHV candidates
    /// may detour through. `0` confines candidates to the bounding box;
    /// `1` (default) lets a wire escape one channel to dodge congestion.
    pub channel_overshoot: u16,
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams { iterations: 2, channel_overshoot: 1 }
    }
}

impl RouterParams {
    /// Single-iteration parameters (used by tests and ablations).
    pub fn single_iteration() -> Self {
        RouterParams { iterations: 1, ..Self::default() }
    }

    /// Returns `self` with a different iteration count; [`Self::validate`]
    /// says whether a run can take it.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns `self` with a different channel overshoot.
    pub fn with_channel_overshoot(mut self, overshoot: u16) -> Self {
        self.channel_overshoot = overshoot;
        self
    }

    /// Checks what every router needs of the parameters: at least one
    /// routing iteration.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("params.iterations is 0: at least one routing iteration is required".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_two_iterations_with_overshoot() {
        let p = RouterParams::default();
        assert_eq!(p.iterations, 2);
        assert_eq!(p.channel_overshoot, 1);
    }

    #[test]
    fn builders_apply() {
        let p = RouterParams::default().with_iterations(4).with_channel_overshoot(0);
        assert_eq!(p.iterations, 4);
        assert_eq!(p.channel_overshoot, 0);
    }

    #[test]
    fn zero_iterations_rejected() {
        let none = RouterParams::default().with_iterations(0);
        assert_eq!(none.iterations, 0);
        let err = none.validate().expect_err("a run routes at least once");
        assert!(err.contains("params.iterations is 0"), "{err}");
        assert_eq!(RouterParams::default().validate(), Ok(()));
    }
}
