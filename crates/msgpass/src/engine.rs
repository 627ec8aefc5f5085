//! [`RoutingEngine`] adapter for the message-passing simulator.

use locus_circuit::Circuit;
use locus_router::engine::{EngineCtx, EngineRun, RoutingEngine};
use locus_router::router::RouteOutcome;
use locus_router::{RegionMap, RouterParams};

use crate::config::MsgPassConfig;
use crate::schedule::UpdateSchedule;
use crate::sim::run_inner;

/// The discrete-event message-passing router as an engine: two stock
/// variants that mirror the paper's headline schedules.
pub struct MsgPassEngine {
    id: &'static str,
    schedule: UpdateSchedule,
}

impl MsgPassEngine {
    /// Sender-initiated updates at the paper's headline (2,10) rates
    /// (`id = "msgpass-sender"`).
    pub fn sender() -> Self {
        MsgPassEngine { id: "msgpass-sender", schedule: UpdateSchedule::sender_initiated(2, 10) }
    }

    /// Receiver-initiated updates at the paper's headline (1,5) rates
    /// (`id = "msgpass-receiver"`).
    pub fn receiver() -> Self {
        MsgPassEngine { id: "msgpass-receiver", schedule: UpdateSchedule::receiver_initiated(1, 5) }
    }
}

impl RoutingEngine for MsgPassEngine {
    fn id(&self) -> &'static str {
        self.id
    }

    fn route(
        &self,
        circuit: &Circuit,
        params: &RouterParams,
        ctx: &EngineCtx,
    ) -> Result<EngineRun, String> {
        let config = MsgPassConfig::new(ctx.n_procs, self.schedule).with_params(*params);
        config.validate()?;
        RegionMap::try_new(circuit.channels, circuit.grids, config.n_procs)?;
        let out = run_inner(circuit, config, config.mesh_config(), ctx.obs.clone());
        Ok(EngineRun {
            outcome: RouteOutcome {
                quality: out.quality,
                work: out.work,
                routes: out.routes,
                cost: out.cost,
                occupancy_by_iteration: out.occupancy_by_iteration,
            },
            mbytes: Some(out.mbytes),
            time_secs: Some(out.time_secs),
            degraded: out.degraded.is_some(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_msgpass;
    use locus_circuit::presets;

    #[test]
    fn sender_engine_matches_direct_run() {
        let c = presets::small();
        let params = RouterParams::default();
        let run = MsgPassEngine::sender().route(&c, &params, &EngineCtx::new(4)).expect("valid");
        let direct = run_msgpass(
            &c,
            MsgPassConfig::new(4, UpdateSchedule::sender_initiated(2, 10)).with_params(params),
        );
        assert_eq!(run.outcome.quality, direct.quality);
        assert_eq!(run.outcome.routes, direct.routes);
        assert_eq!(run.mbytes, Some(direct.mbytes));
        assert_eq!(run.time_secs, Some(direct.time_secs));
    }

    #[test]
    fn receiver_engine_reports_traffic() {
        let c = presets::tiny();
        let params = RouterParams::default();
        let run = MsgPassEngine::receiver().route(&c, &params, &EngineCtx::new(2)).expect("valid");
        assert_eq!(run.outcome.routes.len(), c.wire_count());
        assert!(run.mbytes.expect("payload traffic") > 0.0);
    }
}
