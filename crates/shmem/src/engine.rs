//! [`RoutingEngine`] adapters for the two shared-memory executors.

use locus_circuit::Circuit;
use locus_coherence::traffic_by_line_size;
use locus_router::engine::{EngineCtx, EngineRun, RoutingEngine};
use locus_router::router::RouteOutcome;
use locus_router::RouterParams;

use crate::config::ShmemConfig;
use crate::emul::ShmemEmulator;
use crate::parallel::ThreadedRouter;

/// Cache line size (bytes) at which the paper's §5.2 bus-traffic
/// comparison is made.
const COMPARE_LINE_BYTES: u32 = 8;

/// The deterministic shared-memory emulator as an engine
/// (`id = "shmem-emul"`). Traffic measurement runs the emulator with
/// Tango trace collection and reports Write-Back-with-Invalidate bus
/// megabytes at 8-byte cache lines.
pub struct EmulEngine;

impl RoutingEngine for EmulEngine {
    fn id(&self) -> &'static str {
        "shmem-emul"
    }

    fn route(
        &self,
        circuit: &Circuit,
        params: &RouterParams,
        ctx: &EngineCtx,
    ) -> Result<EngineRun, String> {
        let mut config = ShmemConfig::new(ctx.n_procs).with_params(*params);
        if ctx.measure_traffic {
            config = config.with_trace();
        }
        let out = ShmemEmulator::try_new(circuit, config)?.with_obs(ctx.obs.clone()).run();
        let mbytes = out
            .trace
            .as_ref()
            .map(|t| traffic_by_line_size(t, &[COMPARE_LINE_BYTES]).remove(0).1.mbytes());
        Ok(EngineRun {
            outcome: RouteOutcome {
                quality: out.quality,
                work: out.work,
                routes: out.routes,
                cost: out.cost,
                occupancy_by_iteration: out.occupancy_by_iteration,
            },
            mbytes,
            time_secs: Some(out.time_secs),
            degraded: false,
        })
    }
}

/// The real-thread executor as an engine (`id = "shmem-threads"`).
/// Nondeterministic; reports wall-clock seconds and never traffic.
pub struct ThreadsEngine;

impl RoutingEngine for ThreadsEngine {
    fn id(&self) -> &'static str {
        "shmem-threads"
    }

    fn route(
        &self,
        circuit: &Circuit,
        params: &RouterParams,
        ctx: &EngineCtx,
    ) -> Result<EngineRun, String> {
        let config = ShmemConfig::new(ctx.n_procs).with_params(*params);
        let out = ThreadedRouter::try_new(circuit, config)?.with_obs(ctx.obs.clone()).run();
        Ok(EngineRun {
            outcome: RouteOutcome {
                quality: out.quality,
                work: out.work,
                routes: out.routes,
                cost: out.cost,
                occupancy_by_iteration: out.occupancy_by_iteration,
            },
            mbytes: None,
            time_secs: Some(out.wall.as_secs_f64()),
            degraded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_circuit::presets;

    #[test]
    fn emul_engine_matches_direct_emulator() {
        let c = presets::small();
        let params = RouterParams::default();
        let run = EmulEngine.route(&c, &params, &EngineCtx::new(4)).expect("valid");
        let direct = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        assert_eq!(run.outcome.quality, direct.quality);
        assert_eq!(run.outcome.routes, direct.routes);
        assert_eq!(run.time_secs, Some(direct.time_secs));
        assert!(run.mbytes.is_none(), "traffic only measured when requested");
    }

    #[test]
    fn emul_engine_measures_traffic_on_request() {
        let c = presets::tiny();
        let params = RouterParams::default();
        let run = EmulEngine.route(&c, &params, &EngineCtx::new(2).with_traffic()).expect("valid");
        assert!(run.mbytes.expect("traffic requested") > 0.0);
    }

    #[test]
    fn configurations_the_engines_have_no_room_for_are_errors() {
        let c = presets::tiny();
        let long = RouterParams { iterations: 100_000, ..RouterParams::default() };
        let err = EmulEngine
            .route(&c, &long, &EngineCtx::new(2).with_traffic())
            .expect_err("a traced run cannot number 100 000 epochs");
        assert!(err.contains("100000"), "{err}");
        for engine in [&EmulEngine as &dyn RoutingEngine, &ThreadsEngine] {
            let err = engine
                .route(&c, &RouterParams::default(), &EngineCtx::new(65))
                .expect_err("65 processors");
            assert!(err.contains("64"), "{}: {err}", engine.id());
        }
    }

    #[test]
    fn threads_engine_routes_everything() {
        let c = presets::small();
        let params = RouterParams::default();
        let run = ThreadsEngine.route(&c, &params, &EngineCtx::new(2)).expect("valid");
        assert_eq!(run.outcome.routes.len(), c.wire_count());
        assert!(run.time_secs.expect("wall clock") > 0.0);
    }
}
