//! Each [`engines`](crate::engines) entry checked against a direct call
//! of its executor.

#[cfg(test)]
mod tests {
    use crate::engines::run;
    use locus_circuit::presets;
    use locus_msgpass::{run_msgpass, MsgPassConfig, UpdateSchedule};
    use locus_router::{RouterParams, SequentialRouter};
    use locus_shmem::{ShmemConfig, ShmemEmulator};

    #[test]
    fn sequential_engine_matches_direct_router() {
        let c = presets::small();
        let params = RouterParams::default();
        let via_engine = run("sequential", &c, &params, 1, false).expect("routes");
        let direct = SequentialRouter::new(&c, params).run();
        assert_eq!(via_engine.outcome.quality, direct.quality);
        assert_eq!(via_engine.outcome.routes, direct.routes);
        assert!(via_engine.time_secs.is_none());
        assert!(via_engine.mbytes.is_none());
    }

    #[test]
    fn emul_engine_matches_direct_emulator() {
        let c = presets::small();
        let params = RouterParams::default();
        let got = run("shmem-emul", &c, &params, 4, false).expect("valid");
        let direct = ShmemEmulator::new(&c, ShmemConfig::new(4)).run();
        assert_eq!(got.outcome.quality, direct.quality);
        assert_eq!(got.outcome.routes, direct.routes);
        assert_eq!(got.time_secs, Some(direct.time_secs));
        assert!(got.mbytes.is_none(), "traffic only measured when requested");
    }

    #[test]
    fn emul_engine_measures_traffic_on_request() {
        let c = presets::tiny();
        let params = RouterParams::default();
        let got = run("shmem-emul", &c, &params, 2, true).expect("valid");
        assert!(got.mbytes.expect("traffic requested") > 0.0);
    }

    #[test]
    fn configurations_the_engines_have_no_room_for_are_errors() {
        let c = presets::tiny();
        let long = RouterParams { iterations: 100_000, ..RouterParams::default() };
        let err = run("shmem-emul", &c, &long, 2, true)
            .expect_err("a traced run cannot number 100 000 epochs");
        assert!(err.contains("100000"), "{err}");
        for name in ["shmem-emul", "shmem-threads"] {
            let err =
                run(name, &c, &RouterParams::default(), 65, false).expect_err("65 processors");
            assert!(err.contains("64"), "{name}: {err}");
        }
    }

    #[test]
    fn threads_engine_routes_everything() {
        let c = presets::small();
        let params = RouterParams::default();
        let got = run("shmem-threads", &c, &params, 2, false).expect("valid");
        assert_eq!(got.outcome.routes.len(), c.wire_count());
        assert!(got.time_secs.expect("wall clock") > 0.0);
    }

    #[test]
    fn sender_engine_matches_direct_run() {
        let c = presets::small();
        let params = RouterParams::default();
        let got = run("msgpass-sender", &c, &params, 4, false).expect("valid");
        let direct = run_msgpass(
            &c,
            MsgPassConfig::new(4, UpdateSchedule::sender_paper()).with_params(params),
        );
        assert_eq!(got.outcome.quality, direct.quality);
        assert_eq!(got.outcome.routes, direct.routes);
        assert_eq!(got.mbytes, Some(direct.mbytes));
        assert_eq!(got.time_secs, Some(direct.time_secs));
    }

    #[test]
    fn receiver_engine_reports_traffic() {
        let c = presets::tiny();
        let params = RouterParams::default();
        let got = run("msgpass-receiver", &c, &params, 2, false).expect("valid");
        assert_eq!(got.outcome.routes.len(), c.wire_count());
        assert!(got.mbytes.expect("payload traffic") > 0.0);
    }
}
