//! Registry of the four routing engines behind one name → constructor map.
//!
//! Every executor in the workspace — the sequential reference, the
//! deterministic shared-memory emulator, the real threaded router, and
//! the message-passing simulator (both headline update schedules) —
//! implements [`RoutingEngine`]. This module names them so harnesses
//! (`locus-experiments --engine <name>`, `compare_paradigms`) can select
//! one at runtime without linking against a specific crate.

use locus_msgpass::MsgPassEngine;
use locus_router::engine::RoutingEngine;
use locus_router::SequentialEngine;
use locus_shmem::{EmulEngine, ThreadsEngine};

/// One registry row: a stable engine name, a one-line summary, and a
/// constructor.
pub struct EngineEntry {
    /// Stable engine name accepted by `--engine` (matches
    /// [`RoutingEngine::id`]).
    pub name: &'static str,
    /// One-line human description for `locus-experiments list`.
    pub summary: &'static str,
    /// Builds a fresh engine instance.
    pub build: fn() -> Box<dyn RoutingEngine>,
}

/// Every registered engine, in presentation order.
pub fn registry() -> &'static [EngineEntry] {
    &[
        EngineEntry {
            name: "sequential",
            summary: "uniprocessor reference router (pseudo-time in cells examined)",
            build: || Box::new(SequentialEngine),
        },
        EngineEntry {
            name: "shmem-emul",
            summary: "deterministic Tango-style shared-memory emulator (all table values)",
            build: || Box::new(EmulEngine),
        },
        EngineEntry {
            name: "shmem-threads",
            summary: "real OS-thread shared-memory router (nondeterministic, wall clock)",
            build: || Box::new(ThreadsEngine),
        },
        EngineEntry {
            name: "msgpass-sender",
            summary: "message-passing mesh, sender-initiated updates (2,10)",
            build: || Box::new(MsgPassEngine::sender()),
        },
        EngineEntry {
            name: "msgpass-receiver",
            summary: "message-passing mesh, receiver-initiated updates (1,5)",
            build: || Box::new(MsgPassEngine::receiver()),
        },
    ]
}

/// Builds the engine registered under `name`, or returns the list of
/// valid names as the error.
pub fn build_engine(name: &str) -> Result<Box<dyn RoutingEngine>, String> {
    registry().iter().find(|e| e.name == name).map(|e| (e.build)()).ok_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        format!("unknown engine '{name}' (expected one of: {})", names.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_router::engine::EngineCtx;
    use locus_router::RouterParams;

    #[test]
    fn registry_names_match_engine_ids() {
        for entry in registry() {
            assert_eq!((entry.build)().id(), entry.name);
        }
    }

    #[test]
    fn build_engine_rejects_unknown_names() {
        let err = build_engine("nonesuch").err().expect("unknown name must fail");
        assert!(err.contains("nonesuch") && err.contains("sequential"), "{err}");
    }

    #[test]
    fn every_engine_routes_the_tiny_circuit() {
        let c = locus_circuit::presets::tiny();
        let params = RouterParams::default();
        for entry in registry() {
            let run = (entry.build)().route(&c, &params, &EngineCtx::new(2)).expect("valid");
            assert_eq!(
                run.outcome.routes.len(),
                c.wire_count(),
                "engine {} left wires unrouted",
                entry.name
            );
        }
    }
}
