//! One circuit, two paradigms, one event vocabulary.
//!
//! Routes a small circuit with the message-passing implementation and
//! with the shared-memory emulator, recording each run into a
//! `SharedSink` (the emulator through `with_obs(Obs::to(&sink))`), then
//! prints the two ASCII per-node timelines side by side with the
//! captured counters. The same events can be exported
//! as Chrome trace JSON (see `locus-experiments --trace-out`).
//!
//! ```text
//! cargo run --release --example observability
//! ```

use locusroute::msgpass::{run_msgpass_observed, MsgPassConfig, UpdateSchedule};
use locusroute::obs::{export, Obs, SharedSink};
use locusroute::shmem::{ShmemConfig, ShmemEmulator};

fn main() {
    let circuit = locusroute::circuit::presets::small();
    let n_procs = 4;
    let width = 64;

    // Message passing: events carry simulated mesh-network time.
    let mp_sink = SharedSink::new();
    let cfg = MsgPassConfig::new(n_procs, UpdateSchedule::sender_initiated(2, 5));
    let mp = run_msgpass_observed(&circuit, cfg, mp_sink.clone());
    assert!(!mp.deadlocked);

    // Shared memory: events carry the emulator's logical clocks.
    let shm_sink = SharedSink::new();
    let shm =
        ShmemEmulator::new(&circuit, ShmemConfig::new(n_procs)).with_obs(Obs::to(&shm_sink)).run();

    println!("=== message passing ({n_procs} procs, sender-initiated) ===");
    println!("{}", export::ascii_timeline(&mp_sink.snapshot_events(), width));
    let m = mp_sink.metrics_snapshot();
    println!(
        "quality: height {}  |  traffic: {} packets, {} payload bytes, {} rip-ups\n",
        mp.quality.circuit_height,
        m.counter("packets_sent"),
        m.counter("bytes_sent"),
        m.counter("rip_ups"),
    );

    println!("=== shared memory (emulated, {n_procs} procs) ===");
    println!("{}", export::ascii_timeline(&shm_sink.snapshot_events(), width));
    let s = shm_sink.metrics_snapshot();
    println!(
        "quality: height {}  |  {} wires routed, {} rip-ups, no packets — \
         consistency comes from the shared array",
        shm.quality.circuit_height,
        s.counter("wires_routed"),
        s.counter("rip_ups"),
    );
}
