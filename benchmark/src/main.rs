//! Host-time benchmark of the LocusRoute simulators: five workloads, four
//! end-to-end metrics per workload, and a traced mode that splits host
//! time by layer. See `README.md` beside this package.

mod alloc;
mod digest;
mod json;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{Emitted, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use span::Tracer;
use stats::{quantile, Summary, LOW};
use workloads::{ensure, set_up, Inputs, Tally, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// An untraced run is cut into this many rounds. Each round sets up from
/// fresh state and then runs its share of the timed passes, so set-ups and
/// passes alike are sampled over the whole run: a burst of interference
/// two seconds long would otherwise cover every set-up of a run.
const ROUNDS: usize = 5;
/// A round repeats its set-up until its share of this has gone into
/// set-ups. Set-up takes 12 ms on the lightest workload and 1 s on the
/// heaviest; five samples of 12 ms say little.
const SETUP_SECONDS: f64 = 2.0;
/// Fewest timed passes of a run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: locus-hostbench [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--bless]";

struct Args {
    workload: Option<String>,
    /// What `--seed` asks for.
    inputs: Inputs,
    seconds: f64,
    trace: bool,
    quick: bool,
    bless: bool,
    /// This package's directory, relative to the working directory.
    dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        inputs: Inputs::Preset,
        seconds: 10.0,
        trace: false,
        quick: false,
        bless: false,
        dir: PathBuf::from("benchmark"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                let seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
                args.inputs = Inputs::Reordered(seed);
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: outside (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, ..)| name == w) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {w:?}; known: {}", known.join(", ")));
        }
    }
    if args.bless && args.inputs != Inputs::Preset {
        return Err("--bless pins the preset circuits; drop --seed".into());
    }
    if args.quick {
        args.seconds /= 10.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_each_workload(&argv),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("locus-hostbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// One child process per workload, so that `peak_rss_mb` is the peak of
/// that workload alone.
fn run_each_workload(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_ok = true;
    for (name, ..) in WORKLOADS {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", name])
            .status()
            .map_err(|e| format!("starting the {name} run: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// Host times of timed passes. Each pass runs every operation once; only
/// the operation itself is inside a timed interval, its check and the
/// drop of its outcome are not.
#[derive(Default)]
struct Passes {
    /// `op_ms[i][p]`: milliseconds operation `i` took in pass `p`.
    op_ms: Vec<Vec<f64>>,
    /// Per-pass allocation count and bytes (zero unless counting was on).
    allocs: Vec<(u64, u64)>,
    /// Whether spans and allocation counting were on in pass `p`.
    traced: Vec<bool>,
}

impl Passes {
    /// The passes with tracing on, or those with it off.
    fn only(&self, traced: bool) -> Passes {
        let keep = |p: &usize| self.traced[*p] == traced;
        let picked: Vec<usize> = (0..self.traced.len()).filter(keep).collect();
        Passes {
            op_ms: self.op_ms.iter().map(|op| picked.iter().map(|&p| op[p]).collect()).collect(),
            allocs: picked.iter().map(|&p| self.allocs[p]).collect(),
            traced: vec![traced; picked.len()],
        }
    }

    /// Whole-pass times: the sum over operations, pass by pass.
    fn pass_ms(&self) -> Vec<f64> {
        (0..self.traced.len()).map(|p| self.op_ms.iter().map(|op| op[p]).sum()).collect()
    }
}

/// Adds passes to `passes` for `seconds` of wall time, and `at_least` of
/// them. With `alternate`, every second pass records spans and counts
/// allocations, so the traced and untraced halves see the same host
/// conditions.
fn run_passes(
    w: &Workload,
    (seconds, at_least): (f64, usize),
    alternate: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    passes: &mut Passes,
) {
    passes.op_ms.resize(w.ops.len(), Vec::new());
    let enough = passes.traced.len() + at_least;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || passes.traced.len() < enough {
        let pass = passes.traced.len() as u32 + 1;
        let traced = alternate && pass.is_multiple_of(2);
        tracer.set_on(traced);
        alloc::set_counting(traced);
        let (mut allocs, mut bytes) = (0, 0);
        tracer.enter("bench.pass", pass);
        for (i, (op, &pinned)) in w.ops.iter().zip(&w.digests).enumerate() {
            let before = alloc::counts();
            let (out, secs) = tracer.time(op.name, pass, || op.op.run());
            let after = alloc::counts();
            passes.op_ms[i].push(secs * 1e3);
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
            tracer.enter("bench.check", pass);
            let result = op.op.check_cheap(&out).and_then(|()| {
                ensure(out.digest() == pinned, || "digest differs from the set-up run".into())
            });
            drop(out);
            tracer.exit();
            tally.record(op.name, result);
        }
        tracer.exit();
        passes.allocs.push((allocs, bytes));
        passes.traced.push(traced);
    }
    alloc::set_counting(false);
}

/// Compares the digests of a group of operations (a workload's, or the
/// probes') with `expected.json` (default seed only), or rewrites the
/// group's entries under `--bless`.
fn pinned_digests(
    args: &Args,
    name: &str,
    digests: &[(&'static str, u64)],
    tally: &mut Tally,
) -> Result<&'static str, String> {
    if args.inputs != Inputs::Preset {
        return Ok("skipped: not the preset circuits");
    }
    let path = args.dir.join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tokens = json::string_tokens(&text);
    let mut pinned: BTreeMap<String, String> =
        tokens.chunks_exact(2).map(|kv| (kv[0].clone(), kv[1].clone())).collect();
    let key = |op: &str| format!("{name}/{op}");
    if args.bless {
        pinned.retain(|k, _| !k.starts_with(&format!("{name}/")));
        for (op, digest) in digests {
            pinned.insert(key(op), format!("{digest:016x}"));
        }
        let lines: Vec<String> = pinned
            .iter()
            .map(|(k, v)| format!("  {}: {}", json::string(k), json::string(v)))
            .collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok("blessed");
    }
    for (op, digest) in digests {
        let got = format!("{digest:016x}");
        match pinned.get(&key(op)) {
            Some(want) if *want == got => {}
            Some(want) => tally.failures.push(format!(
                "{op}: simulated results changed: digest {got}, expected.json pins {want}"
            )),
            None => tally.failures.push(format!("{op}: expected.json pins no digest")),
        }
    }
    Ok("compared")
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    if !args.dir.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not this package's directory; run from the repository root",
            args.dir.display()
        ));
    }
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);
    let mut emitted = Emitted::default();
    let mut report: Vec<(&str, String)> = Vec::new();

    let rounds = if args.trace || args.quick { 1 } else { ROUNDS };
    let share = |whole: f64| whole / rounds as f64;
    let mut setup_secs = Vec::new();
    let mut passes = Passes::default();
    let mut workload = None;
    for _ in 0..rounds {
        let mut spent = 0.0;
        while workload.is_none() || rounds > 1 && spent < share(SETUP_SECONDS) {
            // Fresh state: the previous set-up's circuits and trace are gone.
            drop(workload.take());
            let started = Instant::now();
            workload = Some(set_up(name, args.inputs, &mut tracer, &mut tally));
            let secs = started.elapsed().as_secs_f64();
            setup_secs.push(secs);
            spent += secs;
        }
        if !args.trace {
            let run = (share(args.seconds), MIN_PASSES.div_ceil(rounds));
            let w = workload.as_ref().expect("just set up");
            run_passes(w, run, false, &mut tracer, &mut tally, &mut passes);
        }
    }
    let workload = workload.expect("at least one round");
    let digests: Vec<(&str, u64)> =
        workload.ops.iter().map(|op| op.name).zip(workload.digests.iter().copied()).collect();
    let pinned = pinned_digests(args, name, &digests, &mut tally)?;

    let passes = if args.trace {
        traced_run(args, &workload, &mut tracer, &mut tally, &mut emitted, &mut report)?
    } else {
        let pass_ms = quantile(&passes.pass_ms(), LOW);
        emitted.put("setup_s", quantile(&setup_secs, LOW), "");
        emitted.put("pass_ms", pass_ms, "");
        emitted.put("work_per_s", workload.work_units as f64 / (pass_ms / 1e3), "");
        emitted.put("peak_rss_mb", peak_rss_mb()?, "");
        let samples: Vec<String> = setup_secs.iter().map(|&s| json::number(s)).collect();
        report.push(("setup_s_samples", json::array(&samples)));
        let ops: Vec<(&str, String)> = workload
            .ops
            .iter()
            .zip(&passes.op_ms)
            .map(|(op, ms)| {
                let s = Summary::of(ms);
                let fields = [
                    ("n", s.n.to_string()),
                    ("p2", json::number(s.low)),
                    ("median", json::number(s.median)),
                    ("p90", json::number(s.p90)),
                ];
                (op.name, json::object(&fields))
            })
            .collect();
        report.push(("op_ms", json::object(&ops)));
        passes
    };
    let whole = Summary::of(&passes.pass_ms());

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let values = emitted.in_order(defs);
    for (def, value, base) in &values {
        let base = if base.is_empty() { String::new() } else { format!("  ({base})") };
        println!("{} {value} {}{base}", def.name, def.unit);
    }
    let failed = tally.failures.len() as u64;
    let fail_share = failed as f64 / tally.attempted as f64;
    println!(
        "# {name}: {} untraced passes, pass ms p2 {} median {} p90 {}",
        whole.n, whole.low, whole.median, whole.p90
    );
    println!(
        "# {name}: fail_share {fail_share} ({failed} of {} operations), digests {pinned}",
        tally.attempted
    );
    for why in &tally.failures {
        println!("# FAILED {why}");
    }

    let work_unit = WORKLOADS.iter().find(|w| w.0 == name).expect("name was checked").2;
    let mut doc: Vec<(&str, String)> = vec![
        ("workload", json::string(name)),
        ("work_unit", json::string(work_unit)),
        ("work_units_per_pass", json::number(workload.work_units as f64)),
        ("traced", args.trace.to_string()),
        ("inputs", json::string(&format!("{:?}", args.inputs))),
        ("seconds", json::number(args.seconds)),
        ("setups", setup_secs.len().to_string()),
        ("host", host_record()),
        ("passes", whole.n.to_string()),
        ("pass_ms_p2", json::number(whole.low)),
        ("pass_ms_median", json::number(whole.median)),
        ("pass_ms_p90", json::number(whole.p90)),
        ("attempted", tally.attempted.to_string()),
        ("failed", failed.to_string()),
        ("fail_share", json::number(fail_share)),
        (
            "failures",
            json::array(&tally.failures.iter().map(|f| json::string(f)).collect::<Vec<_>>()),
        ),
        ("digests", json::string(pinned)),
        ("metrics", metrics_json(&values, true)),
    ];
    doc.append(&mut report);
    let out_dir = args.dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let kind = if args.trace { "traced" } else { "result" };
    write(&out_dir.join(format!("{name}.{kind}.json")), &(json::object(&doc) + "\n"))?;
    if args.trace {
        write(&out_dir.join(format!("{name}.trace.json")), &tracer.chrome_json())?;
    }

    println!(
        "{}",
        json::object(&[
            ("correct", (failed == 0).to_string()),
            ("attempted", tally.attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics_json(&values, false)),
        ])
    );
    Ok(failed == 0)
}

/// The traced half of the contract: the workload's own passes, every
/// second one with spans and allocation counting on (the ratio of the two
/// halves is the cost of tracing), then the layer probes. Returns the
/// untraced half.
fn traced_run(
    args: &Args,
    workload: &Workload,
    tracer: &mut Tracer,
    tally: &mut Tally,
    emitted: &mut Emitted,
    report: &mut Vec<(&str, String)>,
) -> Result<Passes, String> {
    // Each half is a fifth of an untraced run's passes.
    let mut both = Passes::default();
    run_passes(workload, (args.seconds * 0.4, MIN_PASSES), true, tracer, tally, &mut both);
    let (plain, traced) = (both.only(false), both.only(true));
    tracer.set_on(true);
    let probed =
        probes::Probes { tracer, tally, out: emitted, scale: args.seconds / 10.0 }.run(args.inputs);
    pinned_digests(args, "probes", &probed, tally)?;

    let allocs: Vec<f64> = traced.allocs.iter().map(|a| a.0 as f64).collect();
    let bytes: Vec<f64> = traced.allocs.iter().map(|a| a.1 as f64).collect();
    emitted.put("host.allocs_per_pass", quantile(&allocs, 0.5), "");
    emitted.put("host.alloc_bytes_per_pass", quantile(&bytes, 0.5), "");
    let (traced_ms, plain_ms) = (quantile(&traced.pass_ms(), LOW), quantile(&plain.pass_ms(), LOW));
    emitted.put(
        "bench.trace_overhead_ratio",
        traced_ms / plain_ms,
        format!("{traced_ms:.3} ms traced over {plain_ms:.3} ms untraced"),
    );
    let spans: Vec<(&str, String)> = tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            let fields = [
                ("count", t.count.to_string()),
                ("total_ms", json::number(t.total_ns as f64 / 1e6)),
                ("self_ms", json::number(t.self_ns as f64 / 1e6)),
            ];
            (name, json::object(&fields))
        })
        .collect();
    report.push(("spans", json::object(&spans)));
    Ok(plain)
}

/// The metrics as a JSON object; the result file adds each one's
/// direction, the last line of standard output keeps to the contract's
/// `value` and `unit`.
fn metrics_json(values: &[(&MetricDef, f64, &str)], with_direction: bool) -> String {
    let fields: Vec<(&str, String)> = values
        .iter()
        .map(|(def, value, _)| {
            let mut f = vec![("value", json::number(*value)), ("unit", json::string(def.unit))];
            if with_direction {
                f.push(("better", json::string(def.better.as_str())));
            }
            (def.name, json::object(&f))
        })
        .collect();
    json::object(&fields)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// What the numbers were measured on: cores, compiler, commit.
fn host_record() -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    json::object(&[
        ("host_cpus", host_cpus.to_string()),
        ("rustc", json::string(&rustc)),
        ("git_commit", json::string(&git_commit())),
    ])
}

/// The checked-out commit, read from `.git` in the working directory; a
/// checkout that is not a git repository records "unknown".
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = read("packed-refs")?;
                let line = packed.lines().find(|l| l.ends_with(r))?;
                Some(line.split(' ').next()?.to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locusroute::obs::export::validate_json;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload seq-route --seed 41 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("seq-route"));
        assert_eq!(a.inputs, Inputs::Reordered(41));
        assert!(!a.trace && a.seconds == 10.0);
        assert!(parse("--workload seq-route --seed 41 --seconds 10 --trace 1").unwrap().trace);
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().quick);
        assert!(!parse("--trace 0 --quick").unwrap().trace);
        assert_eq!(parse("--quick").unwrap().seconds, 1.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--bless --seed 3",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn a_pass_takes_the_sum_of_its_operations() {
        let passes = Passes {
            op_ms: vec![vec![1.0, 2.0, 4.0], vec![10.0, 20.0, 40.0]],
            allocs: vec![(0, 0), (7, 70), (0, 0)],
            traced: vec![false, true, false],
        };
        assert_eq!(passes.pass_ms(), [11.0, 22.0, 44.0]);
        assert_eq!(passes.only(false).pass_ms(), [11.0, 44.0]);
        assert_eq!(passes.only(true).allocs, [(7, 70)]);
    }

    /// One real, very short untraced run: its result file and its last
    /// line must both be JSON, with exactly the end-to-end metrics.
    #[test]
    fn an_untraced_run_writes_valid_json() {
        let mut args = parse("--workload seq-route --seconds 0.05 --quick").unwrap();
        args.dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        assert_eq!(run_workload(&args, "seq-route"), Ok(true));
        let text = std::fs::read_to_string(args.dir.join("out/seq-route.result.json")).unwrap();
        validate_json(&text).unwrap();
        for m in END_TO_END {
            assert!(text.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{}", m.name);
        }
        assert!(text.contains("\"host_cpus\": ") && text.contains("\"digests\": \"compared\""));
    }
}
