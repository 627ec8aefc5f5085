//! What `locus-experiments` prints and writes, pinned byte for byte
//! against fixtures in `tests/golden/` that were captured from the build
//! at commit 2ea5b96, when every table still had a printer of its own.
//! A fixture changes only when a simulated result or a table's wording
//! is meant to change; regenerate it with the command in the test.

use std::path::PathBuf;
use std::process::Command;

/// Runs the CLI in a fresh directory; returns it with stdout, stderr and
/// the exit code.
fn run(case: &str, args: &[&str]) -> (PathBuf, String, String, i32) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden").join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_locus-experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("locus-experiments runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (dir, text(out.stdout), text(out.stderr), out.status.code().expect("exit code"))
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn all_quick_stdout_is_the_fixture_at_any_thread_count() {
    for threads in ["1", "4"] {
        let (_, stdout, _, code) = run(threads, &["all", "--quick", "--threads", threads]);
        assert_eq!(code, 0);
        assert_eq!(stdout, fixture("all_quick.txt"), "--threads {threads}");
    }
}

/// `all` at the paper's settings (`all.txt` was captured from the build
/// at 31a2c28, where it was the same at one, two and four threads).
#[test]
fn all_stdout_is_the_fixture() {
    let (_, stdout, _, code) = run("all", &["all", "--threads", "2"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, fixture("all.txt"));
}

/// `<id> --quick` writes its fixture: to `--report`, or without it to
/// the experiment's default artifact in the current directory. `table3`
/// is pinned on the write-through bus, which `all --quick` does not run
/// (`table3_bus-wt_quick.json` was captured from the build at beb0a79).
#[test]
fn quick_reports_are_the_fixtures() {
    for (case, id, flags, artifact) in [
        ("faults", "faults", &[][..], None),
        ("chaos", "chaos", &[], Some("BENCH_resilience.json")),
        ("memory", "memory", &[], Some("BENCH_memory.json")),
        ("table3_bus-wt", "table3", &["--memory", "bus-wt"], None),
    ] {
        let named = format!("{case}.json");
        let mut args = [&[id, "--quick"], flags].concat();
        if artifact.is_none() {
            args.extend(["--report", &named]);
        }
        let (dir, stdout, _, code) = run(case, &args);
        assert_eq!(code, 0, "{case}");
        let path = artifact.unwrap_or(&named);
        assert!(stdout.contains(&format!("{id}: wrote {path}\n")), "{case}: {stdout}");
        let written = std::fs::read_to_string(dir.join(path)).expect("report written");
        assert_eq!(written, fixture(&format!("{case}_quick.json")), "{case}");
    }
    let (dir, _, _, _) = run("faults-bare", &["faults", "--quick"]);
    assert_eq!(std::fs::read_dir(dir).expect("scratch directory").count(), 0, "no default file");
}

/// `--metrics-out` of `table1 --quick`: every counter and histogram the
/// per-kind table declares, under its name, for the instrumented bnrE
/// run (`metrics_observed.json` was captured from the build at f582d0d,
/// less the two kernel counters it has since dropped).
#[test]
fn metrics_export_is_the_fixture() {
    let (dir, _, _, code) = run("metrics", &["table1", "--quick", "--metrics-out", "m.json"]);
    assert_eq!(code, 0);
    let written = std::fs::read_to_string(dir.join("m.json")).expect("metrics written");
    assert_eq!(written, fixture("metrics_observed.json"));
}

/// `--engine <name> --quick` for every engine with no wall clock, one
/// after another (`engine_quick.txt` was captured from the build at
/// 34c2e8c). `shmem-threads` is left out: it prints host time.
#[test]
fn engine_runs_are_the_fixture() {
    let mut stdout = String::new();
    for name in ["sequential", "shmem-emul", "msgpass-sender", "msgpass-receiver"] {
        let (_, out, _, code) = run(&format!("engine-{name}"), &["--engine", name, "--quick"]);
        assert_eq!(code, 0, "{name}");
        stdout += &out;
    }
    assert_eq!(stdout, fixture("engine_quick.txt"));
}

/// `analyze --quick` for every engine `analyze` takes, one after
/// another (`analyze_quick.txt`, without the line naming the report
/// file). The three small reports are pinned against files captured from
/// the build at 047ed11, when `analyze` still had a JSON writer of its
/// own; the `shmem-emul` one (1.7 MB, every race pair) by its length and
/// 64-bit FNV-1a digest, taken from the build at a508e3d.
#[test]
fn analyze_runs_and_reports_are_the_fixtures() {
    let mut stdout = String::new();
    for name in ["sequential", "shmem-emul", "msgpass-sender", "msgpass-receiver"] {
        let case = format!("analyze-{name}");
        let args = ["analyze", "--engine", name, "--procs", "4", "--quick", "--report", "a.json"];
        let (dir, out, _, code) = run(&case, &args);
        assert_eq!(code, 0, "{name}");
        stdout += out.strip_suffix("analyze: wrote a.json\n").expect("the report line");
        let written = std::fs::read_to_string(dir.join("a.json")).expect("report written");
        locus_obs::export::validate_json(&written).expect("a report parses");
        if name == "shmem-emul" {
            let digest = written.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!((written.len(), digest), (1_708_807, 0xd009_c29c_60ae_3fda), "{name}");
        } else {
            assert_eq!(written, fixture(&format!("{case}_quick.json")), "{name}");
        }
    }
    assert_eq!(stdout, fixture("analyze_quick.txt"));
}

#[test]
fn list_is_the_fixture_and_an_unknown_id_is_told_every_id() {
    let (_, listing, _, code) = run("list", &["list"]);
    assert_eq!((listing.as_str(), code), (fixture("list.txt").as_str(), 0));
    let (_, stdout, stderr, code) = run("nosuch", &["nosuch"]);
    assert_eq!((stdout.as_str(), code), ("", 2));
    let ids = listing.lines().skip(1).take_while(|l| !l.is_empty()).map(str::trim);
    for id in ids.chain(["analyze"]) {
        assert!(stderr.contains(&format!(" {id},")) || stderr.ends_with(&format!(" {id}\n")));
    }
}

#[test]
fn bad_invocations_say_why_and_set_the_exit_code() {
    for (args, code, why) in [
        (&["table1", "--bogus"][..], 2, "unknown flag --bogus"),
        (&["--quality-check"], 2, "unknown flag --quality-check"),
        (&["table1", "--quick", "--out", "f.json"], 2, "unknown flag --out"),
        (&["memory", "--quick", "--protocol", "bus-wt"], 2, "unknown flag --protocol"),
        (&["table1", "--report"], 2, "--report requires an argument"),
        (&["table1", "--threads", "many"], 2, "--threads expects a number"),
        (&["table3", "--quick", "--memory", "nope"], 2, "unknown memory backend `nope`"),
        (&["memory", "--quick", "--memory", "nope"], 2, "unknown memory backend `nope`"),
        (&["--engine", "nope"], 2, "unknown engine 'nope'"),
        (&["--engine", "shmem-emul", "--procs", "65", "--quick"], 2, "at most 64 processors"),
        (
            &["analyze", "--engine", "shmem-emul", "--procs", "65", "--quick"],
            2,
            "at most 64 processors",
        ),
        (&["analyze", "--engine", "shmem-threads", "--quick"], 2, "shmem-emul"),
        (
            &["analyze", "--engine", "emul"],
            2,
            "unknown engine 'emul' (expected one of: sequential,",
        ),
        (&["--engine", "msgpass-sender", "--circuit", "tiny", "--procs", "64"], 2, "surface 4x24"),
        (
            &["analyze", "--engine", "msgpass-receiver", "--procs", "256", "--quick"],
            2,
            "surface 8x128",
        ),
        (
            &["--engine", "msgpass-sender", "--procs", "18446744073709551557"],
            2,
            "too small for n_procs 18446744073709551557",
        ),
        (
            &["analyze", "--engine", "msgpass-receiver", "--procs", "18446744073709551557"],
            2,
            "too small for n_procs 18446744073709551557",
        ),
        (&["--engine", "sequential", "--circuit", "huge"], 2, "unknown circuit \"huge\""),
        (&["figure1", "--memory", "nonsense"], 2, "--memory only applies to memory, table3 and"),
        (&["--engine", "sequential", "--memory", "bus-wt"], 2, "--memory only applies to"),
        (&["table6", "--quick", "--procs", "9"], 2, "--procs only applies to --engine runs and"),
        (&["table1", "table2"], 2, "expected at most one experiment id, got table1 table2"),
        (&["serve", "--quick"], 2, "unknown experiment \"serve\""),
        (&["--engine", "sequential", "--quick", "--trace-out", "t.json"], 2, "--trace-out does"),
        (
            &["analyze", "--engine", "sequential", "--quick", "--metrics-out", "m.json"],
            2,
            "--metrics-out does",
        ),
        (&["--engine", "sequential", "--quick", "--threads", "2"], 2, "--threads does not apply"),
        (
            &["analyze", "--quick", "--threads", "2"],
            2,
            "--threads does not apply to --engine runs or",
        ),
        (&["faults", "--quick", "--report", "no/such/dir/f.json"], 1, "cannot write"),
    ] {
        let (_, _, stderr, got) = run("bad", args);
        assert_eq!(got, code, "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
}
