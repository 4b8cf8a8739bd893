//! cyclebench — the end-to-end cycle benchmark of sqg-da.
//!
//! ```text
//! cyclebench [run] [--seed N] [--seconds S] [--out FILE]    all workloads, both passes
//! cyclebench --workload W --seed N --seconds S --trace 0|1  one workload, one pass, one JSON line
//! cyclebench compare A.json B.json                          apply the bounds to two result files
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and their bounds.

mod adapter;
mod bench;
mod report;
mod stat;
mod trace;

use adapter::{Json, Shape, Workload, WORKLOADS};
use bench::{layer, value_of, Layers, Measured, Metric};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Environment variables that change what the program computes or records;
/// end-to-end runs require them unset.
const GUARDED_ENV: [&str; 2] = ["SQG_DA_TELEMETRY", "LINALG_SIMD"];
const DEFAULT_SEED: u64 = 2024;
/// Measured seconds per workload of a `run`: four 3-cycle reps at the 12 h
/// cadence, five 40-cycle reps at the rapid one.
const DEFAULT_SECONDS: f64 = 30.0;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if known.contains(&key.as_str()) => {
                    pairs.push((key.clone(), value.clone()))
                }
                [key, ..] => return Err(format!("unknown or valueless argument {key}")),
                [] => {}
            }
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {v} for {key}")),
        }
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name}; have {:?}",
                WORKLOADS.map(|w| w.name)
            )
        })
}

fn require_clean_env() -> Result<(), String> {
    match GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!("{v} is set; end-to-end runs need it unset")),
        None => Ok(()),
    }
}

fn write_trace(w: Workload, layers: &Layers) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, layers.chrome.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// The single-workload mode of the benchmark contract: one pass, and as the
/// last line of standard output one JSON object.
fn contract(flags: &Flags) -> Result<ExitCode, String> {
    require_clean_env()?;
    let name: String = flags.get("--workload")?.ok_or("--workload is required")?;
    let w = workload_named(&name)?;
    let seed = flags.get("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = flags.get("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = match flags.get::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };

    let line = if traced {
        // One untraced rep pins the replica to the driver's bits and is the
        // base of the tracing overhead.
        let (prepared, measured) = bench::measure(w, Shape::PAPER, seed, 0.0, w.trace_cycles)?;
        let layers = bench::trace_pass(&prepared, &measured)?;
        let path = write_trace(w, &layers)?;
        eprintln!("cyclebench: {} spans written to {}", w.name, path.display());
        report_failures(&measured, Some(&layers));
        let trace_failed = if layers.failures.is_empty() {
            0
        } else {
            layers.cycles as u64
        };
        report::contract_line(
            measured.failed == 0 && layers.failures.is_empty(),
            measured.attempted + layers.cycles as u64,
            measured.failed + trace_failed,
            &report::CONTRACT_PER_LAYER,
            &layers.metrics,
        )?
    } else {
        let (_, measured) = bench::measure(w, Shape::PAPER, seed, seconds, w.cycles)?;
        eprintln!(
            "cyclebench: {} R={} per-rep cycle_s {:?}",
            w.name, measured.reps, measured.rep_cycle_s
        );
        report_failures(&measured, None);
        let names: Vec<&str> = report::END_TO_END
            .iter()
            .map(|e| e.name)
            .filter(|n| !report::NOT_IN_CONTRACT.contains(n))
            .collect();
        report::contract_line(
            measured.failed == 0,
            measured.attempted,
            measured.failed,
            &names,
            &measured.metrics,
        )?
    };
    let correct = line.get("correct") == Some(&Json::Bool(true));
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn report_failures(m: &Measured, layers: Option<&Layers>) {
    for f in m
        .failures
        .iter()
        .chain(layers.iter().flat_map(|l| &l.failures))
    {
        eprintln!("cyclebench: FAILED CHECK {}: {f}", m.workload.name);
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let how = if m.how.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.how)
        };
        println!("  {:<32} {:>16.9} {}{how}", m.name, m.value, m.unit);
    }
}

/// Standard output of a command run in the benchmark's directory, if it
/// could be run and succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    stdout_of(program, args)
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance carried by every result file.
fn env_json(seed: u64, seconds: f64, runs: &[(Measured, Layers)]) -> Json {
    let dirty = stdout_of("git", &["status", "--porcelain"])
        .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
    let reps = runs
        .iter()
        .map(|(m, _)| {
            (
                m.workload.name,
                Json::obj(vec![
                    ("R", Json::from(m.reps)),
                    ("N", Json::from(m.workload.cycles)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("simd", Json::from(adapter::simd_level())),
        ("rustc", Json::from(first_line("rustc", &["-V"]))),
        (
            "git_sha",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("reps", Json::obj(reps)),
        (
            "unset",
            Json::Arr(GUARDED_ENV.iter().map(|&v| Json::from(v)).collect()),
        ),
    ])
}

/// Per-cycle time of one `rapid_sde` rep in a child process with the
/// program's own telemetry switched on.
fn telemetry_child(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "rep",
            "--workload",
            "rapid_sde",
            "--seed",
            &seed.to_string(),
        ])
        .env("SQG_DA_TELEMETRY", "1")
        .output()
        .map_err(|e| format!("starting the telemetry child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "telemetry child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("telemetry child output: {e}"))
}

/// The child side of [`telemetry_child`]: one set-up, one rep, prints the
/// per-cycle seconds.
fn rep(flags: &Flags) -> Result<ExitCode, String> {
    let name: String = flags.get("--workload")?.ok_or("--workload is required")?;
    let w = workload_named(&name)?;
    let prepared = adapter::setup(
        w,
        Shape::PAPER,
        flags.get("--seed")?.unwrap_or(DEFAULT_SEED),
        w.cycles,
    )?;
    println!(
        "{:?}",
        adapter::run_rep(&prepared)?.wall_s / w.cycles as f64
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, both passes; prints every metric, writes the result file
/// and the traces, and fails if any output check failed.
fn run(flags: &Flags) -> Result<ExitCode, String> {
    require_clean_env()?;
    let seed = flags.get("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = flags.get("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: PathBuf = flags
        .get("--out")?
        .unwrap_or_else(|| out_dir().join("result.json"));

    let mut runs: Vec<(Measured, Layers)> = Vec::new();
    for w in WORKLOADS {
        eprintln!("cyclebench: {} ...", w.name);
        let (prepared, measured) = bench::measure(w, Shape::PAPER, seed, seconds, w.trace_cycles)?;
        let mut layers = bench::trace_pass(&prepared, &measured)?;
        write_trace(w, &layers)?;

        // Ratios against the serial workload of the same cadence, which
        // precedes its sharded twin in the grid.
        let serial = runs
            .iter()
            .find(|(m, _)| m.workload.ranks == 1 && m.workload.window_hours == w.window_hours);
        let cycle_s = value_of(&measured.metrics, "cycle_s");
        if let (2, Some((base, base_layers))) = (w.ranks, serial) {
            if let (Some(s), Some(d)) = (value_of(&base.metrics, "cycle_s"), cycle_s) {
                let how = format!(
                    "computed: cycle_s({}) {s:.4} / cycle_s({}) {d:.4}",
                    base.workload.name, w.name
                );
                let speedup = layer(&how, "dist.speedup_vs_serial", s / d, "x");
                layers.metrics.push(speedup);
            }
            if let (Some(tile), Some(serial_an)) = (
                value_of(&layers.metrics, "dist.tile_kernel_1r_s"),
                value_of(&base_layers.metrics, "core.analysis_s_p50"),
            ) {
                let how = format!(
                    "computed: tile kernel {tile:.4} / core.analysis_s_p50({}) {serial_an:.4}",
                    base.workload.name
                );
                let ratio = layer(&how, "dist.tile_vs_serial_ratio", tile / serial_an, "x");
                layers.metrics.push(ratio);
            }
        }
        if let ("rapid_sde", Some(off)) = (w.name, cycle_s) {
            let on = telemetry_child(seed)?;
            let how =
                format!("computed: (child with SQG_DA_TELEMETRY=1 {on:.5} - off {off:.5}) / off");
            let share = layer(
                &how,
                "telemetry.on_overhead_share",
                (on - off) / off,
                "ratio",
            );
            layers.metrics.push(share);
        }

        println!(
            "== {} — R={} reps x N={} cycles, seed {seed} ==",
            w.name, measured.reps, w.cycles
        );
        print_metrics(&measured.metrics);
        println!(
            "-- per layer (traced replica, {} cycles; probes) --",
            layers.cycles
        );
        print_metrics(&layers.metrics);
        report_failures(&measured, Some(&layers));
        runs.push((measured, layers));
    }

    let env = env_json(seed, seconds, &runs);
    let failed = runs
        .iter()
        .any(|(m, l)| m.failed > 0 || !l.failures.is_empty());
    let entries = runs
        .iter()
        .map(|(m, l)| report::workload_json(m, Some(l)))
        .collect();
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report::result_json(env, entries).to_string())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    println!(
        "traces: {}/trace_<workload>.json (open in ui.perfetto.dev or chrome://tracing)",
        out_dir().display()
    );
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: cyclebench compare A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        adapter::parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, worse) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("a = {a} (base), b = {b}; {worse} row(s) worse than their bound");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    const CONTRACT: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];
    match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("rep") => rep(&Flags::parse(&args[1..], &CONTRACT)?),
        Some("run") => run(&Flags::parse(
            &args[1..],
            &["--seed", "--seconds", "--out"],
        )?),
        _ if args.iter().any(|a| a == "--workload") => contract(&Flags::parse(args, &CONTRACT)?),
        _ => run(&Flags::parse(args, &["--seed", "--seconds", "--out"])?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|why| {
        eprintln!("cyclebench: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the harness's tables are what
    /// runs. They must say the same thing.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let doc = adapter::parse_json(include_str!("../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name.to_string()));
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && report::valid_name(w.name));
        }
        let specs: Vec<_> = report::END_TO_END
            .iter()
            .filter(|e| !report::NOT_IN_CONTRACT.contains(&e.name))
            .collect();
        assert_eq!(
            names("end_to_end"),
            specs.iter().map(|e| e.name.to_string()).collect::<Vec<_>>()
        );
        for (entry, spec) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(specs)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
            let better = if spec.better == report::Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            names("per_layer"),
            report::CONTRACT_PER_LAYER.map(str::to_string)
        );
    }

    /// All four workloads end to end on a 16² grid: both passes run, every
    /// check passes, every contracted metric is produced. Shape only — the
    /// tiny grid's numbers mean nothing.
    #[test]
    fn smoke_all_workloads_on_tiny_grid() {
        for w in WORKLOADS {
            let (prepared, measured) =
                bench::measure(w, Shape::TINY, 7, 0.0, w.trace_cycles).unwrap();
            assert_eq!(measured.failures, Vec::<String>::new(), "{}", w.name);
            assert_eq!(
                (measured.reps, measured.attempted, measured.failed),
                (1, w.cycles as u64, 0)
            );
            assert_eq!(measured.plan_cache_misses, 0, "{}", w.name);
            let layers = bench::trace_pass(&prepared, &measured).unwrap();
            assert_eq!(layers.failures, Vec::<String>::new(), "{}", w.name);
            for spec in &report::END_TO_END {
                let v = value_of(&measured.metrics, spec.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", w.name, spec.name));
                assert!(v.is_finite(), "{} {}", w.name, spec.name);
            }
            for name in report::CONTRACT_PER_LAYER {
                let v = value_of(&layers.metrics, name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", w.name));
                assert!(v.is_finite(), "{} {name}", w.name);
            }
            let sharded = w.ranks > 1;
            assert_eq!(
                value_of(&layers.metrics, "dist.collectives_per_cycle").unwrap() > 0.0,
                sharded
            );
            assert_eq!(
                value_of(&layers.metrics, "dist.gather_s_p50").unwrap() > 0.0,
                sharded
            );
            let events = layers
                .chrome
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap();
            assert!(events.len() >= w.ranks * w.trace_cycles * 5);
            assert_eq!(
                adapter::parse_json(&layers.chrome.to_string()).unwrap(),
                layers.chrome
            );
        }
    }
}
