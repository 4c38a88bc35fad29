//! The repository benchmark: end-to-end metrics from untraced runs, a
//! per-layer breakdown from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path tpsbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`, with `--trace 1`
//! the per-layer ones; `tpsbench/README.md` says what each measures and
//! which end-to-end metric it should move. `--record-digests` prints the
//! expected output digest of every workload input (`digests.txt`).

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

use stats::{median, percentile};
use trace::{SpanId, Trace, Tracer};
use workloads::{Kind, Pass, Runner, Traced, INPUT_VARIANTS};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("sim_s_per_s.t1", "sim_s/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim_s_per_s.tN", "sim_s/s"),
    ("tpslab.run.boot_s", "s"),
    ("paging.frames_after_boot", "count"),
    ("jvm.tick_s", "s"),
    ("jvm.tick_writes", "count"),
    ("jvm.tick_ns_per_write", "ns"),
    ("ksm.wake_s.t1", "s"),
    ("ksm.wake_s.tN", "s"),
    ("ksm.wake_p50_us", "us"),
    ("ksm.wake_p99_us", "us"),
    ("ksm.recount_s", "s"),
    ("ksm.pages_scanned", "count"),
    ("ksm.merges", "count"),
    ("ksm.merge_yield", "ratio"),
    ("tpslab.traffic_run.drain_s.t1", "s"),
    ("tpslab.traffic_run.drain_s.tN", "s"),
    ("tpslab.traffic_run.plan_s.t1", "s"),
    ("tpslab.traffic_run.plan_s.tN", "s"),
    ("tpslab.traffic_run.commit_s.t1", "s"),
    ("tpslab.traffic_run.commit_s.tN", "s"),
    ("tpslab.traffic_run.scan_s.t1", "s"),
    ("tpslab.traffic_run.scan_s.tN", "s"),
    ("tpslab.traffic_run.scan_parallel_s.t1", "s"),
    ("tpslab.traffic_run.scan_parallel_s.tN", "s"),
    ("tpslab.traffic_run.ns_per_request", "ns"),
    ("analysis.snapshot_s", "s"),
    ("analysis.snapshot_p99_ms", "ms"),
    ("analysis.rewalked_spaces", "count"),
    ("analysis.misses_s", "s"),
    ("tpslab.telemetry.render_s", "s"),
    ("tpslab.daemon.epoch_ms_p50", "ms"),
    ("tpslab.daemon.epoch_ms_p99", "ms"),
    ("tpslab.daemon.state_answer_us", "us"),
    ("tpsd.query_p50_ms", "ms"),
    ("tpsd.query_p99_ms", "ms"),
    ("tpsd.query_fail_share", "ratio"),
    ("tpsd.queries", "count"),
    ("tpsd.generator_late_ms_p99", "ms"),
    ("par.map_sharded_call_us.tN", "us"),
    ("par.map_parallel_call_us.tN", "us"),
    ("tpslab.sweep.run_s_p50", "s"),
    ("tpslab.sweep.run_s_max", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Spans whose self time is a layer's; everything else a traced run
/// spends (loop glue, khugepaged, the traffic run's own boot and report
/// assembly) is `bench.unattributed_s`.
const LAYER_SPANS: &[&str] = &[
    "tpslab.run.boot",
    "jvm.tick",
    "ksm.wake",
    "ksm.recount",
    "analysis.snapshot",
    "analysis.misses",
    "tpslab.telemetry.render",
    "tpslab.traffic_run.drain",
    "tpslab.traffic_run.plan",
    "tpslab.traffic_run.commit",
    "tpslab.traffic_run.scan",
];

const DIGESTS_HEADER: &str =
    "# <workload> <input variant> <FNV-1a digest of the deterministic output>. \
Regenerate only for a change meant to alter the output: \
cargo run --release --manifest-path tpsbench/Cargo.toml -- --record-digests > tpsbench/digests.txt";

/// Fresh processes whose cold boot `setup_s` is the median of.
const SETUP_SAMPLES: usize = 11;

const USAGE: &str = "usage: tpsbench --workload <fig8_sweep|flash_crowd_1024|tpsd_scrape> \
--seed <n> --seconds <s> --trace <0|1>\n       tpsbench --record-digests";

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Measure { trace: bool, seconds: u64 },
    BootChild,
    RecordDigests,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    kind: Kind,
    seed: u64,
    mode: Mode,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    if args == ["--record-digests"] {
        return Ok(Args {
            kind: Kind::Fig8Sweep,
            seed: 0,
            mode: Mode::RecordDigests,
        });
    }
    let mut flags = BTreeMap::new();
    let mut boot_child = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--boot-child" {
            boot_child = true;
            continue;
        }
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let kind = Kind::parse(get("workload")?).ok_or("unknown workload")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed needs an integer")?;
    let mode = if boot_child {
        Mode::BootChild
    } else {
        let seconds = get("seconds")?
            .parse()
            .ok()
            .filter(|s| (1..=600).contains(s))
            .ok_or("--seconds needs an integer from 1 to 600")?;
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace needs 0 or 1".into()),
        };
        Mode::Measure { trace, seconds }
    };
    Ok(Args { kind, seed, mode })
}

/// The expected digest of `kind` on input variant `variant`.
fn recorded_digest(kind: Kind, variant: u64) -> Option<&'static str> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(kind.name())
            && fields.next().and_then(|v| v.parse().ok()) == Some(variant);
        fields.next().filter(|_| matches)
    })
}

/// The cold boot of one fresh child process, seconds.
fn boot_child(kind: Kind, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args([
            "--boot-child",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("boot child starts");
    assert!(
        out.status.success(),
        "boot child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("boot child prints its boot seconds")
}

/// What the untraced passes of a run measured.
struct Timed {
    t1: Vec<Pass>,
    tn: Vec<Pass>,
    /// Memory high-water mark after the first pass, MiB.
    peak_rss_mib: f64,
    /// Cold boots of fresh child processes, seconds.
    boots_s: Vec<f64>,
}

/// Untraced passes for as many rounds as fit in `seconds` (at least
/// one; a round fits when its passes, each as long as the slowest pass
/// so far, end within `seconds`). The first round runs at 1 and then N threads, so every run
/// checks that the thread count leaves the output alone. Later rounds
/// alternate 1/N pairs when `both` (the N-thread rate is wanted), and
/// otherwise run at 1 thread only, for more samples of the end-to-end
/// rate. The memory high-water mark is read after the first pass, which
/// runs at one thread: passes at N threads add per-thread allocator
/// arenas whose size varies from run to run.
///
/// `boot` runs `boots` times between passes, spread evenly over the run
/// (any still due run at its end), so `setup_s` samples the host over the
/// same stretch of time as the passes.
fn timed_passes(
    runner: &Runner,
    n: usize,
    seconds: u64,
    both: bool,
    boots: usize,
    boot: &dyn Fn() -> f64,
) -> Timed {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut out = Timed {
        t1: Vec::new(),
        tn: Vec::new(),
        peak_rss_mib: 0.0,
        boots_s: Vec::new(),
    };
    let boot_due = |k: usize| budget.mul_f64(k as f64 / boots.max(1) as f64);
    let mut slowest_pass = Duration::ZERO;
    for round in 0usize.. {
        // `true` marks the pass at N threads (N may be 1 on a 1-core host).
        let at_n: &[bool] = match (round, both) {
            (0, _) => &[false, true],
            (_, false) => &[false],
            _ if round % 2 == 1 => &[true, false],
            _ => &[false, true],
        };
        if round > 0 && started.elapsed() + slowest_pass * at_n.len() as u32 > budget {
            break;
        }
        for &at_n in at_n {
            let threads = if at_n { n } else { 1 };
            let pass_started = Instant::now();
            let pass = runner.pass(threads);
            slowest_pass = slowest_pass.max(pass_started.elapsed());
            eprintln!(
                "pass t{threads}: {:.3} sim s / {:.3} host s",
                pass.sim_s, pass.host_s
            );
            if at_n { &mut out.tn } else { &mut out.t1 }.push(pass);
            if out.peak_rss_mib == 0.0 {
                out.peak_rss_mib = stats::peak_rss_mib();
            }
            while out.boots_s.len() < boots && boot_due(out.boots_s.len()) <= started.elapsed() {
                out.boots_s.push(boot());
            }
        }
    }
    while out.boots_s.len() < boots {
        out.boots_s.push(boot());
    }
    out
}

fn rate(passes: &[Pass]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.sim_s / p.host_s)
            .collect::<Vec<_>>(),
    )
}

/// The fixed cost of one `par` call with a trivial body, µs (median).
fn par_call_us(threads: usize) -> (f64, f64) {
    const CALLS: usize = 400;
    let mut items = vec![0u64; 64];
    let time = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..CALLS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let sharded = time(&mut || {
        std::hint::black_box(par::map_sharded(&mut items, threads, |_, x| {
            *x += 1;
            *x
        }));
    });
    let shared = vec![0u64; 64];
    let parallel = time(&mut || {
        std::hint::black_box(par::map_parallel(&shared, threads, |x| x + 1));
    });
    (sharded, parallel)
}

/// Per-layer metrics of a traced run at 1 (`t1`) and N (`tn`) threads.
fn layer_metrics(
    trace: &Trace,
    (root1, traced1): (SpanId, &Traced),
    (root_n, traced_n): (SpanId, &Traced),
    untraced_rate_t1: f64,
) -> BTreeMap<&'static str, f64> {
    let s = |ns: u64| ns as f64 / 1e9;
    let self1 = trace.self_ns_by_name(root1);
    let self_n = trace.self_ns_by_name(root_n);
    let get = |m: &BTreeMap<&str, u64>, name: &str| m.get(name).copied().unwrap_or(0);
    let ms = |name: &str| -> Vec<f64> {
        trace
            .durations_ns(root1, name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    };
    let wakes_us: Vec<f64> = ms("ksm.wake").iter().map(|m| m * 1e3).collect();
    let epochs_ms = ms("tpslab.daemon.epoch");
    let wall1 = trace.span(root1).duration_ns();
    let attributed: u64 = LAYER_SPANS.iter().map(|n| get(&self1, n)).sum();

    let mut m = BTreeMap::new();
    m.insert("tpslab.run.boot_s", s(get(&self1, "tpslab.run.boot")));
    m.insert("paging.frames_after_boot", traced1.frames_after_boot as f64);
    let tick_ns = get(&self1, "jvm.tick");
    m.insert("jvm.tick_s", s(tick_ns));
    m.insert("jvm.tick_writes", traced1.tick_writes as f64);
    m.insert(
        "jvm.tick_ns_per_write",
        if traced1.tick_writes == 0 {
            0.0
        } else {
            tick_ns as f64 / traced1.tick_writes as f64
        },
    );
    for (threads, selves, traced) in [("t1", &self1, traced1), ("tN", &self_n, traced_n)] {
        // The traffic run's KSM wakes happen inside its scan phase, the
        // only split the public call reports.
        let wake = match traced.wall {
            Some(wall) => wall.scan_ns,
            None => get(selves, "ksm.wake"),
        };
        let wall = traced.wall.unwrap_or_default();
        let name = |layer: &str| -> &'static str {
            let full = format!("{layer}.{threads}");
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == full)
                .expect("metric is listed")
                .0
        };
        m.insert(name("ksm.wake_s"), s(wake));
        m.insert(name("tpslab.traffic_run.drain_s"), s(wall.drain_ns));
        m.insert(name("tpslab.traffic_run.plan_s"), s(wall.plan_ns));
        m.insert(name("tpslab.traffic_run.commit_s"), s(wall.commit_ns));
        m.insert(name("tpslab.traffic_run.scan_s"), s(wall.scan_ns));
        m.insert(
            name("tpslab.traffic_run.scan_parallel_s"),
            s(wall.scan_parallel_ns),
        );
    }
    m.insert("ksm.wake_p50_us", percentile(&wakes_us, 50.0));
    m.insert("ksm.wake_p99_us", percentile(&wakes_us, 99.0));
    m.insert("ksm.recount_s", s(get(&self1, "ksm.recount")));
    m.insert("ksm.pages_scanned", traced1.pages_scanned as f64);
    m.insert("ksm.merges", traced1.merges as f64);
    m.insert(
        "ksm.merge_yield",
        traced1.merges as f64 / traced1.pages_scanned.max(1) as f64,
    );
    m.insert(
        "tpslab.traffic_run.ns_per_request",
        traced1.wall.map_or(0.0, |w| {
            w.total_ns() as f64 / traced1.requests.max(1) as f64
        }),
    );
    m.insert("analysis.snapshot_s", s(get(&self1, "analysis.snapshot")));
    m.insert(
        "analysis.snapshot_p99_ms",
        percentile(&ms("analysis.snapshot"), 99.0),
    );
    m.insert("analysis.rewalked_spaces", traced1.rewalked_spaces as f64);
    m.insert("analysis.misses_s", s(get(&self1, "analysis.misses")));
    m.insert(
        "tpslab.telemetry.render_s",
        s(get(&self1, "tpslab.telemetry.render")),
    );
    m.insert("tpslab.daemon.epoch_ms_p50", percentile(&epochs_ms, 50.0));
    m.insert("tpslab.daemon.epoch_ms_p99", percentile(&epochs_ms, 99.0));
    m.insert("bench.traced_wall_s", s(wall1));
    m.insert("bench.unattributed_s", s(wall1.saturating_sub(attributed)));
    m.insert(
        "bench.trace_overhead",
        untraced_rate_t1 / (traced1.sim_s / traced1.host_s) - 1.0,
    );
    m
}

/// Metrics from the untraced passes that are not end-to-end ones: the
/// rate at N threads, the scrape client's view and the sweep's runs.
fn pass_metrics(t1: &[Pass], tn: &[Pass]) -> BTreeMap<&'static str, f64> {
    let all = || t1.iter().chain(tn);
    let latency: Vec<f64> = all()
        .flat_map(|p| p.scrape.latency_ms.iter().copied())
        .collect();
    let late: Vec<f64> = all()
        .flat_map(|p| p.scrape.late_ms.iter().copied())
        .collect();
    let failed: u64 = all().map(|p| p.scrape.failed).sum();
    let answers: Vec<f64> = t1.iter().map(|p| p.scrape.state_answer_us).collect();
    let per_pass = |f: fn(&[f64]) -> f64| -> f64 {
        let v: Vec<f64> = tn
            .iter()
            .filter(|p| !p.run_walls_s.is_empty())
            .map(|p| f(&p.run_walls_s))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let mut m = BTreeMap::new();
    m.insert("sim_s_per_s.tN", rate(tn));
    m.insert("tpsd.query_p50_ms", percentile(&latency, 50.0));
    m.insert("tpsd.query_p99_ms", percentile(&latency, 99.0));
    m.insert(
        "tpsd.query_fail_share",
        failed as f64 / latency.len().max(1) as f64,
    );
    m.insert("tpsd.queries", latency.len() as f64);
    m.insert("tpsd.generator_late_ms_p99", percentile(&late, 99.0));
    m.insert("tpslab.daemon.state_answer_us", median(&answers));
    m.insert("tpslab.sweep.run_s_p50", per_pass(|w| percentile(w, 50.0)));
    m.insert(
        "tpslab.sweep.run_s_max",
        per_pass(|w| w.iter().copied().fold(0.0, f64::max)),
    );
    m
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table` with its unit.
fn result_json(
    failed: u64,
    attempted: u64,
    table: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics[name];
        assert!(value.is_finite(), "{name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn write_trace(kind: Kind, seed: u64, trace: &Trace) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let path = dir.join(format!("{}-seed{seed}.trace.json", kind.name()));
    std::fs::write(&path, trace.chrome_json()).expect("write the trace");
    eprintln!("trace: {}", path.display());
}

fn measure(kind: Kind, seed: u64, seconds: u64, traced: bool) -> String {
    let n = par::default_threads();
    let runner = Runner::new(kind, seed);
    let expected = recorded_digest(kind, seed % INPUT_VARIANTS);
    let boots = if traced { 0 } else { SETUP_SAMPLES };
    let Timed {
        t1,
        tn,
        peak_rss_mib,
        boots_s,
    } = timed_passes(&runner, n, seconds, traced, boots, &|| {
        boot_child(kind, seed)
    });

    let mut attempted = 0;
    let mut failed = 0;
    for pass in t1.iter().chain(&tn) {
        attempted += 1 + pass.scrape.latency_ms.len() as u64;
        failed += pass.scrape.failed;
        if Some(pass.digest.as_str()) != expected {
            eprintln!(
                "digest {} differs from the recorded {expected:?}",
                pass.digest
            );
            failed += 1;
        }
    }

    if !traced {
        let mut m = BTreeMap::new();
        m.insert("sim_s_per_s.t1", rate(&t1));
        m.insert("setup_s", median(&boots_s));
        m.insert("peak_rss_mib", peak_rss_mib);
        return result_json(failed, attempted, END_TO_END, &m);
    }

    let tracer = Tracer::new();
    let (root1, traced1) = tracer.span("bench.traced.t1", None, |root| {
        (root, runner.traced(1, &tracer, root))
    });
    let (root_n, traced_n) = tracer.span("bench.traced.tN", None, |root| {
        (root, runner.traced(n, &tracer, root))
    });
    let trace = tracer.finish();
    for traced in [&traced1, &traced_n] {
        attempted += 1;
        if traced.end_state != t1[0].end_state {
            eprintln!(
                "traced end state differs from the untraced run's:\n{}\n{}",
                traced.end_state, t1[0].end_state
            );
            failed += 1;
        }
    }
    write_trace(kind, seed, &trace);
    let mut m = layer_metrics(&trace, (root1, &traced1), (root_n, &traced_n), rate(&t1));
    m.extend(pass_metrics(&t1, &tn));
    let (sharded, parallel) = par_call_us(n);
    m.insert("par.map_sharded_call_us.tN", sharded);
    m.insert("par.map_parallel_call_us.tN", parallel);
    result_json(failed, attempted, PER_LAYER, &m)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.mode {
        Mode::BootChild => {
            // Keep the CPU busy briefly before the boot: on the 2-vCPU
            // host, batches of fresh-process boots of one input varied by
            // a quarter without this and by 5 % with it.
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(50) {
                std::hint::spin_loop();
            }
            println!("{:?}", Runner::new(args.kind, args.seed).boot());
        }
        Mode::RecordDigests => {
            let n = par::default_threads();
            println!("{DIGESTS_HEADER}");
            for kind in Kind::ALL {
                for variant in 0..INPUT_VARIANTS {
                    let digest = Runner::new(kind, variant).pass(n).digest;
                    println!("{} {variant} {digest}", kind.name());
                }
            }
        }
        Mode::Measure { trace, seconds } => {
            println!("{}", measure(args.kind, args.seed, seconds, trace));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "tpsd_scrape",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.kind, Kind::TpsdScrape);
        assert_eq!(args.seed, 7);
        assert_eq!(
            args.mode,
            Mode::Measure {
                trace: true,
                seconds: 10
            }
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "fig8_sweep",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "fig8_sweep",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "fig8_sweep", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "fig8_sweep",
                "--seed",
                "1",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--bogus"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = json[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            at += found + entry.len();
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn every_input_variant_has_a_recorded_digest() {
        for kind in Kind::ALL {
            for variant in 0..INPUT_VARIANTS {
                assert!(
                    recorded_digest(kind, variant).is_some(),
                    "{} {variant}",
                    kind.name()
                );
            }
        }
    }

    /// On a tick-model workload the layer self times and
    /// `bench.unattributed_s` add up to the traced wall time, with
    /// nothing counted twice.
    #[test]
    fn layer_self_times_and_unattributed_sum_to_the_traced_wall() {
        let runner = Runner::Tpsd(workloads::Tpsd {
            guests: 3,
            scale: 512.0,
            seconds: 4,
            rate_hz: 100.0,
            seed: 0,
        });
        let tracer = Tracer::new();
        let (root, traced) = tracer.span("bench.traced.t1", None, |root| {
            (root, runner.traced(1, &tracer, root))
        });
        let trace = tracer.finish();
        let m = layer_metrics(&trace, (root, &traced), (root, &traced), 1.0);
        let layers: f64 = [
            "tpslab.run.boot_s",
            "jvm.tick_s",
            "ksm.wake_s.t1",
            "ksm.recount_s",
            "analysis.snapshot_s",
            "analysis.misses_s",
            "tpslab.telemetry.render_s",
        ]
        .iter()
        .map(|name| m[name])
        .sum();
        let wall = m["bench.traced_wall_s"];
        assert!(layers > 0.0 && layers <= wall, "{layers} of {wall}");
        assert!((layers + m["bench.unattributed_s"] - wall).abs() < 1e-6);
        assert_eq!(
            trace.self_ns_by_name(root).values().sum::<u64>(),
            trace.span(root).duration_ns()
        );
    }

    #[test]
    fn result_line_has_the_expected_keys() {
        let mut m = BTreeMap::new();
        m.insert("sim_s_per_s.t1", 1.5);
        m.insert("setup_s", 0.125);
        m.insert("peak_rss_mib", 300.0);
        let line = result_json(0, 3, END_TO_END, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(result_json(1, 3, END_TO_END, &m).starts_with("{\"correct\": false"));
    }
}
