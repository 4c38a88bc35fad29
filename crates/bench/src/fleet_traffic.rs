//! Fleet-scale traffic serving: the parallel sharded engine benchmark
//! (`results/BENCH_fleet_traffic.json`, `tests/golden/fleet_traffic.txt`).
//!
//! Where `bench::traffic` prices the event engine on a miniature fleet,
//! this module drives the **fleet presets** (`scale256`, `scale1024`)
//! through [`Experiment::run_traffic`] — hundreds to a thousand guest
//! JVMs serving a flash crowd — and measures the plan → commit split
//! introduced in DESIGN.md §14:
//!
//! * [`golden_text`] — a deterministic two-combo report pinned at
//!   `tests/golden/fleet_traffic.txt`, rendered byte-identically at any
//!   `--threads` value (the golden test diffs 1 against 4 threads).
//! * [`bench_json`] — wall-clock phase measurements at scale256 plus a
//!   completing scale1024 run, with the whole-run Amdahl speedup
//!   projection (engine plan phase + KSM classify/resolve) asserted
//!   ≥ 3x at generation time.

use std::fmt::Write as _;
use std::time::Instant;

use tpslab::traffic::Scenario;
use tpslab::{Experiment, ExperimentConfig, TrafficWall};

/// Memory scale divisor for every fleet combo: the paper's Fig. 8
/// over-commit ratio preserved while each guest shrinks enough that a
/// thousand of them fit a test run.
const SCALE: f64 = 512.0;

/// Simulated seconds per measured combo — long enough for the flash
/// crowd's spike (middle sixth) to land inside the run.
const BENCH_SECONDS: u64 = 60;

/// Simulated seconds for the golden combos (kept short: the golden
/// test renders this twice, at 1 and 4 threads).
const GOLDEN_SECONDS: u64 = 30;

/// A fleet-preset traffic configuration at `guests` guests.
#[must_use]
pub fn fleet_config(guests: usize, seconds: u64, threads: usize) -> ExperimentConfig {
    let cfg = match guests {
        256 => ExperimentConfig::scale256(SCALE),
        1024 => ExperimentConfig::scale1024(SCALE),
        n => ExperimentConfig::fleet(n, SCALE),
    };
    cfg.with_duration_seconds(seconds).with_threads(threads)
}

/// The golden combos: a mid-size fleet under the two scenarios that
/// stress the parallel split from both sides — flash-crowd (every
/// guest busy, maximal plan-phase fan-out) and rolling-deploy (churned
/// guests forced serial while the rest of the fleet plans).
fn golden_combos() -> [(usize, Scenario); 2] {
    [
        (64, Scenario::flash_crowd(GOLDEN_SECONDS)),
        (64, Scenario::rolling_deploy(GOLDEN_SECONDS, 64)),
    ]
}

/// Renders the deterministic fleet-traffic report pinned at
/// `tests/golden/fleet_traffic.txt`. Thread count is deliberately
/// absent from the text: the golden test renders it at 1 and 4 threads
/// and requires byte identity.
///
/// # Panics
///
/// Panics if a fixed golden configuration fails validation (it never
/// does; the panic is the test harness's failure mode).
#[must_use]
pub fn golden_text(threads: usize) -> String {
    let mut out = String::new();
    for (guests, scenario) in golden_combos() {
        let cfg = fleet_config(guests, GOLDEN_SECONDS, threads);
        let report = Experiment::run_traffic(&cfg, &scenario).expect("golden config is valid");
        out.push_str(&report.render());
        out.push('\n');
    }
    out
}

/// One measured fleet combo.
struct Measured {
    guests: usize,
    scenario: &'static str,
    offered: u64,
    served: u64,
    restarts: u64,
    sharing_stability: f64,
    serial: TrafficWall,
    sharded: TrafficWall,
    measured_1t_ms: f64,
    measured_8t_ms: f64,
    parallel_fraction: f64,
    projected_speedup_8t: f64,
}

/// The whole-run Amdahl projection at 8 workers.
///
/// A traffic run has two pool-parallel phases: the engine's plan phase
/// (per-guest shards onto `MemTape`s — this PR) and the KSM scanner's
/// classify + resolve phases (PR 5's sharding, reported by the
/// scanner's own wake accounting as `scan_parallel_ns`). Everything
/// else — drain, the serial replay commit, scanner plan/commit,
/// khugepaged, sampling — stays serial.
///
/// At 1 thread the plan phase records the same tapes on the calling
/// thread, so the serial run's `total_ns` is the honest 1-thread cost
/// of the one path every thread count takes. The sharded
/// run's phases are measured back-to-back on this host; dividing its
/// parallel portion by 8 is the Amdahl term. Using the sharded run's
/// own (overhead-inflated) serial residue keeps the projection
/// conservative.
fn project(serial: &TrafficWall, sharded: &TrafficWall) -> (f64, f64) {
    let parallel = sharded.plan_ns + sharded.scan_parallel_ns;
    let fraction = parallel as f64 / sharded.total_ns().max(1) as f64;
    let projected_8t = sharded.serial_ns() as f64 + parallel as f64 / 8.0;
    (fraction, serial.total_ns() as f64 / projected_8t)
}

fn measure(guests: usize, scenario: &Scenario) -> Measured {
    // Serial run: the whole workload on one thread, tapes included.
    let cfg1 = fleet_config(guests, BENCH_SECONDS, 1);
    let start = Instant::now();
    let (report, serial) =
        Experiment::run_traffic_timed(&cfg1, scenario).expect("bench config is valid");
    let measured_1t_ms = start.elapsed().as_secs_f64() * 1e3;

    // Sharded run: honest 8-thread wall-clock on this host, whatever
    // its core count — asserted byte-identical to the serial run.
    let cfg8 = fleet_config(guests, BENCH_SECONDS, 8);
    let start = Instant::now();
    let (report8, sharded) =
        Experiment::run_traffic_timed(&cfg8, scenario).expect("bench config is valid");
    let measured_8t_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report, report8, "thread count changed the traffic report");

    let (parallel_fraction, projected_speedup_8t) = project(&serial, &sharded);
    Measured {
        guests,
        scenario: scenario.name,
        offered: report.offered,
        served: report.served,
        restarts: report.restarts,
        sharing_stability: report.sharing_stability,
        serial,
        sharded,
        measured_1t_ms,
        measured_8t_ms,
        parallel_fraction,
        projected_speedup_8t,
    }
}

/// Measures the fleet traffic combos and prints the record committed as
/// `results/BENCH_fleet_traffic.json`.
///
/// # Panics
///
/// Panics if a configuration fails validation, if an 8-thread run's
/// report diverges from the serial run's, or if the scale256
/// flash-crowd whole-run projection falls below 3× at 8 workers — the
/// speedup claim this benchmark exists to pin.
#[must_use]
pub fn bench_json() -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"parallel sharded traffic engine: fleet-scale request serving at scale256/scale1024\","
    );
    let _ = writeln!(out, "  \"source\": \"crates/bench/src/fleet_traffic.rs\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p bench --bin fleet_traffic -- --json\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"fleet presets at memory scale 1/{SCALE:.0}, {BENCH_SECONDS} s simulated flash crowd; every guest JVM serves seeded request batches while KSM scans\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"measurement_note\": \"measured_*_ms are wall-clock on this host ({host_cores} core(s)); projected_speedup_8t is a whole-run Amdahl projection — the serial run's total over the sharded run's serial residue + (plan_ns + scan_parallel_ns)/8 — labelled as such because this container cannot run 8 workers concurrently: the engine plan phase (this PR) and the KSM classify+resolve phases (PR 5, per the scanner's own wake accounting) are the pool-parallel portions, and the sharded run's own overhead-inflated residue keeps the projection conservative\","
    );
    let _ = writeln!(out, "  \"combos\": [");
    let combos = [
        (256usize, Scenario::flash_crowd(BENCH_SECONDS)),
        (1024usize, Scenario::flash_crowd(BENCH_SECONDS)),
    ];
    let mut points = Vec::new();
    for (guests, scenario) in combos {
        points.push(measure(guests, &scenario));
    }
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"guests\": {},", p.guests);
        let _ = writeln!(out, "      \"scenario\": \"{}\",", p.scenario);
        let _ = writeln!(out, "      \"offered\": {},", p.offered);
        let _ = writeln!(out, "      \"served\": {},", p.served);
        let _ = writeln!(out, "      \"restarts\": {},", p.restarts);
        let _ = writeln!(
            out,
            "      \"sharing_stability\": {:.4},",
            p.sharing_stability
        );
        let _ = writeln!(out, "      \"serial_drain_ns\": {},", p.serial.drain_ns);
        let _ = writeln!(out, "      \"serial_commit_ns\": {},", p.serial.commit_ns);
        let _ = writeln!(out, "      \"serial_scan_ns\": {},", p.serial.scan_ns);
        let _ = writeln!(out, "      \"sharded_drain_ns\": {},", p.sharded.drain_ns);
        let _ = writeln!(out, "      \"sharded_plan_ns\": {},", p.sharded.plan_ns);
        let _ = writeln!(out, "      \"sharded_commit_ns\": {},", p.sharded.commit_ns);
        let _ = writeln!(out, "      \"sharded_scan_ns\": {},", p.sharded.scan_ns);
        let _ = writeln!(
            out,
            "      \"sharded_scan_parallel_ns\": {},",
            p.sharded.scan_parallel_ns
        );
        let _ = writeln!(
            out,
            "      \"parallel_fraction\": {:.3},",
            p.parallel_fraction
        );
        let _ = writeln!(
            out,
            "      \"projected_speedup_8t\": {:.2},",
            p.projected_speedup_8t
        );
        let _ = writeln!(out, "      \"measured_1t_ms\": {:.3},", p.measured_1t_ms);
        let _ = writeln!(out, "      \"measured_8t_ms\": {:.3}", p.measured_8t_ms);
        let _ = writeln!(out, "    }}{}", if i + 1 < points.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"equivalence\": \"every 8-thread run is asserted report-identical to its serial run; the fleet-traffic golden report is byte-identical at 1 vs 4 threads (tests/golden/fleet_traffic.txt)\""
    );
    out.push_str("}\n");

    // The speedup claim, checked where the numbers are produced: the
    // scale256 flash crowd must project at least 3x at 8 workers.
    let p = &points[0];
    assert!(
        p.projected_speedup_8t >= 3.0,
        "scale256 flash-crowd projects only {:.2}x at 8 workers \
         (parallel fraction {:.3})",
        p.projected_speedup_8t,
        p.parallel_fraction
    );
    // And scale1024 must have completed with real traffic served.
    let p1024 = &points[1];
    assert!(
        p1024.guests == 1024 && p1024.served > 0,
        "scale1024 run did not serve traffic"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_combos_cover_both_scenario_classes() {
        let names: Vec<&str> = golden_combos().iter().map(|(_, s)| s.name).collect();
        assert!(names.contains(&"flash-crowd"));
        assert!(names.contains(&"rolling-deploy"));
    }

    #[test]
    fn projection_matches_amdahl_by_hand() {
        let serial = TrafficWall {
            drain_ns: 100,
            plan_ns: 0,
            commit_ns: 700,
            scan_ns: 1_200,
            scan_parallel_ns: 1_000,
        };
        let sharded = TrafficWall {
            drain_ns: 100,
            plan_ns: 700,
            commit_ns: 200,
            scan_ns: 1_600,
            scan_parallel_ns: 1_300,
        };
        let (fraction, projected) = project(&serial, &sharded);
        // Parallel portion: 700 plan + 1300 scan = 2000 of 2600 total.
        assert!((fraction - 2_000.0 / 2_600.0).abs() < 1e-12);
        // Serial total 2000 over (100 + 200 + 300) + 2000/8 = 850.
        assert!((projected - 2_000.0 / 850.0).abs() < 1e-12);
    }
}
