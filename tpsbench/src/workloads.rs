//! The workload runners.
//!
//! Each runner has three entry points:
//!
//! * `boot` — the cold set-up a fresh process pays, timed inside a
//!   child process by `main`;
//! * `pass` — one untraced, timed run at a given worker count, returning
//!   its simulated and host seconds, the digest of its deterministic
//!   output and its end state;
//! * `traced` — the same simulation driven through the layers' public
//!   calls with a span around each call, returning the end state so the
//!   caller can check it equals the untraced pass's.

use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use mem::Tick;
use tpslab::analysis::{self, GuestView, SnapshotEngine};
use tpslab::hypervisor::KvmHost;
use tpslab::jvm::JavaVm;
use tpslab::ksm::KsmScanner;
use tpslab::traffic::Scenario;
use tpslab::workloads::SlaOutcome;
use tpslab::{telemetry, Daemon, DaemonConfig, Experiment, ExperimentConfig};

use crate::stats::{digest, median};
use crate::trace::{SpanId, Tracer};

/// What one untraced pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Simulated seconds the pass covered.
    pub sim_s: f64,
    /// Host seconds those simulated seconds took.
    pub host_s: f64,
    /// Digest of the deterministic output (fig8 rows, traffic report or
    /// the final `/metrics/deterministic`).
    pub digest: String,
    /// Final KSM counters and resident memory, as text, for the traced
    /// run to match.
    pub end_state: String,
    /// Host seconds of each sweep run (the sweep only).
    pub run_walls_s: Vec<f64>,
    /// What the scrape client saw (`tpsd_scrape` only).
    pub scrape: Scrape,
}

/// Open-loop scrape client results.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Due-to-done latency of every query, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each query, ms.
    pub late_ms: Vec<f64>,
    /// Queries that errored or returned a malformed body.
    pub failed: u64,
    /// Median in-process cached answer (no transport), µs.
    pub state_answer_us: f64,
}

/// What a traced run produced besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Simulated and host seconds measured like the untraced pass's.
    pub sim_s: f64,
    pub host_s: f64,
    pub end_state: String,
    pub frames_after_boot: u64,
    pub tick_writes: u64,
    pub pages_scanned: u64,
    pub merges: u64,
    pub rewalked_spaces: u64,
    pub requests: u64,
    /// The traffic run's own phase split (traffic workloads only).
    pub wall: Option<tpslab::TrafficWall>,
}

/// The paper's Fig. 8 sweep: SPECjEnterprise at `vms` guests, each
/// without and with the preloaded class cache, built exactly as the
/// `fig8` binary builds it.
#[derive(Debug, Clone)]
pub struct Fig8 {
    pub vms: RangeInclusive<usize>,
    pub scale: f64,
    pub seconds: u64,
    pub seed: u64,
}

/// A fleet preset serving a flash crowd.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub guests: usize,
    pub scale: f64,
    pub seconds: u64,
    pub seed: u64,
}

/// `tpsd` over a tick-model fleet, scraped by one open-loop client.
#[derive(Debug, Clone)]
pub struct Tpsd {
    pub guests: usize,
    pub scale: f64,
    pub seconds: u64,
    /// Queries per second the client sends.
    pub rate_hz: f64,
    pub seed: u64,
}

/// A tick-model world stepped through the public calls, one span per
/// call: exactly the per-tick body of `Experiment::run` and the daemon's
/// ticker (guest/JVM tick, khugepaged once per simulated second, the KSM
/// warm-up → steady switch, the scanner wake).
struct TickLoop {
    host: KvmHost,
    javas: Vec<JavaVm>,
    scanner: KsmScanner,
    steady: tpslab::ksm::KsmParams,
    warmup_end: Tick,
    switched: bool,
    frames_after_boot: u64,
    tick_writes: u64,
}

impl TickLoop {
    fn boot(config: &ExperimentConfig, tracer: &Tracer, parent: SpanId) -> TickLoop {
        let booted = config.clone().with_duration_seconds(0);
        let (host, javas) = tracer.span("tpslab.run.boot", Some(parent), |_| {
            Experiment::build_world(&booted)
        });
        TickLoop {
            frames_after_boot: host.mm().phys().allocated_frames() as u64,
            host,
            javas,
            scanner: KsmScanner::new(config.ksm.warmup).with_threads(config.threads),
            steady: config.ksm.steady,
            warmup_end: Tick::from_seconds(config.ksm.warmup_seconds as f64),
            switched: false,
            tick_writes: 0,
        }
    }

    fn step(&mut self, t: u64, tracer: &Tracer, parent: SpanId) {
        let now = Tick(t);
        let before = self.host.mm().phys().total_writes();
        tracer.span("jvm.tick", Some(parent), |_| {
            Experiment::tick_world(&mut self.host, &mut self.javas, now);
        });
        self.tick_writes += self.host.mm().phys().total_writes() - before;
        if t.is_multiple_of(mem::TICKS_PER_SECOND) {
            tracer.span("hypervisor.thp_scan", Some(parent), |_| {
                self.host.thp_scan(now);
            });
        }
        if !self.switched && now >= self.warmup_end {
            self.scanner.set_params(self.steady);
            self.switched = true;
        }
        tracer.span("ksm.wake", Some(parent), |_| {
            self.scanner.run(self.host.mm_mut(), now);
        });
    }

    fn views(&self) -> Vec<GuestView<'_>> {
        self.host
            .guests()
            .iter()
            .zip(&self.javas)
            .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
            .collect()
    }

    fn end_state(&self) -> String {
        format!(
            "{:?} resident_mib={}",
            self.scanner.stats(),
            self.host.resident_mib()
        )
    }
}

fn engine_rewalks(engine: &SnapshotEngine) -> u64 {
    let mut reg = tpslab::obs::MetricsRegistry::new();
    engine.record_metrics(&mut reg);
    reg.counter_value("engine_spaces_rewalked_total", &[])
        .unwrap_or(0)
}

impl Fig8 {
    /// The configs of the sweep, in `fig8` order, each run on one thread.
    #[must_use]
    pub fn configs(&self) -> Vec<ExperimentConfig> {
        let opts = bench::RunOpts {
            scale: self.scale,
            minutes: self.seconds as f64 / 60.0,
            threads: 1,
            audit: false,
        };
        let mut configs = Vec::new();
        for n in self.vms.clone() {
            let cfg = opts
                .apply(ExperimentConfig::paper_overcommit_specj(n, self.scale))
                .with_seed(self.seed);
            configs.push(cfg.clone());
            configs.push(cfg.with_class_sharing());
        }
        configs
    }

    /// Boots every config of the sweep once.
    #[must_use]
    pub fn boot(&self) -> f64 {
        let configs: Vec<_> = self
            .configs()
            .into_iter()
            .map(|c| c.with_duration_seconds(0))
            .collect();
        let start = Instant::now();
        let worlds: Vec<_> = configs.iter().map(Experiment::build_world).collect();
        let boot_s = start.elapsed().as_secs_f64();
        drop(std::hint::black_box(worlds));
        boot_s
    }

    /// The sweep through `tpslab::sweep::run_all_timed` on `workers`.
    #[must_use]
    pub fn pass(&self, workers: usize) -> Pass {
        let configs = self.configs();
        let start = Instant::now();
        let timed =
            tpslab::sweep::run_all_timed(&configs, workers).expect("fig8 configs are valid");
        let host_s = start.elapsed().as_secs_f64();
        let mut rows = String::new();
        for (n, pair) in self.vms.clone().zip(timed.chunks(2)) {
            let (default, preload) = (&pair[0].value, &pair[1].value);
            let per_vm = |r: &tpslab::ExperimentReport| r.total_throughput() / n as f64;
            let sla = |r: &tpslab::ExperimentReport| {
                if r.throughput.iter().all(|t| t.sla == SlaOutcome::Met) {
                    "met"
                } else {
                    "VIOLATED"
                }
            };
            let _ = writeln!(
                rows,
                "{:>4} {:>16.1} {:>10} {:>16.1} {:>10}",
                n,
                per_vm(default),
                sla(default),
                per_vm(preload),
                sla(preload),
            );
        }
        let end_state = timed
            .iter()
            .map(|t| format!("{:?} resident_mib={}\n", t.value.ksm, t.value.resident_mib))
            .collect();
        Pass {
            sim_s: (configs.len() as u64 * self.seconds) as f64,
            host_s,
            digest: digest(&rows),
            end_state,
            run_walls_s: timed.iter().map(|t| t.wall.as_secs_f64()).collect(),
            scrape: Scrape::default(),
        }
    }

    /// `Experiment::run` re-composed from its public layer calls, for
    /// every config, on `workers` sweep workers.
    #[must_use]
    pub fn traced(&self, workers: usize, tracer: &Tracer, root: SpanId) -> Traced {
        let configs = self.configs();
        let start = Instant::now();
        let runs = tpslab::sweep::map_parallel(&configs, workers, |cfg| {
            tracer.span("tpslab.sweep.run", Some(root), |run| {
                let mut world = TickLoop::boot(cfg, tracer, run);
                let end = Tick::from_seconds(cfg.duration_seconds as f64);
                for t in 1..=end.0 {
                    world.step(t, tracer, run);
                }
                tracer.span("ksm.recount", Some(run), |_| {
                    world.scanner.recount(world.host.mm());
                });
                let mut engine = SnapshotEngine::new(cfg.threads);
                tracer.span("analysis.snapshot", Some(run), |_| {
                    let views = world.views();
                    std::hint::black_box(engine.snapshot(world.host.mm(), &views).breakdown());
                });
                (
                    format!("{}\n", world.end_state()),
                    world.frames_after_boot,
                    world.tick_writes,
                    world.scanner.stats(),
                    engine_rewalks(&engine),
                )
            })
        });
        let mut out = Traced {
            sim_s: (configs.len() as u64 * self.seconds) as f64,
            host_s: start.elapsed().as_secs_f64(),
            ..Traced::default()
        };
        for (end_state, frames, writes, stats, rewalks) in runs {
            out.end_state.push_str(&end_state);
            out.frames_after_boot += frames;
            out.tick_writes += writes;
            out.pages_scanned += stats.pages_scanned;
            out.merges += stats.merges;
            out.rewalked_spaces += rewalks;
        }
        out
    }
}

impl Traffic {
    #[must_use]
    pub fn config(&self, threads: usize) -> ExperimentConfig {
        ExperimentConfig::fleet(self.guests, self.scale)
            .with_duration_seconds(self.seconds)
            .with_threads(threads)
            .with_seed(self.seed)
    }

    fn scenario(&self) -> Scenario {
        Scenario::flash_crowd(self.seconds)
    }

    /// Boots the fleet once.
    #[must_use]
    pub fn boot(&self) -> f64 {
        let cfg = self.config(1).with_duration_seconds(0);
        let start = Instant::now();
        let world = Experiment::build_world(&cfg);
        let boot_s = start.elapsed().as_secs_f64();
        drop(std::hint::black_box(world));
        boot_s
    }

    /// One `run_traffic_timed` at `threads`, boot included: the public
    /// call boots inside, and `setup_s` reports the boot on its own.
    #[must_use]
    pub fn pass(&self, threads: usize) -> Pass {
        let cfg = self.config(threads);
        let scenario = self.scenario();
        let start = Instant::now();
        let (report, _) =
            Experiment::run_traffic_timed(&cfg, &scenario).expect("fleet config is valid");
        let host_s = start.elapsed().as_secs_f64();
        Pass {
            sim_s: self.seconds as f64,
            host_s,
            digest: digest(&report.render()),
            end_state: format!("{:?} resident_mib={}", report.ksm, report.resident_mib),
            ..Pass::default()
        }
    }

    /// Boot and the traffic run, with the run's own phase split
    /// recorded as phases of its span.
    #[must_use]
    pub fn traced(&self, threads: usize, tracer: &Tracer, root: SpanId) -> Traced {
        let cfg = self.config(threads);
        let scenario = self.scenario();
        let booted = cfg.clone().with_duration_seconds(0);
        let (host, _) = tracer.span("tpslab.run.boot", Some(root), |_| {
            Experiment::build_world(&booted)
        });
        let frames_after_boot = host.mm().phys().allocated_frames() as u64;
        drop(host);
        let start = Instant::now();
        let (report, wall) = tracer.span("tpslab.traffic_run", Some(root), |run| {
            let (report, wall) =
                Experiment::run_traffic_timed(&cfg, &scenario).expect("fleet config is valid");
            tracer.phase(run, "tpslab.traffic_run.drain", wall.drain_ns);
            tracer.phase(run, "tpslab.traffic_run.plan", wall.plan_ns);
            tracer.phase(run, "tpslab.traffic_run.commit", wall.commit_ns);
            tracer.phase(run, "tpslab.traffic_run.scan", wall.scan_ns);
            (report, wall)
        });
        Traced {
            sim_s: self.seconds as f64,
            host_s: start.elapsed().as_secs_f64(),
            end_state: format!("{:?} resident_mib={}", report.ksm, report.resident_mib),
            frames_after_boot,
            pages_scanned: report.ksm.pages_scanned,
            merges: report.ksm.merges,
            requests: report.offered,
            wall: Some(wall),
            ..Traced::default()
        }
    }
}

/// A tiny xorshift generator for the scrape client's guest choice.
fn next_random(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const SCRAPE_DEADLINE: Duration = Duration::from_secs(150);

impl Tpsd {
    #[must_use]
    pub fn config(&self, threads: usize) -> ExperimentConfig {
        ExperimentConfig::fleet(self.guests, self.scale)
            .with_duration_seconds(self.seconds)
            .with_threads(threads)
            .with_seed(self.seed)
    }

    /// Spawns the daemon and waits for its first published epoch.
    fn spawn(&self, threads: usize) -> (Daemon, Instant, f64) {
        let start = Instant::now();
        let daemon = Daemon::spawn(DaemonConfig::new(self.config(threads))).expect("tpsd spawns");
        while daemon.epoch_seconds() < 1 {
            assert!(start.elapsed() < SCRAPE_DEADLINE, "tpsd never published");
            std::thread::sleep(Duration::from_micros(200));
        }
        let first = Instant::now();
        (daemon, first, (first - start).as_secs_f64())
    }

    /// Spawn to first published epoch, once.
    #[must_use]
    pub fn boot(&self) -> f64 {
        let (mut daemon, _, setup) = self.spawn(1);
        daemon.shutdown();
        daemon.join();
        setup
    }

    /// One daemon run at `threads` world threads, scraped open-loop from
    /// its first published epoch to its last.
    #[must_use]
    pub fn pass(&self, threads: usize) -> Pass {
        let (mut daemon, first, _) = self.spawn(threads);
        let addr = daemon.addr().to_string();
        let interval = Duration::from_secs_f64(1.0 / self.rate_hz);
        let mut rng = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut scrape = Scrape::default();
        let mut sent: u32 = 0;
        let (last, final_metrics) = loop {
            assert!(first.elapsed() < SCRAPE_DEADLINE, "tpsd never finished");
            if daemon.epoch_seconds() >= self.seconds {
                let metrics = daemon
                    .state_answer("/metrics/deterministic")
                    .expect("deterministic metrics are served");
                break (Instant::now(), metrics);
            }
            let due = first + interval * sent;
            let now = Instant::now();
            if now < due {
                std::thread::sleep((due - now).min(Duration::from_millis(1)));
                continue;
            }
            let guest = next_random(&mut rng) % self.guests as u64;
            let path = match sent % 4 {
                0 => "/metrics".to_string(),
                1 => "/fleet".to_string(),
                2 => format!("/guest/{guest}"),
                _ => "/top".to_string(),
            };
            let ok = match tpslab::http_get(&addr, &path) {
                Ok(body) => match sent % 4 {
                    0 => body.contains("\nsim_seconds "),
                    1 => body.starts_with("{\"epoch_seconds\":"),
                    2 => body.contains(&format!("\"guest\":{guest},")),
                    _ => body.starts_with("tpsd | epoch"),
                },
                Err(_) => false,
            };
            scrape.late_ms.push((now - due).as_secs_f64() * 1e3);
            scrape.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
            scrape.failed += u64::from(!ok);
            sent += 1;
        };
        let answers: Vec<f64> = (0..2000)
            .map(|i| {
                let path = ["/metrics", "/fleet", "/guest/0", "/top"][i % 4];
                let start = Instant::now();
                std::hint::black_box(daemon.state_answer(path));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        scrape.state_answer_us = median(&answers);
        daemon.shutdown();
        daemon.join();
        Pass {
            sim_s: (self.seconds - 1) as f64,
            host_s: (last - first).as_secs_f64(),
            digest: digest(&final_metrics),
            end_state: final_metrics,
            scrape,
            ..Pass::default()
        }
    }

    /// The daemon's ticker and publish path re-composed from public
    /// calls: boot, then per simulated second the ticks and one publish
    /// (attribution snapshot, miss diagnosis, registry and renders).
    #[must_use]
    pub fn traced(&self, threads: usize, tracer: &Tracer, root: SpanId) -> Traced {
        let cfg = self.config(threads);
        let mut world = TickLoop::boot(&cfg, tracer, root);
        let mut engine = SnapshotEngine::new(cfg.threads);
        let mut deterministic = String::new();
        let mut first_epoch_end = Instant::now();
        for second in 1..=self.seconds {
            tracer.span("tpslab.daemon.epoch", Some(root), |epoch| {
                for t in (second - 1) * mem::TICKS_PER_SECOND + 1..=second * mem::TICKS_PER_SECOND {
                    world.step(t, tracer, epoch);
                }
                let breakdown = tracer.span("analysis.snapshot", Some(epoch), |_| {
                    let views = world.views();
                    engine.snapshot(world.host.mm(), &views).breakdown()
                });
                let (host, scanner) = (&world.host, &world.scanner);
                tracer.span("analysis.misses", Some(epoch), |_| {
                    std::hint::black_box(analysis::diagnose_misses(
                        host.mm(),
                        scanner.params().max_page_sharing(),
                        scanner.volatility_horizon(),
                        &host.mm().tracer().broken_mappings(),
                    ));
                });
                tracer.span("tpslab.telemetry.render", Some(epoch), |_| {
                    let now = Tick::from_seconds(second as f64);
                    let reg = telemetry::world_registry(host, scanner, &engine, now);
                    std::hint::black_box(reg.render());
                    deterministic = reg.render_deterministic();
                    std::hint::black_box(scanner.count_sharing(host.mm()));
                    std::hint::black_box(tpslab::render_guests(host, &breakdown, second, None));
                });
            });
            if second == 1 {
                first_epoch_end = Instant::now();
            }
        }
        Traced {
            sim_s: (self.seconds - 1) as f64,
            host_s: first_epoch_end.elapsed().as_secs_f64(),
            end_state: deterministic,
            frames_after_boot: world.frames_after_boot,
            tick_writes: world.tick_writes,
            pages_scanned: world.scanner.stats().pages_scanned,
            merges: world.scanner.stats().merges,
            rewalked_spaces: engine_rewalks(&engine),
            ..Traced::default()
        }
    }
}

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig8Sweep,
    FlashCrowd1024,
    TpsdScrape,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig8Sweep, Kind::FlashCrowd1024, Kind::TpsdScrape];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Sweep => "fig8_sweep",
            Kind::FlashCrowd1024 => "flash_crowd_1024",
            Kind::TpsdScrape => "tpsd_scrape",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How many distinct inputs the seeds map onto: the simulator's config
/// seed is `--seed` modulo this, so `digests.txt` can record the
/// expected output of every input the benchmark can generate.
pub const INPUT_VARIANTS: u64 = 16;

/// Memory scale divisor of the fleet presets (as in `bench::fleet_traffic`).
const FLEET_SCALE: f64 = 512.0;

/// A workload, sized.
#[derive(Debug, Clone)]
pub enum Runner {
    Fig8(Fig8),
    Traffic(Traffic),
    Tpsd(Tpsd),
}

impl Runner {
    /// The benchmark's workload `kind` on the input `seed` selects.
    #[must_use]
    pub fn new(kind: Kind, seed: u64) -> Runner {
        let seed = seed % INPUT_VARIANTS;
        match kind {
            Kind::Fig8Sweep => Runner::Fig8(Fig8 {
                vms: 5..=8,
                scale: 64.0,
                seconds: 60,
                seed,
            }),
            Kind::FlashCrowd1024 => Runner::Traffic(Traffic {
                guests: 1024,
                scale: FLEET_SCALE,
                seconds: 60,
                seed,
            }),
            Kind::TpsdScrape => Runner::Tpsd(Tpsd {
                guests: 256,
                scale: FLEET_SCALE,
                seconds: 30,
                rate_hz: 250.0,
                seed,
            }),
        }
    }

    /// Sets up once, in this process; returns host seconds.
    #[must_use]
    pub fn boot(&self) -> f64 {
        match self {
            Runner::Fig8(w) => w.boot(),
            Runner::Traffic(w) => w.boot(),
            Runner::Tpsd(w) => w.boot(),
        }
    }

    #[must_use]
    pub fn pass(&self, threads: usize) -> Pass {
        match self {
            Runner::Fig8(w) => w.pass(threads),
            Runner::Traffic(w) => w.pass(threads),
            Runner::Tpsd(w) => w.pass(threads),
        }
    }

    #[must_use]
    pub fn traced(&self, threads: usize, tracer: &Tracer, root: SpanId) -> Traced {
        match self {
            Runner::Fig8(w) => w.traced(threads, tracer, root),
            Runner::Traffic(w) => w.traced(threads, tracer, root),
            Runner::Tpsd(w) => w.traced(threads, tracer, root),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `runner` untraced at 1 and 2 threads and traced at 1 thread,
    /// and checks the three agree.
    fn smoke(runner: &Runner) -> Pass {
        assert!(runner.boot() > 0.0);
        let t1 = runner.pass(1);
        let t2 = runner.pass(2);
        assert!(t1.sim_s > 0.0 && t1.host_s > 0.0);
        assert_eq!(t1.digest, t2.digest, "thread count changed the output");
        assert_eq!(t1.end_state, t2.end_state);
        let tracer = Tracer::new();
        let traced = tracer.span("root", None, |root| runner.traced(1, &tracer, root));
        assert_eq!(traced.end_state, t1.end_state, "traced run diverged");
        let trace = tracer.finish();
        assert!(trace.spans.iter().any(|s| s.name == "tpslab.run.boot"));
        t1
    }

    #[test]
    fn fig8_runner_smoke() {
        let pass = smoke(&Runner::Fig8(Fig8 {
            vms: 1..=2,
            scale: 256.0,
            seconds: 6,
            seed: 3,
        }));
        assert_eq!(pass.run_walls_s.len(), 4);
        assert_eq!(pass.sim_s, 24.0);
    }

    #[test]
    fn traffic_runner_smoke() {
        smoke(&Runner::Traffic(Traffic {
            guests: 8,
            scale: FLEET_SCALE,
            seconds: 8,
            seed: 1,
        }));
    }

    #[test]
    fn tpsd_runner_smoke() {
        let pass = smoke(&Runner::Tpsd(Tpsd {
            guests: 3,
            scale: FLEET_SCALE,
            seconds: 4,
            rate_hz: 500.0,
            seed: 2,
        }));
        assert_eq!(pass.scrape.failed, 0);
        assert!(pass.scrape.state_answer_us > 0.0);
        assert!(pass.end_state.contains("sim_seconds 4"));
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("fig8"), None);
    }
}
