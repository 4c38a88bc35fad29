//! The KVM experiment runner: one tick loop, [`TickWorld::run_to_end`],
//! behind [`Experiment::run`] (which hangs its timeline sampler on it),
//! [`Experiment::build_world`] and the telemetry scrape.

use crate::{ExperimentConfig, ExperimentReport, TimelinePoint, VmThroughput};
use analysis::{BreakdownReport, GuestView, SnapshotEngine};
use cds::{CacheBuilder, SharedClassCache};
use hypervisor::{KvmHost, PagingModel};
use jvm::{ClassSet, JavaVm, JvmConfig};
use ksm::{KsmParams, KsmScanner, KsmStats};
use mem::{Fingerprint, Tick};
use obs::Profiler;
use std::collections::HashMap;
use workloads::Workload;

/// The JVM build used throughout the paper: IBM J9, Java 6 SR9.
pub(crate) const JVM_VERSION: u64 = 0x0659;

/// Runs experiments described by [`ExperimentConfig`].
#[derive(Debug)]
pub struct Experiment;

impl Experiment {
    /// Boots the configured guests and JVMs and advances the world
    /// through `config.duration_seconds` of simulated time (guest/JVM
    /// ticks plus KSM scanning — no sampling, auditing or profiling),
    /// returning the live host and JVMs.
    ///
    /// This is the bench harness: it hands out the same warmed-up world
    /// state [`run`](Self::run) measures, so analysis passes (e.g. the
    /// attribution walk) can be timed in isolation against it. Continue
    /// the simulation manually with [`tick_world`](Self::tick_world).
    #[must_use]
    pub fn build_world(config: &ExperimentConfig) -> (KvmHost, Vec<JavaVm>) {
        let world = TickWorld::run_to_end(config, |_, _| {});
        (world.host, world.javas)
    }

    /// Advances the world one tick: every guest OS and its JVM, in
    /// guest order (exactly the guest half of [`run`](Self::run)'s
    /// per-tick step, without khugepaged or KSM scanning).
    pub fn tick_world(host: &mut KvmHost, javas: &mut [JavaVm], now: Tick) {
        for (i, java) in javas.iter_mut().enumerate() {
            let (mm, guest) = host.mm_and_guest_mut(i);
            guest.os.tick(mm, now);
            java.tick(mm, &mut guest.os, now);
        }
    }

    /// Simulates the configured system and reports the paper's
    /// measurement quantities. Deterministic in `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`](crate::Error) when the configuration is
    /// not runnable (no guests, zero duration, fleet beyond the host's
    /// memory budget) — see [`ExperimentConfig::validate`].
    pub fn run(config: &ExperimentConfig) -> Result<ExperimentReport, crate::Error> {
        config.validate()?;
        let mut sampler = Sampler::new(config);
        let mut world = TickWorld::run_to_end(config, |world, now| sampler.sample(world, now));

        let final_started = world.prof.begin();
        world.recount();
        world.prof.end("final_recount", final_started, 0, 0);
        // Attribution walk (§II) and rollup.
        let breakdown = sampler.attribute(&mut world);

        // Merge-miss diagnostics over the final state: classify the
        // sharing an ideal merger would still find. Must run before the
        // trace log is drained — the COW-broken class needs the
        // tracer's broken-mapping set.
        let scanner = &world.tail.scanner;
        let merge_miss = config.diagnose.then(|| {
            analysis::diagnose_misses(
                world.host.mm(),
                scanner.params().max_page_sharing(),
                scanner.volatility_horizon(),
                &world.host.mm().tracer().broken_mappings(),
            )
        });
        let trace = config
            .trace
            .then(|| world.host.mm_mut().tracer_mut().take_log());
        let phases = config.profile.then(|| world.prof.report());

        // Over-commit throughput model (Figs. 7–8).
        let resident_mib = world.host.resident_mib();
        let cold_mib: f64 = config
            .guests
            .iter()
            .map(|g| cold_estimate_mib(config, g))
            .sum();
        let paging = PagingModel::default();
        let slowdown = paging.slowdown(
            resident_mib,
            config.host.ram_mib,
            config.host.reserve_mib,
            cold_mib,
        );
        let (tlb_boost, service) = tlb_credit(&world.host, &paging);
        let service = service(slowdown);
        let throughput = config
            .guests
            .iter()
            .enumerate()
            .map(|(i, spec)| VmThroughput {
                name: format!("vm{}", i + 1),
                throughput: spec.benchmark.drive.throughput(service),
                sla: spec.benchmark.drive.sla(service),
            })
            .collect();

        Ok(ExperimentReport {
            breakdown,
            ksm: world.tail.scanner.stats(),
            resident_mib,
            usable_mib: config.host.usable_mib(),
            slowdown,
            huge_mib: world.host.huge_mib(),
            tlb_boost,
            throughput,
            caches: world.caches,
            timeline: sampler.timeline,
            merge_miss,
            phases,
            trace,
        })
    }
}

/// [`Experiment::run`]'s hook on the step loop. On the timeline cadence
/// it recounts, audits, optionally walks attribution and records a
/// [`TimelinePoint`]; it also owns the run's attribution engine.
struct Sampler {
    /// Ticks between timeline samples; `None` without a timeline.
    every: Option<u64>,
    /// Walk attribution at every sample (the timeline's own flag).
    attribution: bool,
    /// One engine for the whole run: per-sample walks reuse the cached
    /// segments of address spaces whose region generations did not move
    /// since the previous sample, and walk the dirty ones on
    /// `config.threads` workers. The report stays bit-identical to a
    /// single-threaded from-scratch walk at every sample.
    engine: SnapshotEngine,
    timeline: Vec<TimelinePoint>,
    last: KsmStats,
}

impl Sampler {
    fn new(config: &ExperimentConfig) -> Sampler {
        Sampler {
            every: config
                .timeline
                .map(|tl| tl.every_seconds * u64::from(mem::TICKS_PER_SECOND as u32)),
            attribution: config.timeline.is_some_and(|tl| tl.attribution),
            engine: SnapshotEngine::new(config.threads),
            timeline: Vec::new(),
            last: KsmStats::default(),
        }
    }

    /// Takes a timeline sample if `now` falls on the cadence.
    fn sample(&mut self, world: &mut TickWorld, now: Tick) {
        if self.every.is_none_or(|every| !now.0.is_multiple_of(every)) {
            return;
        }
        let started = world.prof.begin();
        world.recount();
        world.prof.end("timeline_sample", started, 0, 0);
        let stats = world.tail.scanner.stats();
        // The full per-PTE attribution walk is far more expensive than
        // the recount, so it is gated behind its own timeline flag; the
        // engine keeps it cheap by re-walking only mutated address
        // spaces.
        let tps_saving_mib = if self.attribution {
            let breakdown = self.attribute(world);
            Some(
                breakdown
                    .guests
                    .iter()
                    .map(analysis::GuestBreakdown::tps_saving_mib)
                    .sum(),
            )
        } else {
            None
        };
        self.timeline.push(TimelinePoint {
            seconds: now.as_seconds(),
            resident_mib: world.host.resident_mib(),
            pages_sharing: stats.pages_sharing,
            pages_shared: stats.pages_shared,
            full_scans: stats.full_scans,
            delta: stats.delta(&self.last),
            tps_saving_mib,
        });
        self.last = stats;
    }

    /// The attribution walk over the world's current state, profiled as
    /// the `attribution` phase.
    fn attribute(&mut self, world: &mut TickWorld) -> BreakdownReport {
        let started = world.prof.begin();
        let breakdown = self
            .engine
            .snapshot(world.host.mm(), &world.views())
            .breakdown();
        let frames = world.host.mm().phys().allocated_frames() as u64;
        world.prof.end("attribution", started, 0, frames);
        breakdown
    }
}

/// The host half of every world's tick, run after the guests: khugepaged
/// at second boundaries, the KSM warm-up → steady parameter switch, and
/// the scanner wake. Both [`TickWorld`] and the traffic world embed one,
/// so both advance their host the same way.
pub(crate) struct HostTail {
    pub(crate) scanner: KsmScanner,
    steady: KsmParams,
    warmup_end: Tick,
    switched: bool,
    /// Audit conservation at every recount. Debug builds audit
    /// unconditionally, so every test that runs a world also checks it;
    /// `--audit` extends the check to release runs.
    pub(crate) audit: bool,
}

impl HostTail {
    pub(crate) fn new(config: &ExperimentConfig) -> HostTail {
        HostTail {
            scanner: KsmScanner::new(config.ksm.warmup).with_threads(config.threads),
            steady: config.ksm.steady,
            warmup_end: Tick::from_seconds(config.ksm.warmup_seconds as f64),
            switched: false,
            audit: config.audit || cfg!(debug_assertions),
        }
    }

    /// Runs the host daemons for tick `now`. khugepaged runs once per
    /// simulated second, between the guest ticks and the KSM wake (like
    /// the real kernel's independent kthreads, collapse and merge
    /// interleave); the scanner switches to its steady parameters once
    /// warm-up ends.
    pub(crate) fn run(&mut self, host: &mut KvmHost, now: Tick) {
        if now.0.is_multiple_of(mem::TICKS_PER_SECOND) {
            host.thp_scan(now);
        }
        if !self.switched && now >= self.warmup_end {
            self.scanner.set_params(self.steady);
            self.switched = true;
        }
        self.scanner.run(host.mm_mut(), now);
    }
}

/// A booted tick-model world that can be advanced one tick at a time:
/// guest/JVM ticks, then the [`HostTail`]. [`run_to_end`](Self::run_to_end)
/// is the loop behind [`Experiment::run`] and
/// [`Experiment::build_world`]. The monitoring daemon drives the same
/// steps but pauses between published epochs, so a daemon world at
/// simulated second `s` is byte-identical to `build_world` over a config
/// with `duration_seconds == s`.
pub(crate) struct TickWorld {
    pub(crate) host: KvmHost,
    pub(crate) javas: Vec<JavaVm>,
    pub(crate) tail: HostTail,
    /// Per-phase profile; records nothing unless `config.profile` is set.
    prof: Profiler,
    /// The report's cache rows: name, class count, used MiB.
    caches: Vec<(String, usize, f64)>,
}

impl TickWorld {
    /// Boots the configured world (no ticks yet).
    pub(crate) fn new(config: &ExperimentConfig) -> TickWorld {
        let mut prof = if config.profile {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let started = prof.begin();
        let (host, javas, caches, _) = boot_world(config);
        prof.end(
            "setup",
            started,
            0,
            host.mm().phys().allocated_frames() as u64,
        );
        TickWorld {
            host,
            javas,
            tail: HostTail::new(config),
            prof,
            caches: caches
                .values()
                .map(|c| {
                    (
                        c.name().to_string(),
                        c.class_count(),
                        c.used_bytes() as f64 / (1024.0 * 1024.0),
                    )
                })
                .collect(),
        }
    }

    /// Boots `config`'s world and steps it through the configured
    /// duration, handing the world and the tick to `on_tick` after
    /// every step.
    pub(crate) fn run_to_end(
        config: &ExperimentConfig,
        mut on_tick: impl FnMut(&mut TickWorld, Tick),
    ) -> TickWorld {
        let mut world = TickWorld::new(config);
        for t in 1..=Tick::from_seconds(config.duration_seconds as f64).0 {
            world.step(t);
            on_tick(&mut world, Tick(t));
        }
        world
    }

    /// Advances the world through tick `t` (1-based).
    pub(crate) fn step(&mut self, t: u64) {
        let now = Tick(t);
        let started = self.prof.begin();
        let writes = self.host.mm().phys().total_writes();
        Experiment::tick_world(&mut self.host, &mut self.javas, now);
        let written = self.host.mm().phys().total_writes() - writes;
        self.prof.end("guest_jvm_tick", started, 1, written);
        // `ksm_scan` times the whole host tail, khugepaged included.
        let started = self.prof.begin();
        let scanned = self.tail.scanner.stats().pages_scanned;
        self.tail.run(&mut self.host, now);
        let scanned = self.tail.scanner.stats().pages_scanned - scanned;
        self.prof.end("ksm_scan", started, 1, scanned);
    }

    /// Recounts the scanner's counters and audits the world when the
    /// tail audits.
    pub(crate) fn recount(&mut self) {
        self.tail.scanner.recount(self.host.mm());
        if self.tail.audit {
            audit(&self.host, self.views(), &self.tail.scanner);
        }
    }

    /// Guest views over the fleet, for attribution snapshots.
    pub(crate) fn views(&self) -> Vec<GuestView<'_>> {
        self.host
            .guests()
            .iter()
            .zip(&self.javas)
            .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
            .collect()
    }
}

/// What [`boot_world`] returns: the booted host, the launched JVMs, the
/// per-workload master caches (for reporting) and their serialized byte
/// images (reused by traffic relaunches instead of re-encoding).
pub(crate) type BootedWorld = (
    KvmHost,
    Vec<JavaVm>,
    HashMap<u64, SharedClassCache>,
    HashMap<u64, Vec<u8>>,
);

/// Boots the host, its guests and their JVMs as configured.
pub(crate) fn boot_world(config: &ExperimentConfig) -> BootedWorld {
    let mut host = KvmHost::new(config.host);
    host.set_thp_policies(config.thp_host, config.thp_guest);
    if config.trace {
        host.mm_mut().tracer_mut().enable(None);
    }
    let caches = if config.class_sharing {
        build_caches(config)
    } else {
        HashMap::new()
    };
    // Serialize each master cache once up front; guests decode from
    // the shared byte image instead of re-encoding per guest.
    let cache_images: HashMap<u64, Vec<u8>> = caches
        .iter()
        .map(|(&id, cache)| (id, cache.to_bytes()))
        .collect();

    // Boot guests and launch their JVMs.
    let mut javas: Vec<JavaVm> = Vec::new();
    for (i, spec) in config.guests.iter().enumerate() {
        let boot_salt = mix(config.seed, 0xb007, i as u64);
        let idx = host.create_guest(
            format!("vm{}", i + 1),
            spec.mem_mib,
            &config.image,
            boot_salt,
            Tick::ZERO,
        );
        // Each guest receives its own *copy* of the cache file —
        // byte-identical content, as if copied into the disk image.
        let cache_copy = cache_images
            .get(&spec.benchmark.profile.workload_id)
            .map(|bytes| SharedClassCache::from_bytes(bytes).expect("cache copy decodes"));
        let mut cfg = JvmConfig::new(JVM_VERSION, mix(config.seed, 0x9a17, i as u64));
        if let Some(cache) = cache_copy {
            cfg = cfg.with_shared_cache(cache);
        }
        let (mm, guest) = host.mm_and_guest_mut(idx);
        javas.push(JavaVm::launch(
            mm,
            &mut guest.os,
            cfg,
            spec.benchmark.profile.clone(),
            Tick::ZERO,
        ));
    }
    (host, javas, caches, cache_images)
}

/// Runs the cross-layer conservation audit over `guests`, panicking
/// with the structured violation on failure. The scanner's counters
/// must be freshly recounted.
pub(crate) fn audit(host: &KvmHost, guests: Vec<GuestView<'_>>, scanner: &KsmScanner) {
    let world = audit::World {
        mm: host.mm(),
        guests,
        scanner: Some(scanner),
    };
    if let Err(violation) = audit::check_world(&world) {
        panic!("memory-accounting audit failed: {violation}");
    }
}

/// TLB-reach credit: huge mappings shrink the page-walk overhead,
/// recovering some of the paging slowdown — never beyond the healthy
/// rate. Returns the boost for the host's huge-mapped fraction and the
/// service factor it gives a paging slowdown. With no huge pages the
/// boost is exactly 1.0 and the service factor is the pure slowdown.
pub(crate) fn tlb_credit(host: &KvmHost, paging: &PagingModel) -> (f64, impl Fn(f64) -> f64) {
    let allocated = host.mm().phys().allocated_frames();
    let huge_fraction = if allocated == 0 {
        0.0
    } else {
        host.huge_pages() as f64 / allocated as f64
    };
    let boost = paging.tlb_boost(huge_fraction);
    (boost, move |slowdown: f64| (slowdown * boost).min(1.0))
}

/// Populates one cache per distinct workload by "running the middleware
/// once" (§IV.C): the canonical class-load order fills the cache up to
/// its configured capacity.
fn build_caches(config: &ExperimentConfig) -> HashMap<u64, SharedClassCache> {
    let mut caches = HashMap::new();
    for spec in &config.guests {
        let p = &spec.benchmark.profile;
        caches.entry(p.workload_id).or_insert_with(|| {
            let classes = ClassSet::for_profile(p);
            let mut builder = CacheBuilder::new(p.name.clone(), spec.benchmark.cache_mib);
            for class in classes.cacheable() {
                builder.add(class.token, class.ro_bytes);
            }
            builder.finish()
        });
    }
    caches
}

/// Cold (harmlessly swappable) memory per guest: most of the clean page
/// cache (droppable, though some is re-read), the dirty page cache, and
/// the untouched tail of the heap — ≈80 MiB per 1 GiB DayTrader guest.
/// Under the generational policy at a light injection rate, the nursery's
/// free space cycles slowly (a minor collection every tens of seconds),
/// so a slice of it is also harmlessly swappable between collections.
pub(crate) fn cold_estimate_mib(config: &ExperimentConfig, guest: &crate::GuestSpec) -> f64 {
    let heap = &guest.benchmark.profile.heap;
    let nursery_cold = match heap.policy {
        jvm::GcPolicy::Generational { nursery_mib, .. } => 0.3 * nursery_mib,
        jvm::GcPolicy::Flat => 0.0,
    };
    0.7 * config.image.pagecache_clean_mib
        + config.image.pagecache_dirty_mib
        + heap.untouched_fraction * heap.heap_mib
        + nursery_cold
}

pub(crate) fn mix(seed: u64, tag: u64, idx: u64) -> u64 {
    Fingerprint::of(&[seed, tag, idx]).as_u128() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn tiny_experiment_runs_and_reports() {
        let report = Experiment::run(&ExperimentConfig::tiny_test(2, false)).unwrap();
        assert_eq!(report.breakdown.guests.len(), 2);
        assert_eq!(report.breakdown.javas.len(), 2);
        assert!(report.resident_mib > 0.0);
        assert!(report.slowdown > 0.0 && report.slowdown <= 1.0);
        assert_eq!(report.throughput.len(), 2);
        assert!(report.caches.is_empty());
        // Some sharing exists even at baseline (code text, zeros).
        assert!(report.ksm.pages_sharing > 0);
    }

    #[test]
    fn class_sharing_increases_sharing_and_reduces_usage() {
        let base = Experiment::run(&ExperimentConfig::tiny_test(3, false)).unwrap();
        let cds = Experiment::run(&ExperimentConfig::tiny_test(3, true)).unwrap();
        assert!(cds.total_tps_saving_mib() > base.total_tps_saving_mib());
        assert!(cds.breakdown.total_owned_mib < base.breakdown.total_owned_mib);
        assert_eq!(cds.caches.len(), 1);
        // Non-primary JVMs share most of their class metadata.
        assert!(
            cds.mean_nonprimary_class_saving_fraction() > 0.5,
            "fraction {}",
            cds.mean_nonprimary_class_saving_fraction()
        );
    }

    #[test]
    fn thp_always_builds_huge_pages_and_boosts_throughput() {
        use crate::KsmSchedule;
        use ksm::KsmParams;
        use paging::ThpPolicy;
        let no_ksm = KsmSchedule {
            warmup: KsmParams::new(0, 100),
            steady: KsmParams::new(0, 100),
            warmup_seconds: 0,
        };
        let base = ExperimentConfig::tiny_test(2, false).with_ksm(no_ksm);
        let thp = base.clone().with_thp(ThpPolicy::Always, ThpPolicy::Always);
        let plain = Experiment::run(&base).unwrap();
        let boosted = Experiment::run(&thp).unwrap();
        // The default config is THP-free and pays no reach credit.
        assert_eq!(plain.huge_mib, 0.0);
        assert_eq!(plain.tlb_boost, 1.0);
        // Under always/always with KSM off, guest fault-around populates
        // whole blocks and khugepaged collapses them (debug builds audit
        // the final state, so the collapsed world is conservation-clean).
        assert!(boosted.huge_mib > 0.0, "huge {}", boosted.huge_mib);
        assert!(boosted.tlb_boost > 1.0);
        assert!(boosted.total_throughput() >= plain.total_throughput());
        // And the THP world is just as deterministic.
        let again = Experiment::run(&thp).unwrap();
        assert_eq!(boosted.breakdown, again.breakdown);
        assert_eq!(boosted.huge_mib, again.huge_mib);
        assert_eq!(boosted.tlb_boost, again.tlb_boost);
    }

    #[test]
    fn ksm_splits_huge_pages_it_scans() {
        use paging::ThpPolicy;
        // The real THP×KSM tension: with both daemons on, KSM breaks the
        // huge mappings (split-before-merge) and the latch keeps
        // khugepaged from endlessly re-collapsing behind it.
        let cfg =
            ExperimentConfig::tiny_test(2, false).with_thp(ThpPolicy::Always, ThpPolicy::Always);
        let report = Experiment::run(&cfg).unwrap();
        assert!(report.ksm.thp_splits > 0, "no splits recorded");
        assert!(report.ksm.pages_sharing > 0);
    }

    /// `run` adds sampling, auditing, attribution and profiling to the
    /// step loop; none of it may move the simulated world.
    #[test]
    fn run_ends_in_the_world_build_world_builds() {
        let cfg = ExperimentConfig::tiny_test(2, true)
            .with_duration_seconds(40)
            .with_timeline(10)
            .with_timeline_attribution()
            .with_profile();
        let report = Experiment::run(&cfg).unwrap();
        assert!(report.phases.is_some());

        let (host, javas) = Experiment::build_world(&cfg);
        assert_eq!(report.resident_mib, host.resident_mib());
        let views: Vec<GuestView<'_>> = host
            .guests()
            .iter()
            .zip(&javas)
            .map(|(g, j)| GuestView::new(&g.name, &g.os, vec![j.pid()]))
            .collect();
        let breakdown = SnapshotEngine::new(1)
            .snapshot(host.mm(), &views)
            .breakdown();
        assert_eq!(report.breakdown, breakdown);
        // `build_world` hands out no scanner, so its counters come from
        // the loop it runs, recounted as `run` recounts at the end.
        let mut world = TickWorld::run_to_end(&cfg, |_, _| {});
        world.tail.scanner.recount(world.host.mm());
        assert_eq!(report.ksm, world.tail.scanner.stats());
        assert_eq!(world.host.resident_mib(), host.resident_mib());
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let cfg = ExperimentConfig::tiny_test(2, true);
        let a = Experiment::run(&cfg).unwrap();
        let b = Experiment::run(&cfg).unwrap();
        assert_eq!(a.breakdown, b.breakdown);
        let c = Experiment::run(&cfg.clone().with_seed(12345)).unwrap();
        // A different seed perturbs layouts (resident sizes move a bit).
        assert_ne!(a.breakdown, c.breakdown);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn timeline_samples_at_requested_cadence() {
        let cfg = ExperimentConfig::tiny_test(2, true)
            .with_duration_seconds(60)
            .with_timeline(10);
        let report = Experiment::run(&cfg).unwrap();
        assert_eq!(report.timeline.len(), 6);
        assert!((report.timeline[0].seconds - 10.0).abs() < 1e-9);
        // Sharing is monotone-ish during warm-up: the last sample has at
        // least as much stable content as the first.
        let first = report.timeline.first().unwrap();
        let last = report.timeline.last().unwrap();
        assert!(last.pages_sharing >= first.pages_sharing);
        // Resident memory grows as the JVMs warm up.
        assert!(last.resident_mib >= first.resident_mib * 0.9);
    }

    #[test]
    fn attribution_timeline_is_identical_across_thread_counts() {
        let cfg = ExperimentConfig::tiny_test(2, true)
            .with_duration_seconds(40)
            .with_timeline(10)
            .with_timeline_attribution();
        let serial = Experiment::run(&cfg).unwrap();
        let parallel = Experiment::run(&cfg.clone().with_threads(4)).unwrap();
        assert_eq!(serial.breakdown, parallel.breakdown);
        assert_eq!(serial.timeline.len(), parallel.timeline.len());
        for (a, b) in serial.timeline.iter().zip(&parallel.timeline) {
            assert_eq!(a.tps_saving_mib, b.tps_saving_mib);
            assert_eq!(a.pages_sharing, b.pages_sharing);
        }
        assert!(serial.timeline.iter().all(|p| p.tps_saving_mib.is_some()));
    }

    #[test]
    fn no_timeline_by_default() {
        let report =
            Experiment::run(&ExperimentConfig::tiny_test(1, false).with_duration_seconds(30))
                .unwrap();
        assert!(report.timeline.is_empty());
    }
}
