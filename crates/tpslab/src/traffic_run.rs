//! The request-driven traffic experiment runner.
//!
//! [`Experiment::run_traffic`] replaces the tick-scripted workload side
//! of [`Experiment::run`] with the discrete-event engine from the
//! [`traffic`] crate: seeded request arrivals on a scenario's offered-
//! load curve drive allocation, GC pressure, JIT warm-up and page
//! dirtying in the guest JVMs, while fleet-churn events (rolling-deploy
//! restarts, autoscale add/remove) reshape the fleet mid-run. The KSM
//! scanner runs exactly as in the tick model — the experiment measures
//! how stable its sharing stays under realistic traffic.
//!
//! # Parallel plan → commit (DESIGN.md §14)
//!
//! Each drained event batch is split into **guest-local** work
//! (request serving and start-up ticks for guests untouched by churn
//! this batch) and **host-global** work (restarts, adds, removes,
//! phase markers). Guest-local events only *write* host memory — every
//! read they need (translation, gpfn allocation, THP eligibility) is
//! guest-private — so the plan phase runs them on [`par::map_sharded`]
//! against disjoint per-guest shards, capturing host-side effects into
//! per-shard [`MemTape`]s. The commit phase then walks the batch in
//! its original `(due_tick, seq)` order, applying host-global events
//! live and replaying each guest's next tape segment in place of its
//! local events. Every batch takes this one path, at one thread too, so
//! frame ids, rmap contents and the trace stream are byte-identical at
//! any `threads` setting by construction.
//!
//! Per-guest serving capacity is snapshotted once per batch, *before*
//! any event applies (see [`TrafficWorld::capacity_snapshot`]), so the
//! served/shed split of every parallel request batch is known at
//! classification time and thread-count invariant by construction.
//!
//! Costs follow the engine's invariant: a guest only pays when an event
//! addresses it. Kernel background churn is batched — each guest
//! remembers the last tick it was advanced to and catches up in one
//! [`tick_many`](oskernel::GuestOs::tick_many) call at its next event —
//! so a fleet that is mostly idle costs O(pending events), not
//! O(guests), per tick. Reports are byte-identical at any `threads`
//! setting and across platforms (see DESIGN.md §11).

use crate::run::{audit, boot_world, cold_estimate_mib, mix, tlb_credit, HostTail, JVM_VERSION};
use crate::{Error, Experiment, ExperimentConfig};
use analysis::GuestView;
use cds::SharedClassCache;
use hypervisor::{KvmHost, PagingModel};
use jvm::{JavaVm, JvmConfig, RequestCost};
use ksm::KsmStats;
use mem::Tick;
use obs::EventKind;
use oskernel::{GuestOs, Pid};
use paging::{HostMm, MemSink, MemTape};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use traffic::{Scenario, TrafficEngine, TrafficSpec};
use workloads::{Workload, WorkloadEvent};

/// Seconds between sharing samples in a traffic run.
const SAMPLE_SECONDS: u64 = 10;

/// One sharing/throughput sample of a traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSample {
    /// Simulated seconds since the start of the run.
    pub seconds: f64,
    /// Guests running a JVM at the sample point.
    pub active_guests: usize,
    /// Requests offered fleet-wide since the previous sample.
    pub offered: u64,
    /// Requests served fleet-wide since the previous sample.
    pub served: u64,
    /// `pages_sharing` at the sample point (freshly recounted).
    pub pages_sharing: u64,
}

/// What a traffic run reports: throughput under over-commit versus the
/// offered load, fleet churn counts, and how stable KSM's sharing stayed
/// while traffic reshaped guest memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Scenario name ([`Scenario::name`]).
    pub scenario: String,
    /// Initial fleet size.
    pub guests: usize,
    /// Run length, seconds.
    pub duration_seconds: u64,
    /// Requests offered fleet-wide over the whole run.
    pub offered: u64,
    /// Requests served fleet-wide over the whole run.
    pub served: u64,
    /// Requests shed (offered while over capacity or with no JVM).
    pub dropped: u64,
    /// Rolling-deploy JVM restarts performed.
    pub restarts: u64,
    /// Autoscale guest additions performed.
    pub scale_ups: u64,
    /// Autoscale guest drains performed.
    pub scale_downs: u64,
    /// Mean served throughput, requests/sec over the run.
    pub throughput_rps: f64,
    /// Sharing stability over the second half of the run:
    /// `1 − mean |Δ pages_sharing| / mean pages_sharing` across samples,
    /// clamped to `[0, 1]`. `1.0` means sharing held perfectly steady
    /// under the traffic; rolling deploys and flash crowds push it down.
    pub sharing_stability: f64,
    /// Final host-resident memory, MiB.
    pub resident_mib: f64,
    /// Final KSM counters (freshly recounted).
    pub ksm: KsmStats,
    /// Host memory mapped through 2 MiB huge frames at the end of the
    /// run, MiB. Zero under the default `ThpPolicy::Never` — and then
    /// omitted from [`render`](Self::render), keeping the non-THP golden
    /// byte-identical.
    pub huge_mib: f64,
    /// Per-interval samples, every [`SAMPLE_SECONDS`].
    pub samples: Vec<TrafficSample>,
    /// Per-guest request tallies over the whole run, indexed by guest
    /// slot. Sums across guests equal the fleet-wide
    /// `offered`/`served`/`dropped` fields. Not rendered (the golden
    /// text predates it); exported through
    /// [`record_metrics`](Self::record_metrics) and the daemon.
    pub per_guest: Vec<GuestTraffic>,
}

/// One guest's request tallies over a traffic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuestTraffic {
    /// Requests routed to this guest.
    pub offered: u64,
    /// Requests this guest served within capacity.
    pub served: u64,
    /// Requests shed (over capacity, or routed while drained).
    pub dropped: u64,
}

/// Wall-clock nanoseconds a traffic run spent in each step phase,
/// accumulated across every tick. Wall-clock only — never part of
/// [`TrafficReport`] or any golden; exported as `Wall`-class metrics by
/// the daemon and pinned (as a speedup projection) by the
/// `fleet_traffic` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficWall {
    /// Draining due events out of the engine's sharded queue.
    pub drain_ns: u64,
    /// Classifying the batch and running guest-local work on the
    /// worker pool (the only phase that parallelises).
    pub plan_ns: u64,
    /// Serial commit: host-global events plus tape replay.
    pub commit_ns: u64,
    /// khugepaged, the KSM scanner and sharing samples.
    pub scan_ns: u64,
    /// The pool-parallel share of [`scan_ns`](Self::scan_ns): the KSM
    /// scanner's classify + resolve phases (its own wake accounting).
    /// The remainder of `scan_ns` — scanner plan/commit, khugepaged and
    /// sampling — runs serially.
    pub scan_parallel_ns: u64,
}

impl TrafficWall {
    /// Total step time across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.drain_ns + self.plan_ns + self.commit_ns + self.scan_ns
    }

    /// The serially-executed share of [`total_ns`](Self::total_ns):
    /// everything except the plan phase and the scanner's parallel
    /// phases.
    #[must_use]
    pub fn serial_ns(&self) -> u64 {
        self.drain_ns + self.commit_ns + self.scan_ns - self.scan_parallel_ns.min(self.scan_ns)
    }
}

impl TrafficReport {
    /// Renders the report as the deterministic text table pinned by
    /// `tests/golden/traffic.txt`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "traffic {} | {} guests | {} s",
            self.scenario, self.guests, self.duration_seconds
        );
        let _ = writeln!(
            out,
            "offered {} | served {} | shed {} | throughput {:.2} r/s",
            self.offered, self.served, self.dropped, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "restarts {} | scale-ups {} | scale-downs {}",
            self.restarts, self.scale_ups, self.scale_downs
        );
        let _ = writeln!(
            out,
            "sharing stability {:.3} | final pages_sharing {} | resident {:.1} MiB",
            self.sharing_stability, self.ksm.pages_sharing, self.resident_mib
        );
        if self.huge_mib > 0.0 {
            let _ = writeln!(
                out,
                "thp huge {:.1} MiB | thp splits {}",
                self.huge_mib, self.ksm.thp_splits
            );
        }
        let _ = writeln!(
            out,
            "{:>8} {:>7} {:>8} {:>7} {:>8}",
            "seconds", "active", "offered", "served", "sharing"
        );
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{:>8.0} {:>7} {:>8} {:>7} {:>8}",
                s.seconds, s.active_guests, s.offered, s.served, s.pages_sharing
            );
        }
        out
    }

    /// Counts one request event into the fleet-wide and per-guest
    /// tallies.
    fn tally(&mut self, guest: usize, offered: u64, served: u64) {
        let dropped = offered - served;
        self.offered += offered;
        self.served += served;
        self.dropped += dropped;
        let g = &mut self.per_guest[guest];
        g.offered += offered;
        g.served += served;
        g.dropped += dropped;
    }

    /// Exports the run's deterministic traffic counters into `reg`:
    /// fleet-wide and per-guest offered/served/shed, churn counts, and
    /// the sharing-stability gauge. All series are simulated-state and
    /// byte-identical at any thread count.
    pub fn record_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter(
            "traffic_offered_total",
            "Requests offered fleet-wide.",
            &[],
            self.offered,
        );
        reg.counter(
            "traffic_served_total",
            "Requests served fleet-wide.",
            &[],
            self.served,
        );
        reg.counter(
            "traffic_shed_total",
            "Requests shed fleet-wide (over capacity or drained).",
            &[],
            self.dropped,
        );
        reg.counter(
            "traffic_restarts_total",
            "Rolling-deploy JVM restarts performed.",
            &[],
            self.restarts,
        );
        reg.counter(
            "traffic_scale_ups_total",
            "Autoscale guest additions performed.",
            &[],
            self.scale_ups,
        );
        reg.counter(
            "traffic_scale_downs_total",
            "Autoscale guest drains performed.",
            &[],
            self.scale_downs,
        );
        reg.gauge(
            "traffic_sharing_stability",
            "1 - mean |delta pages_sharing| / mean pages_sharing over the run's second half.",
            &[],
            self.sharing_stability,
        );
        const GUEST_HELP: &str = "Per-guest request tallies over the run.";
        for (i, g) in self.per_guest.iter().enumerate() {
            let idx = i.to_string();
            reg.counter(
                "traffic_guest_offered_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.offered,
            );
            reg.counter(
                "traffic_guest_served_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.served,
            );
            reg.counter(
                "traffic_guest_shed_total",
                GUEST_HELP,
                &[("guest", &idx)],
                g.dropped,
            );
        }
    }
}

/// Mutable per-guest traffic state the event sink maintains.
pub(crate) struct GuestSlot {
    /// The JVM currently running in this guest, if any.
    pub(crate) java: Option<JavaVm>,
    /// JVM launch generation (bumps the process salt on restart).
    generation: u64,
    /// Last tick this guest's kernel background churn was advanced to.
    churned_to: u64,
    /// Per-request memory cost for this guest's workload.
    cost: RequestCost,
    /// The running JVM's pid, if any — maintained alongside `java` so
    /// attribution snapshots can borrow it without allocating.
    pids: Vec<Pid>,
}

/// Guest-local work the plan phase can run off the main thread. The
/// served/shed split of a request batch is made (and tallied) once, by
/// [`TrafficWorld::split_requests`], so the same numbers flow into the
/// report, the trace stream and the JVM.
#[derive(Debug, Clone, Copy)]
enum LocalKind {
    /// One engine start-up tick for the guest's JVM.
    Startup,
    /// A request batch, already split against the capacity snapshot.
    Requests {
        /// Requests within the snapshot capacity (0 while drained).
        served: u64,
        /// Requests shed.
        dropped: u64,
    },
}

/// One batch entry, in original `(due_tick, seq)` order.
enum BatchItem {
    /// Host-global work, and every event of a guest churned this batch:
    /// applied live, serially, at commit.
    Serial(Tick, WorkloadEvent),
    /// The named guest's next guest-local event: planned into its tape,
    /// replayed at commit.
    Local(usize),
}

/// One guest's share of a batch during the plan phase: the guest's own
/// simulator state plus a private tape for host effects.
struct PlanShard<'a> {
    guest: usize,
    events: Vec<(Tick, LocalKind)>,
    os: &'a mut GuestOs,
    slot: &'a mut GuestSlot,
    tape: PlannedTape,
}

/// A planned guest's tape, detached from the guest borrows so the
/// commit phase can mutate the host again. The guest's `i`-th local
/// event recorded ops `bounds[i]..bounds[i + 1]`.
struct PlannedTape {
    tape: MemTape,
    bounds: Vec<usize>,
    /// Events replayed so far.
    replayed: usize,
}

impl PlannedTape {
    /// Replays the next event's segment into `mm`.
    fn replay_next(&mut self, mm: &mut HostMm) {
        let i = self.replayed;
        self.tape
            .replay_range(mm, self.bounds[i]..self.bounds[i + 1]);
        self.replayed += 1;
    }
}

/// A booted traffic world that can be advanced one tick at a time.
///
/// [`Experiment::run_traffic`] is a plain loop over [`step`](Self::step)
/// followed by [`finish`](Self::finish); the monitoring daemon drives
/// the same steps but pauses between them to publish state, so the two
/// paths are identical by construction.
pub(crate) struct TrafficWorld {
    config: ExperimentConfig,
    cache_images: HashMap<u64, Vec<u8>>,
    pub(crate) host: KvmHost,
    pub(crate) slots: Vec<GuestSlot>,
    cold_per_guest: Vec<f64>,
    pub(crate) tail: HostTail,
    engine: TrafficEngine,
    healthy_rps: f64,
    pub(crate) end: Tick,
    sample_ticks: u64,
    pub(crate) wall: TrafficWall,
    pub(crate) report: TrafficReport,
    /// Fleet-wide `(offered, served)` totals at the previous sample.
    sampled: (u64, u64),
}

impl TrafficWorld {
    /// Validates `config` and boots the fleet under `scenario`.
    pub(crate) fn new(
        config: &ExperimentConfig,
        scenario: &Scenario,
    ) -> Result<TrafficWorld, Error> {
        config.validate()?;
        let healthy_rps = config.guests[0].benchmark.drive.healthy_rps();
        let startup_seconds = config
            .guests
            .iter()
            .map(|g| g.benchmark.profile.class_load_seconds)
            .fold(0.0_f64, f64::max)
            .ceil() as u64;
        let engine = TrafficEngine::new(TrafficSpec {
            scenario: *scenario,
            guests: config.guests.len(),
            healthy_rps,
            startup_seconds: startup_seconds.max(1),
            duration_seconds: config.duration_seconds,
            seed: config.seed,
        });

        // Keep the boot's serialized cache images around: deploy
        // restarts and autoscale relaunches hand each fresh JVM its own
        // byte-identical copy, re-creating the CDS merge opportunity
        // the paper measures.
        let (host, javas, _, cache_images) = boot_world(config);
        let slots: Vec<GuestSlot> = javas
            .into_iter()
            .enumerate()
            .map(|(i, java)| {
                let bench = &config.guests[i].benchmark;
                let mut cost = bench.drive.request_cost(&bench.profile);
                if i == 0 {
                    if let Some(factor) = scenario.noisy_factor {
                        cost = cost.scaled(factor);
                    }
                }
                let pids = vec![java.pid()];
                GuestSlot {
                    java: Some(java),
                    generation: 0,
                    churned_to: 0,
                    cost,
                    pids,
                }
            })
            .collect();
        let cold_per_guest: Vec<f64> = config
            .guests
            .iter()
            .map(|g| cold_estimate_mib(config, g))
            .collect();

        let guests = config.guests.len();
        let report = TrafficReport {
            scenario: scenario.name.to_string(),
            guests,
            duration_seconds: config.duration_seconds,
            offered: 0,
            served: 0,
            dropped: 0,
            restarts: 0,
            scale_ups: 0,
            scale_downs: 0,
            throughput_rps: 0.0,
            sharing_stability: 0.0,
            resident_mib: 0.0,
            ksm: KsmStats::default(),
            huge_mib: 0.0,
            samples: Vec::new(),
            per_guest: vec![GuestTraffic::default(); guests],
        };

        Ok(TrafficWorld {
            config: config.clone(),
            cache_images,
            host,
            slots,
            cold_per_guest,
            tail: HostTail::new(config),
            engine,
            healthy_rps,
            end: Tick::from_seconds(config.duration_seconds as f64),
            sample_ticks: SAMPLE_SECONDS * u64::from(mem::TICKS_PER_SECOND as u32),
            wall: TrafficWall::default(),
            report,
            sampled: (0, 0),
        })
    }

    /// Advances the world through tick `t` (1-based): drains due
    /// traffic events, applies them (plan → commit), runs khugepaged at
    /// second boundaries, runs the KSM scanner, and takes a sharing
    /// sample on the sample cadence.
    pub(crate) fn step(&mut self, t: u64) {
        let now = Tick(t);
        let drain_start = Instant::now();
        let batch = self.engine.events_until(now);
        self.wall.drain_ns += drain_start.elapsed().as_nanos() as u64;
        self.apply_batch(&batch);
        let scan_start = Instant::now();
        self.tail.run(&mut self.host, now);
        if t.is_multiple_of(self.sample_ticks) || t == self.end.0 {
            self.recount();
            let totals = (self.report.offered, self.report.served);
            self.report.samples.push(TrafficSample {
                seconds: now.as_seconds(),
                active_guests: self.slots.iter().filter(|s| s.java.is_some()).count(),
                offered: totals.0 - self.sampled.0,
                served: totals.1 - self.sampled.1,
                pages_sharing: self.tail.scanner.stats().pages_sharing,
            });
            self.sampled = totals;
        }
        self.wall.scan_ns += scan_start.elapsed().as_nanos() as u64;
        self.wall.scan_parallel_ns = self.tail.scanner.wake_totals().parallel_nanos();
    }

    /// Recounts the scanner's counters and audits the world when the
    /// tail audits.
    fn recount(&mut self) {
        self.tail.scanner.recount(self.host.mm());
        if self.tail.audit {
            audit(&self.host, self.views(), &self.tail.scanner);
        }
    }

    /// Serving capacity per guest for one batch, snapshotted before any
    /// of its events apply: one healthy second of service, inflated by
    /// the memory-pressure slowdown and credited for TLB reach from
    /// whatever fraction of memory is huge-mapped. Offered load past it
    /// is shed. A single pre-batch snapshot (rather than a lazy
    /// per-second cache) makes every request's served/shed split a pure
    /// function of batch-start state, whatever the thread count. Empty
    /// when the batch carries no requests.
    fn capacity_snapshot(&self, batch: &[(Tick, WorkloadEvent)]) -> Vec<u64> {
        if !batch
            .iter()
            .any(|(_, e)| matches!(e, WorkloadEvent::Requests { .. }))
        {
            return Vec::new();
        }
        let cold_active: f64 = self
            .slots
            .iter()
            .zip(&self.cold_per_guest)
            .filter(|(s, _)| s.java.is_some())
            .map(|(_, c)| *c)
            .sum();
        let model = PagingModel::default();
        let resident = self.host.resident_mib();
        // Non-THP capacity is unchanged by the TLB-reach credit.
        let (_, service) = tlb_credit(&self.host, &model);
        self.cold_per_guest
            .iter()
            .map(|&cold| {
                let slowdown = model.slowdown(
                    resident,
                    self.config.host.ram_mib,
                    self.config.host.reserve_mib,
                    cold_active + cold,
                );
                (self.healthy_rps * service(slowdown)).ceil().max(1.0) as u64
            })
            .collect()
    }

    /// Applies one drained batch: classify into guest-local versus
    /// host-global work, plan the local work into per-guest tapes (on
    /// the pool), then commit everything in original order.
    fn apply_batch(&mut self, batch: &[(Tick, WorkloadEvent)]) {
        if batch.is_empty() {
            return;
        }
        let plan_start = Instant::now();
        let caps = self.capacity_snapshot(batch);

        // A guest churned this batch (restarted, added or removed)
        // serialises *all* of its events: its JVM presence and kernel
        // state change mid-batch in ways only in-order application
        // reproduces.
        let n = self.slots.len();
        let mut serial_guest = vec![false; n];
        for (_, event) in batch {
            if let WorkloadEvent::RestartGuest { guest }
            | WorkloadEvent::AddGuest { guest }
            | WorkloadEvent::RemoveGuest { guest } = event
            {
                serial_guest[*guest] = true;
            }
        }

        let mut items: Vec<BatchItem> = Vec::with_capacity(batch.len());
        let mut local_events: Vec<Vec<(Tick, LocalKind)>> = vec![Vec::new(); n];
        for &(at, event) in batch {
            let local = match event {
                WorkloadEvent::StartupTick { guest } if !serial_guest[guest] => {
                    Some((guest, LocalKind::Startup))
                }
                // JVM presence is batch-constant for non-churned guests,
                // so the split is final here.
                WorkloadEvent::Requests { guest, offered } if !serial_guest[guest] => {
                    Some((guest, self.split_requests(guest, offered, &caps)))
                }
                _ => None,
            };
            match local {
                Some((guest, kind)) => {
                    local_events[guest].push((at, kind));
                    items.push(BatchItem::Local(guest));
                }
                None => items.push(BatchItem::Serial(at, event)),
            }
        }
        let mut tapes = self.plan(&mut local_events);
        self.wall.plan_ns += plan_start.elapsed().as_nanos() as u64;

        let commit_start = Instant::now();
        for item in items {
            match item {
                BatchItem::Serial(at, event) => self.apply_serial_event(&caps, at, event),
                BatchItem::Local(guest) => tapes[guest]
                    .as_mut()
                    .expect("every local event was planned")
                    .replay_next(self.host.mm_mut()),
            }
        }
        self.wall.commit_ns += commit_start.elapsed().as_nanos() as u64;
    }

    /// Splits `offered` requests to `guest` against its snapshot
    /// capacity (a drained guest sheds them all) and tallies them into
    /// the report.
    fn split_requests(&mut self, guest: usize, offered: u64, caps: &[u64]) -> LocalKind {
        let served = if self.slots[guest].java.is_some() {
            offered.min(caps[guest])
        } else {
            0
        };
        self.report.tally(guest, offered, served);
        LocalKind::Requests {
            served,
            dropped: offered - served,
        }
    }

    /// The plan phase: each busy guest's local events run on the worker
    /// pool against its own simulator state, recording host effects
    /// into a private tape. Returns the detached tapes, indexed by guest
    /// (`None` for guests with no local events).
    fn plan(&mut self, local_events: &mut [Vec<(Tick, LocalKind)>]) -> Vec<Option<PlannedTape>> {
        let threads = self.config.threads;
        let (mm, guests) = self.host.mm_and_guests_mut();
        let trace_enabled = mm.tracer().is_enabled();
        let mut shards: Vec<PlanShard<'_>> = guests
            .iter_mut()
            .zip(self.slots.iter_mut())
            .enumerate()
            .filter_map(|(i, (kvm, slot))| {
                let events = std::mem::take(&mut local_events[i]);
                if events.is_empty() {
                    return None;
                }
                Some(PlanShard {
                    guest: i,
                    events,
                    os: &mut kvm.os,
                    slot,
                    tape: PlannedTape {
                        tape: MemTape::new(trace_enabled),
                        bounds: Vec::new(),
                        replayed: 0,
                    },
                })
            })
            .collect();
        let _unit: Vec<()> = par::map_sharded(&mut shards, threads, |_, shard| {
            let planned = &mut shard.tape;
            planned.bounds.reserve(shard.events.len() + 1);
            planned.bounds.push(0);
            for &(at, kind) in &shard.events {
                run_local_event(&mut planned.tape, shard.os, shard.slot, at, kind);
                planned.bounds.push(planned.tape.len());
            }
        });
        let mut tapes: Vec<Option<PlannedTape>> = std::iter::repeat_with(|| None)
            .take(local_events.len())
            .collect();
        for shard in shards {
            tapes[shard.guest] = Some(shard.tape);
        }
        tapes
    }

    /// Applies one event live at commit: host-global work (restarts,
    /// adds, removes, phase markers) and the events of guests churned
    /// this batch, updating the report tallies.
    fn apply_serial_event(&mut self, caps: &[u64], at: Tick, event: WorkloadEvent) {
        let local = match event {
            WorkloadEvent::StartupTick { guest } => Some((guest, LocalKind::Startup)),
            WorkloadEvent::Requests { guest, offered } => {
                Some((guest, self.split_requests(guest, offered, caps)))
            }
            WorkloadEvent::RestartGuest { guest } => {
                self.report.restarts += 1;
                self.relaunch(guest, at);
                None
            }
            WorkloadEvent::AddGuest { guest } => {
                self.report.scale_ups += 1;
                if self.slots[guest].java.is_none() {
                    // Skip the idle gap: a drained guest's kernel was
                    // quiesced, not accruing churn debt.
                    self.slots[guest].churned_to = at.0;
                    self.relaunch(guest, at);
                }
                None
            }
            WorkloadEvent::RemoveGuest { guest } => {
                self.report.scale_downs += 1;
                let slot = &mut self.slots[guest];
                if let Some(java) = slot.java.take() {
                    let (mm, g) = self.host.mm_and_guest_mut(guest);
                    catch_up_kernel(mm, &mut g.os, slot, at);
                    g.os.kill(mm, java.pid());
                    slot.pids.clear();
                }
                None
            }
            WorkloadEvent::Phase { phase, offered_rps } => {
                let tracer = self.host.mm().tracer();
                tracer.set_now(at.0);
                tracer.emit_with(|| EventKind::TrafficPhase {
                    phase,
                    offered_rps: offered_rps.round() as u64,
                });
                None
            }
        };
        if let Some((guest, kind)) = local {
            let (mm, g) = self.host.mm_and_guest_mut(guest);
            run_local_event(mm, &mut g.os, &mut self.slots[guest], at, kind);
        }
    }

    /// Kills the guest's current JVM (if any) and launches a fresh one
    /// with a new process salt and its own copy of the shared class
    /// cache.
    fn relaunch(&mut self, guest: usize, at: Tick) {
        let spec = &self.config.guests[guest];
        let slot = &mut self.slots[guest];
        let (mm, g) = self.host.mm_and_guest_mut(guest);
        catch_up_kernel(mm, &mut g.os, slot, at);
        slot.generation += 1;
        if let Some(java) = slot.java.take() {
            g.os.kill(mm, java.pid());
        }
        let mut cfg = JvmConfig::new(
            JVM_VERSION,
            mix(
                self.config.seed,
                0x9a17 ^ (slot.generation << 16),
                guest as u64,
            ),
        );
        // The fresh process re-reads its guest's cache file: a
        // byte-identical copy decoded from the same master image the
        // boot used.
        if let Some(bytes) = self.cache_images.get(&spec.benchmark.profile.workload_id) {
            let copy = SharedClassCache::from_bytes(bytes).expect("cache image decodes");
            cfg = cfg.with_shared_cache(copy);
        }
        let vm = JavaVm::launch(mm, &mut g.os, cfg, spec.benchmark.profile.clone(), at);
        slot.pids.clear();
        slot.pids.push(vm.pid());
        slot.java = Some(vm);
    }

    /// Settles kernel churn for every still-active guest so the final
    /// accounting does not depend on who happened to get the last
    /// request (one batched call per guest), then recounts, audits and
    /// fills in the report's end-of-run fields.
    pub(crate) fn finish(mut self) -> TrafficReport {
        let end = self.end;
        for (guest, slot) in self.slots.iter_mut().enumerate() {
            if slot.java.is_some() {
                let (mm, g) = self.host.mm_and_guest_mut(guest);
                catch_up_kernel(mm, &mut g.os, slot, end);
            }
        }
        self.recount();

        let mut report = self.report;
        report.ksm = self.tail.scanner.stats();
        report.resident_mib = self.host.resident_mib();
        report.huge_mib = self.host.huge_mib();
        report.throughput_rps = report.served as f64 / self.config.duration_seconds as f64;
        report.sharing_stability = stability(&report.samples);
        report
    }

    /// Guest views over the current fleet (drained guests expose no
    /// Java pids), for attribution snapshots. Borrows each slot's pid
    /// list — no per-view allocation on the daemon's publish path.
    pub(crate) fn views(&self) -> Vec<GuestView<'_>> {
        self.host
            .guests()
            .iter()
            .zip(&self.slots)
            .map(|(g, slot)| GuestView::borrowed(&g.name, &g.os, &slot.pids))
            .collect()
    }
}

impl Experiment {
    /// Runs `config`'s fleet under `scenario`'s request traffic instead
    /// of the tick-scripted workload. Deterministic in `config.seed` and
    /// byte-identical at any `config.threads`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] when the configuration is not runnable
    /// (see [`ExperimentConfig::validate`]).
    pub fn run_traffic(
        config: &ExperimentConfig,
        scenario: &Scenario,
    ) -> Result<TrafficReport, Error> {
        Ok(Self::run_traffic_timed(config, scenario)?.0)
    }

    /// [`run_traffic`](Self::run_traffic), also returning the wall-clock
    /// phase breakdown. The report is deterministic; the
    /// [`TrafficWall`] is wall-clock and varies run to run.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] when the configuration is not runnable
    /// (see [`ExperimentConfig::validate`]).
    pub fn run_traffic_timed(
        config: &ExperimentConfig,
        scenario: &Scenario,
    ) -> Result<(TrafficReport, TrafficWall), Error> {
        let mut world = TrafficWorld::new(config, scenario)?;
        for t in 1..=world.end.0 {
            world.step(t);
        }
        let wall = world.wall;
        Ok((world.finish(), wall))
    }
}

/// Runs one guest-local event against any [`MemSink`]: a [`MemTape`]
/// during the plan, or the real [`HostMm`] when a churned guest's
/// events apply live at commit.
fn run_local_event<M: MemSink>(
    mm: &mut M,
    os: &mut GuestOs,
    slot: &mut GuestSlot,
    at: Tick,
    kind: LocalKind,
) {
    match kind {
        LocalKind::Startup => {
            let Some(mut java) = slot.java.take() else {
                return;
            };
            catch_up_kernel(mm, os, slot, at);
            java.advance_startup(mm, os, at);
            slot.java = Some(java);
        }
        LocalKind::Requests {
            served, dropped, ..
        } => {
            let Some(mut java) = slot.java.take() else {
                // A drained guest sheds everything still routed to it
                // in the hand-off second (tallied by the caller).
                return;
            };
            catch_up_kernel(mm, os, slot, at);
            java.serve_requests(mm, os, &slot.cost, served, at);
            mm.trace_now(at.0);
            mm.trace(|| EventKind::RequestServe {
                pid: java.pid().0,
                served,
                dropped,
            });
            slot.java = Some(java);
        }
    }
}

/// Advances a guest's kernel background churn from wherever it last ran
/// to `at`, in one batched call against any [`MemSink`].
fn catch_up_kernel<M: MemSink>(mm: &mut M, os: &mut GuestOs, slot: &mut GuestSlot, at: Tick) {
    let ticks = at.0.saturating_sub(slot.churned_to);
    if ticks == 0 {
        return;
    }
    os.tick_many(mm, at, ticks as u32);
    slot.churned_to = at.0;
}

/// Sharing stability over the second half of the samples: how little
/// `pages_sharing` moved between consecutive samples once the fleet
/// warmed up, as `1 − mean |Δ| / mean level`, clamped to `[0, 1]`.
fn stability(samples: &[TrafficSample]) -> f64 {
    let tail = &samples[samples.len() / 2..];
    if tail.len() < 2 {
        return 1.0;
    }
    let mean = tail.iter().map(|s| s.pages_sharing as f64).sum::<f64>() / tail.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    let mean_delta = tail
        .windows(2)
        .map(|w| (w[1].pages_sharing as f64 - w[0].pages_sharing as f64).abs())
        .sum::<f64>()
        / (tail.len() - 1) as f64;
    (1.0 - mean_delta / mean).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, seconds: u64) -> ExperimentConfig {
        ExperimentConfig::tiny_test(n, true).with_duration_seconds(seconds)
    }

    #[test]
    fn constant_traffic_serves_most_of_the_offered_load() {
        let report = Experiment::run_traffic(&cfg(2, 60), &Scenario::constant()).unwrap();
        assert!(report.offered > 0);
        assert!(report.served > 0);
        assert!(
            report.served as f64 >= 0.5 * report.offered as f64,
            "served {} of {}",
            report.served,
            report.offered
        );
        assert_eq!(report.offered, report.served + report.dropped);
        assert!(report.ksm.pages_sharing > 0);
        assert_eq!(report.samples.len(), 6);
    }

    #[test]
    fn traffic_runs_are_deterministic_and_thread_independent() {
        let base = cfg(2, 60);
        let scenario = Scenario::flash_crowd(60);
        let a = Experiment::run_traffic(&base, &scenario).unwrap();
        let b = Experiment::run_traffic(&base, &scenario).unwrap();
        assert_eq!(a, b);
        let threaded = Experiment::run_traffic(&base.clone().with_threads(4), &scenario).unwrap();
        assert_eq!(a.render(), threaded.render());
        assert_eq!(a, threaded);
    }

    #[test]
    fn churn_scenarios_stay_thread_independent() {
        // Rolling deploys and autoscale exercise the serial/local split:
        // churned guests must serialise while the rest of the fleet
        // plans in parallel, and the commit order must still be exact.
        for (config, scenario) in [
            (cfg(3, 90), Scenario::rolling_deploy(90, 3)),
            (cfg(4, 90), Scenario::autoscale(90, 4)),
        ] {
            let serial = Experiment::run_traffic(&config, &scenario).unwrap();
            for threads in [2, 8] {
                let t = Experiment::run_traffic(&config.clone().with_threads(threads), &scenario)
                    .unwrap();
                assert_eq!(serial, t, "{} diverged at {threads} threads", scenario.name);
            }
        }
    }

    #[test]
    fn wall_phases_are_recorded_and_stay_out_of_the_report() {
        let (report, wall) =
            Experiment::run_traffic_timed(&cfg(2, 30), &Scenario::constant()).unwrap();
        assert!(wall.scan_ns > 0);
        assert!(wall.drain_ns > 0);
        assert!(wall.total_ns() >= wall.serial_ns());
        // Same config, fresh run: the deterministic report matches even
        // though the wall numbers will not.
        let again = Experiment::run_traffic(&cfg(2, 30), &Scenario::constant()).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn thp_traffic_reports_huge_memory_and_stays_deterministic() {
        use crate::KsmSchedule;
        use ksm::KsmParams;
        use paging::ThpPolicy;
        // KSM off, so the collapsed blocks survive to the final report.
        let no_ksm = KsmSchedule {
            warmup: KsmParams::new(0, 100),
            steady: KsmParams::new(0, 100),
            warmup_seconds: 0,
        };
        let config = cfg(2, 60)
            .with_ksm(no_ksm)
            .with_thp(ThpPolicy::Always, ThpPolicy::Always);
        let a = Experiment::run_traffic(&config, &Scenario::constant()).unwrap();
        let threaded =
            Experiment::run_traffic(&config.clone().with_threads(4), &Scenario::constant())
                .unwrap();
        assert_eq!(a, threaded);
        assert!(a.huge_mib > 0.0, "huge {}", a.huge_mib);
        assert!(a.render().contains("thp huge"));
        // The non-THP render carries no THP line at all.
        let plain = Experiment::run_traffic(&cfg(2, 60), &Scenario::constant()).unwrap();
        assert_eq!(plain.huge_mib, 0.0);
        assert!(!plain.render().contains("thp"));
    }

    #[test]
    fn rolling_deploy_restarts_and_recovers_sharing() {
        let scenario = Scenario::rolling_deploy(90, 3);
        let report = Experiment::run_traffic(&cfg(3, 90), &scenario).unwrap();
        assert_eq!(report.restarts, 3);
        assert!(
            report.ksm.pages_sharing > 0,
            "sharing re-merged after waves"
        );
    }

    #[test]
    fn autoscale_changes_the_active_fleet() {
        let scenario = Scenario::autoscale(90, 4);
        let report = Experiment::run_traffic(&cfg(4, 90), &scenario).unwrap();
        assert!(report.scale_downs > 0);
        assert!(report.scale_ups > 0);
        let active: Vec<usize> = report.samples.iter().map(|s| s.active_guests).collect();
        assert!(
            active.iter().any(|&a| a < 4),
            "active never dipped: {active:?}"
        );
    }

    #[test]
    fn noisy_neighbor_serves_with_scaled_cost() {
        let report = Experiment::run_traffic(&cfg(2, 60), &Scenario::noisy_neighbor()).unwrap();
        assert!(report.served > 0);
    }

    #[test]
    fn invalid_configs_yield_typed_errors() {
        let mut empty = cfg(2, 60);
        empty.guests.clear();
        assert_eq!(
            Experiment::run_traffic(&empty, &Scenario::constant()).unwrap_err(),
            Error::NoGuests
        );
        let zero = cfg(2, 0);
        assert_eq!(
            Experiment::run_traffic(&zero, &Scenario::constant()).unwrap_err(),
            Error::ZeroDuration
        );
    }

    #[test]
    fn report_renders_golden_shaped_text() {
        let report = Experiment::run_traffic(&cfg(1, 30), &Scenario::constant()).unwrap();
        let text = report.render();
        assert!(text.starts_with("traffic constant | 1 guests | 30 s\n"));
        assert!(text.contains("sharing stability"));
        assert!(text.lines().count() >= 7, "got:\n{text}");
    }
}
