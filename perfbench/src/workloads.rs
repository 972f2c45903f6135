//! The benchmark's three workloads, their set-up and one replay of a cell.
//!
//! A workload is a list of cells. A cell is one prepared device (an FTL
//! or an array of FTL shards) plus the input it replays. Set-up generates
//! the inputs from the seed, builds every device and brings it to its
//! starting state; a replay then runs the input on a fresh copy of that
//! state, so every replay of a cell does the same simulated work.

use std::rc::Rc;

use esp_array::{shard_configs, ArrayConfig, ArrayHealth, EspArray};
use esp_core::{
    precondition, run_tenants_qd, run_trace_qd, CgmFtl, FgmFtl, Ftl, FtlConfig, FtlStats,
    MapCacheConfig, MapCacheStats, SectorLogFtl, SubFtl, TenantConfig, TenantSet,
};
use esp_nand::Geometry;
use esp_sim::SimDuration;
use esp_ssd::Ssd;
use esp_workload::{generate, Benchmark, IoOp, SyntheticConfig, Trace, SECTORS_PER_PAGE};

use crate::host;
use crate::spans::{Layer, SharedLog, SpanLog, Traced};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMix,
    GcOverflow,
    ServedFleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::GcOverflow,
        Workload::ServedFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::GcOverflow => "gc_overflow",
            Workload::ServedFleet => "served_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---- paper_mix ------------------------------------------------------------

/// Fig 8 matrix: requests per cell and host queue depth.
const MIX_REQUESTS: u64 = 60_000;
const MIX_QD: usize = 8;
/// The paper's preconditioning ratio (10 GB of a 16 GB device).
const MIX_FILL: f64 = 0.625;

// ---- gc_overflow ----------------------------------------------------------

const GC_QD: usize = 8;
const GC_FILL: f64 = 0.9;
/// Requests per aging chunk, and the most chunks aging may take.
const GC_AGING_CHUNK: usize = 4_096;
const GC_AGING_MAX_CHUNKS: usize = 128;
/// Aging ends at GC steady state: once the FTL has collected this many
/// victims and its last chunk collected within 10 % as many as the one
/// before.
const GC_AGED_VICTIMS: u64 = 64;
/// Measured requests per cell. At steady state subFTL costs about 50
/// times more host time per request than the others, so it replays fewer.
const GC_REQUESTS: u64 = 65_536;
const GC_REQUESTS_SUB: u64 = 4_096;

// ---- served_fleet ---------------------------------------------------------

const FLEET_SHARDS: usize = 4;
const FLEET_QD: usize = 8;
/// High enough that the shards' free space runs out late in the replay:
/// GC starts, but does little.
const FLEET_FILL: f64 = 0.85;
/// Cached translation pages per shard; each shard maps 12 TPs and the
/// victim's slice spans about 6 of them.
const FLEET_CMT_PAGES: usize = 2;
/// The shard whose device dies (a data/parity shard, not the spare).
const FLEET_VICTIM_SHARD: usize = 1;
/// Victim arrival rates, one cell each (requests/s, Poisson).
const FLEET_VICTIM_RATES: [f64; 3] = [300.0, 600.0, 900.0];
const FLEET_VICTIM_REQUESTS: u64 = 12_000;
const FLEET_VICTIM_SLO: SimDuration = SimDuration::from_millis(10);
/// The noisy tenant's token bucket.
const FLEET_NOISY_RATE: f64 = 500.0;
const FLEET_NOISY_BURST: u32 = 16;
const FLEET_NOISY_REQUESTS: u64 = 12_000;

/// Derives an independent stream seed from the workload seed.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FtlKind {
    Cgm,
    Fgm,
    SectorLog,
    Sub,
}

impl FtlKind {
    fn build(self, cfg: &FtlConfig) -> AnyFtl {
        match self {
            FtlKind::Cgm => AnyFtl::Cgm(CgmFtl::new(cfg)),
            FtlKind::Fgm => AnyFtl::Fgm(FgmFtl::new(cfg)),
            FtlKind::SectorLog => AnyFtl::SectorLog(SectorLogFtl::new(cfg)),
            FtlKind::Sub => AnyFtl::Sub(SubFtl::new(cfg)),
        }
    }
}

/// A concrete FTL, so a prepared device can be cloned for each replay.
#[derive(Clone)]
enum AnyFtl {
    Cgm(CgmFtl),
    Fgm(FgmFtl),
    SectorLog(SectorLogFtl),
    Sub(SubFtl),
}

impl AnyFtl {
    fn as_ftl(&mut self) -> &mut dyn Ftl {
        match self {
            AnyFtl::Cgm(f) => f,
            AnyFtl::Fgm(f) => f,
            AnyFtl::SectorLog(f) => f,
            AnyFtl::Sub(f) => f,
        }
    }
}

/// One prepared unit of a workload.
pub struct Cell {
    pub name: String,
    body: Body,
}

impl Cell {
    /// Whether the cell is the array workload (its FTLs are shards).
    pub fn is_fleet(&self) -> bool {
        matches!(self.body, Body::Fleet(_))
    }

    /// A closed loop never opens an idle window, so the runner never
    /// calls `idle`. For such a cell this times `calls` idle windows
    /// directly on a copy of the prepared device: mean host ns per call.
    /// `None` for open-loop cells, whose replay spans already hold them.
    pub fn probe_idle(&self, calls: u32) -> Option<f64> {
        let Body::Device { ftl, .. } = &self.body else {
            return None;
        };
        let mut ftl = ftl.clone();
        let f = ftl.as_ftl();
        let log = SpanLog::shared(calls as usize);
        let mut traced = Traced::new(&mut *f, Layer::Top, log.clone());
        let mut t = traced.ssd().makespan();
        for _ in 0..calls {
            let until = t + SimDuration::from_millis(1);
            traced.idle(t, until);
            t = until;
        }
        let total: u64 = log.borrow().spans.iter().map(|s| s.dur_ns).sum();
        Some(total as f64 / f64::from(calls))
    }
}

enum Body {
    /// A single FTL, preconditioned (and aged), replaying one trace.
    Device {
        ftl: Box<AnyFtl>,
        trace: Rc<Trace>,
        qd: usize,
    },
    /// A RAID-5 array of cached-map fgmFTL shards serving two tenants.
    Fleet(Fleet),
}

struct Fleet {
    array: ArrayConfig,
    shard_cfgs: Vec<FtlConfig>,
    victim: Trace,
    noisy: Trace,
}

impl Fleet {
    /// Builds the array and preconditions it. With a log, every shard is
    /// wrapped so its calls are recorded (recording is off until the
    /// caller turns it on).
    fn build(&self, log: Option<&SharedLog>) -> EspArray {
        let shards = self
            .shard_cfgs
            .iter()
            .map(|c| -> Box<dyn Ftl> {
                let ftl: Box<dyn Ftl> = Box::new(FgmFtl::new(c));
                match log {
                    Some(l) => Box::new(Traced::new(ftl, Layer::Shard, l.clone())),
                    None => ftl,
                }
            })
            .collect();
        let mut arr = EspArray::new(self.array.clone(), shards);
        precondition(&mut arr, FLEET_FILL);
        arr
    }

    fn tenants(&self) -> TenantSet {
        let mut set = TenantSet::new();
        set.add(
            TenantConfig::new("victim").weight(4).slo(FLEET_VICTIM_SLO),
            self.victim.clone(),
        );
        set.add(
            TenantConfig::new("noisy").limit(FLEET_NOISY_RATE, FLEET_NOISY_BURST),
            self.noisy.clone(),
        );
        set
    }

    /// `(trace, first LSN of its slice)` per tenant, in set order — the
    /// page-aligned stacking `TenantSet::add` documents.
    fn slices(&self) -> [(&Trace, u64); 2] {
        let noisy_base = self
            .victim
            .footprint_sectors
            .next_multiple_of(u64::from(SECTORS_PER_PAGE));
        [(&self.victim, 0), (&self.noisy, noisy_base)]
    }
}

/// A prepared workload and what preparing it cost.
pub struct Setup {
    pub cells: Vec<Cell>,
    /// On-CPU ns generating traces.
    pub generate_ns: u64,
    /// On-CPU ns building devices, preconditioning, aging, calibrating.
    pub prepare_ns: u64,
}

/// Generates the workload's inputs from `seed` and prepares every cell.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let mut generate_ns = 0;
    let mut prepare_ns = 0;
    let mut gen = |f: &mut dyn FnMut() -> Trace| {
        let t0 = host::thread_cpu_ns();
        let t = f();
        generate_ns += host::thread_cpu_ns() - t0;
        t
    };
    let mut cells = Vec::new();
    match workload {
        Workload::PaperMix => {
            let cfg = FtlConfig {
                geometry: Geometry {
                    channels: 8,
                    chips_per_channel: 4,
                    blocks_per_chip: 16,
                    pages_per_block: 64,
                    subpages_per_page: 4,
                    subpage_bytes: 4096,
                },
                ..FtlConfig::paper_default()
            };
            let footprint = (cfg.logical_sectors() as f64 * MIX_FILL) as u64;
            for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
                let trace = Rc::new(gen(&mut || {
                    generate(&bench.config(footprint, MIX_REQUESTS, sub_seed(seed, i as u64)))
                }));
                for kind in [FtlKind::Cgm, FtlKind::Fgm, FtlKind::Sub] {
                    let t0 = host::thread_cpu_ns();
                    let mut ftl = kind.build(&cfg);
                    precondition(ftl.as_ftl(), MIX_FILL);
                    prepare_ns += host::thread_cpu_ns() - t0;
                    cells.push(Cell {
                        name: format!("{}/{}", ftl.as_ftl().name(), bench.name()),
                        body: Body::Device {
                            ftl: Box::new(ftl),
                            trace: trace.clone(),
                            qd: MIX_QD,
                        },
                    });
                }
            }
        }
        Workload::GcOverflow => {
            let cfg = FtlConfig {
                geometry: Geometry {
                    channels: 8,
                    chips_per_channel: 4,
                    blocks_per_chip: 128,
                    pages_per_block: 64,
                    subpages_per_page: 4,
                    subpage_bytes: 4096,
                },
                ..FtlConfig::paper_default()
            };
            let footprint = (cfg.logical_sectors() as f64 * GC_FILL) as u64
                / u64::from(SECTORS_PER_PAGE)
                * u64::from(SECTORS_PER_PAGE);
            let overwrites = |requests: u64, seed: u64| SyntheticConfig {
                footprint_sectors: footprint,
                requests,
                r_small: 1.0,
                r_synch: 1.0,
                read_fraction: 0.1,
                zipf_theta: 0.6,
                small_sector_weights: [1, 0, 0],
                seed,
                ..SyntheticConfig::default()
            };
            let aging = gen(&mut || {
                generate(&overwrites(
                    (GC_AGING_CHUNK * GC_AGING_MAX_CHUNKS) as u64,
                    sub_seed(seed, 100),
                ))
            });
            let long = Rc::new(gen(&mut || {
                generate(&overwrites(GC_REQUESTS, sub_seed(seed, 101)))
            }));
            let short = Rc::new(Trace {
                footprint_sectors: footprint,
                requests: long.requests[..GC_REQUESTS_SUB as usize].to_vec(),
            });
            for kind in [FtlKind::Cgm, FtlKind::Fgm, FtlKind::SectorLog, FtlKind::Sub] {
                let t0 = host::thread_cpu_ns();
                let mut ftl = kind.build(&cfg);
                let f = ftl.as_ftl();
                precondition(f, GC_FILL);
                let gc0 = f.stats().gc_invocations;
                let mut chunks = aging.requests.chunks(GC_AGING_CHUNK);
                let mut per_chunk = (0u64, 0u64);
                while f.stats().gc_invocations - gc0 < GC_AGED_VICTIMS
                    || per_chunk.1.abs_diff(per_chunk.0) * 10 > per_chunk.0
                {
                    let chunk = chunks.next().unwrap_or_else(|| {
                        panic!("{} did not reach GC steady state while aging", f.name())
                    });
                    let chunk = Trace {
                        footprint_sectors: footprint,
                        requests: chunk.to_vec(),
                    };
                    let before = f.stats().gc_invocations;
                    run_trace_qd(f, &chunk, GC_QD);
                    per_chunk = (per_chunk.1, f.stats().gc_invocations - before);
                }
                prepare_ns += host::thread_cpu_ns() - t0;
                let trace = if kind == FtlKind::Sub { &short } else { &long };
                cells.push(Cell {
                    name: f.name().to_string(),
                    body: Body::Device {
                        ftl: Box::new(ftl),
                        trace: trace.clone(),
                        qd: GC_QD,
                    },
                });
            }
        }
        Workload::ServedFleet => {
            let base = FtlConfig {
                geometry: Geometry {
                    channels: 4,
                    chips_per_channel: 2,
                    blocks_per_chip: 32,
                    pages_per_block: 64,
                    subpages_per_page: 4,
                    subpage_bytes: 4096,
                },
                map_cache: Some(MapCacheConfig {
                    cmt_pages: FLEET_CMT_PAGES,
                }),
                ..FtlConfig::paper_default()
            };
            let array = ArrayConfig {
                shards: FLEET_SHARDS,
                parity: true,
                spare: true,
                ..ArrayConfig::default()
            };
            let host_sectors = {
                let probe = Fleet {
                    array: array.clone(),
                    shard_cfgs: shard_configs(&base, array.devices(), None),
                    victim: Trace::default(),
                    noisy: Trace::default(),
                };
                let shards = probe
                    .shard_cfgs
                    .iter()
                    .map(|c| -> Box<dyn Ftl> { Box::new(FgmFtl::new(c)) })
                    .collect();
                EspArray::new(probe.array.clone(), shards).logical_sectors()
            };
            // Both slices sit inside the preconditioned range, so every
            // read finds data.
            let victim_footprint = (host_sectors as f64 * FLEET_FILL * 0.6) as u64;
            let noisy_footprint = (host_sectors as f64 * FLEET_FILL * 0.35) as u64;
            let victim = gen(&mut || {
                generate(&SyntheticConfig {
                    footprint_sectors: victim_footprint,
                    requests: FLEET_VICTIM_REQUESTS,
                    r_small: 1.0,
                    r_synch: 1.0,
                    read_fraction: 0.8,
                    zipf_theta: 0.6,
                    seed: sub_seed(seed, 200),
                    ..SyntheticConfig::default()
                })
            });
            let noisy = gen(&mut || {
                generate(&Benchmark::Varmail.config(
                    noisy_footprint,
                    FLEET_NOISY_REQUESTS,
                    sub_seed(seed, 202),
                ))
            });
            for (i, rate) in FLEET_VICTIM_RATES.into_iter().enumerate() {
                let victim =
                    gen(&mut || victim.with_poisson_arrivals(rate, sub_seed(seed, 210 + i as u64)));
                // Calibrate the death point on a healthy replay: one third
                // of the way through the dying shard's command window.
                let t0 = host::thread_cpu_ns();
                let mut fleet = Fleet {
                    array: array.clone(),
                    shard_cfgs: shard_configs(&base, array.devices(), None),
                    victim,
                    noisy: noisy.clone(),
                };
                let mut healthy = fleet.build(None);
                let ops = |a: &EspArray| a.shard(FLEET_VICTIM_SHARD).ssd().device().ops_executed();
                let after_fill = ops(&healthy);
                run_tenants_qd(&mut healthy, &fleet.tenants(), FLEET_QD);
                let die_at_op = after_fill + (ops(&healthy) - after_fill) / 3;
                fleet.shard_cfgs = shard_configs(
                    &base,
                    array.devices(),
                    Some((FLEET_VICTIM_SHARD, Some(die_at_op), None)),
                );
                prepare_ns += host::thread_cpu_ns() - t0;
                cells.push(Cell {
                    name: format!("espARRAY/victim@{rate}/s"),
                    body: Body::Fleet(fleet),
                });
            }
        }
    }
    Setup {
        cells,
        generate_ns,
        prepare_ns,
    }
}

/// Host cost of one replay.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub allocations: u64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (HostCost, R) {
    let wall = std::time::Instant::now();
    let cpu = host::thread_cpu_ns();
    let allocs = host::allocations();
    let r = f();
    let allocations = host::allocations() - allocs;
    let cpu_ns = host::thread_cpu_ns() - cpu;
    let wall_ns = wall.elapsed().as_nanos() as u64;
    (
        HostCost {
            cpu_ns,
            wall_ns,
            allocations,
        },
        r,
    )
}

/// Simulated result of one replay. It is exact for a fixed seed, so
/// every replay of a cell — traced or not — must produce the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub requests: u64,
    pub iops: f64,
    /// p99 of read and sync-write service time (issue → done); for the
    /// fleet, the victim tenant's arrival → done response time.
    pub p99_ns: u64,
    pub host_write_sectors: u64,
    /// Sectors programmed on flash (full pages count 4), translation
    /// pages included.
    pub flash_sectors: u64,
    /// Failed host operations: read faults, lost or mismatched array
    /// sectors, writes dropped at end of life or read-only.
    pub failed: u64,
    /// Sectors the trace wrote that do not map after the final flush.
    pub unmapped: u64,
    pub ftl: FtlCounters,
    pub dev: DeviceCounters,
    pub map: Option<MapCounters>,
    pub array: Option<ArrayOutcome>,
    pub tenant: Option<TenantOutcome>,
    pub channel_util_mean: f64,
    pub chip_util_max: f64,
    pub mapping_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FtlCounters {
    pub gc: u64,
    pub gc_copied: u64,
    pub rmw: u64,
    pub lap_migrations: u64,
    pub cold_evictions: u64,
}

impl FtlCounters {
    fn delta(after: &FtlStats, before: &FtlStats) -> Self {
        let d = after.minus(before);
        FtlCounters {
            gc: d.gc_invocations,
            gc_copied: d.gc_copied_sectors,
            rmw: d.rmw_operations,
            lap_migrations: d.lap_migrations,
            cold_evictions: d.cold_evictions,
        }
    }
}

/// NAND/SSD counters summed over every device of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceCounters {
    pub full_programs: u64,
    pub subpage_programs: u64,
    pub erases: u64,
    pub retry_steps: u64,
    pub commands: u64,
}

impl DeviceCounters {
    fn of<'a>(ssds: impl IntoIterator<Item = &'a Ssd>) -> Self {
        let mut c = DeviceCounters::default();
        for ssd in ssds {
            let s = ssd.device().stats();
            c.full_programs += s.full_programs;
            c.subpage_programs += s.subpage_programs;
            c.erases += s.erases;
            c.retry_steps += s.retry_steps;
            c.commands += ssd.commands_issued();
        }
        c
    }

    fn minus(self, o: DeviceCounters) -> Self {
        DeviceCounters {
            full_programs: self.full_programs - o.full_programs,
            subpage_programs: self.subpage_programs - o.subpage_programs,
            erases: self.erases - o.erases,
            retry_steps: self.retry_steps - o.retry_steps,
            commands: self.commands - o.commands,
        }
    }
}

/// Map-cache counters summed over every cached map of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MapCounters {
    pub hits: u64,
    pub misses: u64,
    pub tp_reads: u64,
    pub tp_programs: u64,
}

impl MapCounters {
    /// The sum over `stats`, or `None` when no map is cached.
    fn of(stats: impl IntoIterator<Item = MapCacheStats>) -> Option<Self> {
        stats.into_iter().fold(None, |acc: Option<Self>, m| {
            let c = acc.unwrap_or_default();
            Some(MapCounters {
                hits: c.hits + m.hits,
                misses: c.misses + m.misses,
                tp_reads: c.tp_reads + m.tp_reads,
                tp_programs: c.tp_programs + m.tp_programs,
            })
        })
    }

    fn minus(after: Option<Self>, before: Option<Self>) -> Option<Self> {
        let (a, b) = (after?, before.unwrap_or_default());
        Some(MapCounters {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            tp_reads: a.tp_reads - b.tp_reads,
            tp_programs: a.tp_programs - b.tp_programs,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayOutcome {
    pub degraded_reads: u64,
    pub reconstructed_sectors: u64,
    pub rebuild_rows_done: u64,
    pub device_failures: u64,
    /// Reads and writes the array issued to its shards.
    pub shard_requests: u64,
    pub failed_state: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOutcome {
    pub victim_slo_attainment: f64,
    pub noisy_iops: f64,
}

/// Host cost and simulated outcome of one replay.
pub struct Replay {
    pub cost: HostCost,
    pub sim: SimOutcome,
}

/// Replays `cell` once on a fresh copy of its prepared state. With a log,
/// every call into the FTL or array (and into array shards) is recorded.
pub fn replay(cell: &Cell, log: Option<&SharedLog>) -> Replay {
    match &cell.body {
        Body::Device { ftl, trace, qd } => {
            let mut ftl = ftl.clone();
            let f = ftl.as_ftl();
            let stats0 = f.stats().clone();
            let dev0 = DeviceCounters::of([f.ssd()]);
            let map0 = MapCounters::of(f.map_cache_stats());
            let (cost, report) = match log {
                None => measure(|| run_trace_qd(f, trace, *qd)),
                Some(l) => {
                    let mut traced = Traced::new(&mut *f, Layer::Top, l.clone());
                    measure(|| run_trace_qd(&mut traced, trace, *qd))
                }
            };
            let mut lat = report.read_latency.clone();
            lat.merge(&report.write_latency);
            let dev = DeviceCounters::of([f.ssd()]).minus(dev0);
            let map = MapCounters::minus(MapCounters::of(f.map_cache_stats()), map0);
            let s = &report.stats;
            let sim = SimOutcome {
                requests: report.requests,
                iops: report.iops,
                p99_ns: lat.percentile(0.99),
                host_write_sectors: s.host_write_sectors,
                flash_sectors: flash_sectors(&dev, map),
                failed: s.read_faults + s.writes_dropped_end_of_life + s.writes_dropped_read_only,
                unmapped: unmapped(&*f, [(trace.as_ref(), 0)]),
                ftl: FtlCounters::delta(f.stats(), &stats0),
                dev,
                map,
                array: None,
                tenant: None,
                channel_util_mean: mean(&f.ssd().channel_utilization()),
                chip_util_max: max(&f.ssd().chip_utilization()),
                mapping_bytes: f.mapping_memory_bytes(),
            };
            Replay { cost, sim }
        }
        Body::Fleet(fleet) => {
            if let Some(l) = log {
                l.borrow_mut().recording = false;
            }
            let mut arr = fleet.build(log);
            if let Some(l) = log {
                l.borrow_mut().recording = true;
            }
            let set = fleet.tenants();
            fn ssds(a: &EspArray) -> Vec<&Ssd> {
                (0..a.devices()).map(|d| a.shard(d).ssd()).collect()
            }
            let shard_stats0: Vec<FtlStats> = (0..arr.devices())
                .map(|d| arr.shard(d).stats().clone())
                .collect();
            let dev0 = DeviceCounters::of(ssds(&arr));
            let maps = |a: &EspArray| {
                MapCounters::of((0..a.devices()).filter_map(|d| a.shard(d).map_cache_stats()))
            };
            let map0 = maps(&arr);
            let array0 = *arr.array_stats();
            let (cost, report) = match log {
                None => measure(|| run_tenants_qd(&mut arr, &set, FLEET_QD)),
                Some(l) => {
                    let mut traced = Traced::new(&mut arr, Layer::Top, l.clone());
                    measure(|| run_tenants_qd(&mut traced, &set, FLEET_QD))
                }
            };
            let dev = DeviceCounters::of(ssds(&arr)).minus(dev0);
            let map = MapCounters::minus(maps(&arr), map0);
            let a = arr.array_stats();
            // Host-visible failures: array data loss, plus faults and
            // dropped writes on shards whose device is still alive (a
            // dead shard's faults are what reconstruction absorbs).
            let mut failed = a.data_loss_sectors() - array0.data_loss_sectors();
            let mut shard_requests = 0;
            for (d, s0) in shard_stats0.iter().enumerate() {
                let shard = arr.shard(d);
                let s = shard.stats().minus(s0);
                shard_requests += s.host_read_requests + s.host_write_requests;
                if !shard.ssd().device_failed() {
                    failed +=
                        s.read_faults + s.writes_dropped_end_of_life + s.writes_dropped_read_only;
                }
            }
            let victim = &report.tenants[0];
            let noisy = &report.tenants[1];
            let utils = ssds(&arr);
            let chan: Vec<f64> = utils.iter().flat_map(|s| s.channel_utilization()).collect();
            let chip: Vec<f64> = utils.iter().flat_map(|s| s.chip_utilization()).collect();
            let host_write_sectors = set_write_sectors(fleet);
            let sim = SimOutcome {
                requests: report.run.requests,
                iops: report.run.iops,
                p99_ns: victim.response.percentile(0.99),
                host_write_sectors,
                flash_sectors: flash_sectors(&dev, map),
                failed,
                unmapped: unmapped(&arr, fleet.slices()),
                ftl: FtlCounters::delta(arr.stats(), &sum_stats(&shard_stats0)),
                dev,
                map,
                array: Some(ArrayOutcome {
                    degraded_reads: a.degraded_reads - array0.degraded_reads,
                    reconstructed_sectors: a.reconstructed_sectors - array0.reconstructed_sectors,
                    rebuild_rows_done: a.rebuild_rows_done - array0.rebuild_rows_done,
                    device_failures: a.device_failures - array0.device_failures,
                    shard_requests,
                    failed_state: arr.health() == ArrayHealth::Failed,
                }),
                tenant: Some(TenantOutcome {
                    victim_slo_attainment: victim.slo_attainment().unwrap_or(0.0),
                    noisy_iops: noisy.iops,
                }),
                channel_util_mean: mean(&chan),
                chip_util_max: max(&chip),
                mapping_bytes: arr.mapping_memory_bytes(),
            };
            Replay { cost, sim }
        }
    }
}

fn set_write_sectors(fleet: &Fleet) -> u64 {
    [&fleet.victim, &fleet.noisy]
        .iter()
        .flat_map(|t| t.iter())
        .filter(|r| r.op == IoOp::Write)
        .map(|r| u64::from(r.sectors))
        .sum()
}

fn sum_stats(stats: &[FtlStats]) -> FtlStats {
    stats.iter().fold(FtlStats::new(), |acc, s| acc.plus(s))
}

fn flash_sectors(dev: &DeviceCounters, map: Option<MapCounters>) -> u64 {
    let page = u64::from(SECTORS_PER_PAGE);
    dev.full_programs * page + dev.subpage_programs + map.map_or(0, |m| m.tp_programs * page)
}

/// Sectors written by the traces (each offset by its slice base) whose
/// newest copy does not map after the final flush.
fn unmapped<'a>(ftl: &dyn Ftl, traces: impl IntoIterator<Item = (&'a Trace, u64)>) -> u64 {
    let mut missing = 0;
    for (trace, base) in traces {
        for r in trace.iter().filter(|r| r.op == IoOp::Write) {
            let lsn = base + r.lsn;
            missing += (lsn..lsn + u64::from(r.sectors))
                .filter(|&s| ftl.stored_seq(s).is_none())
                .count() as u64;
        }
    }
    missing
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}
