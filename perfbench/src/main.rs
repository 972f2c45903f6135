//! End-to-end and per-layer benchmark of the ESP/subFTL simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process, one replay thread. Set-up prepares every cell of the
//! workload; then cells are replayed in rounds, each on a fresh copy of
//! its prepared state, until `--seconds` have passed. Between rounds the
//! workload is now and then set up again, to time set-up at several
//! points of the run. With `--trace 0` the last line of stdout is a JSON
//! object with the end-to-end metrics; with `--trace 1` rounds alternate
//! between untraced and traced replays and the JSON carries the
//! per-layer metrics. See `perfbench/README.md` for what each metric
//! means.

mod host;
mod probes;
mod spans;
mod workloads;

use std::time::Instant;

use esp_sim::Json;

use spans::{Call, Layer, SpanLog};
use workloads::{replay, setup, SimOutcome, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Set-up is repeated between rounds, spread over the run, while set-ups
/// have taken at most this share of the measured wall time, and at
/// least `MIN_SETUPS` times.
const SETUP_SHARE: f64 = 0.25;
const MIN_SETUPS: usize = 3;
/// Fewest untraced (and, with `--trace 1`, traced) rounds per run.
const MIN_ROUNDS: usize = 3;
/// `idle` calls timed per cell whose closed loop never idles.
const IDLE_PROBES: u32 = 256;
/// Offset of the held-out digest seed from the workload seed.
const HELD_OUT_SEED_XOR: u64 = 0x00C0_FFEE_D1CE_5EED;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_mix|gc_overflow|served_fleet> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calib_ns = host::calibration_ns();

    // ---- set-up (repeated between rounds below, to time it) --------------
    let mut setups = SetupTimes::default();
    let mut cells = setups.run(w, args.seed);
    let names: Vec<String> = cells.iter().map(|c| c.name.clone()).collect();

    // ---- measured rounds --------------------------------------------------
    let mut runs: Vec<CellRuns> = cells.iter().map(|_| CellRuns::default()).collect();
    let mut reference: Vec<Option<SimOutcome>> = vec![None; cells.len()];
    let mut mismatches = 0u32;
    let mut last_log = None;
    let steal0 = host::steal_s();
    let wall0 = Instant::now();
    let (mut plain_rounds, mut traced_rounds) = (0, 0);
    loop {
        let traced = args.trace && plain_rounds > traced_rounds;
        let log = traced.then(|| SpanLog::shared(1 << 20));
        for (ci, cell) in cells.iter().enumerate() {
            if let Some(l) = &log {
                l.borrow_mut().set_cell(ci as u16);
            }
            let r = replay(cell, log.as_ref());
            match &reference[ci] {
                None => reference[ci] = Some(r.sim.clone()),
                Some(want) if *want != r.sim => {
                    eprintln!("{}: replay diverged from the first replay", cell.name);
                    mismatches += 1;
                }
                Some(_) => {}
            }
            let run = &mut runs[ci];
            if let Some(l) = &log {
                let mut sample = LayerSample::from_spans(&l.borrow(), ci, &r, cell.is_fleet());
                if let Some(ns) = cell.probe_idle(IDLE_PROBES) {
                    sample.idle_ns = Some(ns);
                }
                run.traced_cpu.push(r.cost.cpu_ns);
                run.layers.push(sample);
            } else {
                run.cpu.push(r.cost.cpu_ns);
                run.allocations.push(r.cost.allocations);
            }
        }
        if traced {
            traced_rounds += 1;
            last_log = log;
        } else {
            plain_rounds += 1;
        }
        let elapsed = wall0.elapsed().as_secs_f64();
        let enough = plain_rounds >= MIN_ROUNDS
            && (!args.trace || traced_rounds >= MIN_ROUNDS)
            && setups.total.len() >= MIN_SETUPS;
        if enough && elapsed >= args.seconds {
            break;
        }
        // Rebuild the prepared cells from scratch now and then, so set-up
        // is timed at several points of the run; a rebuild must replay
        // exactly like the first build.
        if setups.total.iter().sum::<f64>() <= SETUP_SHARE * elapsed
            || (elapsed >= args.seconds && setups.total.len() < MIN_SETUPS)
        {
            drop(cells);
            cells = setups.run(w, args.seed);
        }
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let steal_s = host::steal_s() - steal0;
    let peak_rss_mib = host::peak_rss_mib();
    let reference: Vec<SimOutcome> = reference
        .into_iter()
        .map(|r| r.expect("replayed"))
        .collect();

    // ---- correctness -------------------------------------------------------
    let digest = digest(&reference);
    let held_out_seed = args.seed ^ HELD_OUT_SEED_XOR;
    let held_out: Vec<SimOutcome> = setup(w, held_out_seed)
        .cells
        .iter()
        .map(|c| replay(c, None).sim)
        .collect();
    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!("{mismatches} replays diverged from the first"));
    }
    for (name, sim) in names
        .iter()
        .zip(&reference)
        .chain(names.iter().zip(&held_out))
    {
        if sim.unmapped > 0 {
            problems.push(format!(
                "{name}: {} written sectors do not map",
                sim.unmapped
            ));
        }
        if let Some(a) = &sim.array {
            if a.device_failures != 1 || a.failed_state {
                problems.push(format!(
                    "{name}: expected one survived device death, saw {} (failed state {})",
                    a.device_failures, a.failed_state
                ));
            }
        }
    }
    let attempted: u64 = reference.iter().map(|s| s.requests).sum();
    let failed: u64 = reference.iter().map(|s| s.failed).sum();

    // ---- report ------------------------------------------------------------
    print_cells(&names, &reference, &runs);
    println!("digest {} seed {}: {digest:016x}", w.name(), args.seed);
    println!(
        "digest {} held-out seed {held_out_seed}: {:016x}",
        w.name(),
        self::digest(&held_out)
    );
    println!(
        "failed_op_share {} ({failed} failed / {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    println!(
        "host: wall {wall_s:.2} s, steal {steal_s:.2} s, calib {calib_ns:.3} ns/step, \
         {plain_rounds} untraced + {traced_rounds} traced rounds, {} set-ups \
         (fastest {:.4} s, median {:.4} s)",
        setups.total.len(),
        min(&setups.total),
        median(&setups.total)
    );
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }

    let mut m = Metrics::default();
    if args.trace {
        if let Some(log) = &last_log {
            write_spans(w, &log.borrow(), &names);
        }
        let probes = probes::run();
        per_layer(&mut m, &reference, &runs);
        m.put("ssd.program_full_ns", probes.ssd_program_full_ns, "ns");
        m.put("ssd.read_full_ns", probes.ssd_read_full_ns, "ns");
        m.put("ssd.erase_ns", probes.ssd_erase_ns, "ns");
        m.put(
            "nand.program_subpage_ns",
            probes.nand_program_subpage_ns,
            "ns",
        );
        m.put(
            "nand.normalized_ber_ns",
            probes.nand_normalized_ber_ns,
            "ns",
        );
        m.put("workload.generate_s", min(&setups.generate), "s");
        m.put("setup.precondition_s", min(&setups.prepare), "s");
        m.put("host.wall_s", wall_s, "s");
        m.put("host.steal_s", steal_s, "s");
        m.put("host.calib_ns", calib_ns, "ns");
    } else {
        let rate = geomean(
            runs.iter()
                .zip(&reference)
                .map(|(r, s)| r.kreq_per_cpu_s(s)),
        );
        m.put("replay_kreq_per_cpu_s", rate, "kreq/s");
        m.put("setup_s", min(&setups.total), "s");
        m.put("peak_rss_mib", peak_rss_mib, "MiB");
        m.put("sim_iops", geomean(reference.iter().map(|s| s.iops)), "1/s");
        m.put(
            "sim_p99_us",
            geomean(reference.iter().map(|s| s.p99_ns as f64 / 1e3)),
            "us",
        );
        m.put(
            "waf",
            geomean(
                reference
                    .iter()
                    .map(|s| s.flash_sectors as f64 / s.host_write_sectors as f64),
            ),
            "ratio",
        );
        m.put(
            "ok_op_share",
            1.0 - failed as f64 / attempted as f64,
            "ratio",
        );
    }
    let out = Json::obj([
        ("correct", Json::from(problems.is_empty())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", m.into_json()),
    ]);
    println!("{out}");
}

/// On-CPU seconds of each set-up of the run.
#[derive(Default)]
struct SetupTimes {
    generate: Vec<f64>,
    prepare: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    /// Sets the workload up from scratch and records what that took.
    fn run(&mut self, w: Workload, seed: u64) -> Vec<workloads::Cell> {
        let s = setup(w, seed);
        self.generate.push(s.generate_ns as f64 / 1e9);
        self.prepare.push(s.prepare_ns as f64 / 1e9);
        self.total.push((s.generate_ns + s.prepare_ns) as f64 / 1e9);
        s.cells
    }
}

/// Host measurements of one cell across the run's rounds.
#[derive(Default)]
struct CellRuns {
    cpu: Vec<u64>,
    allocations: Vec<u64>,
    traced_cpu: Vec<u64>,
    layers: Vec<LayerSample>,
}

impl CellRuns {
    /// Requests per on-CPU second of the cell's fastest untraced replay.
    ///
    /// The fastest, not the median: other tenants of a shared machine
    /// slow every round down in phases of seconds to minutes, so the
    /// median round moves with them, while the fastest round of a run
    /// tracks the speed of the code (see `perfbench/README.md`).
    fn kreq_per_cpu_s(&self, sim: &SimOutcome) -> f64 {
        sim.requests as f64 / (fastest(&self.cpu) / 1e9) / 1e3
    }

    /// Fastest traced over fastest untraced replay CPU time.
    fn trace_overhead(&self) -> f64 {
        fastest(&self.traced_cpu) / fastest(&self.cpu)
    }
}

/// Per-layer host times of one cell in one traced round, from its spans.
#[derive(Default)]
struct LayerSample {
    runner_self_ns_per_req: f64,
    write_p50: Option<f64>,
    write_p99: Option<f64>,
    write_gc_p50: Option<f64>,
    write_plain_p50: Option<f64>,
    read_p50: Option<f64>,
    read_p99: Option<f64>,
    maintain_ns: Option<f64>,
    idle_ns: Option<f64>,
    flush_ns: Option<f64>,
}

impl LayerSample {
    /// `fleet`: FTL-layer spans are the shards' (the top is the array).
    fn from_spans(log: &SpanLog, cell: usize, r: &workloads::Replay, fleet: bool) -> Self {
        let ftl_layer = if fleet { Layer::Shard } else { Layer::Top };
        let mut top_ns = 0u64;
        let (mut writes, mut gc_writes, mut plain_writes, mut reads) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // (total ns, calls) of maintain, idle and flush.
        let mut other = [(0u64, 0u64); 3];
        for s in log.spans.iter().filter(|s| usize::from(s.cell) == cell) {
            if s.layer == Layer::Top {
                top_ns += s.dur_ns;
            }
            if s.layer != ftl_layer {
                continue;
            }
            let slot = match s.call {
                Call::Write => {
                    writes.push(s.dur_ns);
                    if s.gc_work > 0 {
                        gc_writes.push(s.dur_ns);
                    } else {
                        plain_writes.push(s.dur_ns);
                    }
                    continue;
                }
                Call::Read => {
                    reads.push(s.dur_ns);
                    continue;
                }
                Call::Maintain => 0,
                Call::Idle => 1,
                Call::Flush => 2,
            };
            other[slot].0 += s.dur_ns;
            other[slot].1 += 1;
        }
        let mean = |(ns, n): (u64, u64)| (n > 0).then(|| ns as f64 / n as f64);
        // Replay on-CPU time times the share of replay wall time spent
        // outside the spans of the calls the runner made.
        let outside = 1.0 - (top_ns as f64 / r.cost.wall_ns as f64).min(1.0);
        LayerSample {
            runner_self_ns_per_req: r.cost.cpu_ns as f64 * outside / r.sim.requests as f64,
            write_p50: pct(&mut writes, 0.50),
            write_p99: pct(&mut writes, 0.99),
            write_gc_p50: pct(&mut gc_writes, 0.50),
            write_plain_p50: pct(&mut plain_writes, 0.50),
            read_p50: pct(&mut reads, 0.50),
            read_p99: pct(&mut reads, 0.99),
            maintain_ns: mean(other[0]),
            idle_ns: mean(other[1]),
            flush_ns: mean(other[2]),
        }
    }
}

/// Exact percentile (nearest rank) of `v`, or `None` when empty.
fn pct(v: &mut [u64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1] as f64)
}

/// Reads one simulated counter out of a replay's outcome.
type Counter = fn(&SimOutcome) -> u64;

/// Simulated counters reported per 1000 host requests.
const PER_KREQ: [(&str, Counter); 13] = [
    ("ftl.gc_per_kreq", |s| s.ftl.gc),
    ("ftl.gc_copied_per_kreq", |s| s.ftl.gc_copied),
    ("ftl.rmw_per_kreq", |s| s.ftl.rmw),
    ("ftl.lap_migrations_per_kreq", |s| s.ftl.lap_migrations),
    ("ftl.cold_evictions_per_kreq", |s| s.ftl.cold_evictions),
    ("map_cache.tp_reads_per_kreq", |s| {
        s.map.map_or(0, |m| m.tp_reads)
    }),
    ("map_cache.tp_programs_per_kreq", |s| {
        s.map.map_or(0, |m| m.tp_programs)
    }),
    ("nand.full_programs_per_kreq", |s| s.dev.full_programs),
    ("nand.subpage_programs_per_kreq", |s| s.dev.subpage_programs),
    ("nand.erases_per_kreq", |s| s.dev.erases),
    ("nand.retry_steps_per_kreq", |s| s.dev.retry_steps),
    ("array.degraded_reads_per_kreq", |s| {
        s.array.map_or(0, |a| a.degraded_reads)
    }),
    ("array.reconstructed_per_kreq", |s| {
        s.array.map_or(0, |a| a.reconstructed_sectors)
    }),
];

fn per_layer(m: &mut Metrics, sims: &[SimOutcome], runs: &[CellRuns]) {
    let requests = sims.iter().map(|s| s.requests).sum::<u64>() as f64;
    let sum = |f: &dyn Fn(&SimOutcome) -> u64| sims.iter().map(f).sum::<u64>() as f64;
    let cell_mean =
        |f: &dyn Fn(&SimOutcome) -> f64| sims.iter().map(f).sum::<f64>() / sims.len() as f64;
    // A per-cell host time: median over traced rounds, then geomean over
    // the cells that have it (0 when none does).
    let host = |f: &dyn Fn(&LayerSample) -> Option<f64>| {
        let per_cell: Vec<f64> = runs
            .iter()
            .filter_map(|r| {
                let v: Vec<f64> = r.layers.iter().filter_map(f).collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .collect();
        if per_cell.is_empty() {
            0.0
        } else {
            geomean(per_cell.into_iter())
        }
    };
    m.put(
        "runner.self_ns_per_req",
        host(&|l| Some(l.runner_self_ns_per_req)),
        "ns",
    );
    let allocs: f64 = runs.iter().map(|r| median_u64(&r.allocations)).sum();
    m.put("alloc.per_req", allocs / requests, "count");
    m.put("ftl.write_ns_p50", host(&|l| l.write_p50), "ns");
    m.put("ftl.write_ns_p99", host(&|l| l.write_p99), "ns");
    m.put("ftl.write_gc_ns_p50", host(&|l| l.write_gc_p50), "ns");
    m.put("ftl.write_plain_ns_p50", host(&|l| l.write_plain_p50), "ns");
    m.put("ftl.read_ns_p50", host(&|l| l.read_p50), "ns");
    m.put("ftl.read_ns_p99", host(&|l| l.read_p99), "ns");
    m.put("ftl.maintain_ns", host(&|l| l.maintain_ns), "ns");
    m.put("ftl.idle_ns", host(&|l| l.idle_ns), "ns");
    m.put("ftl.flush_ns", host(&|l| l.flush_ns), "ns");
    for (name, f) in PER_KREQ {
        m.put(name, sum(&f) * 1e3 / requests, "count");
    }
    m.put(
        "array.rebuild_rows_done",
        sum(&|s| s.array.map_or(0, |a| a.rebuild_rows_done)),
        "count",
    );
    m.put("ftl.mapping_bytes", sum(&|s| s.mapping_bytes), "bytes");
    let (hits, misses) = (
        sum(&|s| s.map.map_or(0, |m| m.hits)),
        sum(&|s| s.map.map_or(0, |m| m.misses)),
    );
    let lookups = hits + misses;
    m.put(
        "map_cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    m.put(
        "ssd.commands_per_req",
        sum(&|s| s.dev.commands) / requests,
        "count",
    );
    m.put(
        "ssd.channel_util_mean",
        cell_mean(&|s| s.channel_util_mean),
        "ratio",
    );
    m.put(
        "ssd.chip_util_max",
        cell_mean(&|s| s.chip_util_max),
        "ratio",
    );
    m.put(
        "array.shard_cmds_per_req",
        sum(&|s| s.array.map_or(0, |a| a.shard_requests)) / requests,
        "count",
    );
    // Over the cells with tenants (0 without): the victim's p99 is their
    // `sim_p99_us`, a geomean like it; the others are means.
    let tenants: Vec<_> = sims
        .iter()
        .filter_map(|s| s.tenant.map(|t| (s.p99_ns as f64 / 1e3, t)))
        .collect();
    let over_tenants = |f: &dyn Fn(&(f64, workloads::TenantOutcome)) -> f64, geo: bool| {
        if tenants.is_empty() {
            0.0
        } else if geo {
            geomean(tenants.iter().map(f))
        } else {
            tenants.iter().map(f).sum::<f64>() / tenants.len() as f64
        }
    };
    m.put("tenant.victim_p99_us", over_tenants(&|t| t.0, true), "us");
    m.put(
        "tenant.victim_slo_attainment",
        over_tenants(&|t| t.1.victim_slo_attainment, false),
        "ratio",
    );
    m.put(
        "tenant.noisy_iops",
        over_tenants(&|t| t.1.noisy_iops, false),
        "1/s",
    );
    let overhead = geomean(runs.iter().map(CellRuns::trace_overhead));
    m.put("trace.overhead", overhead, "ratio");
}

fn print_cells(names: &[String], sims: &[SimOutcome], runs: &[CellRuns]) {
    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>10} {:>7} {:>8} {:>7}",
        "cell", "requests", "kreq/cpu-s", "sim IOPS", "p99 us", "WAF", "GC", "failed"
    );
    for ((name, s), r) in names.iter().zip(sims).zip(runs) {
        println!(
            "{:<28} {:>8} {:>12.1} {:>10.0} {:>10.1} {:>7.3} {:>8} {:>7}",
            name,
            s.requests,
            r.kreq_per_cpu_s(s),
            s.iops,
            s.p99_ns as f64 / 1e3,
            s.flash_sectors as f64 / s.host_write_sectors as f64,
            s.ftl.gc,
            s.failed
        );
    }
    if runs.iter().any(|r| !r.layers.is_empty()) {
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "cell (host ns, traced)",
            "write p50",
            "write p99",
            "gc p50",
            "plain p50",
            "read p50",
            "runner/req",
            "overhead"
        );
        let show = |v: Vec<f64>| {
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}", median(&v))
            }
        };
        for (name, r) in names.iter().zip(runs) {
            let col = |f: &dyn Fn(&LayerSample) -> Option<f64>| {
                show(r.layers.iter().filter_map(f).collect())
            };
            println!(
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8.3}",
                name,
                col(&|l| l.write_p50),
                col(&|l| l.write_p99),
                col(&|l| l.write_gc_p50),
                col(&|l| l.write_plain_p50),
                col(&|l| l.read_p50),
                col(&|l| Some(l.runner_self_ns_per_req)),
                r.trace_overhead()
            );
        }
    }
}

/// Writes the last traced round's spans under `perfbench/out/`.
fn write_spans(w: Workload, log: &SpanLog, names: &[String]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans_{}.tsv", w.name()));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        log.write_tsv(&mut out, names)?;
        std::io::Write::flush(&mut out)
    });
    match result {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), log.spans.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// FNV-1a over the debug rendering of every cell's simulated outcome.
fn digest(sims: &[SimOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{sims:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Default)]
struct Metrics(Vec<(String, Json)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((
            name.to_string(),
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }

    fn into_json(self) -> Json {
        Json::Obj(self.0)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn fastest(cpu_ns: &[u64]) -> f64 {
    cpu_ns.iter().copied().min().expect("at least one round") as f64
}

fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    (log_sum / f64::from(n)).exp()
}
