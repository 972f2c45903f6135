//! Cross-crate integration tests: workload generation → preconditioning →
//! replay through every FTL → paper-level claims hold end-to-end.

use esp_storage::ftl::{
    precondition, run_trace, run_trace_qd, CgmFtl, FgmFtl, Ftl, FtlConfig, SectorLogFtl, SubFtl,
};
use esp_storage::nand::Geometry;
use esp_storage::sim::{SimDuration, SimTime};
use esp_storage::ssd::{CrashPoint, Ssd};
use esp_storage::workload::{generate, Benchmark, SyntheticConfig};

/// A small paper-shaped device: 4 channels × 2 chips.
fn test_config() -> FtlConfig {
    FtlConfig {
        geometry: Geometry {
            channels: 4,
            chips_per_channel: 2,
            blocks_per_chip: 16,
            pages_per_block: 32,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        },
        write_buffer_sectors: 128,
        ..FtlConfig::paper_default()
    }
}

fn sync_small_trace(logical: u64, requests: u64, seed: u64) -> esp_storage::workload::Trace {
    generate(&SyntheticConfig {
        footprint_sectors: (logical as f64 * 0.625) as u64,
        requests,
        r_small: 1.0,
        r_synch: 1.0,
        zipf_theta: 0.9,
        small_zone_sectors: Some(((logical as f64 * 0.625) as u64 / 64).max(64)),
        rewrite_distance: 128,
        seed,
        ..SyntheticConfig::default()
    })
}

#[test]
fn headline_claim_subftl_beats_both_baselines() {
    let cfg = test_config();
    let mut sub = SubFtl::new(&cfg);
    let mut fgm = FgmFtl::new(&cfg);
    let mut cgm = CgmFtl::new(&cfg);
    let trace = sync_small_trace(cfg.logical_sectors(), 15_000, 42);

    let mut reports = Vec::new();
    for ftl in [&mut cgm as &mut dyn Ftl, &mut fgm, &mut sub] {
        precondition(ftl, 0.625);
        let r = run_trace_qd(ftl, &trace, 8);
        assert_eq!(r.stats.read_faults, 0, "{} surfaced faults", r.ftl);
        reports.push(r);
    }
    let (cgm_r, fgm_r, sub_r) = (&reports[0], &reports[1], &reports[2]);

    // Fig 8(a): subFTL > fgmFTL > cgmFTL in IOPS under sync small writes.
    assert!(
        sub_r.iops > fgm_r.iops * 1.05,
        "subFTL {} should beat fgmFTL {}",
        sub_r.iops,
        fgm_r.iops
    );
    assert!(
        fgm_r.iops > cgm_r.iops * 1.2,
        "fgmFTL {} should beat cgmFTL {}",
        fgm_r.iops,
        cgm_r.iops
    );
    // Fig 8(b): far fewer erases (lifetime) for subFTL than fgmFTL.
    assert!(
        sub_r.erases * 2 < fgm_r.erases,
        "subFTL erases {} vs fgmFTL {}",
        sub_r.erases,
        fgm_r.erases
    );
    // Table 1: request WAF near 1 for subFTL, near 4 for the baselines.
    assert!(sub_r.stats.small_request_waf() < 1.5);
    assert!(fgm_r.stats.small_request_waf() > 3.0);
    assert!(cgm_r.stats.small_request_waf() > 3.0);
    // cgmFTL is RMW-bound (paper: 89.3% of Varmail writes were RMW).
    assert!(cgm_r.stats.rmw_operations as f64 > 0.8 * cgm_r.stats.host_write_requests as f64);
}

#[test]
fn all_benchmark_profiles_run_clean_on_all_ftls() {
    let cfg = test_config();
    let footprint = (cfg.logical_sectors() as f64 * 0.625) as u64;
    for bench in Benchmark::ALL {
        let trace = generate(&bench.config(footprint, 4_000, 9));
        for build in [
            |c: &FtlConfig| Box::new(CgmFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(FgmFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(SubFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(SectorLogFtl::new(c)) as Box<dyn Ftl>,
        ] {
            let mut ftl = build(&cfg);
            precondition(ftl.as_mut(), 0.625);
            let r = run_trace(ftl.as_mut(), &trace);
            assert_eq!(r.stats.read_faults, 0, "{} on {bench}: read faults", r.ftl);
            assert_eq!(r.requests, 4_000);
            assert!(r.iops > 0.0);
        }
    }
}

/// The test device with realistic fault rates dialled in: roughly one
/// program failure per few thousand pages, rare erase failures, and a few
/// factory-marked bad blocks.
fn faulty_test_config() -> FtlConfig {
    let mut cfg = test_config();
    cfg.fault = Some(esp_storage::nand::FaultConfig {
        seed: 1201,
        program_fail_prob: 2e-4,
        erase_fail_prob: 1e-5,
        factory_bad_blocks: 3,
        ..esp_storage::nand::FaultConfig::default()
    });
    cfg
}

#[test]
fn all_benchmarks_survive_realistic_fault_rates() {
    let cfg = faulty_test_config();
    let footprint = (cfg.logical_sectors() as f64 * 0.625) as u64;
    let mut total_retries = 0u64;
    for bench in Benchmark::ALL {
        let trace = generate(&bench.config(footprint, 4_000, 9));
        for build in [
            |c: &FtlConfig| Box::new(CgmFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(FgmFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(SubFtl::new(c)) as Box<dyn Ftl>,
            |c: &FtlConfig| Box::new(SectorLogFtl::new(c)) as Box<dyn Ftl>,
        ] {
            let mut ftl = build(&cfg);
            assert_eq!(
                ftl.stats().blocks_retired,
                3,
                "{} on {bench}: factory bad blocks must be retired at mount",
                ftl.name()
            );
            precondition(ftl.as_mut(), 0.625);
            let r = run_trace(ftl.as_mut(), &trace);
            assert_eq!(
                r.stats.read_faults, 0,
                "{} on {bench}: fault handling lost data",
                r.ftl
            );
            assert_eq!(r.requests, 4_000);
            total_retries += ftl.stats().write_retries;
        }
    }
    assert!(
        total_retries > 0,
        "realistic fault rates must trigger at least one write retry \
         somewhere across 20 benchmark runs"
    );
}

#[test]
fn fault_injected_runs_are_deterministic_per_seed() {
    let cfg = faulty_test_config();
    let trace = sync_small_trace(cfg.logical_sectors(), 3_000, 7);
    let run = || {
        let mut ftl = SubFtl::new(&cfg);
        let r = run_trace(&mut ftl, &trace);
        (
            r.makespan,
            r.erases,
            ftl.stats().write_retries,
            ftl.stats().program_failures,
            ftl.stats().erase_failures,
            ftl.stats().blocks_retired,
        )
    };
    assert_eq!(
        run(),
        run(),
        "fault-injected runs must be bit-for-bit deterministic per seed"
    );
}

#[test]
fn read_your_writes_across_regions_and_time() {
    // Write a mixed pattern, churn, then read everything back through the
    // public API, including after enough simulated time that unscrubbed
    // subpages would have rotted.
    let cfg = test_config();
    let mut ftl = SubFtl::new(&cfg);
    let mut clock = SimTime::ZERO;
    // Mixed small/large writes over a known set.
    for i in 0..64u64 {
        clock = ftl.write(i * 4, 4, false, clock); // large, full-page region
    }
    for i in 0..64u64 {
        clock = ftl.write(i, 1, true, clock); // small, subpage region
    }
    clock = ftl.flush(clock);
    // Let a year pass with daily maintenance.
    for d in 1..=365u64 {
        ftl.maintain(clock + SimDuration::from_days(d));
    }
    let later = clock + SimDuration::from_days(366);
    for i in 0..256u64 {
        ftl.read(i, 1, later);
    }
    assert_eq!(
        ftl.stats().read_faults,
        0,
        "a year later, every sector must still be readable"
    );
}

#[test]
fn determinism_same_seed_same_simulation() {
    let cfg = test_config();
    let run = || {
        let mut ftl = SubFtl::new(&cfg);
        let trace = sync_small_trace(cfg.logical_sectors(), 3_000, 7);
        let r = run_trace(&mut ftl, &trace);
        (
            r.iops.to_bits(),
            r.erases,
            r.stats.gc_invocations,
            r.stats.small_request_waf().to_bits(),
            r.makespan,
        )
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit deterministic");
}

#[test]
fn lifetime_ordering_under_fixed_work() {
    // Same written volume through each FTL: erase counts (the lifetime
    // proxy) order subFTL < fgmFTL <= cgmFTL for sync small writes.
    let cfg = test_config();
    let trace = sync_small_trace(cfg.logical_sectors(), 12_000, 3);
    let mut erases = Vec::new();
    for build in [
        |c: &FtlConfig| Box::new(SubFtl::new(c)) as Box<dyn Ftl>,
        |c: &FtlConfig| Box::new(FgmFtl::new(c)) as Box<dyn Ftl>,
        |c: &FtlConfig| Box::new(CgmFtl::new(c)) as Box<dyn Ftl>,
    ] {
        let mut ftl = build(&cfg);
        precondition(ftl.as_mut(), 0.625);
        let r = run_trace(ftl.as_mut(), &trace);
        erases.push((r.ftl, r.erases));
    }
    assert!(
        erases[0].1 < erases[1].1,
        "subFTL {} should erase less than fgmFTL {}",
        erases[0].1,
        erases[1].1
    );
}

#[test]
fn crash_recovery_round_trip_through_facade() {
    // Write through the public API, "lose power", recover, keep going.
    let cfg = test_config();
    let mut ftl = SubFtl::new(&cfg);
    let trace = sync_small_trace(cfg.logical_sectors(), 2_000, 77);
    run_trace(&mut ftl, &trace);
    let mut recovered = SubFtl::recover(ftl.ssd().clone(), &cfg);
    recovered.check_invariants();
    // Every durable sector recovered at the same version.
    for lsn in 0..cfg.logical_sectors() {
        if let Some(seq) = ftl.stored_seq(lsn) {
            assert_eq!(recovered.stored_seq(lsn), Some(seq), "sector {lsn}");
        }
    }
    // And the recovered instance replays more work cleanly.
    let more = sync_small_trace(cfg.logical_sectors(), 1_000, 78);
    let r = run_trace(&mut recovered, &more);
    assert_eq!(r.stats.read_faults, 0);
}

/// Background GC on a device whose power was just cut: `idle` must return
/// (every GC attempt dies at its first read and moves no clock), not spin.
/// A watchdog thread turns a livelock into a fast failure.
fn idle_returns_after_power_cut<F: Ftl + Send + 'static>(
    build: fn(&FtlConfig) -> F,
    remount: fn(Ssd, &FtlConfig) -> F,
) {
    let cfg = FtlConfig {
        background_gc: true,
        ..FtlConfig::tiny()
    };
    let mut ftl = build(&cfg);
    let mut t = SimTime::ZERO;
    for _ in 0..6 {
        for lsn in 0..ftl.logical_sectors() / 2 {
            t = ftl.write(lsn, 1, true, t);
        }
    }
    // Remount the image with power due to fail at the next command after
    // `cut`; the mount scan runs before it.
    let cut = t + SimDuration::from_secs(1);
    let mut image = ftl.ssd().clone();
    image.set_crash_point(CrashPoint::Time(cut));
    let mut ftl = remount(image, &cfg);
    let name = ftl.name();
    ftl.read(0, 1, cut);
    assert!(
        ftl.ssd().halted(),
        "{name}: the read must hit the power cut"
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        ftl.idle(cut, cut + SimDuration::from_secs(10));
        let _ = tx.send(());
    });
    // A livelocked worker cannot be joined; it dies with the test process.
    let returned = rx.recv_timeout(std::time::Duration::from_secs(60));
    assert!(
        !matches!(returned, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "{name}: idle did not return after a power cut"
    );
    worker.join().expect("idle must not panic");
}

#[test]
fn background_gc_stops_after_power_cut() {
    idle_returns_after_power_cut(CgmFtl::new, CgmFtl::recover);
    idle_returns_after_power_cut(FgmFtl::new, FgmFtl::recover);
    idle_returns_after_power_cut(SectorLogFtl::new, SectorLogFtl::recover);
    idle_returns_after_power_cut(SubFtl::new, SubFtl::recover);
}

#[test]
fn msr_trace_import_replays_end_to_end() {
    let csv = "\
1000,host,0,Write,4096,4096,10
1100,host,0,Write,8192,8192,10
1200,host,0,Read,4096,4096,10
1300,host,0,Write,1048576,16384,10
";
    let opts = esp_storage::workload::MsrOptions {
        r_synch: 1.0,
        ..esp_storage::workload::MsrOptions::default()
    };
    let trace =
        esp_storage::workload::load_msr_trace(csv.as_bytes(), &opts).expect("valid MSR sample");
    let cfg = test_config();
    assert!(trace.footprint_sectors <= cfg.logical_sectors());
    let mut ftl = SubFtl::new(&cfg);
    let r = run_trace(&mut ftl, &trace);
    assert_eq!(r.requests, 4);
    assert_eq!(r.stats.read_faults, 0);
}

#[test]
fn facade_reexports_are_coherent() {
    // The facade's modules expose the same types the subcrates define.
    let g: esp_storage::nand::Geometry = esp_storage::nand::Geometry::tiny();
    let ssd = esp_storage::ssd::Ssd::new(g);
    assert_eq!(ssd.makespan(), esp_storage::sim::SimTime::ZERO);
    let cfg = esp_storage::ftl::FtlConfig::tiny();
    assert!(cfg.validate().is_ok());
}
