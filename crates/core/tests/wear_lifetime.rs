//! Wear leveling, adaptive erase, and end-of-life behaviour across all
//! four FTLs:
//!
//! * static + dynamic wear leveling bounds the fleet-wide max−min
//!   effective-P/E spread under a pathological hot/cold skew;
//! * adaptive erase off leaves wear accounting bit-identical to raw P/E
//!   counts (the paper-default configuration is unchanged);
//! * a wear-out soak drives a device to death through grown bad blocks
//!   and asserts every request keeps getting a well-formed response —
//!   typed end-of-life refusal, never a panic or GC livelock;
//! * crashing a near-dead device still recovers consistently.

use esp_core::{
    random_workload, CgmFtl, CrashHarness, CrashTarget, FgmFtl, Ftl, FtlConfig, SectorLogFtl,
    SubFtl,
};
use esp_nand::{FaultConfig, Geometry};
use esp_sim::{Rng, SimDuration, SimTime};

/// A small device with room for a hot/cold split: 2×2 chips, 24 blocks
/// of 8 pages.
fn wear_cfg(wear_leveling: bool, adaptive_erase: bool) -> FtlConfig {
    FtlConfig {
        geometry: Geometry {
            channels: 2,
            chips_per_channel: 2,
            blocks_per_chip: 24,
            pages_per_block: 8,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        },
        write_buffer_sectors: 16,
        overprovision: 0.4,
        wear_leveling,
        adaptive_erase,
        wear_delta_threshold: 8,
        ..FtlConfig::paper_default()
    }
}

/// Writes the whole logical space once (cold data), then rewrites a small
/// hot zone over and over. Without wear leveling the blocks pinned under
/// cold data never recycle while the hot blocks churn.
fn hot_cold_churn<F: Ftl + ?Sized>(ftl: &mut F, rounds: u64) {
    let logical = ftl.logical_sectors();
    let hot = logical / 16;
    let mut clock = SimTime::ZERO;
    for lsn in 0..logical {
        clock = ftl.write(lsn, 1, true, clock);
    }
    clock = ftl.flush(clock);
    let mut rng = Rng::seed_from(0x110C);
    for i in 0..rounds {
        ftl.maintain(clock);
        let lsn = rng.next_below(hot);
        clock = ftl.write(lsn, 1, true, clock);
        if i % 64 == 0 {
            // Background windows let the FTLs that lean on idle GC keep up.
            let gap = clock + SimDuration::from_millis(10);
            ftl.idle(clock, gap);
            clock = gap;
        }
    }
    ftl.flush(clock);
}

/// Max−min effective P/E over the whole device.
fn pe_delta<F: Ftl>(ftl: &F) -> u32 {
    let ssd = ftl.ssd();
    let g = ssd.geometry().clone();
    let (mut min, mut max) = (u32::MAX, 0u32);
    for b in 0..g.block_count() {
        let pe = ssd.device().effective_pe(g.block_addr(b));
        min = min.min(pe);
        max = max.max(pe);
    }
    max - min
}

fn assert_wear_bounded<F: Ftl>(build: impl Fn(&FtlConfig) -> F, name: &str) {
    const ROUNDS: u64 = 12_000;
    let mut plain = build(&wear_cfg(false, false));
    hot_cold_churn(&mut plain, ROUNDS);
    let delta_off = pe_delta(&plain);

    let mut leveled = build(&wear_cfg(true, false));
    hot_cold_churn(&mut leveled, ROUNDS);
    let delta_on = pe_delta(&leveled);

    // The workload must actually skew wear, the leveler must engage, and
    // the spread must come down materially — to within the configured
    // threshold plus the slack of one metering interval (rotation is
    // checked every 16 device erases).
    assert!(
        delta_off > 16,
        "{name}: churn too light to skew wear (delta {delta_off})"
    );
    assert!(
        leveled.stats().wear_level_migrations > 0,
        "{name}: no cold-block rotations despite delta {delta_off}"
    );
    let bound = wear_cfg(true, false).wear_delta_threshold + 16;
    assert!(
        delta_on <= bound && delta_on < delta_off / 2,
        "{name}: wear leveling left delta {delta_on} (unleveled {delta_off}, bound {bound})"
    );
    assert_eq!(leveled.stats().read_faults, 0, "{name}: leveling lost data");
}

#[test]
fn wear_leveling_bounds_pe_delta_cgm() {
    assert_wear_bounded(CgmFtl::new, "cgmFTL");
}

#[test]
fn wear_leveling_bounds_pe_delta_fgm() {
    assert_wear_bounded(FgmFtl::new, "fgmFTL");
}

#[test]
fn wear_leveling_bounds_pe_delta_sub() {
    assert_wear_bounded(SubFtl::new, "subFTL");
}

#[test]
fn wear_leveling_bounds_pe_delta_sector_log() {
    assert_wear_bounded(SectorLogFtl::new, "sectorLogFTL");
}

/// With `adaptive_erase` off (the paper default), every erase is a deep
/// erase: no shallow erases are counted and the effective P/E of every
/// block equals its raw cycle count — the new wear accounting cannot
/// perturb baseline results.
#[test]
fn adaptive_erase_off_keeps_effective_pe_raw() {
    type Builder = fn(&FtlConfig) -> Box<dyn Ftl>;
    let builders: [(&str, Builder); 4] = [
        ("cgmFTL", |c| Box::new(CgmFtl::new(c))),
        ("fgmFTL", |c| Box::new(FgmFtl::new(c))),
        ("subFTL", |c| Box::new(SubFtl::new(c))),
        ("sectorLogFTL", |c| Box::new(SectorLogFtl::new(c))),
    ];
    for (name, build) in builders {
        let mut ftl = build(&wear_cfg(false, false));
        hot_cold_churn(ftl.as_mut(), 3_000);
        let ssd = ftl.ssd();
        assert_eq!(ssd.device().stats().shallow_erases, 0, "{name}");
        let g = ssd.geometry().clone();
        for b in 0..g.block_count() {
            let addr = g.block_addr(b);
            assert_eq!(
                ssd.device().effective_pe(addr),
                ssd.device().pe_cycles(addr),
                "{name}: effective P/E diverged from raw on block {b} with the feature off"
            );
        }
    }
}

/// With adaptive erase on, lightly-worn blocks get shallow erases, so the
/// same churn accumulates strictly less effective wear than raw cycles —
/// without losing data.
#[test]
fn adaptive_erase_accumulates_fractional_stress() {
    let mut ftl = SubFtl::new(&wear_cfg(false, true));
    hot_cold_churn(&mut ftl, 6_000);
    let ssd = ftl.ssd();
    assert!(ssd.device().stats().shallow_erases > 0, "no shallow erases");
    let g = ssd.geometry().clone();
    let (mut raw, mut effective) = (0u64, 0u64);
    for b in 0..g.block_count() {
        let addr = g.block_addr(b);
        raw += u64::from(ssd.device().pe_cycles(addr));
        effective += u64::from(ssd.device().effective_pe(addr));
    }
    assert!(
        effective < raw,
        "shallow erases must shave effective wear (effective {effective} >= raw {raw})"
    );
    assert_eq!(ftl.stats().read_faults, 0);
}

/// Drives a tiny device to death: every other erase grows a bad block, so
/// block retirement eats the GC reserve. The FTL must degrade in order —
/// shrink over-provisioning, then latch end-of-life and refuse writes —
/// and every request, before and after death, must complete without a
/// panic, with monotone completion times, and with reads still serving.
fn wear_out_soak<F: Ftl>(mut ftl: F, name: &str, check_invariants: fn(&F)) {
    let logical = ftl.logical_sectors();
    let mut rng = Rng::seed_from(0xDEAD);
    let mut clock = SimTime::ZERO;
    let mut latched_at = None;
    for i in 0..60_000u64 {
        ftl.maintain(clock);
        let done = if rng.chance(0.8) {
            let lsn = rng.next_below(logical);
            let nsec = (1 + rng.next_below(4)).min(logical - lsn) as u32;
            ftl.write(lsn, nsec, true, clock)
        } else {
            ftl.read(rng.next_below(logical), 1, clock)
        };
        assert!(done >= clock, "{name}: completion went backwards at op {i}");
        clock = done;
        if latched_at.is_none() && ftl.end_of_life() {
            latched_at = Some(i);
        }
        // Well past the latch: the device is dead, keep hammering a little
        // longer to prove refusal stays cheap and panic-free, then stop.
        if latched_at.is_some_and(|at| i > at + 2_000) {
            break;
        }
    }
    let stats = ftl.stats();
    assert!(
        ftl.end_of_life(),
        "{name}: 60k ops at 50% erase failure never exhausted the device \
         ({} blocks retired)",
        stats.blocks_retired
    );
    assert_eq!(stats.end_of_life_trips, 1, "{name}: latch must trip once");
    assert!(
        stats.writes_dropped_end_of_life > 0,
        "{name}: refused writes must be counted"
    );
    assert!(
        stats.blocks_retired > 0,
        "{name}: death must come from grown bad blocks"
    );
    // The dead device still answers reads without panicking.
    for lsn in (0..logical).step_by(7) {
        let done = ftl.read(lsn, 1, clock);
        assert!(done >= clock);
    }
    // Dying kept the pools' bookkeeping consistent.
    check_invariants(&ftl);
}

fn dying_cfg() -> FtlConfig {
    FtlConfig {
        fault: Some(FaultConfig {
            seed: 3,
            erase_fail_prob: 0.5,
            ..FaultConfig::default()
        }),
        ..FtlConfig::tiny()
    }
}

#[test]
fn wear_out_soak_cgm() {
    wear_out_soak(
        CgmFtl::new(&dying_cfg()),
        "cgmFTL",
        CgmFtl::check_invariants,
    );
}

#[test]
fn wear_out_soak_fgm() {
    wear_out_soak(
        FgmFtl::new(&dying_cfg()),
        "fgmFTL",
        FgmFtl::check_invariants,
    );
}

#[test]
fn wear_out_soak_sub() {
    wear_out_soak(
        SubFtl::new(&dying_cfg()),
        "subFTL",
        SubFtl::check_invariants,
    );
}

#[test]
fn wear_out_soak_sector_log() {
    wear_out_soak(
        SectorLogFtl::new(&dying_cfg()),
        "sectorLogFTL",
        SectorLogFtl::check_invariants,
    );
}

/// Crash sweeps over a near-dead device: with erase failures steadily
/// retiring blocks, power loss at arbitrary NAND commands must still
/// recover to a consistent image (synced data survives, nothing corrupt,
/// recovery idempotent).
fn near_dead_sweep<F: CrashTarget>(seed: u64) {
    let mut cfg = FtlConfig::tiny();
    cfg.crash_safe_mode = true;
    cfg.fault = Some(FaultConfig {
        seed: 7,
        erase_fail_prob: 0.25,
        ..FaultConfig::default()
    });
    let mut rng = Rng::seed_from(seed);
    let ops = random_workload(&mut rng, 128, 48);
    let h = CrashHarness::<F>::new(&cfg, &ops);
    let report = h.sweep(80, 40, seed ^ 0xE01);
    assert!(report.crashed_cases > 0, "sweep must fire real crashes");
    assert!(
        report.passed(),
        "{} violated the crash contract near end of life: {:?}",
        report.ftl,
        &report.failures[..report.failures.len().min(3)]
    );
}

#[test]
fn near_dead_crash_sweep_cgm() {
    near_dead_sweep::<CgmFtl>(0xC6);
}

#[test]
fn near_dead_crash_sweep_fgm() {
    near_dead_sweep::<FgmFtl>(0xF6);
}

#[test]
fn near_dead_crash_sweep_sub() {
    near_dead_sweep::<SubFtl>(0x5B);
}

#[test]
fn near_dead_crash_sweep_sector_log() {
    near_dead_sweep::<SectorLogFtl>(0x51);
}
