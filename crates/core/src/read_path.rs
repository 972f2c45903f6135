//! Shared host-read helpers.
//!
//! Reads are not the paper's focus ("there are no significant differences
//! from conventional FTLs in handling reads", §4), but they must be correct
//! and they must cost simulated time, since the evaluation benchmarks mix
//! reads in. The helpers here serve reads from (in priority order) the DRAM
//! write buffer, then the flash mapping supplied by the caller.

use esp_nand::{Oob, ReadEffort, ReadFault, RetentionModel, RetryLadder};
use esp_sim::SimTime;
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::BlockPool;
use crate::buffer::WriteBuffer;
use crate::config::FtlConfig;
use crate::stats::FtlStats;

/// Classifies a read result: benign misses (never-written data) are fine;
/// destroyed/aged/injected data is a fault the FTL must never expose.
/// Returns `true` when the result was a data fault (per-cause counters are
/// bumped alongside the `read_faults` total).
pub(crate) fn note_read_result(
    result: &Result<esp_nand::Oob, ReadFault>,
    expect_lsn: u64,
    stats: &mut FtlStats,
) -> bool {
    match result {
        Ok(oob) => {
            debug_assert_eq!(oob.lsn, expect_lsn, "mapping returned wrong sector");
            false
        }
        Err(ReadFault::NotWritten) | Err(ReadFault::Padding) => false,
        // Power is off: the read never ran, and a remount will re-serve it
        // from durable state. Not a data fault of the FTL.
        Err(ReadFault::PowerLoss) => false,
        // Whole-device failure: not a data fault of *this* FTL — the array
        // layer above reconstructs the data from the surviving shards.
        Err(ReadFault::DeviceDead) => false,
        Err(cause) => {
            stats.read_faults += 1;
            match cause {
                ReadFault::DestroyedByProgram => stats.read_faults_destroyed += 1,
                ReadFault::RetentionExceeded => stats.read_faults_retention += 1,
                ReadFault::Torn => stats.read_faults_torn += 1,
                ReadFault::Injected => stats.read_faults_injected += 1,
                ReadFault::NotWritten
                | ReadFault::Padding
                | ReadFault::PowerLoss
                | ReadFault::DeviceDead => {
                    unreachable!("benign causes handled above")
                }
            }
            true
        }
    }
}

/// Sense count at which the read-disturb patrol relocates a block: the
/// number of reads whose accumulated disturb term eats half the base ECC
/// budget plus the hard rungs of the ladder — comfortably before stored
/// data (which also carries retention/wear BER) can climb past the final
/// soft-decode rung. `None` when read-disturb modeling is off.
pub(crate) fn disturb_scrub_limit(
    model: &RetentionModel,
    ladder: Option<&RetryLadder>,
) -> Option<u64> {
    let per_read = model.read_disturb_per_read();
    if per_read <= 0.0 {
        return None;
    }
    let uplift = ladder.map_or(0.0, |l| l.step_uplift * f64::from(l.hard_steps));
    let headroom = model.ecc_limit() * (0.5 + uplift);
    Some(((headroom / per_read) as u64).max(1))
}

/// Shared read-reliability policy state: when to reclaim a page after a
/// charged read, when the disturb patrol is due, and the read-only latch
/// for graceful degradation after data loss. Each FTL embeds one; the
/// mechanics of relocation stay FTL-specific.
#[derive(Debug, Clone)]
pub(crate) struct ReadReliability {
    /// A read needing at least this many hard rungs (or soft decode)
    /// triggers read-reclaim of the data it touched. `None` disables
    /// reclaim and the patrol.
    reclaim_threshold: Option<u32>,
    /// Relocate blocks whose sense count since erase reaches this.
    scrub_limit: Option<u64>,
    /// Device reads between patrol sweeps.
    patrol_interval: u64,
    /// Device-read count at which the next sweep runs.
    next_patrol: u64,
    /// Latch into read-only after an uncorrectable host read.
    read_only_on_loss: bool,
    /// Latched state.
    read_only: bool,
    /// Terminal end-of-life latch: unlike `read_only`, it is unconditional
    /// (no config gate) — once the flash pool is exhausted there is nowhere
    /// left to put a write, whatever the policy.
    end_of_life: bool,
}

impl ReadReliability {
    pub(crate) fn new(config: &FtlConfig) -> Self {
        let scrub_limit = if config.reclaim_threshold.is_some() {
            disturb_scrub_limit(&config.retention, config.retry_ladder.as_ref())
        } else {
            None
        };
        let patrol_interval = scrub_limit.map_or(u64::MAX, |l| (l / 4).max(1));
        ReadReliability {
            reclaim_threshold: config.reclaim_threshold,
            scrub_limit,
            patrol_interval,
            next_patrol: patrol_interval,
            read_only_on_loss: config.read_only_on_loss,
            read_only: false,
            end_of_life: false,
        }
    }

    /// True if a read that needed `effort` should have its data relocated.
    pub(crate) fn wants_reclaim(&self, effort: ReadEffort) -> bool {
        match self.reclaim_threshold {
            Some(t) => effort.soft_decode || effort.retry_steps >= t,
            None => false,
        }
    }

    /// Sense count at which the patrol relocates a block, if patrolling.
    pub(crate) fn scrub_limit(&self) -> Option<u64> {
        self.scrub_limit
    }

    /// True when a patrol sweep is due. Gated on the device's cumulative
    /// read count, not simulated time: a hot-read workload advances the
    /// clock only ~100 µs per read, so a time-gated patrol would never run
    /// before blocks drift past the ladder.
    pub(crate) fn patrol_due(&mut self, device_reads: u64) -> bool {
        if self.scrub_limit.is_none() || device_reads < self.next_patrol {
            return false;
        }
        self.next_patrol = device_reads + self.patrol_interval;
        true
    }

    /// True once the FTL has latched read-only (state query for tests;
    /// production paths observe the latch through `refuse_write`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn read_only(&self) -> bool {
        self.read_only
    }

    /// Records the outcome of a host read: `faults` uncorrectable sectors
    /// latch the read-only fallback (once) when it is configured.
    pub(crate) fn note_host_read(&mut self, faults: bool, stats: &mut FtlStats) {
        if faults && self.read_only_on_loss && !self.read_only {
            self.read_only = true;
            stats.read_only_trips += 1;
        }
    }

    /// Latches the terminal end-of-life state (once per mount): the flash
    /// pool is exhausted, so every subsequent host write is refused with a
    /// counted drop while reads keep being served. Unconditional — no
    /// config gate, because there is physically nowhere to put the data.
    pub(crate) fn latch_end_of_life(&mut self, stats: &mut FtlStats) {
        if !self.end_of_life {
            self.end_of_life = true;
            stats.end_of_life_trips += 1;
        }
    }

    /// True once the terminal end-of-life latch has tripped.
    pub(crate) fn end_of_life(&self) -> bool {
        self.end_of_life
    }

    /// Called at the top of every host write; returns `true` (and counts
    /// the drop) when the write must be refused because the FTL is latched
    /// read-only or end-of-life.
    pub(crate) fn refuse_write(&mut self, stats: &mut FtlStats) -> bool {
        if self.end_of_life {
            stats.writes_dropped_end_of_life += 1;
            return true;
        }
        if self.read_only {
            stats.writes_dropped_read_only += 1;
        }
        self.read_only
    }
}

/// Serves a host read over a coarse (page-granularity) map: buffer hits are
/// free; mapped sectors are fetched per physical page (one full-page read
/// when two or more sectors of the same page are needed, a subpage read
/// otherwise). Returns `(completion time, any uncorrectable sector)`.
///
/// LPNs whose read needed reclaim-worthy ladder effort are appended to
/// `reclaim` for the caller to relocate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_sectors_coarse(
    lsn: u64,
    sectors: u32,
    issue: SimTime,
    ssd: &mut Ssd,
    engine: &BlockPool,
    buffer: &WriteBuffer,
    stats: &mut FtlStats,
    reliability: &ReadReliability,
    reclaim: &mut Vec<u64>,
    slots_scratch: &mut Vec<Result<Oob, ReadFault>>,
) -> (SimTime, bool) {
    let page = u64::from(SECTORS_PER_PAGE);
    let (lo, hi) = (lsn, lsn + u64::from(sectors));
    let mut done = issue;
    let mut faulted = false;
    let first_lpn = lo / page;
    let last_lpn = (hi - 1) / page;
    for lpn in first_lpn..=last_lpn {
        let s_lo = lo.max(lpn * page);
        let s_hi = hi.min((lpn + 1) * page);
        // At most one page's worth of sectors: a stack buffer keeps this
        // per-page loop allocation-free.
        let mut needed = [0u64; SECTORS_PER_PAGE as usize];
        let mut n = 0usize;
        for s in s_lo..s_hi {
            if !buffer.contains(s) {
                needed[n] = s;
                n += 1;
            }
        }
        if n == 0 {
            continue;
        }
        let Some(ptr) = engine.lookup(lpn) else {
            continue; // never written: reads as zeros, no flash op
        };
        let addr = engine.page_addr(ptr, ssd);
        let effort = if n >= 2 {
            let (effort, t) = ssd.read_full_graded_into(addr, issue, slots_scratch);
            for &s in &needed[..n] {
                let slot = (s - lpn * page) as usize;
                faulted |= note_read_result(&slots_scratch[slot], s, stats);
            }
            done = done.max(t);
            effort
        } else {
            let s = needed[0];
            let slot = (s - lpn * page) as u8;
            let (r, effort, t) = ssd.read_subpage_graded(addr.subpage(slot), issue);
            faulted |= note_read_result(&r, s, stats);
            done = done.max(t);
            effort
        };
        if reliability.wants_reclaim(effort) {
            reclaim.push(lpn);
        }
    }
    (done, faulted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_nand::Oob;

    #[test]
    fn benign_misses_are_not_faults() {
        let mut stats = FtlStats::new();
        note_read_result(&Err(ReadFault::NotWritten), 0, &mut stats);
        note_read_result(&Err(ReadFault::Padding), 0, &mut stats);
        note_read_result(&Err(ReadFault::PowerLoss), 0, &mut stats);
        note_read_result(&Err(ReadFault::DeviceDead), 0, &mut stats);
        assert_eq!(stats.read_faults, 0);
    }

    #[test]
    fn corruption_counts_as_fault_per_cause() {
        let mut stats = FtlStats::new();
        assert!(note_read_result(
            &Err(ReadFault::DestroyedByProgram),
            0,
            &mut stats
        ));
        assert!(note_read_result(
            &Err(ReadFault::RetentionExceeded),
            0,
            &mut stats
        ));
        assert!(note_read_result(&Err(ReadFault::Injected), 0, &mut stats));
        assert!(note_read_result(&Err(ReadFault::Torn), 0, &mut stats));
        assert_eq!(stats.read_faults, 4);
        assert_eq!(stats.read_faults_destroyed, 1);
        assert_eq!(stats.read_faults_retention, 1);
        assert_eq!(stats.read_faults_injected, 1);
        assert_eq!(stats.read_faults_torn, 1);
    }

    #[test]
    fn good_data_is_clean() {
        let mut stats = FtlStats::new();
        assert!(!note_read_result(
            &Ok(Oob { lsn: 7, seq: 1 }),
            7,
            &mut stats
        ));
        assert_eq!(stats.read_faults, 0);
    }

    #[test]
    fn scrub_limit_sits_below_the_failure_point() {
        let model = RetentionModel::paper_default().with_read_disturb(1e-3);
        // No ladder: scrub at half the base ECC budget (1200 reads), well
        // before a fresh block's data (base BER ~0.25) fails at ~2150.
        assert_eq!(disturb_scrub_limit(&model, None), Some(1200));
        // With the default ladder the soft rung doubles the budget; the
        // scrub point scales with the hard rungs and stays below it.
        let ladder = RetryLadder::paper_default();
        assert_eq!(disturb_scrub_limit(&model, Some(&ladder)), Some(2640));
        // Disturb modeling off: no patrol.
        assert_eq!(
            disturb_scrub_limit(&RetentionModel::paper_default(), Some(&ladder)),
            None
        );
    }

    #[test]
    fn reliability_policy_gates_reclaim_patrol_and_read_only() {
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(1e-3);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        config.read_only_on_loss = true;
        let mut rel = ReadReliability::new(&config);
        let mut stats = FtlStats::new();

        // Reclaim: at or past the threshold rung, or any soft decode.
        let cheap = ReadEffort {
            retry_steps: 1,
            soft_decode: false,
        };
        let costly = ReadEffort {
            retry_steps: 2,
            soft_decode: false,
        };
        let soft = ReadEffort {
            retry_steps: 0,
            soft_decode: true,
        };
        assert!(!rel.wants_reclaim(ReadEffort::NONE));
        assert!(!rel.wants_reclaim(cheap));
        assert!(rel.wants_reclaim(costly));
        assert!(rel.wants_reclaim(soft));

        // Patrol fires by device-read count, then re-arms.
        let interval = rel.scrub_limit().unwrap() / 4;
        assert!(!rel.patrol_due(interval - 1));
        assert!(rel.patrol_due(interval));
        assert!(!rel.patrol_due(interval + 1));
        assert!(rel.patrol_due(2 * interval + 1));

        // Read-only latches once on a host-read fault and refuses writes.
        rel.note_host_read(false, &mut stats);
        assert!(!rel.read_only());
        assert!(!rel.refuse_write(&mut stats));
        rel.note_host_read(true, &mut stats);
        rel.note_host_read(true, &mut stats);
        assert!(rel.read_only());
        assert_eq!(stats.read_only_trips, 1);
        assert!(rel.refuse_write(&mut stats));
        assert_eq!(stats.writes_dropped_read_only, 1);

        // Defaults-off config: nothing triggers.
        let mut off = ReadReliability::new(&FtlConfig::tiny());
        assert!(!off.wants_reclaim(soft));
        assert!(off.scrub_limit().is_none());
        assert!(!off.patrol_due(u64::MAX));
        off.note_host_read(true, &mut stats);
        assert!(!off.read_only());
    }

    #[test]
    fn end_of_life_latch_is_unconditional_and_counts_once() {
        // tiny() has read_only_on_loss off; end-of-life latches anyway.
        let mut rel = ReadReliability::new(&FtlConfig::tiny());
        let mut stats = FtlStats::new();
        assert!(!rel.end_of_life());
        rel.latch_end_of_life(&mut stats);
        rel.latch_end_of_life(&mut stats);
        assert!(rel.end_of_life());
        assert_eq!(stats.end_of_life_trips, 1, "latch counts once per mount");
        assert!(rel.refuse_write(&mut stats));
        assert!(rel.refuse_write(&mut stats));
        assert_eq!(stats.writes_dropped_end_of_life, 2);
        assert_eq!(stats.writes_dropped_read_only, 0);
    }
}
