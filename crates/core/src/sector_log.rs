//! `sectorLogFTL` — the sector-log technique of Jin et al. (SAC 2011), the
//! closest related work the paper discusses (§6).
//!
//! Like subFTL it is a *hybrid-mapping* FTL: small writes are appended to a
//! reserved **log region** with fine-grained (4 KB) mapping while ordinary
//! data lives in a coarse-grained **data region**. The critical difference
//! the paper calls out: the sector log "supports subpage programming at the
//! logical level" only — without ESP, every append to the log physically
//! programs a whole 16 KB page, so a synchronous 4 KB write still wastes
//! 3/4 of a page and "its performance suffers when synchronous small writes
//! occur fairly frequently". Log GC performs *full merges*: every live log
//! sector of a victim's logical pages is read-modify-written back into the
//! data region.
//!
//! Both regions are [`BlockPool`]s: the data region a page pool as in
//! cgmFTL, the log region a subpage-slot pool whose map is the sparse
//! [`SubpageMap`] kept here, with full merges as its relocation routine.
//!
//! Implemented as a fourth [`Ftl`] so the paper's qualitative comparison
//! becomes a measurable experiment (`related_sector_log`).

use esp_nand::Oob;
use esp_sim::{merge_events, EventSink, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::{BlockPool, PageCopy, Relocate};
use crate::buffer::{FlushChunk, WriteBuffer};
use crate::config::FtlConfig;
use crate::read_path::{note_read_result, ReadReliability};
use crate::runner::Ftl;
use crate::stats::FtlStats;
use crate::sub_map::{SubEntry, SubpageMap};

/// The sector-log baseline FTL (see module docs).
///
/// # Examples
///
/// ```
/// use esp_core::{Ftl, FtlConfig, SectorLogFtl};
/// use esp_sim::SimTime;
///
/// let mut ftl = SectorLogFtl::new(&FtlConfig::tiny());
/// // A synchronous 4 KB write appends to the log: one full-page program.
/// ftl.write(0, 1, true, SimTime::ZERO);
/// assert_eq!(ftl.ssd().device().stats().full_programs, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SectorLogFtl {
    ssd: Ssd,
    /// Coarse-grained data region (a page pool, as in cgmFTL).
    data: BlockPool,
    /// Log region: a subpage-slot pool mapped by `log_map`.
    log: BlockPool,
    /// Fine-grained log map: lsn → log location.
    log_map: SubpageMap,
    buffer: WriteBuffer,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
    nsub: u32,
    /// Background GC into host idle windows (`FtlConfig::background_gc`).
    background_gc: bool,
    /// Max−min effective-P/E spread that triggers a rotation.
    wear_delta: u32,
    /// Device erase count at which the next wear-spread check runs.
    next_wear_check: u64,
    reliability: ReadReliability,
    /// Reused full-page read buffer and OOB staging for log merges, log
    /// appends and grouped host reads, so those hot paths allocate nothing
    /// per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
    chunks_scratch: Vec<FlushChunk>,
    /// Reused logical pages of a merge victim.
    lpns_scratch: Vec<u64>,
    /// Reused `(lsn, host origin)` log residue of a flush chunk.
    residues_scratch: Vec<(u64, bool)>,
}

/// Log blocks on each chip: the share subFTL gives its subpage region
/// (`subpage_region_fraction`), for a like-for-like comparison. The first
/// blocks of every chip form the log region.
fn log_blocks_per_chip(config: &FtlConfig) -> u32 {
    let bpc = config.geometry.blocks_per_chip;
    ((f64::from(bpc) * config.subpage_region_fraction).round() as u32).clamp(2, bpc - 1)
}

/// The log region's refill rule: the chip's first free block or, with wear
/// leveling on, its least-worn one (lowest index among equals) so erase
/// cycles spread across the region.
fn log_refill(log: &BlockPool, chip: usize, ssd: &Ssd) -> Option<usize> {
    let mut on_chip = log.free_on_chip(chip);
    let pick = if log.wear_leveling() {
        on_chip.min_by_key(|&(_, b)| (log.block_pe(b, ssd), b))
    } else {
        on_chip.next()
    };
    pick.map(|(pos, _)| pos)
}

/// Drops the log copy of `lsn`, if any.
fn unmap_log(log: &mut BlockPool, log_map: &mut SubpageMap, lsn: u64) {
    if let Some(e) = log_map.remove(lsn) {
        let ptr = log.pack(e.block, e.page, u32::from(e.slot));
        debug_assert!(log.is_valid(ptr));
        log.clear_valid(ptr);
    }
}

/// The log region's relocation: a full merge of every logical page with a
/// live sector in the victim back into the data region.
struct LogMerge<'a> {
    data: &'a mut BlockPool,
    log_map: &'a mut SubpageMap,
    reliability: &'a mut ReadReliability,
    slots: &'a mut Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs: &'a mut Vec<Option<Oob>>,
    lpns: &'a mut Vec<u64>,
    /// Minimum wear gain of a log-for-data block swap.
    wear_delta: u32,
}

impl LogMerge<'_> {
    /// Full merge of one logical page: gather its sectors (live log copies
    /// first, then the old data-region page), program a fresh data page,
    /// and drop the log entries. When the data region is exhausted the log
    /// entries stay mapped (they are sole copies) and end of life latches.
    fn merge_lpn(
        &mut self,
        log: &mut BlockPool,
        lpn: u64,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let page_sz = u64::from(SECTORS_PER_PAGE);
        self.oobs.clear();
        self.oobs.resize(SECTORS_PER_PAGE as usize, None);
        let mut now = issue;
        let mut from_log = 0u64;
        for slot in 0..page_sz {
            let lsn = lpn * page_sz + slot;
            if let Some(e) = self.log_map.get(lsn) {
                let addr = log.page_of(e.block, e.page, ssd).subpage(e.slot);
                let (r, t) = ssd.read_subpage(addr, now);
                now = t;
                note_read_result(&r, lsn, stats);
                if let Ok(oob) = r {
                    self.oobs[slot as usize] = Some(oob);
                    from_log += 1;
                }
            }
        }
        if let Some(ptr) = self.data.lookup(lpn) {
            let addr = self.data.page_addr(ptr, ssd);
            now = ssd.read_full_into(addr, now, self.slots);
            for (slot, r) in self.slots.iter().enumerate() {
                if self.oobs[slot].is_none() {
                    if let Ok(oob) = r {
                        self.oobs[slot] = Some(*oob);
                    }
                }
            }
            stats.rmw_operations += 1;
        }
        now = match self.data.try_program_page(lpn, self.oobs, ssd, stats, now) {
            Ok(t) => t,
            Err(_) => {
                self.reliability.latch_end_of_life(stats);
                return now;
            }
        };
        for slot in 0..page_sz {
            unmap_log(log, self.log_map, lpn * page_sz + slot);
        }
        stats.gc_copied_sectors += from_log;
        stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        now
    }
}

impl Relocate for LogMerge<'_> {
    fn relocate(
        &mut self,
        log: &mut BlockPool,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        stats.gc_invocations += 1;
        log.emit_collect("log_merge", victim, issue);
        let mut now = issue;
        self.lpns.clear();
        for page in 0..log.pages_per_block() {
            if !log.page_has_valid(victim, page) {
                continue;
            }
            let addr = log.page_of(victim, page, ssd);
            now = ssd.read_full_into(addr, now, self.slots);
            if ssd.halted() {
                // Power died mid-merge: surviving log copies stay where
                // they are on flash; this half-done merge dies with DRAM.
                return now;
            }
            for (slot, r) in self.slots.iter().enumerate() {
                if log.is_valid(log.pack(victim, page, slot as u32)) {
                    let oob = r.as_ref().expect("valid log sector must be readable");
                    self.lpns.push(oob.lsn / u64::from(SECTORS_PER_PAGE));
                }
            }
        }
        self.lpns.sort_unstable();
        self.lpns.dedup();
        for i in 0..self.lpns.len() {
            let lpn = self.lpns[i];
            now = self.merge_lpn(log, lpn, ssd, stats, now);
        }
        now
    }

    /// The merge lands in the data region, whatever room the log has.
    fn fits(&self, _log: &BlockPool, _victim: u32) -> bool {
        true
    }

    /// Static rotation levels wear across both regions.
    fn outside_max_pe(&self, ssd: &Ssd) -> u32 {
        self.data.wear_spread(ssd).map_or(0, |(_, hi)| hi)
    }

    /// With wear leveling on, trades the hottest erased log block for the
    /// data region's coldest free block. The log pool churns orders of
    /// magnitude faster than data blocks pinned under cold pages, so
    /// without this cross-region exchange the handful of log blocks absorb
    /// the device's whole erase budget on their own.
    fn after_erase(&mut self, log: &mut BlockPool, ssd: &Ssd, stats: &mut FtlStats) {
        if !log.wear_leveling() {
            return;
        }
        let Some(pos) = log.most_worn_free(ssd) else {
            return;
        };
        let worn_gbi = log.free_gbi(pos);
        let Some(fresh_gbi) = self.data.swap_free_block(worn_gbi, self.wear_delta, ssd) else {
            return;
        };
        log.exchange_free(pos, fresh_gbi);
        stats.wear_swaps += 1;
    }
}

impl SectorLogFtl {
    /// Builds a sector-log FTL over the configured device, giving the log
    /// region the same share of blocks subFTL gives its subpage region
    /// (`subpage_region_fraction`), for a like-for-like comparison.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    #[must_use]
    pub fn new(config: &FtlConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid FTL config: {e}"));
        let ssd = Ssd::with_planes(
            config.geometry.clone(),
            config.timing.clone(),
            config.retention.clone(),
            config.planes_per_chip,
        );
        Self::with_ssd(config, ssd)
    }

    /// Builds the FTL structures over an existing (possibly non-empty)
    /// device with the default region layout; mapping state starts empty —
    /// see [`SectorLogFtl::recover`] for rebuilding it from flash contents.
    pub(crate) fn with_ssd(config: &FtlConfig, mut ssd: Ssd) -> Self {
        if let Some(f) = &config.fault {
            ssd.device_mut().set_faults(f.clone());
        }
        ssd.device_mut()
            .set_retry_ladder(config.retry_ladder.clone());
        ssd.device_mut().set_adaptive_erase(config.adaptive_erase);
        let g = &config.geometry;
        let bpc = g.blocks_per_chip;
        let log_per_chip = log_blocks_per_chip(config);
        let mut log_gbis = Vec::new();
        let mut data_gbis = Vec::new();
        for chip in 0..g.chip_count() {
            for b in 0..bpc {
                let gbi = chip * bpc + b;
                if b < log_per_chip {
                    log_gbis.push(gbi);
                } else {
                    data_gbis.push(gbi);
                }
            }
        }
        let logical_sectors = config.logical_sectors();
        let lpn_count = logical_sectors / u64::from(SECTORS_PER_PAGE);
        let mut data = BlockPool::new(
            data_gbis,
            g.pages_per_block,
            bpc,
            lpn_count,
            config.gc_free_watermark,
        );
        let map_capacity = log_gbis.len() * (g.pages_per_block * g.subpages_per_page) as usize;
        let mut log = BlockPool::with_slots(
            log_gbis,
            g.pages_per_block,
            g.subpages_per_page,
            bpc,
            0,
            config.gc_free_watermark,
        );
        log.set_refill(log_refill);
        for pool in [&mut data, &mut log] {
            pool.set_wear_leveling(config.wear_leveling);
            pool.set_gc_policy(config.gc_policy);
        }
        // Exclude factory-marked bad blocks from whichever region owns them.
        let mut stats = FtlStats::new();
        for gbi in ssd.device().bad_block_indices() {
            if data.retire_gbi(gbi) || log.retire_gbi(gbi) {
                stats.blocks_retired += 1;
            }
        }
        SectorLogFtl {
            ssd,
            data,
            log,
            log_map: SubpageMap::with_capacity(map_capacity.max(1)),
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats,
            seq: 0,
            logical_sectors,
            nsub: g.subpages_per_page,
            background_gc: config.background_gc,
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            reliability: ReadReliability::new(config),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            chunks_scratch: Vec::new(),
            lpns_scratch: Vec::new(),
            residues_scratch: Vec::new(),
        }
    }

    /// Rebuilds a sector-log FTL from the contents of a previously written
    /// device (power-loss recovery). The region split is structural (the
    /// same per-chip shares `with_ssd` uses), so each scanned block's
    /// contents are re-attributed to its region: the data region maps each
    /// logical page to its newest readable copy, and a log entry survives
    /// only while it is strictly newer than the data-region copy of the
    /// same sector (merges copy log data into the data region preserving
    /// sequence numbers, so on a tie the full-page copy wins). Torn pages
    /// found by the scan are quarantined and counted. DRAM-buffered data
    /// that was never flushed is gone, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or does not match the
    /// device's geometry.
    #[must_use]
    pub fn recover(mut ssd: Ssd, config: &FtlConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid FTL config: {e}"));
        assert_eq!(
            *ssd.geometry(),
            config.geometry,
            "recovery config geometry mismatch"
        );
        if let Some(f) = &config.fault {
            ssd.device_mut().set_faults(f.clone());
        }
        let scan = crate::recovery::scan_device(&mut ssd);
        let scans = scan.blocks;
        let bpc = config.geometry.blocks_per_chip;
        let log_per_chip = log_blocks_per_chip(config);
        let mut ftl = Self::with_ssd(config, ssd);
        ftl.stats.torn_pages_quarantined = scan.torn_pages;
        let page_sz = u64::from(SECTORS_PER_PAGE);

        // Split the scan back into the structural regions: the data region
        // rebuilds like cgmFTL, the log keeps its newest copy per lsn.
        let is_log = |gbi: usize| (gbi as u32 % bpc) < log_per_chip;
        let mut max_seq = ftl.data.restore_from_scan(
            scans
                .iter()
                .enumerate()
                .filter(|&(gbi, _)| !is_log(gbi))
                .map(|(_, scan)| scan),
        );
        #[derive(Clone, Copy)]
        struct LogCand {
            seq: u64,
            block: u32,
            page: u32,
            slot: u8,
            written_at: SimTime,
        }
        let mut best_log: Vec<Option<LogCand>> = vec![None; ftl.logical_sectors as usize];
        let mut log_programmed = Vec::new();
        for (gbi, scan) in scans.iter().enumerate().filter(|&(gbi, _)| is_log(gbi)) {
            let local = log_programmed.len() as u32;
            log_programmed.push(scan.programmed_pages());
            for (p, page) in scan.pages.iter().enumerate() {
                for slot in &page.live {
                    max_seq = max_seq.max(slot.seq);
                    if slot.lsn >= ftl.logical_sectors {
                        continue;
                    }
                    let e = &mut best_log[slot.lsn as usize];
                    if e.is_none_or(|c| slot.seq > c.seq) {
                        *e = Some(LogCand {
                            seq: slot.seq,
                            block: local,
                            page: p as u32,
                            slot: slot.slot,
                            written_at: slot.written_at,
                        });
                    }
                }
            }
            debug_assert_eq!(ftl.log.gbi(local), gbi as u32);
        }

        // Per-sector sequence number of the chosen data-region copy, used
        // to drop log entries the merges already superseded.
        let mut data_seq = vec![0u64; ftl.logical_sectors as usize];
        for lpn in 0..ftl.logical_sectors / page_sz {
            let Some(ptr) = ftl.data.lookup(lpn) else {
                continue;
            };
            let gbi = ftl.data.gbi(ptr.block);
            for slot in &scans[gbi as usize].pages[ptr.page as usize].live {
                if slot.lsn < ftl.logical_sectors {
                    data_seq[slot.lsn as usize] = data_seq[slot.lsn as usize].max(slot.seq);
                }
            }
        }
        ftl.log.restore_state(&log_programmed, &[]);
        for (lsn, entry) in best_log.iter().enumerate() {
            let Some(c) = *entry else {
                continue;
            };
            if c.seq <= data_seq[lsn] {
                continue; // merged into the data region already
            }
            ftl.log_map.insert(
                lsn as u64,
                SubEntry {
                    block: c.block,
                    page: c.page,
                    slot: c.slot,
                    updated: false,
                    written_at: c.written_at,
                },
            );
            let ptr = ftl.log.pack(c.block, c.page, u32::from(c.slot));
            ftl.log.set_valid(ptr);
        }
        ftl.seq = max_seq;
        ftl
    }

    pub(crate) fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Allocation-state digest for the crash harness's idempotence check:
    /// the log region's fingerprint, then the data region's (see
    /// `BlockPool::pool_fingerprint`).
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        let mut out = self.log.pool_fingerprint();
        out.push(u64::MAX);
        out.extend(self.data.pool_fingerprint());
        out
    }

    /// Asserts both regions' pool invariants (see
    /// [`BlockPool::check_invariants`]); the log's map is the sparse log
    /// map. Intended for tests; panics on violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.data.check_invariants([]);
        self.log.check_invariants(
            self.log_map
                .iter()
                .map(|(_, e)| self.log.pack(e.block, e.page, u32::from(e.slot))),
        );
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The log pool, its merge routine and the device, borrowed apart so
    /// the pool can run merges.
    fn merge_parts(&mut self) -> (&mut BlockPool, LogMerge<'_>, &mut Ssd, &mut FtlStats) {
        let SectorLogFtl {
            ssd,
            data,
            log,
            log_map,
            stats,
            reliability,
            slots_scratch,
            oobs_scratch,
            lpns_scratch,
            wear_delta,
            ..
        } = self;
        let merge = LogMerge {
            data,
            log_map,
            reliability,
            slots: slots_scratch,
            oobs: oobs_scratch,
            lpns: lpns_scratch,
            wear_delta: *wear_delta,
        };
        (log, merge, ssd, stats)
    }

    /// Appends up to `N_sub` sectors of one chunk into one log page. A
    /// program that reports status fail is retried on the next log page.
    fn log_append(&mut self, group: &[(u64, bool)], issue: SimTime) -> SimTime {
        debug_assert!(!group.is_empty() && group.len() <= self.nsub as usize);
        let now = self.ensure_log_space(issue);
        let mut oobs = std::mem::take(&mut self.oobs_scratch);
        oobs.clear();
        oobs.resize(self.nsub as usize, None);
        for (slot, &(lsn, _)) in group.iter().enumerate() {
            let seq = self.next_seq();
            oobs[slot] = Some(Oob { lsn, seq });
        }
        let programmed = self.log.program(&oobs, &mut self.ssd, &mut self.stats, now);
        self.oobs_scratch = oobs;
        let (block, page, done) = match programmed {
            Ok(at) => at,
            Err(now) => {
                if !self.ssd.halted() {
                    // End of life: the log region has no appendable page
                    // left. Drop the append (old copies stay mapped) and
                    // latch the refusal so subsequent writes are dropped.
                    self.reliability.latch_end_of_life(&mut self.stats);
                }
                return now;
            }
        };
        for (slot, &(lsn, _)) in group.iter().enumerate() {
            unmap_log(&mut self.log, &mut self.log_map, lsn);
            self.log_map.insert(
                lsn,
                SubEntry {
                    block,
                    page,
                    slot: slot as u8,
                    updated: false,
                    written_at: done,
                },
            );
            let ptr = self.log.pack(block, page, slot as u32);
            self.log.set_valid(ptr);
        }
        self.stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
        let share = f64::from(SECTORS_PER_PAGE) / group.len() as f64;
        for &(_, origin) in group {
            if origin {
                self.stats.small_waf_flash_sectors += share;
            }
        }
        done
    }

    /// Merges log victims until the log's free pool is back at its
    /// watermark. Log pressure never sheds the watermark: when the data
    /// region cannot absorb a merge, end of life latches instead.
    fn ensure_log_space(&mut self, issue: SimTime) -> SimTime {
        let mut now = issue;
        while !self.ssd.halted() && self.log.free_blocks() < self.log.watermark() {
            // A shrunken log region (retired bad blocks) may dip below the
            // watermark before any block has filled; merge what exists and
            // let the allocator keep appending to the open blocks.
            let Some(victim) = self.log.pick_victim(&self.ssd) else {
                break;
            };
            match self.merge_block(victim, now) {
                Some(done) => now = done,
                None => {
                    // The data region is exhausted, so the merge could not
                    // drain the victim: retrying would livelock. Latch end
                    // of life and degrade to refusing writes instead.
                    self.reliability.latch_end_of_life(&mut self.stats);
                    break;
                }
            }
        }
        now
    }

    /// Merges one log block back into the data region and erases it.
    /// Returns `None` when the data region was too exhausted to drain the
    /// victim (the log copies stay where they are, nothing is erased).
    fn merge_block(&mut self, victim: u32, issue: SimTime) -> Option<SimTime> {
        let (log, mut merge, ssd, stats) = self.merge_parts();
        let now = log.collect(&mut merge, victim, ssd, stats, issue);
        (self.log.valid_count(victim) == 0 || self.ssd.halted()).then_some(now)
    }

    /// Flushes chunks: aligned 16 KB units go straight to the data region,
    /// residues append to the log (per-chunk packing, like the FGM buffer).
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime {
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        let mut residues = std::mem::take(&mut self.residues_scratch);
        for chunk in chunks.drain(..) {
            let (lo, hi) = (chunk.start_lsn, chunk.end_lsn());
            let aligned_lo = lo.div_ceil(page_sz) * page_sz;
            let aligned_hi = (hi / page_sz) * page_sz;
            let origin = |lsn: u64| chunk.origins[(lsn - chunk.start_lsn) as usize];
            residues.clear();
            if aligned_lo + page_sz <= aligned_hi {
                residues.extend((lo..aligned_lo).map(|l| (l, origin(l))));
                for lpn in aligned_lo / page_sz..aligned_hi / page_sz {
                    self.oobs_scratch.clear();
                    for slot in 0..page_sz {
                        let seq = self.next_seq();
                        self.oobs_scratch.push(Some(Oob {
                            lsn: lpn * page_sz + slot,
                            seq,
                        }));
                    }
                    let t = match self.data.try_program_page(
                        lpn,
                        &self.oobs_scratch,
                        &mut self.ssd,
                        &mut self.stats,
                        issue,
                    ) {
                        Ok(t) => t,
                        Err(_) => {
                            // End of life: the flush has nowhere to land;
                            // any older copies (data or log) stay mapped.
                            self.reliability.latch_end_of_life(&mut self.stats);
                            continue;
                        }
                    };
                    done = done.max(t);
                    for slot in 0..page_sz {
                        let lsn = lpn * page_sz + slot;
                        unmap_log(&mut self.log, &mut self.log_map, lsn);
                        if origin(lsn) {
                            self.stats.small_waf_flash_sectors += 1.0;
                        }
                    }
                }
                residues.extend((aligned_hi..hi).map(|l| (l, origin(l))));
            } else {
                residues.extend((lo..hi).map(|l| (l, origin(l))));
            }
            for group in residues.chunks(self.nsub as usize) {
                let t = self.log_append(group, issue);
                done = done.max(t);
            }
            self.buffer.recycle(chunk);
        }
        self.residues_scratch = residues;
        done
    }
}

impl Ftl for SectorLogFtl {
    fn name(&self) -> &'static str {
        "sectorLogFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.log.enable_tracing(capacity);
        self.data.enable_tracing(capacity);
        self.ssd.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        merge_events(&[self.log.trace(), self.data.trace(), self.ssd.trace()])
    }

    fn events_dropped(&self) -> u64 {
        self.log.trace().dropped() + self.data.trace().dropped() + self.ssd.trace().dropped()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        assert!(
            lsn + u64::from(sectors) <= self.logical_sectors,
            "write beyond logical capacity"
        );
        if self.ssd.device_failed() {
            // A failed device executes nothing; the shard is inert.
            return issue;
        }
        if self.reliability.refuse_write(&mut self.stats) {
            return issue;
        }
        self.stats.host_write_requests += 1;
        self.stats.host_write_sectors += u64::from(sectors);
        let small = sectors < SECTORS_PER_PAGE;
        if small {
            self.stats.small_write_requests += 1;
            self.stats.small_waf_host_sectors += u64::from(sectors);
        }
        self.buffer.insert(lsn, sectors, small);
        if sync {
            let mut chunks = std::mem::take(&mut self.chunks_scratch);
            self.buffer.take_overlapping_into(lsn, sectors, &mut chunks);
            let done = self.flush_chunks(&mut chunks, issue);
            self.chunks_scratch = chunks;
            done
        } else if self.buffer.is_full() {
            let mut chunks = std::mem::take(&mut self.chunks_scratch);
            self.buffer.drain_all_into(&mut chunks);
            self.flush_chunks(&mut chunks, issue);
            self.chunks_scratch = chunks;
            issue
        } else {
            issue
        }
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        if self.ssd.device_failed() {
            return issue;
        }
        self.stats.host_read_requests += 1;
        self.stats.host_read_sectors += u64::from(sectors);
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let (lo, hi) = (lsn, lsn + u64::from(sectors));
        let mut done = issue;
        let mut faulted = false;
        // Logical pages whose read climbed past the reclaim threshold, and
        // whether the costly copy lives in the log (second element true).
        let mut reclaim: Vec<(u64, bool)> = Vec::new();
        for lpn in lo / page_sz..=(hi - 1) / page_sz {
            let s_lo = lo.max(lpn * page_sz);
            let s_hi = hi.min((lpn + 1) * page_sz);
            // At most one page's worth of sectors: a stack buffer keeps
            // this per-page loop allocation-free.
            let mut from_data = [0u64; SECTORS_PER_PAGE as usize];
            let mut n = 0usize;
            for s in s_lo..s_hi {
                if self.buffer.contains(s) {
                    continue;
                }
                if let Some(e) = self.log_map.get(s) {
                    let addr = self.log.page_of(e.block, e.page, &self.ssd).subpage(e.slot);
                    let (r, effort, t) = self.ssd.read_subpage_graded(addr, issue);
                    faulted |= note_read_result(&r, s, &mut self.stats);
                    if self.reliability.wants_reclaim(effort) {
                        reclaim.push((lpn, true));
                    }
                    done = done.max(t);
                } else {
                    from_data[n] = s;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let Some(ptr) = self.data.lookup(lpn) else {
                continue;
            };
            let addr = self.data.page_addr(ptr, &self.ssd);
            let effort = if n >= 2 {
                let (effort, t) =
                    self.ssd
                        .read_full_graded_into(addr, issue, &mut self.slots_scratch);
                for &s in &from_data[..n] {
                    faulted |= note_read_result(
                        &self.slots_scratch[(s % page_sz) as usize],
                        s,
                        &mut self.stats,
                    );
                }
                done = done.max(t);
                effort
            } else {
                let s = from_data[0];
                let (r, effort, t) = self
                    .ssd
                    .read_subpage_graded(addr.subpage((s % page_sz) as u8), issue);
                faulted |= note_read_result(&r, s, &mut self.stats);
                done = done.max(t);
                effort
            };
            if self.reliability.wants_reclaim(effort) {
                reclaim.push((lpn, false));
            }
        }
        self.reliability.note_host_read(faulted, &mut self.stats);
        // One relocation per logical page; if any costly copy was a log
        // entry, a full merge handles both regions at once.
        reclaim.sort_unstable_by_key(|&(lpn, via_log)| (lpn, !via_log));
        reclaim.dedup_by_key(|e| e.0);
        for (lpn, via_log) in reclaim {
            done = if via_log {
                let at = done.as_nanos();
                let (log, mut merge, ssd, stats) = self.merge_parts();
                let t = merge.merge_lpn(log, lpn, ssd, stats, done);
                self.log.trace_mut().emit(|| {
                    TraceEvent::new(at, "gc.reclaim")
                        .tag("read_reclaim")
                        .field("lpn", lpn)
                });
                self.stats.read_reclaims += 1;
                t
            } else {
                self.data
                    .reclaim_page(lpn, &mut self.ssd, &mut self.stats, done)
            };
        }
        done
    }

    fn maintain(&mut self, now: SimTime) {
        if self.ssd.device_failed() {
            return;
        }
        // The patrol covers the data region; disturbed log entries are
        // relocated through full merges when their reads climb the ladder.
        let reads = self.ssd.device().stats().reads;
        if self.reliability.patrol_due(reads) {
            if let Some(limit) = self.reliability.scrub_limit() {
                self.data.scrub_disturbed(
                    &mut PageCopy,
                    &mut self.ssd,
                    &mut self.stats,
                    limit,
                    now,
                );
            }
        }
        if self.data.wear_leveling() {
            let erases = self.ssd.device().stats().erases;
            if erases >= self.next_wear_check {
                self.next_wear_check = erases + 16;
                let delta = self.wear_delta;
                self.data
                    .wear_rotate(&mut PageCopy, &mut self.ssd, &mut self.stats, now, delta);
                // A log block packed with valid cold sectors is never a
                // profitable merge victim, so it can pin a lightly-worn
                // block forever; rotation force-merges it. End of life
                // stops it (the merge would have nowhere to land).
                if !self.reliability.end_of_life() {
                    let (log, mut merge, ssd, stats) = self.merge_parts();
                    log.wear_rotate(&mut merge, ssd, stats, now, delta);
                }
            }
        }
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        if self.ssd.device_failed() {
            return issue;
        }
        let mut chunks = std::mem::take(&mut self.chunks_scratch);
        self.buffer.drain_all_into(&mut chunks);
        let done = self.flush_chunks(&mut chunks, issue);
        self.chunks_scratch = chunks;
        done
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        if !self.background_gc || self.ssd.device_failed() {
            return;
        }
        // Refill the data-region pool first, then pre-merge log blocks: a
        // merge only starts if its estimate fits the remaining window. The
        // log never sheds its watermark, so it is still the configured one.
        let target = self.log.watermark() + 2;
        let mut now = self.data.background_collect(
            &mut PageCopy,
            &mut self.ssd,
            &mut self.stats,
            from,
            until,
            target,
        );
        use esp_nand::OpKind;
        let per_page = self.ssd.device().op_cost(OpKind::ReadFull).total()
            + self.ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = self.ssd.device().op_cost(OpKind::Erase).total();
        while !self.ssd.halted() && self.log.free_blocks() < target {
            let Some(victim) = self.log.pick_victim(&self.ssd) else {
                break;
            };
            let valid = self.log.valid_count(victim);
            if valid >= self.log.slots_per_block() {
                break; // nothing reclaimable
            }
            let estimate = per_page * u64::from(valid.div_ceil(self.nsub).max(1) + 1) + erase;
            if now + estimate > until {
                break;
            }
            match self.merge_block(victim, now) {
                Some(done) if !self.ssd.halted() => now = done,
                _ => break,
            }
        }
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.buffer.discard(lsn, sectors);
        for s in lsn..lsn + u64::from(sectors) {
            unmap_log(&mut self.log, &mut self.log_map, s);
        }
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let first_full = lsn.div_ceil(page_sz);
        let last_full = (lsn + u64::from(sectors)) / page_sz;
        for lpn in first_full..last_full {
            self.data.unmap(lpn);
        }
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.data.mapping_bytes() + self.log_map.memory_bytes() as u64
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        if self.buffer.contains(lsn) {
            return None;
        }
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let addr = if let Some(e) = self.log_map.peek(lsn) {
            self.log.page_of(e.block, e.page, &self.ssd).subpage(e.slot)
        } else {
            let ptr = self.data.lookup(lsn / page_sz)?;
            self.data
                .page_addr(ptr, &self.ssd)
                .subpage((lsn % page_sz) as u8)
        };
        match self.ssd.device().subpage_state(addr) {
            esp_nand::SubpageState::Written(w) => w.oob.filter(|o| o.lsn == lsn).map(|o| o.seq),
            _ => None,
        }
    }

    fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn end_of_life(&self) -> bool {
        self.reliability.end_of_life()
    }

    fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    fn fail_device(&mut self) {
        self.ssd.device_mut().kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_trace;
    use esp_workload::{generate, SyntheticConfig};

    fn tiny_ftl() -> SectorLogFtl {
        SectorLogFtl::new(&FtlConfig::tiny())
    }

    #[test]
    fn sync_small_write_fragments_a_log_page() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 1, true, SimTime::ZERO);
        // No ESP: the log append programs a whole 16 KB page.
        assert_eq!(ftl.ssd().device().stats().full_programs, 1);
        assert_eq!(ftl.ssd().device().stats().subpage_programs, 0);
        assert!((ftl.stats().small_request_waf() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn aligned_large_write_goes_to_data_region() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        assert_eq!(ftl.stats().rmw_operations, 0);
        assert!(ftl.stored_seq(2).is_some());
    }

    #[test]
    fn log_hit_shadows_stale_data_copy() {
        let mut ftl = tiny_ftl();
        let mut t = ftl.write(0, 4, true, SimTime::ZERO); // data region
        let v1 = ftl.stored_seq(1).unwrap();
        t = ftl.write(1, 1, true, t); // newer copy in the log
        assert!(ftl.stored_seq(1).unwrap() > v1);
        ftl.read(0, 4, t);
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn log_gc_merges_back_to_data_region() {
        let mut ftl = tiny_ftl();
        let mut t = SimTime::ZERO;
        // Churn small writes until log GC (full merge) fires.
        for i in 0..4_000u64 {
            t = ftl.write(i % 24, 1, true, t);
            if ftl.stats().gc_invocations > 0 {
                break;
            }
        }
        assert!(ftl.stats().gc_invocations > 0, "log merge never fired");
        assert!(
            ftl.stats().gc_flash_sectors > 0,
            "merges must program data-region pages"
        );
        for lsn in 0..24 {
            ftl.read(lsn, 1, t);
        }
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn survives_mixed_workload() {
        let mut ftl = tiny_ftl();
        let cfg = SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 3_000,
            r_small: 0.8,
            r_synch: 0.9,
            read_fraction: 0.2,
            zipf_theta: 0.8,
            seed: 5,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert_eq!(report.stats.read_faults, 0);
        assert!(report.iops > 0.0);
    }

    #[test]
    fn survives_faults_and_factory_bad_blocks() {
        let mut config = FtlConfig::tiny();
        config.fault = Some(esp_nand::FaultConfig {
            seed: 23,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.001,
            factory_bad_blocks: 1,
            ..esp_nand::FaultConfig::default()
        });
        let mut ftl = SectorLogFtl::new(&config);
        assert_eq!(ftl.stats().blocks_retired, 1);
        let cfg = SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 2_000,
            r_small: 0.5,
            r_synch: 1.0,
            zipf_theta: 0.5,
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert_eq!(
            report.stats.read_faults, 0,
            "faults must never corrupt reads"
        );
        assert!(report.stats.write_retries > 0, "p=0.02 must force retries");
    }

    #[test]
    fn trim_clears_log_and_data() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        ftl.write(1, 1, true, SimTime::from_secs(1));
        ftl.trim(0, 4);
        assert_eq!(ftl.stored_seq(1), None);
        assert_eq!(ftl.stored_seq(2), None);
    }

    #[test]
    fn fine_mapping_scales_with_log_region_not_logical_space() {
        // The hybrid's fine map is bounded by the log region: growing the
        // device grows fgmFTL's table linearly while the sector log's fine
        // part grows only with the (fractional) log region.
        let small = FtlConfig::tiny();
        let mut big = FtlConfig::tiny();
        big.geometry.blocks_per_chip *= 4;
        let sl_small = SectorLogFtl::new(&small).mapping_memory_bytes();
        let sl_big = SectorLogFtl::new(&big).mapping_memory_bytes();
        let fgm_small = crate::fgm::FgmFtl::new(&small).mapping_memory_bytes();
        let fgm_big = crate::fgm::FgmFtl::new(&big).mapping_memory_bytes();
        // fgm scales with logical sectors (4x); the hybrid grows slower
        // because only its log share is fine-grained.
        assert_eq!(fgm_big, fgm_small * 4);
        assert!(sl_big < sl_small * 4, "hybrid map must grow sublinearly");
    }

    #[test]
    fn hot_reads_stay_correctable_with_ladder_and_reclaim() {
        use esp_nand::{RetentionModel, RetryLadder};
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        let mut ftl = SectorLogFtl::new(&config);
        // One sector in the log, one aligned page in the data region: the
        // hot-read loop disturbs both the log block and the data block.
        let t = ftl.write(0, 1, true, SimTime::ZERO);
        ftl.write(4, 4, true, t);
        let mut now = SimTime::from_secs(1);
        for _ in 0..600 {
            ftl.maintain(now);
            now = ftl.read(0, 1, now);
            now = ftl.read(4, 4, now);
        }
        assert_eq!(ftl.stats().read_faults, 0, "pipeline must keep data alive");
        assert!(
            ftl.stats().read_reclaims > 0 || ftl.stats().disturb_scrubs > 0,
            "mitigation must actually have run"
        );
        assert!(ftl.stored_seq(0).is_some(), "hot sector stays mapped");
        assert!(ftl.stored_seq(5).is_some(), "hot page stays mapped");
    }
}
