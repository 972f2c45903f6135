//! `subFTL` — the paper's ESP-aware FTL (§4).
//!
//! Flash is split into two regions managed differently:
//!
//! * **Subpage region** (20 % of blocks): small writes land here as 4 KB
//!   erase-free subpage programs, mapped by a fine-grained hash table.
//!   Writing follows the lap policy of Fig 7 — the 0th subpages of all
//!   blocks fill up before any 1st subpage is written; advancing a page to
//!   its next subpage level first migrates the page's valid subpage (if
//!   any) into the new level, so no valid data is ever destroyed. At most
//!   one subpage per physical page is ever valid.
//! * **Full-page region** (80 %): managed exactly like cgmFTL
//!   ([`BlockPool`]).
//!
//! Data placement (§4.1): flushed writes shorter than a full page go to the
//! subpage region; page-aligned 16 KB units go to the full-page region;
//! larger non-multiple writes split. Subpage-region GC (§4.2) relocates
//! updated ("hot") subpages into a reserved block and evicts never-updated
//! ("cold") subpages to the full-page region via RMW. Retention management
//! (§4.3) evicts subpages older than 15 days, comfortably inside the
//! 1-month retention capability the device model guarantees for every
//! `Npp` type.

use esp_nand::{Oob, SubpageAddr};
use esp_sim::{merge_events, EventBuffer, EventSink, SimDuration, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::block_pool::{BlockPool, PageCopy};
use crate::buffer::{FlushChunk, WriteBuffer};
use crate::config::{EvictionPolicy, FtlConfig};
use crate::gc_policy::{select_victim, GcPolicyKind, SelectOpts, VictimCandidate};
use crate::read_path::{note_read_result, ReadReliability};
use crate::runner::Ftl;
use crate::stats::FtlStats;
use crate::sub_map::{SubEntry, SubpageMap};

/// One block of the subpage region.
#[derive(Debug, Clone)]
struct SubBlock {
    gbi: u32,
    /// Chip the block lives on (for striped allocation).
    chip: u32,
    /// Current lap: the subpage slot index being written (0..N_sub).
    /// `level == N_sub` means the block is exhausted until erased.
    level: u8,
    /// Next page to program within the current lap.
    cursor: u32,
    /// The LSN of the valid subpage held by each page, if any
    /// (invariant: at most one valid subpage per physical page).
    page_valid: Vec<Option<u64>>,
    valid_count: u32,
    /// Handed to the full-page region by wear leveling; never used again.
    retired: bool,
    /// Monotone stamp taken when the block exhausted its last lap
    /// (`level == N_sub`); 0 means "never stamped this mount" (erased, or
    /// recovered — treated as maximally old by age-aware GC policies).
    closed_seq: u64,
}

impl SubBlock {
    fn new(gbi: u32, chip: u32, pages: u32) -> Self {
        SubBlock {
            gbi,
            chip,
            level: 0,
            cursor: 0,
            page_valid: vec![None; pages as usize],
            valid_count: 0,
            retired: false,
            closed_seq: 0,
        }
    }

    fn is_erased(&self) -> bool {
        self.level == 0 && self.cursor == 0 && self.valid_count == 0
    }
}

/// The ESP-aware FTL (the paper's primary contribution).
///
/// # Examples
///
/// ```
/// use esp_core::{Ftl, FtlConfig, SubFtl};
/// use esp_sim::SimTime;
///
/// let mut ftl = SubFtl::new(&FtlConfig::tiny());
/// // A synchronous 4 KB write costs one 4 KB subpage program — request
/// // WAF 1, no internal fragmentation.
/// ftl.write(0, 1, true, SimTime::ZERO);
/// assert!((ftl.stats().small_request_waf() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SubFtl {
    ssd: Ssd,
    full: BlockPool,
    blocks: Vec<SubBlock>,
    /// One active (open) block per chip, so subpage programs stripe across
    /// chips (the paper develops subFTL "to maximize I/O parallelism of a
    /// multi-channel architecture", §4.2).
    actives: Vec<Option<u32>>,
    rr: usize,
    /// Erased block reserved so GC relocation can always proceed.
    reserve: u32,
    hash: SubpageMap,
    buffer: WriteBuffer,
    stats: FtlStats,
    seq: u64,
    logical_sectors: u64,
    pages_per_block: u32,
    nsub: u32,
    retention_threshold: SimDuration,
    scan_interval: SimDuration,
    last_scan: SimTime,
    wear_delta: u32,
    /// Device erase count at which the next full-region wear-spread check
    /// runs (the spread only changes on erases, so checks are metered).
    next_wear_check: u64,
    gc_batch: u32,
    eviction: EvictionPolicy,
    background_gc: bool,
    /// Victim-selection policy for subpage-region GC (the full-page
    /// region's engine carries its own copy).
    gc_policy: GcPolicyKind,
    /// Source for [`SubBlock::closed_seq`] stamps; starts at 1 so stamp 0
    /// stays reserved for "never closed".
    closed_seq_counter: u64,
    /// Durability-first variants of lap migration, same-sector overwrite,
    /// and GC/scrub handling of buffer-shadowed copies (see
    /// [`FtlConfig::crash_safe_mode`]).
    crash_safe_mode: bool,
    reliability: ReadReliability,
    /// FTL-level event recorder (host ops, subpage-region GC, lap
    /// migrations); disabled (free) by default.
    trace: EventBuffer,
    /// Reused full-page read buffer and OOB staging for eviction RMW and
    /// grouped host reads, so those hot paths allocate nothing per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
    /// Reused subpage-region GC victim candidate list.
    victims: Vec<VictimCandidate>,
    chunks_scratch: Vec<FlushChunk>,
}

impl SubFtl {
    /// Builds a subFTL over the configured device, assigning
    /// `subpage_region_fraction` of each chip's blocks to the subpage
    /// region (spreading the region across all channels preserves I/O
    /// parallelism, as the paper notes for its multi-channel design).
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
    /// see [`SubFtl::recover`] for rebuilding it from flash contents.
    pub(crate) fn with_ssd(config: &FtlConfig, mut ssd: Ssd) -> Self {
        if let Some(f) = &config.fault {
            ssd.device_mut().set_faults(f.clone());
        }
        ssd.device_mut()
            .set_retry_ladder(config.retry_ladder.clone());
        ssd.device_mut().set_adaptive_erase(config.adaptive_erase);
        let g = &config.geometry;
        let bpc = g.blocks_per_chip;
        let sub_per_chip =
            ((f64::from(bpc) * config.subpage_region_fraction).round() as u32).clamp(2, bpc - 1);
        let mut sub_gbis = Vec::new();
        let mut full_gbis = Vec::new();
        for chip in 0..g.chip_count() {
            for b in 0..bpc {
                let gbi = chip * bpc + b;
                if b < sub_per_chip {
                    sub_gbis.push(gbi);
                } else {
                    full_gbis.push(gbi);
                }
            }
        }
        let logical_sectors = config.logical_sectors();
        let lpn_count = logical_sectors / u64::from(SECTORS_PER_PAGE);
        let mut full = BlockPool::new(
            full_gbis,
            g.pages_per_block,
            g.blocks_per_chip,
            lpn_count,
            config.gc_free_watermark,
        );
        full.set_wear_leveling(config.wear_leveling);
        full.set_gc_policy(config.gc_policy);
        let blocks: Vec<SubBlock> = sub_gbis
            .iter()
            .map(|&gbi| SubBlock::new(gbi, gbi / bpc, g.pages_per_block))
            .collect();
        let chips = g.chip_count() as usize;
        let mut ftl = SubFtl {
            ssd,
            full,
            blocks,
            actives: vec![None; chips],
            rr: 0,
            reserve: 0,
            hash: SubpageMap::with_capacity(sub_gbis.len() * g.pages_per_block as usize),
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats: FtlStats::new(),
            seq: 0,
            logical_sectors,
            pages_per_block: g.pages_per_block,
            nsub: g.subpages_per_page,
            retention_threshold: config.retention_threshold,
            scan_interval: config.retention_scan_interval,
            last_scan: SimTime::ZERO,
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            gc_batch: config.subpage_gc_batch,
            eviction: config.eviction_policy,
            background_gc: config.background_gc,
            gc_policy: config.gc_policy,
            closed_seq_counter: 1,
            crash_safe_mode: config.crash_safe_mode,
            reliability: ReadReliability::new(config),
            trace: EventBuffer::disabled(),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            victims: Vec::new(),
            chunks_scratch: Vec::new(),
        };
        // Exclude factory-marked and previously grown bad blocks from
        // whichever region owns them; the reserve must stay usable.
        for gbi in ftl.ssd.device().bad_block_indices() {
            if ftl.full.retire_gbi(gbi) {
                ftl.stats.blocks_retired += 1;
            } else if let Some(local) = ftl.blocks.iter().position(|b| b.gbi == gbi && !b.retired) {
                ftl.blocks[local].retired = true;
                ftl.stats.blocks_retired += 1;
            }
        }
        if ftl.blocks[ftl.reserve as usize].retired {
            ftl.reserve =
                ftl.blocks
                    .iter()
                    .position(|b| !b.retired && b.is_erased())
                    .expect("subpage region has no usable reserve block") as u32;
        }
        ftl
    }

    /// Rebuilds a subFTL from the contents of a previously written device
    /// (power-loss recovery).
    ///
    /// Block roles are *inferred from the program pattern* — the paper
    /// decides a block's type "at the program time, not at the design
    /// time" (§4.2): blocks with erase-free subpage programs rebuild as
    /// subpage-region blocks (lap level and cursor reconstructed from
    /// per-page program counts), whole-page-programmed blocks rebuild as
    /// full-page region, and erased blocks are dealt to each region to
    /// restore the configured split. For every sector, the newest readable
    /// copy wins; ties between a subpage copy and a full-page copy go to
    /// the full-page copy (evictions and RMWs carry their source's
    /// sequence number). The `updated` hot/cold flags are not persisted
    /// and restart cold; retention clocks come from the spare-area program
    /// timestamps, so scrubbing deadlines survive the crash.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, does not match the device's
    /// geometry, or the device's erased blocks cannot supply a GC reserve.
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
        ssd.device_mut()
            .set_retry_ladder(config.retry_ladder.clone());
        ssd.device_mut().set_adaptive_erase(config.adaptive_erase);
        use crate::recovery::{scan_device, ScannedKind};
        let scan = scan_device(&mut ssd);
        let torn_pages = scan.torn_pages;
        let scans = scan.blocks;
        let g = &config.geometry;
        let bpc = g.blocks_per_chip;
        let sub_target =
            ((f64::from(bpc) * config.subpage_region_fraction).round() as u32).clamp(2, bpc - 1);

        // Deal blocks to regions chip by chip: scanned roles are fixed;
        // erased blocks fill the subpage region up to its share first.
        // Bad blocks (factory-marked or grown) join neither region.
        let mut retired = 0u64;
        let mut sub_gbis: Vec<u32> = Vec::new();
        let mut full_gbis: Vec<u32> = Vec::new();
        for chip in 0..g.chip_count() {
            let mut sub_here = 0u32;
            let mut erased_here: Vec<u32> = Vec::new();
            for b in 0..bpc {
                let gbi = chip * bpc + b;
                if ssd.device().is_bad(g.block_addr(gbi)) {
                    retired += 1;
                    continue;
                }
                match scans[gbi as usize].kind {
                    ScannedKind::Subpage => {
                        sub_gbis.push(gbi);
                        sub_here += 1;
                    }
                    ScannedKind::FullPage => full_gbis.push(gbi),
                    ScannedKind::Erased => erased_here.push(gbi),
                }
            }
            for gbi in erased_here {
                if sub_here < sub_target {
                    sub_gbis.push(gbi);
                    sub_here += 1;
                } else {
                    full_gbis.push(gbi);
                }
            }
        }

        let logical_sectors = config.logical_sectors();
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let lpn_count = logical_sectors / page_sz;
        let mut full = BlockPool::new(
            full_gbis.clone(),
            g.pages_per_block,
            bpc,
            lpn_count,
            config.gc_free_watermark,
        );
        full.set_wear_leveling(config.wear_leveling);
        full.set_gc_policy(config.gc_policy);

        // Rebuild subpage-region block skeletons (lap state; validity comes
        // from the winner resolution below).
        let mut blocks: Vec<SubBlock> = sub_gbis
            .iter()
            .map(|&gbi| {
                let mut blk = SubBlock::new(gbi, gbi / bpc, g.pages_per_block);
                let (level, cursor) = scans[gbi as usize].lap_state(g.subpages_per_page);
                blk.level = level;
                blk.cursor = cursor;
                blk
            })
            .collect();

        // Newest copy per sector. Sub candidates carry their location and
        // timestamp; full candidates are resolved per logical page.
        #[derive(Clone, Copy)]
        struct SubCand {
            seq: u64,
            block: u32,
            page: u32,
            slot: u8,
            written_at: SimTime,
        }
        // BTreeMap, not HashMap: these are iterated below, and the order
        // feeds mapping-table construction — recovery must be deterministic.
        let mut sub_best: std::collections::BTreeMap<u64, SubCand> =
            std::collections::BTreeMap::new();
        let mut max_seq = 0u64;
        for (local, &gbi) in sub_gbis.iter().enumerate() {
            for (p, page) in scans[gbi as usize].pages.iter().enumerate() {
                debug_assert!(page.live.len() <= 1, "ESP leaves at most one readable slot");
                for slot in &page.live {
                    max_seq = max_seq.max(slot.seq);
                    if slot.lsn >= logical_sectors {
                        continue;
                    }
                    let cand = SubCand {
                        seq: slot.seq,
                        block: local as u32,
                        page: p as u32,
                        slot: slot.slot,
                        written_at: slot.written_at,
                    };
                    match sub_best.get(&slot.lsn) {
                        Some(prev) if prev.seq >= cand.seq => {}
                        _ => {
                            sub_best.insert(slot.lsn, cand);
                        }
                    }
                }
            }
        }
        // Winning full page per lpn: the *dominating* page. Every flow
        // that reprograms a logical page (direct full write, RMW, cold or
        // retention eviction, GC copy) carries slot-wise greater-or-equal
        // sequence numbers than the page it supersedes (gathered sectors
        // keep their seqs, new sectors get fresh ones), so the pre-crash
        // L2P target is exactly the page whose descending-sorted slot-seq
        // vector is lexicographically greatest. (Neither max slot seq nor
        // spare-area timestamps order programs correctly: gathered slots
        // carry old seqs, and chained GC work makes issue times
        // non-monotone across host writes.)
        fn seq_rank(slot_seqs: &[Option<u64>; 4]) -> [u64; 4] {
            let mut v = [0u64; 4];
            for (i, s) in slot_seqs.iter().enumerate() {
                v[i] = s.map_or(0, |q| q + 1);
            }
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        type FullCand = ([u64; 4], u32, u32, [Option<u64>; 4]);
        let mut full_best: std::collections::BTreeMap<u64, FullCand> =
            std::collections::BTreeMap::new();
        let mut full_programmed = vec![0u32; full_gbis.len()];
        for (local, &gbi) in full_gbis.iter().enumerate() {
            full_programmed[local] = scans[gbi as usize].programmed_pages();
            for (p, page) in scans[gbi as usize].pages.iter().enumerate() {
                let Some(newest) = page.live.iter().map(|s| s.seq).max() else {
                    continue;
                };
                max_seq = max_seq.max(newest);
                let lpn = page.live[0].lsn / page_sz;
                if lpn >= lpn_count {
                    continue;
                }
                let mut slot_seqs = [None; 4];
                for s in &page.live {
                    slot_seqs[usize::from(s.slot)] = Some(s.seq);
                }
                let rank = seq_rank(&slot_seqs);
                match full_best.get(&lpn) {
                    Some(&(best_rank, ..)) if best_rank >= rank => {}
                    _ => {
                        full_best.insert(lpn, (rank, local as u32, p as u32, slot_seqs));
                    }
                }
            }
        }
        let mappings: Vec<(u64, u32, u32)> = full_best
            .iter()
            .map(|(&lpn, &(_, b, p, _))| (lpn, b, p))
            .collect();
        full.restore_state(&full_programmed, &mappings);

        // Hash entries: subpage copies strictly newer than the full copy of
        // the same sector (ties go to the full-page region).
        let mut hash =
            SubpageMap::with_capacity((sub_gbis.len() * g.pages_per_block as usize).max(1));
        for (&lsn, cand) in &sub_best {
            let full_seq = full_best
                .get(&(lsn / page_sz))
                .and_then(|(_, _, _, slots)| slots[(lsn % page_sz) as usize]);
            if full_seq.is_some_and(|fs| fs >= cand.seq) {
                continue;
            }
            hash.insert(
                lsn,
                SubEntry {
                    block: cand.block,
                    page: cand.page,
                    slot: cand.slot,
                    updated: false,
                    written_at: cand.written_at,
                },
            );
            let blk = &mut blocks[cand.block as usize];
            blk.page_valid[cand.page as usize] = Some(lsn);
            blk.valid_count += 1;
        }

        // A GC reserve must exist: prefer an erased subpage-region block,
        // else pull a fresh block from the full region's free pool. A crash
        // that cut GC mid-copy can leave neither (the reserve is partially
        // programmed and the victim not yet erased): in that case adopt the
        // least-valid subpage block and evacuate it after construction.
        let mut evacuate = false;
        let reserve = match blocks.iter().position(|b| b.is_erased()) {
            Some(i) => i as u32,
            None => match full.donate_free_block(&ssd) {
                Some(gbi) => {
                    blocks.push(SubBlock::new(gbi, gbi / bpc, g.pages_per_block));
                    (blocks.len() - 1) as u32
                }
                None => {
                    evacuate = true;
                    blocks
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| !b.retired)
                        .min_by_key(|(_, b)| b.valid_count)
                        .map(|(i, _)| i)
                        .expect("recovery found no usable subpage block") as u32
                }
            },
        };

        let chips = g.chip_count() as usize;
        let mut stats = FtlStats::new();
        stats.blocks_retired = retired;
        stats.torn_pages_quarantined = torn_pages;
        let mut ftl = SubFtl {
            ssd,
            full,
            blocks,
            actives: vec![None; chips],
            rr: 0,
            reserve,
            hash,
            buffer: WriteBuffer::new(config.write_buffer_sectors),
            stats,
            seq: max_seq,
            logical_sectors,
            pages_per_block: g.pages_per_block,
            nsub: g.subpages_per_page,
            retention_threshold: config.retention_threshold,
            scan_interval: config.retention_scan_interval,
            last_scan: SimTime::ZERO,
            wear_delta: config.wear_delta_threshold,
            next_wear_check: 0,
            gc_batch: config.subpage_gc_batch,
            eviction: config.eviction_policy,
            background_gc: config.background_gc,
            gc_policy: config.gc_policy,
            closed_seq_counter: 1,
            crash_safe_mode: config.crash_safe_mode,
            reliability: ReadReliability::new(config),
            trace: EventBuffer::disabled(),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            victims: Vec::new(),
            chunks_scratch: Vec::new(),
        };
        if evacuate {
            ftl.evacuate_reserve();
        }
        ftl
    }

    /// Finishes an interrupted GC at mount time: the adopted reserve block
    /// still holds live subpages (no erased block survived the crash), so
    /// every one of them is evicted to the full-page region and the block
    /// is erased. Charged to the simulated clock as part of the mount.
    fn evacuate_reserve(&mut self) {
        let victim = self.reserve;
        let mut now = self.ssd.makespan();
        let mut items: Vec<(u64, Oob)> = Vec::new();
        for page in 0..self.pages_per_block {
            let Some(lsn) = self.blocks[victim as usize].page_valid[page as usize] else {
                continue;
            };
            let entry = self.hash.get(lsn).expect("page_valid implies mapping");
            let (r, rt) = self
                .ssd
                .read_subpage(self.sub_addr(victim, page, entry.slot), now);
            now = rt;
            note_read_result(&r, lsn, &mut self.stats);
            match r {
                Ok(oob) => items.push((lsn, oob)),
                Err(_) => self.invalidate_sub(lsn),
            }
        }
        // evict_to_full wants one logical page per batch.
        items.sort_unstable_by_key(|&(lsn, _)| lsn);
        let page_sz = u64::from(SECTORS_PER_PAGE);
        let mut i = 0;
        while i < items.len() {
            let lpn = items[i].0 / page_sz;
            let j = items[i..]
                .iter()
                .position(|(l, _)| l / page_sz != lpn)
                .map_or(items.len(), |k| i + k);
            now = self.evict_to_full(&items[i..j], now);
            i = j;
        }
        if self.blocks[victim as usize].valid_count > 0 {
            // The full-page region could not absorb every eviction (the
            // device is near death): keep the survivors where they are and
            // find a different reserve instead of erasing sole copies.
            self.replace_reserve();
            return;
        }
        let gbi = self.blocks[victim as usize].gbi;
        match self.ssd.erase(self.ssd.geometry().block_addr(gbi), now) {
            Ok(_) => {
                let vblk = &mut self.blocks[victim as usize];
                vblk.level = 0;
                vblk.cursor = 0;
                vblk.page_valid.fill(None);
                vblk.closed_seq = 0;
            }
            Err(f) if f.error == esp_nand::NandError::EraseFailed => {
                let vblk = &mut self.blocks[victim as usize];
                vblk.retired = true;
                vblk.page_valid.fill(None);
                self.stats.erase_failures += 1;
                self.stats.blocks_retired += 1;
                self.replace_reserve();
            }
            Err(f) => panic!("erase managed block: {f}"),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn sub_addr(&self, block: u32, page: u32, slot: u8) -> SubpageAddr {
        let gbi = self.blocks[block as usize].gbi;
        self.ssd.geometry().block_addr(gbi).page(page).subpage(slot)
    }

    /// Number of live entries in the subpage-region hash table.
    #[must_use]
    pub fn subpage_entries(&self) -> usize {
        self.hash.len()
    }

    /// Probe-length statistics of the subpage-region hash table (§4.2:
    /// "without being severely affected by hash collisions").
    #[must_use]
    pub fn subpage_map_probes(&self) -> crate::sub_map::ProbeStats {
        self.hash.probe_stats()
    }

    pub(crate) fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Allocation-state digest for the crash harness's idempotence check:
    /// subpage-region lap state (level/cursor/occupancy/retirement per
    /// block), reserve and active blocks, plus the full region's own
    /// fingerprint. Simulated times are excluded: two mounts of the same
    /// flash image happen at different clocks but must land in the same
    /// state.
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        // Keyed by device-global block index (see
        // `BlockPool::pool_fingerprint`): local positions are a
        // mount artifact, and retired blocks drop out on a remount.
        let mut out = Vec::new();
        out.push(u64::from(self.blocks[self.reserve as usize].gbi));
        for a in &self.actives {
            out.push(a.map_or(u64::MAX - 1, |b| u64::from(self.blocks[b as usize].gbi)));
        }
        out.push(u64::MAX);
        let mut live: Vec<[u64; 4]> = self
            .blocks
            .iter()
            .filter(|b| !b.retired)
            .map(|b| {
                [
                    u64::from(b.gbi),
                    u64::from(b.level),
                    u64::from(b.cursor),
                    u64::from(b.valid_count),
                ]
            })
            .collect();
        live.sort_unstable();
        for b in live {
            out.extend(b);
        }
        out.push(u64::MAX);
        out.extend(self.full.pool_fingerprint());
        out
    }

    /// Drops the subpage-region mapping for `lsn`, freeing its slot.
    fn invalidate_sub(&mut self, lsn: u64) {
        if let Some(e) = self.hash.remove(lsn) {
            let blk = &mut self.blocks[e.block as usize];
            debug_assert_eq!(blk.page_valid[e.page as usize], Some(lsn));
            blk.page_valid[e.page as usize] = None;
            blk.valid_count -= 1;
        }
    }

    /// Stamps `closed_seq` once a block exhausts its last lap. Idempotent
    /// (a stamped block keeps its first stamp) and policy-independent:
    /// greedy ignores the stamps entirely, so running them unconditionally
    /// leaves default behavior bit-identical.
    fn note_closed(&mut self, b: u32) {
        let nsub = self.nsub;
        let blk = &mut self.blocks[b as usize];
        if u32::from(blk.level) >= nsub && blk.closed_seq == 0 {
            blk.closed_seq = self.closed_seq_counter;
            self.closed_seq_counter += 1;
        }
    }

    /// Consumes the active block's current slot position.
    fn advance_cursor(&mut self, b: u32) {
        let pages = self.pages_per_block;
        let chip = self.blocks[b as usize].chip as usize;
        let blk = &mut self.blocks[b as usize];
        blk.cursor += 1;
        if blk.cursor == pages {
            blk.level += 1;
            blk.cursor = 0;
            if self.actives[chip] == Some(b) {
                self.actives[chip] = None;
            }
            self.note_closed(b);
        }
    }

    /// Picks the next block to write on `chip`: lowest lap level first (so
    /// 0th subpages across all blocks fill before any 1st subpage — Fig 7),
    /// then fewest valid subpages (so lap advancement causes the fewest
    /// migrations — §4.2).
    fn select_next_active_on(&self, chip: usize) -> Option<u32> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                !b.retired
                    && *i as u32 != self.reserve
                    && b.chip as usize == chip
                    && u32::from(b.level) < self.nsub
            })
            .min_by_key(|(_, b)| (b.level, b.valid_count))
            .map(|(i, _)| i as u32)
    }

    /// True if any chip still has a writable (non-exhausted) block.
    fn any_writable(&self) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .any(|(i, b)| !b.retired && i as u32 != self.reserve && u32::from(b.level) < self.nsub)
    }

    /// True while the GC reserve is an erased, in-service block — the
    /// precondition for running subpage-region GC at all.
    fn reserve_usable(&self) -> bool {
        let r = &self.blocks[self.reserve as usize];
        !r.retired && r.is_erased()
    }

    /// Returns a block with a writable slot, preferring a different chip
    /// than the previous write (striping) and garbage-collecting if the
    /// region is exhausted. Returns `None` when the region can no longer
    /// produce a slot (end of life): no writable block exists, no victim
    /// can be collected, or the GC reserve was lost and not replaceable.
    ///
    /// GC reclaims a *batch* of blocks before writing resumes: with several
    /// blocks back in rotation, consecutive laps of any one block are
    /// separated by writes to the others, giving hot subpages time to be
    /// overwritten instead of lap-migrated.
    fn ensure_sub_slot(&mut self, issue: SimTime) -> Option<(u32, SimTime)> {
        let mut now = issue;
        loop {
            let chips = self.actives.len();
            for i in 0..chips {
                let chip = (self.rr + i) % chips;
                if self.actives[chip].is_none() {
                    self.actives[chip] = self.select_next_active_on(chip);
                }
                if let Some(b) = self.actives[chip] {
                    debug_assert!(u32::from(self.blocks[b as usize].level) < self.nsub);
                    self.rr = chip + 1;
                    return Some((b, now));
                }
            }
            if self.ssd.halted() {
                // Power is cut: programs and erases are no-ops from here
                // on, so GC can never free a slot — bail out instead of
                // re-collecting the same victims forever. The caller must
                // treat this as a dropped in-flight request, not wear-out.
                return None;
            }
            if self.reliability.end_of_life() || !self.reserve_usable() {
                return None;
            }
            if !self.has_exhausted_block() {
                // Nothing writable and nothing to collect: the region is
                // wedged (end of life), degrade instead of panicking.
                return None;
            }
            let batch = if self.gc_batch == 0 {
                self.blocks.len() as u32
            } else {
                self.gc_batch
            };
            // Reclaim a batch of *profitable* victims (at most half their
            // pages still valid) so that several blocks re-enter the write
            // rotation at once: with laps of different blocks interleaved,
            // hot subpages are overwritten between laps instead of being
            // migrated at every lap. Dense blocks stay parked until their
            // entries go stale. At least one victim (the min-valid block)
            // is always collected so progress is guaranteed.
            let mut collected = 0u32;
            while collected < batch && self.has_exhausted_block() && self.reserve_usable() {
                let profitable = self.min_valid_exhausted() <= self.pages_per_block / 2;
                if collected > 0 && !profitable {
                    break;
                }
                now = self.sub_gc(now);
                collected += 1;
            }
            if !self.any_writable() {
                if self.has_exhausted_block() && self.reserve_usable() {
                    now = self.sub_gc(now);
                } else if collected == 0 {
                    // No progress is possible: every surviving block is
                    // retired, reserved, or stuck with unevictable data.
                    return None;
                }
            }
        }
    }

    fn min_valid_exhausted(&self) -> u32 {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                !b.retired
                    && *i as u32 != self.reserve
                    && !self.actives.contains(&Some(*i as u32))
                    && u32::from(b.level) == self.nsub
            })
            .map(|(_, b)| b.valid_count)
            .min()
            .unwrap_or(u32::MAX)
    }

    fn has_exhausted_block(&self) -> bool {
        self.blocks.iter().enumerate().any(|(i, b)| {
            !b.retired
                && i as u32 != self.reserve
                && !self.actives.contains(&Some(i as u32))
                && u32::from(b.level) == self.nsub
        })
    }

    /// Writes one sector into the subpage region (the loop of Fig 7:
    /// migrate the target page's valid subpage forward if it has one, then
    /// place the new data in the next free slot).
    fn write_sector_to_sub(&mut self, lsn: u64, small_origin: bool, issue: SimTime) -> SimTime {
        let mut now = issue;
        loop {
            let Some((b, t)) = self.ensure_sub_slot(now) else {
                // End of life: no subpage slot can be produced. Drop the
                // write (any previously mapped copy stays valid) and latch
                // the refusal so subsequent writes are dropped up front.
                // A power cut mid-write is not wear-out: the request is
                // simply lost with the rest of the in-flight state.
                if !self.ssd.halted() {
                    self.reliability.latch_end_of_life(&mut self.stats);
                }
                return now;
            };
            now = t;
            let (page, slot, gbi) = {
                let blk = &self.blocks[b as usize];
                (blk.cursor, blk.level, blk.gbi)
            };
            let addr = self.sub_addr(b, page, slot);
            let occupant = self.blocks[b as usize].page_valid[page as usize];
            match occupant {
                Some(old_lsn) if old_lsn == lsn && !self.crash_safe_mode => {
                    // The page's valid subpage is an older version of the very
                    // sector being written: it is dead on arrival, no
                    // migration needed. (In crash-safe mode the generic arm
                    // below evicts it instead — reprogramming its own page
                    // would destroy the only durable copy if power dies
                    // before the new data lands.)
                    self.invalidate_sub(lsn);
                    continue;
                }
                Some(old_lsn) => {
                    // Lap migration: move the page's valid subpage into this
                    // slot before the program would destroy it (Fig 7(c)).
                    let entry = self.hash.get(old_lsn).expect("page_valid implies mapping");
                    debug_assert!(entry.block == b && entry.page == page);
                    let (r, rt) = self
                        .ssd
                        .read_subpage(self.sub_addr(b, page, entry.slot), now);
                    now = rt;
                    match r {
                        Ok(oob) if self.crash_safe_mode => {
                            // Crash-safe mode: the in-place migration below
                            // would re-program the occupant's own page — if
                            // power dies mid-pulse, the only durable copy is
                            // destroyed (Fig 4(b)). Relocate it to the
                            // full-page region instead: the old subpage stays
                            // intact until the full-page copy completes, and
                            // the freed slot takes the new data on the next
                            // iteration. The cursor is *not* advanced.
                            self.stats.lap_migrations += 1;
                            let at = now.as_nanos();
                            self.trace.emit(|| {
                                TraceEvent::new(at, "sub.lap_migration")
                                    .tag("to_full")
                                    .field("lsn", old_lsn)
                                    .field("block", u64::from(gbi))
                            });
                            now = self.evict_to_full(&[(old_lsn, oob)], now);
                            if self.reliability.end_of_life() {
                                // The full-page region could not take the
                                // relocation: the occupant keeps its slot,
                                // so retrying would spin on the same page
                                // forever. Drop the incoming write instead
                                // (the refusal is already latched).
                                return now;
                            }
                        }
                        Ok(oob) => match self.ssd.program_subpage(addr, oob, now) {
                            Ok(done) => {
                                now = done;
                                let updated_ok = self.hash.update(old_lsn, |e| {
                                    e.slot = slot;
                                    e.written_at = now;
                                });
                                debug_assert!(updated_ok, "checked above");
                                self.stats.lap_migrations += 1;
                                let at = now.as_nanos();
                                self.trace.emit(|| {
                                    TraceEvent::new(at, "sub.lap_migration")
                                        .tag("in_place")
                                        .field("lsn", old_lsn)
                                        .field("block", u64::from(gbi))
                                });
                                self.stats.gc_flash_sectors += 1;
                                self.stats.small_waf_flash_sectors += 1.0;
                                self.advance_cursor(b);
                            }
                            Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                                // The failed attempt still destroyed the old
                                // copy (it shares the page, so SBPI wiped it):
                                // salvage the data we hold in `oob` by moving
                                // it to the full-page region, and skip past
                                // the burned slot.
                                self.stats.program_failures += 1;
                                self.stats.write_retries += 1;
                                now = f.at;
                                self.advance_cursor(b);
                                now = self.evict_to_full(&[(old_lsn, oob)], now);
                            }
                            Err(f) => panic!("lap slot is programmable: {f}"),
                        },
                        Err(f) => {
                            // Unreadable (must not happen when scrubbing is
                            // on schedule): drop the data, reuse the slot.
                            note_read_result(&Err(f), old_lsn, &mut self.stats);
                            self.invalidate_sub(old_lsn);
                        }
                    }
                    continue;
                }
                None => {
                    let seq = self.next_seq();
                    match self.ssd.program_subpage(addr, Oob { lsn, seq }, now) {
                        Ok(done) => {
                            now = done;
                            let updated = self.hash.contains(lsn);
                            if updated {
                                self.invalidate_sub(lsn);
                            }
                            self.hash.insert(
                                lsn,
                                SubEntry {
                                    block: b,
                                    page,
                                    slot,
                                    updated,
                                    written_at: now,
                                },
                            );
                            let blk = &mut self.blocks[b as usize];
                            blk.page_valid[page as usize] = Some(lsn);
                            blk.valid_count += 1;
                            self.advance_cursor(b);
                            self.stats.flash_sectors_consumed += 1;
                            if small_origin {
                                self.stats.small_waf_flash_sectors += 1.0;
                            }
                            return now;
                        }
                        Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                            // Nothing was lost (the slot held no valid data):
                            // skip the burned slot and retry on the next one.
                            self.stats.program_failures += 1;
                            self.stats.write_retries += 1;
                            now = f.at;
                            self.advance_cursor(b);
                        }
                        Err(f) => panic!("allocated slot is programmable: {f}"),
                    }
                }
            }
        }
    }

    /// Picks the subpage-region GC victim among exhausted blocks via the
    /// configured [`GcPolicyKind`], with the wear-leveling slack re-rank
    /// composed on top (see [`crate::select_victim`]).
    fn pick_sub_victim(&mut self) -> Option<u32> {
        let wear_leveling = self.full.wear_leveling();
        let mut candidates = std::mem::take(&mut self.victims);
        candidates.extend(
            self.blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| {
                    !b.retired
                        && *i as u32 != self.reserve
                        && !self.actives.contains(&Some(*i as u32))
                        && u32::from(b.level) == self.nsub
                })
                .map(|(i, b)| VictimCandidate {
                    index: i as u32,
                    valid: b.valid_count,
                    capacity: self.pages_per_block,
                    age: self.closed_seq_counter.saturating_sub(b.closed_seq),
                    wear: if wear_leveling {
                        self.ssd
                            .device()
                            .effective_pe(self.ssd.geometry().block_addr(b.gbi))
                    } else {
                        0
                    },
                }),
        );
        let pick = select_victim(
            self.gc_policy,
            SelectOpts::subpage(wear_leveling),
            &candidates,
        );
        candidates.clear();
        self.victims = candidates;
        pick
    }

    /// Subpage-region garbage collection (§4.2): pick the block with the
    /// fewest valid subpages, move updated (hot) subpages into the reserved
    /// block, evict never-updated (cold) subpages to the full-page region,
    /// erase, and hand the erased block over as the new reserve.
    fn sub_gc(&mut self, issue: SimTime) -> SimTime {
        let victim = self.pick_sub_victim().unwrap_or_else(|| {
            // Fallback (GC forced while non-exhausted blocks remain,
            // e.g. from tests): any non-reserve block with the fewest
            // valid subpages.
            self.blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| {
                    !b.retired
                        && *i as u32 != self.reserve
                        && !self.actives.contains(&Some(*i as u32))
                })
                .min_by_key(|(_, b)| b.valid_count)
                .map(|(i, _)| i as u32)
                .expect("subpage region has no GC victim")
        });
        self.sub_gc_victim(victim, issue)
    }

    /// Collects one specific subpage-region block: hot subpages move to the
    /// reserve, cold ones to the full-page region, then the victim is
    /// erased and becomes the new reserve. Shared by normal GC (min-valid
    /// victim) and static wear leveling (coldest parked block).
    fn sub_gc_victim(&mut self, victim: u32, issue: SimTime) -> SimTime {
        self.stats.gc_invocations += 1;
        self.stats.gc_subpage_region += 1;
        let valid = self.blocks[victim as usize].valid_count;
        let gbi = self.blocks[victim as usize].gbi;
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag("sub")
                .field("block", u64::from(gbi))
                .field("valid_subpages", u64::from(valid))
        });
        let mut now = issue;
        let reserve = self.reserve;
        debug_assert!(self.blocks[reserve as usize].is_erased());
        for page in 0..self.pages_per_block {
            let Some(lsn) = self.blocks[victim as usize].page_valid[page as usize] else {
                continue;
            };
            if self.buffer.contains(lsn) && !self.crash_safe_mode {
                // A newer version is waiting in DRAM; the flash copy is
                // already garbage. (Crash-safe mode relocates it anyway: the
                // DRAM copy is volatile, so until the buffer flushes this
                // flash copy is the sector's only durable version.)
                self.invalidate_sub(lsn);
                continue;
            }
            let entry = self.hash.get(lsn).expect("page_valid implies mapping");
            let (r, rt) = self
                .ssd
                .read_subpage(self.sub_addr(victim, page, entry.slot), now);
            now = rt;
            note_read_result(&r, lsn, &mut self.stats);
            let oob = match r {
                Ok(oob) => oob,
                Err(_) => {
                    self.invalidate_sub(lsn);
                    continue;
                }
            };
            let keep = match self.eviction {
                EvictionPolicy::SecondChance | EvictionPolicy::KeepUpdatedForever => entry.updated,
                EvictionPolicy::EvictAll => false,
                EvictionPolicy::KeepAll => true,
            };
            if keep {
                // Hot: keep in the subpage region. If burned program
                // attempts exhausted the reserve's level-0 slots, fall back
                // to a full-page eviction rather than wrapping the lap.
                if self.blocks[reserve as usize].level != 0 {
                    now = self.evict_to_full(&[(lsn, oob)], now);
                    self.stats.cold_evictions += 1;
                    continue;
                }
                let rp = self.blocks[reserve as usize].cursor;
                debug_assert!(rp < self.pages_per_block);
                let raddr = self.sub_addr(reserve, rp, 0);
                match self.ssd.program_subpage(raddr, oob, now) {
                    Ok(done) => {
                        now = done;
                        self.invalidate_sub(lsn);
                        let updated = match self.eviction {
                            EvictionPolicy::SecondChance | EvictionPolicy::EvictAll => false,
                            EvictionPolicy::KeepUpdatedForever | EvictionPolicy::KeepAll => {
                                entry.updated
                            }
                        };
                        self.hash.insert(
                            lsn,
                            SubEntry {
                                block: reserve,
                                page: rp,
                                slot: 0,
                                updated,
                                written_at: now,
                            },
                        );
                        let pages = self.pages_per_block;
                        let rblk = &mut self.blocks[reserve as usize];
                        rblk.page_valid[rp as usize] = Some(lsn);
                        rblk.valid_count += 1;
                        rblk.cursor += 1;
                        if rblk.cursor == pages {
                            rblk.level = 1;
                            rblk.cursor = 0;
                            self.note_closed(reserve);
                        }
                        self.stats.gc_copied_sectors += 1;
                        self.stats.gc_flash_sectors += 1;
                        self.stats.small_waf_flash_sectors += 1.0;
                    }
                    Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                        // Burn the reserve slot and route this sector to the
                        // full-page region instead (the copy in `oob` is the
                        // only remaining one).
                        self.stats.program_failures += 1;
                        self.stats.write_retries += 1;
                        now = f.at;
                        let pages = self.pages_per_block;
                        let rblk = &mut self.blocks[reserve as usize];
                        rblk.cursor += 1;
                        if rblk.cursor == pages {
                            rblk.level = 1;
                            rblk.cursor = 0;
                            self.note_closed(reserve);
                        }
                        now = self.evict_to_full(&[(lsn, oob)], now);
                    }
                    Err(f) => panic!("reserve slot is erased: {f}"),
                }
            } else {
                // Cold: evict to the full-page region.
                now = self.evict_to_full(&[(lsn, oob)], now);
                self.stats.cold_evictions += 1;
            }
        }
        if self.blocks[victim as usize].valid_count > 0 {
            // The full-page region ran out of space mid-eviction: the
            // remaining subpages are sole copies, so the victim must not
            // be erased. Callers observe the end-of-life latch and stop.
            return now;
        }
        let gbi = self.blocks[victim as usize].gbi;
        match self.ssd.erase(self.ssd.geometry().block_addr(gbi), now) {
            Ok(done) => {
                now = done;
                let vblk = &mut self.blocks[victim as usize];
                vblk.level = 0;
                vblk.cursor = 0;
                vblk.page_valid.fill(None);
                vblk.closed_seq = 0;
                self.reserve = victim;
            }
            Err(f) if f.error == esp_nand::NandError::EraseFailed => {
                // The victim is a grown bad block: retire it and find a
                // replacement reserve (live data was already moved out).
                now = f.at;
                let vblk = &mut self.blocks[victim as usize];
                vblk.retired = true;
                vblk.page_valid.fill(None);
                self.stats.erase_failures += 1;
                self.stats.blocks_retired += 1;
                self.replace_reserve();
            }
            Err(f) => panic!("erase managed block: {f}"),
        }
        self.maybe_wear_swap();
        now
    }

    /// Repoints `self.reserve` at an erased, usable block after the intended
    /// replacement was lost to an erase failure: keep the current reserve if
    /// it is still untouched, else adopt any erased managed block, else pull
    /// a fresh block from the full-page region.
    fn replace_reserve(&mut self) {
        let cur = &self.blocks[self.reserve as usize];
        if !cur.retired && cur.is_erased() {
            return;
        }
        let erased = self.blocks.iter().enumerate().position(|(i, b)| {
            !b.retired && b.is_erased() && !self.actives.contains(&Some(i as u32))
        });
        if let Some(i) = erased {
            self.reserve = i as u32;
            return;
        }
        match self.full.donate_coldest_free_block(&self.ssd) {
            Some(gbi) => {
                let chip = gbi / self.ssd.geometry().blocks_per_chip;
                self.blocks
                    .push(SubBlock::new(gbi, chip, self.pages_per_block));
                self.reserve = (self.blocks.len() - 1) as u32;
            }
            None => {
                // No erased block exists anywhere: the GC reserve is gone
                // for good and the drive is at end of life. The reserve
                // stays unusable, and writes degrade to typed refusal.
                self.reliability.latch_end_of_life(&mut self.stats);
            }
        }
    }

    /// Writes the freshest copies of the given subpage-region sectors (all
    /// belonging to one logical page) into the full-page region via RMW,
    /// then drops their subpage-region mappings.
    fn evict_to_full(&mut self, items: &[(u64, Oob)], issue: SimTime) -> SimTime {
        debug_assert!(!items.is_empty());
        let page = u64::from(SECTORS_PER_PAGE);
        let lpn = items[0].0 / page;
        debug_assert!(items.iter().all(|(l, _)| l / page == lpn));
        self.oobs_scratch.clear();
        self.oobs_scratch.resize(SECTORS_PER_PAGE as usize, None);
        for (lsn, oob) in items {
            self.oobs_scratch[(lsn % page) as usize] = Some(*oob);
        }
        let mut now = issue;
        if let Some(ptr) = self.full.lookup(lpn) {
            // Merge the remaining sectors from the existing full page.
            let addr = self.full.page_addr(ptr, &self.ssd);
            now = self.ssd.read_full_into(addr, now, &mut self.slots_scratch);
            for (slot, r) in self.slots_scratch.iter().enumerate() {
                if self.oobs_scratch[slot].is_none() {
                    if let Ok(o) = r {
                        self.oobs_scratch[slot] = Some(*o);
                    }
                }
            }
            self.stats.rmw_operations += 1;
        }
        now = match self.full.try_program_page(
            lpn,
            &self.oobs_scratch,
            &mut self.ssd,
            &mut self.stats,
            now,
        ) {
            Ok(t) => t,
            Err(_) => {
                // Full-page region exhausted: the subpage copies are sole
                // copies, so they stay mapped; writes degrade to refusal.
                self.reliability.latch_end_of_life(&mut self.stats);
                return now;
            }
        };
        for (lsn, _) in items {
            self.invalidate_sub(*lsn);
        }
        // The whole 16 KB page was consumed on behalf of small data.
        self.stats.small_waf_flash_sectors += f64::from(SECTORS_PER_PAGE);
        now
    }

    /// Swaps an over-worn erased subpage-region block with a fresh block
    /// from the full-page region ("converting subpage blocks to full-page
    /// ones ... can be done by swapping", §4.2).
    /// Static wear leveling for the subpage region: a block packed with
    /// valid, never-updated subpages is invisible to normal sub GC
    /// (min-valid victim picks never reach it), so cold data can pin a
    /// lightly-worn block forever. When the fleet-wide effective-wear
    /// spread exceeds the threshold, the coldest such parked block is
    /// force-collected — its data moves on and the block rejoins the erase
    /// rotation. At most one block per call; metered from `maintain`.
    fn sub_wear_rotate(&mut self, issue: SimTime) -> SimTime {
        if !self.full.wear_leveling()
            || self.reliability.end_of_life()
            || self.ssd.halted()
            || !self.reserve_usable()
        {
            return issue;
        }
        let pe = |gbi: u32| {
            self.ssd
                .device()
                .effective_pe(self.ssd.geometry().block_addr(gbi))
        };
        let mut max_pe = self
            .full
            .wear_spread(&self.ssd)
            .map(|(_, hi)| hi)
            .unwrap_or(0);
        for b in self.blocks.iter().filter(|b| !b.retired) {
            max_pe = max_pe.max(pe(b.gbi));
        }
        let cold = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                !b.retired
                    && *i as u32 != self.reserve
                    && !self.actives.contains(&Some(*i as u32))
                    && u32::from(b.level) == self.nsub
            })
            .min_by_key(|(_, b)| pe(b.gbi))
            .map(|(i, _)| i as u32);
        let Some(victim) = cold else { return issue };
        if max_pe.saturating_sub(pe(self.blocks[victim as usize].gbi)) <= self.wear_delta {
            return issue;
        }
        self.stats.wear_level_migrations += 1;
        self.sub_gc_victim(victim, issue)
    }

    fn maybe_wear_swap(&mut self) {
        if self.full.wear_leveling() {
            // The freshly-erased GC victim becomes the reserve immediately,
            // so an idle erased block is rare; with wear leveling on, the
            // reserve itself is a swap candidate (it is erased by
            // definition, and the fresh block takes over reserve duty).
            // The exchange is transactional — the worn block enters the
            // full-region pool in the same step the fresh one leaves — so
            // it works even with the full region sitting at its GC
            // watermark, which is where a steady churn keeps it.
            let candidate = self
                .blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| {
                    !b.retired && !self.actives.contains(&Some(*i as u32)) && b.is_erased()
                })
                .max_by_key(|(_, b)| {
                    self.ssd
                        .device()
                        .effective_pe(self.ssd.geometry().block_addr(b.gbi))
                })
                .map(|(i, _)| i as u32);
            let Some(idx) = candidate else { return };
            let worn_gbi = self.blocks[idx as usize].gbi;
            let Some(fresh_gbi) = self
                .full
                .swap_free_block(worn_gbi, self.wear_delta, &self.ssd)
            else {
                return;
            };
            self.blocks[idx as usize].retired = true;
            let chip = fresh_gbi / self.ssd.geometry().blocks_per_chip;
            self.blocks
                .push(SubBlock::new(fresh_gbi, chip, self.pages_per_block));
            if idx == self.reserve {
                self.reserve = (self.blocks.len() - 1) as u32;
            }
            self.stats.wear_swaps += 1;
            return;
        }
        // Seed behavior (wear leveling off): only a spare erased block —
        // never the reserve — is a candidate, and the exchange defers to
        // the full region's watermark-guarded donation.
        let Some(full_pe) = self.full.coldest_free_pe(&self.ssd) else {
            return;
        };
        let candidate = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                !b.retired
                    && *i as u32 != self.reserve
                    && !self.actives.contains(&Some(*i as u32))
                    && b.is_erased()
            })
            .max_by_key(|(_, b)| {
                self.ssd
                    .device()
                    .effective_pe(self.ssd.geometry().block_addr(b.gbi))
            })
            .map(|(i, _)| i as u32);
        let Some(idx) = candidate else { return };
        let sub_pe = self.ssd.device().effective_pe(
            self.ssd
                .geometry()
                .block_addr(self.blocks[idx as usize].gbi),
        );
        if sub_pe <= full_pe + self.wear_delta {
            return;
        }
        let Some(fresh_gbi) = self.full.donate_coldest_free_block(&self.ssd) else {
            return;
        };
        let worn_gbi = self.blocks[idx as usize].gbi;
        self.blocks[idx as usize].retired = true;
        let chip = fresh_gbi / self.ssd.geometry().blocks_per_chip;
        self.blocks
            .push(SubBlock::new(fresh_gbi, chip, self.pages_per_block));
        self.full.adopt_free_block(worn_gbi);
        self.stats.wear_swaps += 1;
    }

    /// ESP-aware data placement (§4.1): page-aligned 16 KB units of a flush
    /// chunk go to the full-page region; the small head/tail residue and
    /// chunks shorter than a page go to the subpage region.
    fn flush_chunks(&mut self, chunks: &mut Vec<FlushChunk>, issue: SimTime) -> SimTime {
        let page = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        for chunk in chunks.drain(..) {
            let (lo, hi) = (chunk.start_lsn, chunk.end_lsn());
            let aligned_lo = lo.div_ceil(page) * page;
            let aligned_hi = (hi / page) * page;
            let origin = |lsn: u64| -> bool { chunk.origins[(lsn - chunk.start_lsn) as usize] };
            if aligned_lo + page <= aligned_hi {
                for lsn in lo..aligned_lo {
                    done = done.max(self.write_sector_to_sub(lsn, origin(lsn), issue));
                }
                for lpn in aligned_lo / page..aligned_hi / page {
                    self.oobs_scratch.clear();
                    for slot in 0..u64::from(SECTORS_PER_PAGE) {
                        let seq = self.next_seq();
                        self.oobs_scratch.push(Some(Oob {
                            lsn: lpn * page + slot,
                            seq,
                        }));
                    }
                    let t = match self.full.try_program_page(
                        lpn,
                        &self.oobs_scratch,
                        &mut self.ssd,
                        &mut self.stats,
                        issue,
                    ) {
                        Ok(t) => t,
                        Err(_) => {
                            // End of life: the flush has nowhere to land;
                            // older copies (full or subpage) stay mapped.
                            self.reliability.latch_end_of_life(&mut self.stats);
                            continue;
                        }
                    };
                    done = done.max(t);
                    for slot in 0..page {
                        let lsn = lpn * page + slot;
                        // The full page now holds the newest copy.
                        self.invalidate_sub(lsn);
                        if origin(lsn) {
                            self.stats.small_waf_flash_sectors += 1.0;
                        }
                    }
                }
                for lsn in aligned_hi..hi {
                    done = done.max(self.write_sector_to_sub(lsn, origin(lsn), issue));
                }
            } else {
                for lsn in lo..hi {
                    done = done.max(self.write_sector_to_sub(lsn, origin(lsn), issue));
                }
            }
            self.buffer.recycle(chunk);
        }
        done
    }

    /// Retention scrubbing (§4.3): evict subpages that have stayed in the
    /// subpage region longer than the 15-day threshold.
    fn scrub(&mut self, now: SimTime) {
        let threshold = self.retention_threshold;
        let mut expired: Vec<u64> = self
            .hash
            .iter()
            .filter(|(_, e)| now.saturating_since(e.written_at) >= threshold)
            .map(|(lsn, _)| lsn)
            .collect();
        if expired.is_empty() {
            return;
        }
        expired.sort_unstable();
        let page = u64::from(SECTORS_PER_PAGE);
        let mut t = now;
        let mut i = 0;
        while i < expired.len() {
            let lpn = expired[i] / page;
            let mut items: Vec<(u64, Oob)> = Vec::new();
            while i < expired.len() && expired[i] / page == lpn {
                let lsn = expired[i];
                i += 1;
                if self.buffer.contains(lsn) && !self.crash_safe_mode {
                    // Same shadowed-copy rule as GC: in crash-safe mode the
                    // flash copy is still the only durable version.
                    self.invalidate_sub(lsn);
                    continue;
                }
                // The entry may have been evicted already as a neighbor.
                let Some(entry) = self.hash.get(lsn) else {
                    continue;
                };
                let (r, rt) = self
                    .ssd
                    .read_subpage(self.sub_addr(entry.block, entry.page, entry.slot), t);
                t = rt;
                note_read_result(&r, lsn, &mut self.stats);
                match r {
                    Ok(oob) => items.push((lsn, oob)),
                    Err(_) => self.invalidate_sub(lsn),
                }
            }
            if !items.is_empty() {
                self.stats.retention_evictions += items.len() as u64;
                let at = t.as_nanos();
                let count = items.len() as u64;
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.scrub")
                        .tag("retention")
                        .field("subpages", count)
                });
                t = self.evict_to_full(&items, t);
            }
        }
    }

    /// Read-disturb patrol over the subpage region: any managed block whose
    /// sense count since erase crossed `limit` has its valid subpages
    /// evicted to the full-page region, then is erased (discharging the
    /// accumulated disturb). The full-page region patrols itself via
    /// `BlockPool::scrub_disturbed`.
    fn scrub_disturbed_sub(&mut self, limit: u64, issue: SimTime) {
        let mut now = issue;
        loop {
            if self.ssd.halted() {
                return;
            }
            let Some(victim) = self.blocks.iter().position(|b| {
                !b.retired
                    && (b.valid_count > 0 || b.level > 0 || b.cursor > 0)
                    && self
                        .ssd
                        .device()
                        .reads_since_erase(self.ssd.geometry().block_addr(b.gbi))
                        >= limit
            }) else {
                return;
            };
            let victim = victim as u32;
            let gbi = self.blocks[victim as usize].gbi;
            let at = now.as_nanos();
            self.trace.emit(|| {
                TraceEvent::new(at, "gc.scrub")
                    .tag("disturb")
                    .field("block", u64::from(gbi))
            });
            // Evacuate live subpages, batched per logical page like
            // `evacuate_reserve`.
            let mut items: Vec<(u64, Oob)> = Vec::new();
            for page in 0..self.pages_per_block {
                let Some(lsn) = self.blocks[victim as usize].page_valid[page as usize] else {
                    continue;
                };
                if self.buffer.contains(lsn) && !self.crash_safe_mode {
                    // Same shadowed-copy rule as GC (see `sub_gc`).
                    self.invalidate_sub(lsn);
                    continue;
                }
                let entry = self.hash.get(lsn).expect("page_valid implies mapping");
                let (r, rt) = self
                    .ssd
                    .read_subpage(self.sub_addr(victim, page, entry.slot), now);
                now = rt;
                if self.ssd.halted() {
                    return;
                }
                match r {
                    Ok(oob) => items.push((lsn, oob)),
                    Err(_) => {
                        note_read_result(&r, lsn, &mut self.stats);
                        self.invalidate_sub(lsn);
                    }
                }
            }
            items.sort_unstable_by_key(|&(lsn, _)| lsn);
            let page_sz = u64::from(SECTORS_PER_PAGE);
            let mut i = 0;
            while i < items.len() {
                let lpn = items[i].0 / page_sz;
                let j = items[i..]
                    .iter()
                    .position(|(l, _)| l / page_sz != lpn)
                    .map_or(items.len(), |k| i + k);
                now = self.evict_to_full(&items[i..j], now);
                i = j;
            }
            if self.ssd.halted() {
                return;
            }
            if self.blocks[victim as usize].valid_count > 0 {
                // Evictions failed (full region exhausted): the survivors
                // are sole copies, so skip the erase and stop the patrol
                // rather than livelock on the same victim.
                return;
            }
            let gbi = self.blocks[victim as usize].gbi;
            match self.ssd.erase(self.ssd.geometry().block_addr(gbi), now) {
                Ok(done) => {
                    now = done;
                    let vblk = &mut self.blocks[victim as usize];
                    vblk.level = 0;
                    vblk.cursor = 0;
                    vblk.page_valid.fill(None);
                    vblk.closed_seq = 0;
                    self.stats.disturb_scrubs += 1;
                }
                Err(f) if f.error == esp_nand::NandError::EraseFailed => {
                    now = f.at;
                    let vblk = &mut self.blocks[victim as usize];
                    vblk.retired = true;
                    vblk.page_valid.fill(None);
                    self.stats.erase_failures += 1;
                    self.stats.blocks_retired += 1;
                    for a in &mut self.actives {
                        if *a == Some(victim) {
                            *a = None;
                        }
                    }
                    if self.reserve == victim {
                        self.replace_reserve();
                    }
                    self.stats.disturb_scrubs += 1;
                }
                Err(f) => panic!("erase managed block: {f}"),
            }
        }
    }

    /// Asserts the subpage-region structural invariants (one valid subpage
    /// per page, hash/bitmap agreement, erased reserve) and the full-page
    /// region's pool invariants. Intended for tests;
    /// panics on violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // At most one valid subpage per page, and hash/page_valid agree.
        let mut from_blocks = 0u64;
        for (bi, b) in self.blocks.iter().enumerate() {
            if b.retired {
                assert_eq!(b.valid_count, 0, "retired block holds valid data");
                continue;
            }
            let mut count = 0;
            for (pi, pv) in b.page_valid.iter().enumerate() {
                if let Some(lsn) = pv {
                    count += 1;
                    let e = self.hash.peek(*lsn).expect("page_valid without hash entry");
                    assert_eq!((e.block, e.page), (bi as u32, pi as u32));
                }
            }
            assert_eq!(count, b.valid_count);
            from_blocks += u64::from(b.valid_count);
        }
        assert_eq!(from_blocks, self.hash.len() as u64);
        assert!(
            self.blocks[self.reserve as usize].is_erased(),
            "reserve must stay erased"
        );
        self.full.check_invariants([]);
    }
}

impl Ftl for SubFtl {
    fn name(&self) -> &'static str {
        "subFTL"
    }

    fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
        self.full.enable_tracing(capacity);
        self.ssd.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<TraceEvent> {
        merge_events(&[&self.trace, self.full.trace(), self.ssd.trace()])
    }

    fn events_dropped(&self) -> u64 {
        self.trace.dropped() + self.full.trace().dropped() + self.ssd.trace().dropped()
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
        let page = u64::from(SECTORS_PER_PAGE);
        let mut done = issue;
        let mut faulted = false;
        // Relocation work queued by reclaim-worthy ladder efforts: subpage
        // copies are evicted to the full-page region, full pages rewritten.
        let mut sub_reclaim: Vec<(u64, Oob)> = Vec::new();
        let mut full_reclaim: Vec<u64> = Vec::new();
        let (lo, hi) = (lsn, lsn + u64::from(sectors));
        for lpn in lo / page..=(hi - 1) / page {
            let s_lo = lo.max(lpn * page);
            let s_hi = hi.min((lpn + 1) * page);
            let mut from_full: Vec<u64> = Vec::new();
            for s in s_lo..s_hi {
                if self.buffer.contains(s) {
                    continue;
                }
                if let Some(e) = self.hash.get(s) {
                    let addr = self.sub_addr(e.block, e.page, e.slot);
                    let (r, effort, t) = self.ssd.read_subpage_graded(addr, issue);
                    faulted |= note_read_result(&r, s, &mut self.stats);
                    if self.reliability.wants_reclaim(effort) {
                        if let Ok(oob) = r {
                            sub_reclaim.push((s, oob));
                        }
                    }
                    done = done.max(t);
                } else {
                    from_full.push(s);
                }
            }
            if from_full.is_empty() {
                continue;
            }
            let Some(ptr) = self.full.lookup(lpn) else {
                continue;
            };
            let addr = self.full.page_addr(ptr, &self.ssd);
            let effort = if from_full.len() >= 2 {
                let (effort, t) =
                    self.ssd
                        .read_full_graded_into(addr, issue, &mut self.slots_scratch);
                for s in from_full {
                    faulted |= note_read_result(
                        &self.slots_scratch[(s % page) as usize],
                        s,
                        &mut self.stats,
                    );
                }
                done = done.max(t);
                effort
            } else {
                let s = from_full[0];
                let (r, effort, t) = self
                    .ssd
                    .read_subpage_graded(addr.subpage((s % page) as u8), issue);
                faulted |= note_read_result(&r, s, &mut self.stats);
                done = done.max(t);
                effort
            };
            if self.reliability.wants_reclaim(effort) {
                full_reclaim.push(lpn);
            }
        }
        self.reliability.note_host_read(faulted, &mut self.stats);
        // evict_to_full wants one logical page per batch.
        sub_reclaim.sort_unstable_by_key(|&(s, _)| s);
        let mut i = 0;
        while i < sub_reclaim.len() {
            let lpn = sub_reclaim[i].0 / page;
            let j = sub_reclaim[i..]
                .iter()
                .position(|(s, _)| s / page != lpn)
                .map_or(sub_reclaim.len(), |k| i + k);
            self.stats.read_reclaims += (j - i) as u64;
            let at = done.as_nanos();
            let sectors = (j - i) as u64;
            self.trace.emit(|| {
                TraceEvent::new(at, "gc.reclaim")
                    .tag("read_reclaim")
                    .field("lpn", lpn)
                    .field("sectors", sectors)
            });
            done = self.evict_to_full(&sub_reclaim[i..j], done);
            i = j;
        }
        for lpn in full_reclaim {
            done = done.max(
                self.full
                    .reclaim_page(lpn, &mut self.ssd, &mut self.stats, done),
            );
        }
        done
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

    fn maintain(&mut self, now: SimTime) {
        if self.ssd.device_failed() {
            return;
        }
        let reads = self.ssd.device().stats().reads;
        if self.reliability.patrol_due(reads) {
            if let Some(limit) = self.reliability.scrub_limit() {
                self.full.scrub_disturbed(
                    &mut PageCopy,
                    &mut self.ssd,
                    &mut self.stats,
                    limit,
                    now,
                );
                self.scrub_disturbed_sub(limit, now);
            }
        }
        if self.full.wear_leveling() {
            let erases = self.ssd.device().stats().erases;
            if erases >= self.next_wear_check {
                self.next_wear_check = erases + 16;
                self.full.wear_rotate(
                    &mut PageCopy,
                    &mut self.ssd,
                    &mut self.stats,
                    now,
                    self.wear_delta,
                );
                self.sub_wear_rotate(now);
            }
        }
        if now.saturating_since(self.last_scan) < self.scan_interval {
            return;
        }
        self.last_scan = now;
        self.scrub(now);
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        if !self.background_gc || self.ssd.device_failed() {
            return;
        }
        // Keep the full-page region comfortably above its GC trigger.
        let SubFtl {
            full, ssd, stats, ..
        } = self;
        let mut now = full.background_collect(&mut PageCopy, ssd, stats, from, until, 4);
        // Pre-erase exhausted subpage-region blocks so foreground writes do
        // not stall on a GC episode mid-burst — but only victims that fit
        // in the window (estimate: one read+program per valid subpage, an
        // RMW allowance for evictions, plus the erase).
        use esp_nand::OpKind;
        let per_copy = self.ssd.device().op_cost(OpKind::ReadSubpage).total()
            + self.ssd.device().op_cost(OpKind::ProgramSubpage).total()
            + self.ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = self.ssd.device().op_cost(OpKind::Erase).total();
        while self.has_exhausted_block() {
            let valid = self.min_valid_exhausted();
            if valid > self.pages_per_block / 2 {
                break; // not profitable; let foreground batching decide
            }
            let estimate = per_copy * u64::from(valid) + erase;
            if now + estimate > until {
                break;
            }
            now = self.sub_gc(now);
        }
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        if self.buffer.contains(lsn) {
            return None;
        }
        let state = if let Some(e) = self.hash.peek(lsn) {
            self.ssd
                .device()
                .subpage_state(self.sub_addr(e.block, e.page, e.slot))
        } else {
            let page = u64::from(SECTORS_PER_PAGE);
            let ptr = self.full.lookup(lsn / page)?;
            let addr = self
                .full
                .page_addr(ptr, &self.ssd)
                .subpage((lsn % page) as u8);
            self.ssd.device().subpage_state(addr)
        };
        match state {
            esp_nand::SubpageState::Written(w) => w.oob.filter(|o| o.lsn == lsn).map(|o| o.seq),
            _ => None,
        }
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.buffer.discard(lsn, sectors);
        let page = u64::from(SECTORS_PER_PAGE);
        let (lo, hi) = (lsn, lsn + u64::from(sectors));
        // Subpage-region copies can be dropped at sector granularity.
        for s in lo..hi {
            self.invalidate_sub(s);
        }
        // The coarse full-page map only drops fully-covered pages.
        let first_full = lo.div_ceil(page);
        let last_full = hi / page;
        for lpn in first_full..last_full {
            self.full.unmap(lpn);
        }
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.full.mapping_bytes() + self.hash.memory_bytes() as u64
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
    use crate::runner::{run_trace, Ftl};
    use esp_workload::{generate, IoRequest, SyntheticConfig, Trace};

    fn tiny_ftl() -> SubFtl {
        SubFtl::new(&FtlConfig::tiny())
    }

    #[test]
    fn hot_reads_stay_correctable_with_ladder_and_reclaim() {
        use esp_nand::{RetentionModel, RetryLadder};
        let mut config = FtlConfig::tiny();
        config.retention = RetentionModel::paper_default().with_read_disturb(2e-2);
        config.retry_ladder = Some(RetryLadder::paper_default());
        config.reclaim_threshold = Some(2);
        let mut ftl = SubFtl::new(&config);
        // One sector in the subpage region, one aligned page in the full
        // region: the hot-read loop disturbs blocks in both regions.
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
        ftl.check_invariants();
    }

    #[test]
    fn small_sync_write_is_one_subpage_program() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 1, true, SimTime::ZERO);
        let dev = ftl.ssd().device().stats();
        assert_eq!(dev.subpage_programs, 1);
        assert_eq!(dev.full_programs, 0);
        assert!((ftl.stats().small_request_waf() - 1.0).abs() < 1e-9);
        ftl.check_invariants();
    }

    #[test]
    fn aligned_large_write_goes_to_full_region() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        let dev = ftl.ssd().device().stats();
        assert_eq!(dev.full_programs, 1);
        assert_eq!(dev.subpage_programs, 0);
    }

    #[test]
    fn twenty_kb_write_splits_paper_example() {
        // §4.1: a 20 KB write sends 16 KB to the full-page region and the
        // remaining 4 KB to the subpage region.
        let mut ftl = tiny_ftl();
        ftl.write(0, 5, true, SimTime::ZERO);
        let dev = ftl.ssd().device().stats();
        assert_eq!(dev.full_programs, 1);
        assert_eq!(dev.subpage_programs, 1);
    }

    #[test]
    fn fig7_write_policy_walkthrough() {
        // The paper's Fig 7 example transposed onto the allocator: writes
        // fill slot 0 of consecutive pages, then lap 1 migrates survivors.
        let mut ftl = tiny_ftl();
        // R = <0,1,2,3, 1,2,3,7>: eight 4 KB sync writes.
        for &l in &[0u64, 1, 2, 3, 1, 2, 3, 7] {
            ftl.write(l, 1, true, SimTime::ZERO);
        }
        ftl.check_invariants();
        // All eight programs were erase-free subpage programs at lap 0.
        assert_eq!(ftl.ssd().device().stats().subpage_programs, 8);
        assert_eq!(ftl.stats().lap_migrations, 0);
        assert_eq!(ftl.hash.len(), 5); // live: 0,1,2,3,7
                                       // Hash entries for the re-written sectors point at the new copies.
        assert!(ftl.hash.peek(1).expect("sector 1 mapped").updated);
        assert!(!ftl.hash.peek(0).expect("sector 0 mapped").updated);
    }

    #[test]
    fn lap_advance_migrates_valid_survivor() {
        // Force lap advancement on a tiny region and observe migration of
        // still-valid data to the next subpage level (Fig 7(c)).
        let mut ftl = tiny_ftl();
        let slots_lap0: u64 = ftl
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| *i as u32 != ftl.reserve)
            .map(|_| u64::from(ftl.pages_per_block))
            .sum();
        // Fill every lap-0 slot: first write sector 1000 (stays valid),
        // then churn one hot sector to fill the rest.
        ftl.write(60, 1, true, SimTime::ZERO);
        for i in 1..slots_lap0 {
            ftl.write(80 + (i % 3), 1, true, SimTime::ZERO);
        }
        ftl.check_invariants();
        let migrations_before = ftl.stats().lap_migrations;
        // Next write starts lap 1 somewhere; any page holding live data
        // must migrate it rather than destroy it.
        for i in 0..slots_lap0 {
            ftl.write(90 + (i % 3), 1, true, SimTime::ZERO);
        }
        ftl.check_invariants();
        assert!(ftl.stats().lap_migrations > migrations_before);
        // Sector 1000 is still readable (not destroyed by lap 1 programs).
        ftl.read(60, 1, SimTime::from_secs(1));
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn gc_separates_hot_and_cold() {
        let mut ftl = tiny_ftl();
        // Cold singleton + hot churn until subpage-region GC fires.
        ftl.write(120, 1, true, SimTime::ZERO);
        let mut i = 0u64;
        while ftl.stats().gc_subpage_region == 0 && i < 20_000 {
            ftl.write(100 + (i % 5), 1, true, SimTime::ZERO);
            i += 1;
        }
        assert!(ftl.stats().gc_subpage_region > 0, "sub GC never fired");
        ftl.check_invariants();
        assert_eq!(ftl.stats().read_faults, 0);
        // Everything still readable.
        ftl.read(120, 1, SimTime::from_secs(5));
        for l in 100..105 {
            ftl.read(l, 1, SimTime::from_secs(5));
        }
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn cold_data_eventually_evicts_to_full_region() {
        let mut ftl = tiny_ftl();
        // Write-once sectors (never updated) + enough churn to cycle GC.
        for l in 0..8u64 {
            ftl.write(110 + l, 1, true, SimTime::ZERO);
        }
        for i in 0..30_000u64 {
            ftl.write(100 + (i % 4), 1, true, SimTime::ZERO);
            if ftl.stats().cold_evictions > 0 {
                break;
            }
        }
        assert!(ftl.stats().cold_evictions > 0, "no cold eviction happened");
        ftl.check_invariants();
        // Evicted sectors remain readable from the full-page region.
        for l in 0..8u64 {
            ftl.read(110 + l, 1, SimTime::from_secs(9));
        }
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn retention_scrub_evicts_old_subpages() {
        let mut ftl = tiny_ftl();
        ftl.write(42, 1, true, SimTime::ZERO);
        assert_eq!(ftl.subpage_entries(), 1);
        // 16 simulated days later the scrubber must evict it.
        let later = SimTime::ZERO + SimDuration::from_days(16);
        ftl.maintain(later);
        assert_eq!(ftl.stats().retention_evictions, 1);
        assert_eq!(ftl.subpage_entries(), 0);
        ftl.check_invariants();
        // Still readable (now from the full-page region), even 3 months on —
        // full-page data has Npp^0 retention.
        ftl.read(42, 1, SimTime::ZERO + SimDuration::from_months(3));
        assert_eq!(ftl.stats().read_faults, 0);
    }

    #[test]
    fn without_scrub_old_subpage_data_would_die() {
        // Demonstrates why §4.3 exists: bypass maintain() and read a
        // subpage after the device retention bound.
        let mut ftl = tiny_ftl();
        ftl.ssd.device_mut().precycle(1000);
        // Build an Npp-stressed entry by filling laps.
        let total: u64 = 4 * 8 * 4; // approx slots
        for i in 0..total {
            ftl.write(i % 16, 1, true, SimTime::ZERO);
        }
        // Far beyond every subpage's retention capability:
        let later = SimTime::ZERO + SimDuration::from_months(11);
        for l in 0..16u64 {
            ftl.read(l, 1, later);
        }
        assert!(
            ftl.stats().read_faults > 0,
            "aged subpage data should be unreadable without scrubbing"
        );
    }

    /// A geometry big enough that the paper's sizing assumption holds (the
    /// subpage region comfortably covers the hot working set); the tiny
    /// 16-block device cannot represent that regime.
    fn medium_cfg() -> FtlConfig {
        FtlConfig {
            geometry: esp_nand::Geometry {
                channels: 2,
                chips_per_channel: 1,
                blocks_per_chip: 32,
                pages_per_block: 16,
                subpages_per_page: 4,
                subpage_bytes: 4096,
            },
            overprovision: 0.4,
            write_buffer_sectors: 64,
            ..FtlConfig::paper_default()
        }
    }

    #[test]
    fn mixed_workload_end_to_end() {
        let mut ftl = SubFtl::new(&medium_cfg());
        let cfg = SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 5_000,
            r_small: 0.7,
            r_synch: 0.8,
            read_fraction: 0.2,
            zipf_theta: 0.9,
            small_zone_sectors: Some(32),
            ..SyntheticConfig::default()
        };
        let report = run_trace(&mut ftl, &generate(&cfg));
        assert_eq!(report.stats.read_faults, 0);
        assert!(report.iops > 0.0);
        ftl.check_invariants();
        // Small writes stay near WAF 1 (Table 1); allow slack for the small
        // region of this test device.
        assert!(
            report.stats.small_request_waf() < 2.0,
            "small request WAF {}",
            report.stats.small_request_waf()
        );
    }

    #[test]
    fn subftl_beats_fgm_on_sync_small_writes() {
        // The headline claim: fewer erases and higher IOPS than fgmFTL
        // under sync-small-write pressure.
        let cfg = medium_cfg();
        let make_trace = |logical: u64| {
            generate(&SyntheticConfig {
                footprint_sectors: logical / 2,
                requests: 6_000,
                r_small: 1.0,
                r_synch: 1.0,
                zipf_theta: 0.85,
                // Keep the live small-write set inside the subpage region
                // (the paper's sizing regime, §4.1).
                small_zone_sectors: Some(32),
                seed: 11,
                ..SyntheticConfig::default()
            })
        };
        let mut sub = SubFtl::new(&cfg);
        crate::runner::precondition(&mut sub, 0.85);
        let trace = make_trace(sub.logical_sectors());
        let sub_report = run_trace(&mut sub, &trace);
        let mut fgm = crate::fgm::FgmFtl::new(&cfg);
        crate::runner::precondition(&mut fgm, 0.85);
        let trace = make_trace(fgm.logical_sectors());
        let fgm_report = run_trace(&mut fgm, &trace);
        assert!(
            sub_report.iops > fgm_report.iops,
            "subFTL {} <= fgmFTL {}",
            sub_report.iops,
            fgm_report.iops
        );
        assert!(
            sub_report.erases < fgm_report.erases,
            "subFTL erases {} >= fgmFTL erases {}",
            sub_report.erases,
            fgm_report.erases
        );
    }

    #[test]
    fn trim_frees_subpage_and_full_mappings() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO); // full region
        ftl.write(8, 1, true, SimTime::ZERO); // subpage region
        assert_eq!(ftl.subpage_entries(), 1);
        ftl.trim(0, 4);
        ftl.trim(8, 1);
        assert_eq!(ftl.subpage_entries(), 0);
        assert_eq!(ftl.stored_seq(0), None);
        assert_eq!(ftl.stored_seq(8), None);
        ftl.check_invariants();
        // Reads of trimmed data are benign (no faults), and re-writing works.
        ftl.read(0, 5, SimTime::from_secs(1));
        assert_eq!(ftl.stats().read_faults, 0);
        ftl.write(8, 1, true, SimTime::from_secs(2));
        assert!(ftl.stored_seq(8).is_some());
    }

    #[test]
    fn partial_trim_keeps_coarse_page_mapped() {
        let mut ftl = tiny_ftl();
        ftl.write(0, 4, true, SimTime::ZERO);
        // Trimming 2 of 4 sectors cannot unmap a 16 KB page.
        ftl.trim(0, 2);
        assert!(ftl.stored_seq(3).is_some());
        ftl.check_invariants();
    }

    #[test]
    fn background_gc_trims_worst_case_latency() {
        use esp_sim::SimDuration;
        let make_trace = |logical: u64| {
            generate(&SyntheticConfig {
                footprint_sectors: (logical as f64 * 0.625) as u64,
                requests: 16_000,
                r_small: 1.0,
                r_synch: 1.0,
                zipf_theta: 0.9,
                small_zone_sectors: Some(64),
                burst_period: 32,
                burst_idle: SimDuration::from_millis(120),
                seed: 5,
                ..SyntheticConfig::default()
            })
        };
        let run = |background: bool| {
            let cfg = FtlConfig {
                background_gc: background,
                ..medium_cfg()
            };
            let mut ftl = SubFtl::new(&cfg);
            let trace = make_trace(ftl.logical_sectors());
            let r = run_trace(&mut ftl, &trace);
            assert_eq!(r.stats.read_faults, 0);
            ftl.check_invariants();
            r.latency_all().max()
        };
        let fg_worst = run(false);
        let bg_worst = run(true);
        assert!(
            bg_worst < fg_worst,
            "background GC should cut the worst fsync ({bg_worst} !< {fg_worst})"
        );
    }

    #[test]
    fn run_report_counts_match_trace() {
        let mut ftl = tiny_ftl();
        let mut t = Trace::new(100);
        t.push(IoRequest::write(SimTime::ZERO, 0, 1, true));
        t.push(IoRequest::write(SimTime::ZERO, 4, 4, false));
        t.push(IoRequest::read(SimTime::ZERO, 0, 1));
        let report = run_trace(&mut ftl, &t);
        assert_eq!(report.requests, 3);
        assert_eq!(report.stats.host_write_requests, 2);
        assert_eq!(report.stats.small_write_requests, 1);
        assert_eq!(report.stats.host_read_requests, 1);
    }

    #[test]
    fn survives_faults_and_factory_bad_blocks() {
        // erase_fail_prob must stay low on the 16-block tiny device: every
        // grown bad block permanently shrinks a pool that has no slack.
        let mut config = FtlConfig::tiny();
        config.fault = Some(esp_nand::FaultConfig {
            seed: 31,
            program_fail_prob: 0.02,
            erase_fail_prob: 0.001,
            factory_bad_blocks: 1,
            ..esp_nand::FaultConfig::default()
        });
        let mut ftl = SubFtl::new(&config);
        assert_eq!(
            ftl.stats().blocks_retired,
            1,
            "factory bad block retired at mount"
        );
        let logical = ftl.logical_sectors();
        let cfg = SyntheticConfig {
            footprint_sectors: logical / 2,
            requests: 2_000,
            r_small: 0.7,
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
        ftl.check_invariants();
    }
}
