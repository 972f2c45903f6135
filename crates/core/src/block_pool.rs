//! The block pool: one flash-space engine for every block-managed region.
//!
//! A pool manages a set of erase blocks that are programmed in whole 16 KB
//! pages and tracks validity per *slot*. A slot is a page for the
//! coarse-mapped regions — the paper's `cgmFTL`, subFTL's full-page region
//! ("managed in exactly the same way as the CGM-based FTLs", §4.1) and the
//! sector log's data region — and a 4 KB subpage for `fgmFTL` and the
//! sector log's log region.
//!
//! The pool owns:
//!
//! * per-block state (device-global index, chip, pages programmed, valid
//!   slots, close stamp, retired) as flat arrays, plus one validity vector
//!   indexed by the packed slot pointer
//!   (`block * slots_per_block + page * slots_per_page + slot`) that the
//!   dense key → slot map also stores,
//! * striped allocation: one open block per chip, refilled by a rule the
//!   owner hands in (least-worn-first by default),
//! * policy-driven GC victim selection ([`crate::GcPolicyKind`], optionally
//!   wear-biased), the watermark / end-of-life space loop, background
//!   collection, the read-disturb patrol, static wear rotation and the
//!   erase-or-retire tail,
//! * donating, swapping and adopting free blocks across regions, and the
//!   crash harness's pool fingerprint and recovery-time rebuild.
//!
//! What differs between owners is how live data leaves a victim: the page
//! pool copies page by page ([`PageCopy`]), fgmFTL repacks surviving
//! sectors `N_sub` to a page, and the sector log merges its victims into
//! the data region. Each owner hands that routine to the pool's loops as a
//! [`Relocate`] implementation. Host-facing policy (write buffering, RMW
//! gathering, WAF attribution) stays in the owning FTL.

use esp_nand::{Oob, PageAddr};
use esp_sim::{EventBuffer, EventSink, SimTime, TraceEvent};
use esp_ssd::Ssd;
use esp_workload::SECTORS_PER_PAGE;

use crate::eol::SpaceExhausted;
use crate::gc_policy::{select_victim, GcPolicyKind, SelectOpts, VictimCandidate};
use crate::recovery::BlockScan;
use crate::stats::FtlStats;

const NO_PTR: u32 = u32::MAX;

/// The watermark never shrinks below this floor: one erased block must stay
/// in reserve so GC copy-out has somewhere to land.
const WATERMARK_FLOOR: u32 = 1;

/// Packed physical page pointer of a page pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePtr {
    /// Pool-local block index.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

/// How an owner moves the live slots of a GC victim out of it. The pool's
/// loops pick the victim, call [`Relocate::relocate`], and erase (or
/// retire) the victim only if no slot is left valid afterwards — a
/// relocation that could not place everything leaves sole copies where
/// they are.
pub(crate) trait Relocate {
    /// Moves every valid slot of `victim` elsewhere, returning when the
    /// last copy completes. Stops early (leaving slots valid) when power
    /// dies or the destination has no room.
    fn relocate(
        &mut self,
        pool: &mut BlockPool,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime;

    /// Whether the space loop keeps collecting after the pool latched
    /// exhaustion. The page pool retries on every call; fgmFTL stops.
    fn gc_when_exhausted(&self) -> bool {
        true
    }

    /// Whether `victim`'s live slots fit where relocation puts them right
    /// now, so copy-out cannot wedge. By default: repacked whole pages fit
    /// in the pool's own allocatable pages.
    fn fits(&self, pool: &BlockPool, victim: u32) -> bool {
        let pages = pool.valid_count(victim).div_ceil(pool.slots_per_page);
        u64::from(pages) <= pool.allocatable_pages()
    }

    /// Highest effective P/E outside the pool that counts toward the wear
    /// spread static rotation levels (0: only the pool's own blocks).
    fn outside_max_pe(&self, _ssd: &Ssd) -> u32 {
        0
    }

    /// Runs after a collected victim was erased and returned to the free
    /// list.
    fn after_erase(&mut self, _pool: &mut BlockPool, _ssd: &Ssd, _stats: &mut FtlStats) {}
}

/// The page pool's relocation: each valid page is read and reprogrammed
/// under its own LPN, aborting before the victim's only copy of a page
/// could be erased.
pub(crate) struct PageCopy;

impl Relocate for PageCopy {
    fn relocate(
        &mut self,
        pool: &mut BlockPool,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        for page in 0..pool.pages_per_block {
            let ptr = pool.pack(victim, page, 0);
            if !pool.valid[ptr as usize] {
                continue;
            }
            let addr = pool.page_of(victim, page, ssd);
            let read_done = ssd.read_full_into(addr, now, &mut pool.slots_scratch);
            if ssd.halted() {
                // Power died before the relocation finished: the victim's
                // remaining valid pages stay where they are on flash, and
                // the in-DRAM state of this half-done GC dies with power.
                return now;
            }
            // Recover the LPN from the spare area of any data slot.
            let lpn = pool
                .slots_scratch
                .iter()
                .find_map(|r| r.as_ref().ok().map(|o| o.lsn / u64::from(SECTORS_PER_PAGE)))
                .expect("valid page with no data slots");
            debug_assert_eq!(pool.mapped(lpn), Some(ptr), "validity and map out of sync");
            let mut oobs = std::mem::take(&mut pool.oobs_scratch);
            oobs.clear();
            oobs.extend(pool.slots_scratch.iter().map(|r| r.as_ref().ok().copied()));
            let data_sectors = oobs.iter().flatten().count() as u64;
            now = pool.program_internal(lpn, &oobs, ssd, stats, read_done);
            pool.oobs_scratch = oobs;
            if pool.mapped(lpn) == Some(ptr) {
                // Relocation could not land anywhere (absolute exhaustion):
                // stop before the erase can destroy the only valid copy.
                return now;
            }
            stats.gc_copied_sectors += data_sectors;
            stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        }
        now
    }
}

/// Picks the free-list position of the block that refills `chip`'s open
/// block, or `None` when the chip has no free block.
pub(crate) type Refill = fn(&BlockPool, usize, &Ssd) -> Option<usize>;

/// The default refill rule: the chip's least-worn free block, first in
/// free-list order among equals.
fn least_worn_refill(pool: &BlockPool, chip: usize, ssd: &Ssd) -> Option<usize> {
    pool.free_on_chip(chip)
        .min_by_key(|&(_, b)| pool.block_pe(b, ssd))
        .map(|(pos, _)| pos)
}

/// The block pool (see module docs).
#[derive(Debug, Clone)]
pub struct BlockPool {
    pages_per_block: u32,
    /// Validity slots per page: 1 (page slots) or `N_sub` (subpage slots).
    slots_per_page: u32,
    /// Device blocks-per-chip, used to derive a block's chip for striping.
    blocks_per_chip: u32,
    /// Device-global block index, per pool-local block.
    gbi: Vec<u32>,
    /// Chip holding each block (`gbi / blocks_per_chip`), precomputed so
    /// victim scans avoid a division per lookup.
    chip: Vec<u32>,
    /// Pages programmed so far (the write pointer when active).
    programmed: Vec<u32>,
    valid_count: Vec<u32>,
    /// Monotone stamp taken when a block became fully programmed; 0 for
    /// erased or recovery-restored blocks (maximally old to the age-aware
    /// GC policies).
    closed_seq: Vec<u64>,
    /// Grown bad or donated to another region: never used again here.
    retired: Vec<bool>,
    /// Per-slot validity, indexed by packed slot pointer.
    valid: Vec<bool>,
    /// Erased blocks ready for allocation (pool-local indices).
    free: Vec<u32>,
    /// One active (open) block per chip, so programs stripe across chips
    /// and exploit the multi-channel parallelism the paper's platform has.
    actives: Vec<Option<u32>>,
    /// Round-robin cursor over chips.
    rr: usize,
    /// Dense map: key (LPN or LSN) → packed slot pointer (`NO_PTR` =
    /// unmapped). Empty for a pool whose owner keeps a sparse map.
    map: Vec<u32>,
    watermark: u32,
    /// Wear-aware victim selection and cold-block rotation enabled.
    wear_leveling: bool,
    /// GC victim-selection policy (greedy by default).
    gc_policy: GcPolicyKind,
    /// Next close stamp (starts at 1 so restored blocks' stamp 0 reads as
    /// oldest).
    closed_seq_counter: u64,
    /// Allocation failed at the watermark floor: the pool is end-of-life
    /// (or overcommitted) and refuses further space-consuming work.
    exhausted: bool,
    /// Blocks lost to grown-bad retirement (erase failures and
    /// [`BlockPool::retire_gbi`]); donations are not counted. Decides
    /// whether exhaustion reports [`SpaceExhausted::EndOfLife`].
    retired_bad: u32,
    /// How an empty open block is refilled.
    refill: Refill,
    /// GC/scrub/reclaim event recorder; disabled (free) by default.
    trace: EventBuffer,
    /// Reused full-page read buffer and OOB staging for page relocation
    /// and read-reclaim, so those hot paths allocate nothing per page.
    slots_scratch: Vec<Result<Oob, esp_nand::ReadFault>>,
    oobs_scratch: Vec<Option<Oob>>,
    /// Reused GC victim candidate list.
    victims: Vec<VictimCandidate>,
}

impl BlockPool {
    /// Creates a page pool over the given device-global blocks, mapping a
    /// logical space of `lpn_count` 16 KB pages. `blocks_per_chip` is the
    /// device's blocks-per-chip count, used to stripe writes across chips.
    ///
    /// # Panics
    ///
    /// Panics if `gbis` is empty or the watermark leaves no usable space.
    #[must_use]
    pub fn new(
        gbis: Vec<u32>,
        pages_per_block: u32,
        blocks_per_chip: u32,
        lpn_count: u64,
        watermark: u32,
    ) -> Self {
        assert!(
            gbis.len() as u32 > watermark,
            "watermark {watermark} leaves no usable blocks"
        );
        Self::with_slots(
            gbis,
            pages_per_block,
            1,
            blocks_per_chip,
            lpn_count,
            watermark,
        )
    }

    /// Creates a pool with `slots_per_page` validity slots per page and a
    /// dense map over `keys` keys (0 when the owner keeps its own map).
    ///
    /// # Panics
    ///
    /// Panics if `gbis` is empty.
    pub(crate) fn with_slots(
        gbis: Vec<u32>,
        pages_per_block: u32,
        slots_per_page: u32,
        blocks_per_chip: u32,
        keys: u64,
        watermark: u32,
    ) -> Self {
        assert!(!gbis.is_empty(), "block pool needs at least one block");
        assert!(blocks_per_chip > 0, "blocks_per_chip must be non-zero");
        let n = gbis.len();
        let chip: Vec<u32> = gbis.iter().map(|&g| g / blocks_per_chip).collect();
        let chips = *chip.iter().max().expect("non-empty") as usize + 1;
        BlockPool {
            pages_per_block,
            slots_per_page,
            blocks_per_chip,
            gbi: gbis,
            chip,
            programmed: vec![0; n],
            valid_count: vec![0; n],
            closed_seq: vec![0; n],
            retired: vec![false; n],
            valid: vec![false; n * (pages_per_block * slots_per_page) as usize],
            free: (0..n as u32).collect(),
            actives: vec![None; chips],
            rr: 0,
            map: vec![NO_PTR; keys as usize],
            watermark,
            wear_leveling: false,
            gc_policy: GcPolicyKind::Greedy,
            closed_seq_counter: 1,
            exhausted: false,
            retired_bad: 0,
            refill: least_worn_refill,
            trace: EventBuffer::disabled(),
            slots_scratch: Vec::new(),
            oobs_scratch: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// Replaces the rule that picks a chip's next open block.
    pub(crate) fn set_refill(&mut self, refill: Refill) {
        self.refill = refill;
    }

    /// Arms event tracing for the pool's GC/scrub/reclaim decisions,
    /// keeping at most `capacity` events (keep-newest). Off by default.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The pool's trace recorder (empty unless
    /// [`BlockPool::enable_tracing`] was called).
    #[must_use]
    pub fn trace(&self) -> &EventBuffer {
        &self.trace
    }

    /// The recorder, for owner-level events that belong with the pool's.
    pub(crate) fn trace_mut(&mut self) -> &mut EventBuffer {
        &mut self.trace
    }

    pub(crate) fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    pub(crate) fn slots_per_block(&self) -> u32 {
        self.pages_per_block * self.slots_per_page
    }

    /// Packs a slot pointer.
    pub(crate) fn pack(&self, block: u32, page: u32, slot: u32) -> u32 {
        block * self.slots_per_block() + page * self.slots_per_page + slot
    }

    /// Splits a slot pointer into `(block, page, slot)`.
    pub(crate) fn unpack(&self, ptr: u32) -> (u32, u32, u32) {
        let spb = self.slots_per_block();
        (
            ptr / spb,
            (ptr % spb) / self.slots_per_page,
            ptr % self.slots_per_page,
        )
    }

    /// Device-global index of pool-local block `local`.
    pub(crate) fn gbi(&self, local: u32) -> u32 {
        self.gbi[local as usize]
    }

    pub(crate) fn valid_count(&self, local: u32) -> u32 {
        self.valid_count[local as usize]
    }

    pub(crate) fn is_valid(&self, ptr: u32) -> bool {
        self.valid[ptr as usize]
    }

    /// Whether any slot of `page` in block `local` holds valid data.
    pub(crate) fn page_has_valid(&self, local: u32, page: u32) -> bool {
        let start = self.pack(local, page, 0) as usize;
        self.valid[start..start + self.slots_per_page as usize]
            .iter()
            .any(|&v| v)
    }

    /// O(1) test for "is this block an open active block": an active
    /// block only ever occupies its own chip's slot (see `alloc_page`).
    fn is_active(&self, local: u32) -> bool {
        self.actives[self.chip[local as usize] as usize] == Some(local)
    }

    fn is_full(&self, local: u32) -> bool {
        self.programmed[local as usize] >= self.pages_per_block
    }

    /// Number of erased blocks available.
    #[must_use]
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Free-list positions and blocks on `chip`, in free-list order.
    pub(crate) fn free_on_chip(&self, chip: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.free
            .iter()
            .copied()
            .enumerate()
            .filter(move |&(_, b)| self.chip[b as usize] as usize == chip)
    }

    /// Total (non-retired) blocks under management.
    #[must_use]
    pub fn block_count(&self) -> u32 {
        self.retired.iter().filter(|&&r| !r).count() as u32
    }

    /// Enables (or disables) wear-aware victim selection and cold-block
    /// rotation. Off by default; with it off the pool's decisions are
    /// bit-identical to the pre-wear-leveling behaviour.
    pub fn set_wear_leveling(&mut self, on: bool) {
        self.wear_leveling = on;
    }

    /// Whether wear-aware victim selection is enabled.
    #[must_use]
    pub fn wear_leveling(&self) -> bool {
        self.wear_leveling
    }

    /// Selects the GC victim policy. Greedy (the default) is bit-identical
    /// to the historical behaviour; see [`crate::GcPolicyKind`].
    pub fn set_gc_policy(&mut self, policy: GcPolicyKind) {
        self.gc_policy = policy;
    }

    /// The active GC victim policy.
    #[must_use]
    pub fn gc_policy(&self) -> GcPolicyKind {
        self.gc_policy
    }

    /// Stamps `local` with the next close sequence if it just became fully
    /// programmed (feeds the age term of the age-aware GC policies).
    fn note_closed(&mut self, local: u32) {
        let b = local as usize;
        if self.programmed[b] >= self.pages_per_block && self.closed_seq[b] == 0 {
            self.closed_seq[b] = self.closed_seq_counter;
            self.closed_seq_counter += 1;
        }
    }

    /// Current GC watermark (free blocks kept in reserve). Shrinks toward
    /// the floor of 1 as end-of-life degradation sheds over-provisioning.
    #[must_use]
    pub fn watermark(&self) -> u32 {
        self.watermark
    }

    /// True once allocation has failed at the watermark floor: the pool
    /// refuses space-consuming work from then on (see
    /// [`BlockPool::exhaustion`] for the typed cause).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The typed reason allocation is (or would be) refused: end-of-life if
    /// any block was lost to grown-bad retirement, plain device-full
    /// otherwise.
    #[must_use]
    pub fn exhaustion(&self) -> SpaceExhausted {
        if self.retired_bad > 0 {
            SpaceExhausted::EndOfLife
        } else {
            SpaceExhausted::DeviceFull
        }
    }

    /// Pages still allocatable without GC: room left in open blocks plus
    /// the whole free pool.
    fn allocatable_pages(&self) -> u64 {
        let active_room: u64 = self
            .actives
            .iter()
            .flatten()
            .map(|&b| u64::from(self.pages_per_block - self.programmed[b as usize]))
            .sum();
        active_room + self.free.len() as u64 * u64::from(self.pages_per_block)
    }

    /// Whether at least one more page can be allocated right now.
    pub(crate) fn can_alloc_page(&self) -> bool {
        !self.free.is_empty() || self.actives.iter().flatten().any(|&b| !self.is_full(b))
    }

    /// Effective P/E cycles of pool-local block `local` (raw erase count
    /// unless adaptive erase is charging fractional stress).
    pub(crate) fn block_pe(&self, local: u32, ssd: &Ssd) -> u32 {
        ssd.device()
            .effective_pe(ssd.geometry().block_addr(self.gbi[local as usize]))
    }

    /// Min/max effective P/E over all non-retired blocks under management,
    /// or `None` when every block is retired.
    #[must_use]
    pub fn wear_spread(&self, ssd: &Ssd) -> Option<(u32, u32)> {
        let mut bounds: Option<(u32, u32)> = None;
        for i in 0..self.gbi.len() as u32 {
            if self.retired[i as usize] {
                continue;
            }
            let pe = self.block_pe(i, ssd);
            bounds = Some(match bounds {
                None => (pe, pe),
                Some((lo, hi)) => (lo.min(pe), hi.max(pe)),
            });
        }
        bounds
    }

    /// Order-independent digest of the pool's allocation state (free
    /// pool, open blocks, per-block fill of live blocks), used by the crash
    /// harness to prove recovery is idempotent. Simulated times are
    /// excluded on purpose: two mounts of the same flash image happen at
    /// different clocks but must land in the same state.
    pub(crate) fn pool_fingerprint(&self) -> Vec<u64> {
        // Keyed by device-global block index, not local position: two
        // mounts of the same image may deal the regions in a different
        // order, and retired blocks (grown bad, or donated to another
        // region) drop out of the pool entirely on a remount.
        let mut out = Vec::new();
        let mut free: Vec<u64> = self
            .free
            .iter()
            .map(|&b| u64::from(self.gbi[b as usize]))
            .collect();
        free.sort_unstable();
        out.extend(free);
        out.push(u64::MAX);
        for a in &self.actives {
            out.push(a.map_or(u64::MAX - 1, |b| u64::from(self.gbi[b as usize])));
        }
        out.push(u64::MAX);
        let mut live: Vec<[u64; 3]> = (0..self.gbi.len())
            .filter(|&b| !self.retired[b])
            .map(|b| {
                [
                    u64::from(self.gbi[b]),
                    u64::from(self.programmed[b]),
                    u64::from(self.valid_count[b]),
                ]
            })
            .collect();
        live.sort_unstable();
        for b in live {
            out.extend(b);
        }
        out
    }

    /// The slot pointer currently mapped for `key`, if any.
    pub(crate) fn mapped(&self, key: u64) -> Option<u32> {
        let ptr = *self.map.get(key as usize)?;
        (ptr != NO_PTR).then_some(ptr)
    }

    /// The physical page currently mapped for `lpn`, if any.
    #[must_use]
    pub fn lookup(&self, lpn: u64) -> Option<PagePtr> {
        self.mapped(lpn).map(|ptr| {
            let (block, page, _) = self.unpack(ptr);
            PagePtr { block, page }
        })
    }

    /// Translates a pointer to a device page address.
    #[must_use]
    pub fn page_addr(&self, ptr: PagePtr, ssd: &Ssd) -> PageAddr {
        self.page_of(ptr.block, ptr.page, ssd)
    }

    /// Device address of page `page` of pool-local block `local`.
    pub(crate) fn page_of(&self, local: u32, page: u32, ssd: &Ssd) -> PageAddr {
        ssd.geometry()
            .block_addr(self.gbi[local as usize])
            .page(page)
    }

    /// Marks slot `ptr` valid (its block gains a valid slot).
    pub(crate) fn set_valid(&mut self, ptr: u32) {
        debug_assert!(!self.valid[ptr as usize], "slot {ptr} already valid");
        self.valid[ptr as usize] = true;
        let block = ptr / self.slots_per_block();
        self.valid_count[block as usize] += 1;
    }

    /// Marks slot `ptr` garbage, if it was valid.
    pub(crate) fn clear_valid(&mut self, ptr: u32) {
        if self.valid[ptr as usize] {
            self.valid[ptr as usize] = false;
            let block = ptr / self.slots_per_block();
            self.valid_count[block as usize] -= 1;
        }
    }

    /// Maps `key` to slot `ptr`; the previous copy, if any, becomes garbage.
    pub(crate) fn map_slot(&mut self, key: u64, ptr: u32) {
        self.unmap(key);
        self.map[key as usize] = ptr;
        self.set_valid(ptr);
    }

    /// Unmaps `key` (trim-style): its old slot becomes garbage.
    pub fn unmap(&mut self, key: u64) {
        let ptr = self.map[key as usize];
        if ptr != NO_PTR {
            self.clear_valid(ptr);
            self.map[key as usize] = NO_PTR;
        }
    }

    /// Garbage-collects until the free pool is back above the watermark,
    /// then programs one full page for `lpn` with the given spare entries
    /// (`oobs[slot]` must carry `lsn == lpn * 4 + slot` for data slots).
    ///
    /// Returns the completion time of the program (including any GC that
    /// had to run first).
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted (see
    /// [`BlockPool::try_program_page`] for the non-panicking form) or an
    /// OOB entry carries an inconsistent LSN.
    pub fn program_page(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        self.try_program_page(lpn, oobs, ssd, stats, issue)
            .unwrap_or_else(|e| panic!("block pool out of space: {e}"))
    }

    /// Like [`BlockPool::program_page`], but reports pool exhaustion as a
    /// typed error instead of panicking: callers on the host write path
    /// turn [`SpaceExhausted`] into a refused write plus the read-only
    /// latch (end-of-life degradation, DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Returns the pool's [`BlockPool::exhaustion`] cause when GC (after
    /// shedding over-provisioning down to the watermark floor) cannot make
    /// a page allocatable.
    ///
    /// # Panics
    ///
    /// Panics if an OOB entry carries an inconsistent LSN.
    pub fn try_program_page(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> Result<SimTime, SpaceExhausted> {
        for (slot, oob) in oobs.iter().enumerate() {
            if let Some(o) = oob {
                assert_eq!(
                    o.lsn / u64::from(SECTORS_PER_PAGE),
                    lpn,
                    "oob slot {slot} lsn {} does not belong to lpn {lpn}",
                    o.lsn
                );
            }
        }
        let ready = self.ensure_space(&mut PageCopy, ssd, stats, issue);
        if !ssd.halted() && !self.can_alloc_page() {
            return Err(self.exhaustion());
        }
        let done = self.program_internal(lpn, oobs, ssd, stats, ready);
        stats.flash_sectors_consumed += u64::from(SECTORS_PER_PAGE);
        Ok(done)
    }

    /// Programs the next allocated page with `oobs`, returning the
    /// `(block, page, completion)` it landed on. A program that reports
    /// status fail is retried on the next allocated page (write retry): the
    /// failed page stays accounted as programmed with no valid data, so GC
    /// reclaims it with the rest of its block. Returns `Err` with the
    /// current time when power is off or no page is left.
    pub(crate) fn program(
        &mut self,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> Result<(u32, u32, SimTime), SimTime> {
        let mut now = issue;
        loop {
            // Power off (the pool may legitimately be empty with GC fenced)
            // or absolute exhaustion (program-failure retries burned the
            // last pages of a dying pool): drop the program instead of
            // panicking. Maps are untouched, so old copies stay readable.
            if ssd.halted() || !self.can_alloc_page() {
                return Err(now);
            }
            let (block, page) = self.alloc_page(ssd);
            let addr = self.page_of(block, page, ssd);
            match ssd.program_full(addr, oobs, now) {
                Ok(done) => return Ok((block, page, done)),
                Err(f) if f.error == esp_nand::NandError::ProgramFailed => {
                    stats.program_failures += 1;
                    stats.write_retries += 1;
                    now = f.at;
                }
                Err(f) => panic!("pool allocated a clean page: {f}"),
            }
        }
    }

    /// Programs one page for `lpn` and maps it (page pools).
    fn program_internal(
        &mut self,
        lpn: u64,
        oobs: &[Option<Oob>],
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        match self.program(oobs, ssd, stats, issue) {
            Ok((block, page, done)) => {
                self.map_slot(lpn, self.pack(block, page, 0));
                done
            }
            Err(now) => now,
        }
    }

    /// Next write position: round-robins over per-chip active blocks so
    /// consecutive programs land on different chips; a full active block is
    /// replaced by the free block the refill rule picks on its chip.
    ///
    /// # Panics
    ///
    /// Panics if no chip has space (callers check
    /// [`BlockPool::can_alloc_page`] first).
    fn alloc_page(&mut self, ssd: &Ssd) -> (u32, u32) {
        let chips = self.actives.len();
        for i in 0..chips {
            let chip = (self.rr + i) % chips;
            if self.actives[chip].is_none_or(|b| self.is_full(b)) {
                match (self.refill)(self, chip, ssd) {
                    Some(pos) => self.actives[chip] = Some(self.free.swap_remove(pos)),
                    None => continue, // this chip is out of space; try next
                }
            }
            let block = self.actives[chip].expect("just ensured");
            let page = self.programmed[block as usize];
            self.programmed[block as usize] += 1;
            self.note_closed(block);
            self.rr = chip + 1;
            return (block, page);
        }
        panic!("no free block on any chip: pool overcommitted");
    }

    /// Background collection during a host idle window: reclaims victims
    /// while the free pool sits below `target` free blocks and the clock
    /// stays inside `[issue, until]` (the final victim may overrun
    /// slightly). Only profitable victims (any invalid slot) are taken.
    pub(crate) fn background_collect(
        &mut self,
        reloc: &mut impl Relocate,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        until: SimTime,
        target: u32,
    ) -> SimTime {
        use esp_nand::OpKind;
        let per_copy = ssd.device().op_cost(OpKind::ReadFull).total()
            + ssd.device().op_cost(OpKind::ProgramFull).total();
        let erase = ssd.device().op_cost(OpKind::Erase).total();
        let mut now = issue;
        while !ssd.halted() && (self.free.len() as u32) < target {
            let Some(v) = self.pick_victim(ssd) else {
                break;
            };
            let valid = self.valid_count[v as usize];
            if valid >= self.slots_per_block() {
                break; // nothing reclaimable
            }
            if !reloc.fits(self, v) {
                break; // copy-out would wedge a dying pool
            }
            // Start the victim only if it fits in the remaining window (the
            // whole point is to stay off the foreground path).
            let estimate = per_copy * u64::from(valid.div_ceil(self.slots_per_page)) + erase;
            if now + estimate > until {
                break;
            }
            now = self
                .try_collect_victim(reloc, ssd, stats, now, "background")
                .expect("victim checked profitable and feasible");
        }
        now
    }

    /// Runs GC until the free pool is above the watermark, degrading
    /// gracefully when it cannot get there: with no profitable-and-feasible
    /// victim left, the watermark is shed step by step (over-provisioning
    /// shrink, counted in `op_shrinks`) down to a floor of 1; at the floor
    /// the pool latches [`BlockPool::exhausted`] and returns instead of
    /// panicking or spinning. Returns when the last GC operation completes
    /// (`issue` if no GC was needed).
    pub(crate) fn ensure_space(
        &mut self,
        reloc: &mut impl Relocate,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        if self.exhausted && !reloc.gc_when_exhausted() {
            return now;
        }
        while !ssd.halted() && (self.free.len() as u32) < self.watermark {
            match self.try_collect_victim(reloc, ssd, stats, now, "watermark") {
                Some(done) => now = done,
                None if self.watermark > WATERMARK_FLOOR => {
                    // Degradation step 1: shed over-provisioning. A lower
                    // reserve keeps writes flowing at the cost of GC
                    // headroom.
                    self.watermark -= 1;
                    stats.op_shrinks += 1;
                }
                None => {
                    // Degradation step 2: nothing reclaimable at the floor.
                    // Latch exhaustion; the caller refuses the write.
                    self.exhausted = true;
                    break;
                }
            }
        }
        now
    }

    /// Read-reclaim (page pools): rewrites the current copy of `lpn` to a
    /// fresh page, resetting its retention age and escaping its (disturbed)
    /// block. Slots that are already uncorrectable are dropped — relocation
    /// preserves whatever the ladder can still recover. No-op if `lpn` is
    /// unmapped or nothing on the page is recoverable.
    pub fn reclaim_page(
        &mut self,
        lpn: u64,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let Some(ptr) = self.lookup(lpn) else {
            return issue;
        };
        let addr = self.page_addr(ptr, ssd);
        let read_done = ssd.read_full_into(addr, issue, &mut self.slots_scratch);
        if ssd.halted() {
            return issue;
        }
        let mut oobs = std::mem::take(&mut self.oobs_scratch);
        oobs.clear();
        oobs.extend(self.slots_scratch.iter().map(|r| r.as_ref().ok().copied()));
        let data_sectors = oobs.iter().flatten().count() as u64;
        if data_sectors == 0 {
            self.oobs_scratch = oobs;
            return read_done;
        }
        let ready = self.ensure_space(&mut PageCopy, ssd, stats, read_done);
        if !self.can_alloc_page() {
            // Exhausted pool: leave the data where it is rather than risk
            // losing the mapping; the ladder keeps serving it as long as it
            // can.
            self.oobs_scratch = oobs;
            return ready;
        }
        let done = self.program_internal(lpn, &oobs, ssd, stats, ready);
        self.oobs_scratch = oobs;
        stats.read_reclaims += 1;
        stats.gc_copied_sectors += data_sectors;
        stats.gc_flash_sectors += u64::from(SECTORS_PER_PAGE);
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.reclaim")
                .tag("read_reclaim")
                .field("lpn", lpn)
                .field("sectors", data_sectors)
        });
        done
    }

    /// Read-disturb patrol: relocates and erases every block whose sense
    /// count since its last erase reached `limit` (the erase discharges the
    /// accumulated disturb). Open blocks are closed first so they stop
    /// absorbing senses. Returns when the last scrub completes.
    pub(crate) fn scrub_disturbed(
        &mut self,
        reloc: &mut impl Relocate,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        limit: u64,
        issue: SimTime,
    ) -> SimTime {
        let mut now = issue;
        while !ssd.halted() {
            let disturbed = |b: usize| {
                ssd.device()
                    .reads_since_erase(ssd.geometry().block_addr(self.gbi[b]))
                    >= limit
            };
            let Some(victim) = (0..self.gbi.len())
                .find(|&b| !self.retired[b] && self.programmed[b] > 0 && disturbed(b))
            else {
                break;
            };
            let victim = victim as u32;
            for a in &mut self.actives {
                if *a == Some(victim) {
                    *a = None;
                }
            }
            self.programmed[victim as usize] = self.pages_per_block;
            self.note_closed(victim);
            // Copy-out needs allocatable space; GC here may collect (and
            // thereby scrub) the victim itself, so re-check before taking
            // it — a completed erase already reset its sense count.
            now = self.ensure_space(reloc, ssd, stats, now);
            let addr = ssd.geometry().block_addr(self.gbi(victim));
            if ssd.device().reads_since_erase(addr) >= limit && !ssd.halted() {
                let gbi = self.gbi(victim);
                let at = now.as_nanos();
                self.trace.emit(|| {
                    TraceEvent::new(at, "gc.scrub")
                        .tag("disturb")
                        .field("block", u64::from(gbi))
                });
                now = self.collect(reloc, victim, ssd, stats, now);
                stats.disturb_scrubs += 1;
                if self.valid_count(victim) > 0 {
                    // Space exhausted: the block cannot be relocated, and
                    // retrying it forever would livelock the patrol.
                    break;
                }
            }
        }
        now
    }

    /// Policy-driven victim choice over the full, non-retired, non-active
    /// blocks (see [`crate::GcPolicyKind`]; greedy — the default — picks
    /// the fewest valid slots). With wear leveling on, candidates within a
    /// small valid-count slack (1/8 of a block, at least one slot) of the
    /// policy's choice compete on effective wear instead — collecting the
    /// least-worn of them cycles cold blocks back into service (dynamic
    /// wear leveling).
    pub(crate) fn pick_victim(&mut self, ssd: &Ssd) -> Option<u32> {
        let mut candidates = std::mem::take(&mut self.victims);
        let capacity = self.slots_per_block();
        for i in 0..self.gbi.len() as u32 {
            if !self.is_full(i) || self.retired[i as usize] || self.is_active(i) {
                continue;
            }
            candidates.push(VictimCandidate {
                index: i,
                valid: self.valid_count[i as usize],
                capacity,
                age: self
                    .closed_seq_counter
                    .saturating_sub(self.closed_seq[i as usize]),
                wear: if self.wear_leveling {
                    self.block_pe(i, ssd)
                } else {
                    0
                },
            });
        }
        let pick = select_victim(
            self.gc_policy,
            SelectOpts::standard(self.wear_leveling),
            &candidates,
        );
        // Keep the capacity, not the entries: a cloned pool copies none.
        candidates.clear();
        self.victims = candidates;
        pick
    }

    /// Records a `gc.collect` decision on `victim`, tagged with `cause`.
    pub(crate) fn emit_collect(&mut self, cause: &'static str, victim: u32, issue: SimTime) {
        let gbi = self.gbi(victim);
        let valid = self.valid_count(victim);
        let field = self.valid_field();
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.collect")
                .tag(cause)
                .field("block", u64::from(gbi))
                .field(field, u64::from(valid))
        });
    }

    /// Trace field name for a victim's valid slots.
    fn valid_field(&self) -> &'static str {
        if self.slots_per_page == 1 {
            "valid_pages"
        } else {
            "valid_sectors"
        }
    }

    /// Collects one victim block (copy valid slots out, erase, free) if one
    /// exists that is profitable (has an invalid slot) *and* feasible (its
    /// valid slots fit in the currently allocatable pages, so copy-out
    /// cannot wedge). Returns `None` otherwise — the caller decides whether
    /// that means degradation or just "done for now". `cause` tags the
    /// trace event ("watermark" for foreground pressure, "background" for
    /// idle-window collection).
    fn try_collect_victim(
        &mut self,
        reloc: &mut impl Relocate,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        cause: &'static str,
    ) -> Option<SimTime> {
        let victim = self.pick_victim(ssd)?;
        if self.valid_count(victim) >= self.slots_per_block() || !reloc.fits(self, victim) {
            return None;
        }
        stats.gc_invocations += 1;
        self.emit_collect(cause, victim, issue);
        Some(self.collect(reloc, victim, ssd, stats, issue))
    }

    /// The least-worn full, non-retired, non-active block (first in pool
    /// order among equals): where static data pins a cold block.
    pub(crate) fn coldest_full(&self, ssd: &Ssd) -> Option<u32> {
        (0..self.gbi.len() as u32)
            .filter(|&i| self.is_full(i) && !self.retired[i as usize] && !self.is_active(i))
            .min_by_key(|&i| self.block_pe(i, ssd))
    }

    /// Static wear leveling: when the effective-wear spread exceeds
    /// `threshold` (from the pool's coldest full block up to the highest
    /// wear in the pool or, per [`Relocate::outside_max_pe`], beyond it),
    /// the coldest full block — static data pinned on a
    /// lightly-worn block — is relocated and erased so the block rejoins
    /// the free pool (where least-worn-first allocation puts it back to
    /// work). At most one migration per call, so callers can meter it from
    /// idle windows or maintenance ticks. No-op unless wear leveling is
    /// enabled. Returns the completion time (`issue` when nothing moved).
    pub(crate) fn wear_rotate(
        &mut self,
        reloc: &mut impl Relocate,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
        threshold: u32,
    ) -> SimTime {
        if !self.wear_leveling || self.exhausted || ssd.halted() {
            return issue;
        }
        let Some((_, own_max)) = self.wear_spread(ssd) else {
            return issue;
        };
        let max_pe = own_max.max(reloc.outside_max_pe(ssd));
        let Some(cold) = self.coldest_full(ssd) else {
            return issue;
        };
        let cold_pe = self.block_pe(cold, ssd);
        if max_pe.saturating_sub(cold_pe) <= threshold {
            return issue; // spread within bounds, or the cold data already cycles
        }
        if !reloc.fits(self, cold) {
            return issue; // not enough room to relocate safely
        }
        let valid = self.valid_count(cold);
        let gbi = self.gbi(cold);
        let field = self.valid_field();
        self.trace.emit(|| {
            TraceEvent::new(issue.as_nanos(), "gc.wear_rotate")
                .tag("static_wl")
                .field("block", u64::from(gbi))
                .field(field, u64::from(valid))
                .field("pe", u64::from(cold_pe))
                .field("max_pe", u64::from(max_pe))
        });
        let done = self.collect(reloc, cold, ssd, stats, issue);
        stats.wear_level_migrations += 1;
        done
    }

    /// Relocates every valid slot of `victim` through `reloc`, then erases
    /// it — unless a slot is still valid (power died, or the destination
    /// ran out of room), in which case the victim stays as it is. Shared by
    /// GC, the read-disturb patrol (which may collect fully-valid blocks)
    /// and static wear rotation.
    pub(crate) fn collect(
        &mut self,
        reloc: &mut impl Relocate,
        victim: u32,
        ssd: &mut Ssd,
        stats: &mut FtlStats,
        issue: SimTime,
    ) -> SimTime {
        let now = reloc.relocate(self, victim, ssd, stats, issue);
        if self.valid_count(victim) > 0 {
            return now;
        }
        let addr = ssd.geometry().block_addr(self.gbi(victim));
        let b = victim as usize;
        let spb = self.slots_per_block() as usize;
        self.valid[b * spb..(b + 1) * spb].fill(false);
        self.closed_seq[b] = 0;
        match ssd.erase(addr, now) {
            Ok(done) => {
                self.programmed[b] = 0;
                self.free.push(victim);
                reloc.after_erase(self, ssd, stats);
                done
            }
            Err(f) if f.error == esp_nand::NandError::EraseFailed => {
                // The block grew bad: retire it instead of freeing it. All
                // valid data was already copied out above, so nothing is
                // lost; the caller's loop simply picks the next victim.
                self.retired[b] = true;
                self.retired_bad += 1;
                stats.erase_failures += 1;
                stats.blocks_retired += 1;
                f.at
            }
            Err(f) => panic!("erase of managed block: {f}"),
        }
    }

    /// Retires the block with device-global index `gbi` in place (bad-block
    /// exclusion at mount or after a grown-bad discovery). The block keeps
    /// its pool-local slot — callers such as `CgmFtl::recover` rely on
    /// local index == gbi alignment — but leaves the free list and any
    /// active-block slot. Returns `false` if `gbi` is not under management
    /// or already retired.
    pub fn retire_gbi(&mut self, gbi: u32) -> bool {
        let Some(local) = (0..self.gbi.len()).find(|&b| self.gbi[b] == gbi && !self.retired[b])
        else {
            return false;
        };
        assert_eq!(
            self.valid_count[local], 0,
            "cannot retire a block that still holds valid data"
        );
        self.retired[local] = true;
        self.retired_bad += 1;
        let local = local as u32;
        if let Some(pos) = self.free.iter().position(|&f| f == local) {
            self.free.swap_remove(pos);
        }
        for a in &mut self.actives {
            if *a == Some(local) {
                *a = None;
            }
        }
        true
    }

    /// Free-list position of the most-worn free block (last among equals).
    pub(crate) fn most_worn_free(&self, ssd: &Ssd) -> Option<usize> {
        (0..self.free.len()).max_by_key(|&p| self.block_pe(self.free[p], ssd))
    }

    /// Free-list position of the least-worn free block (first among equals).
    fn least_worn_free(&self, ssd: &Ssd) -> Option<usize> {
        (0..self.free.len()).min_by_key(|&p| self.block_pe(self.free[p], ssd))
    }

    /// Device-global index of the free block at free-list position `pos`.
    pub(crate) fn free_gbi(&self, pos: usize) -> u32 {
        self.gbi(self.free[pos])
    }

    /// Takes the free block at free-list position `pos` out of the pool
    /// and returns its device-global index.
    fn release_free(&mut self, pos: usize) -> u32 {
        let local = self.free.swap_remove(pos);
        self.retired[local as usize] = true;
        self.gbi(local)
    }

    /// Trades the free block at free-list position `pos` for the erased
    /// block `gbi` from another region in one step, so the pool never
    /// shrinks. Returns the device-global index that left.
    pub(crate) fn exchange_free(&mut self, pos: usize, gbi: u32) -> u32 {
        let out = self.release_free(pos);
        self.adopt_free_block(gbi);
        out
    }

    /// Removes one erased block from the pool for cross-region wear
    /// leveling, preferring the most-worn free block. Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        let pos = self.most_worn_free(ssd)?;
        Some(self.release_free(pos))
    }

    /// Removes the *least-worn* erased block from the pool (for handing a
    /// fresh block to a hotter region during wear leveling). Returns its
    /// device-global index, or `None` if the pool cannot spare one.
    pub fn donate_coldest_free_block(&mut self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        let pos = self.least_worn_free(ssd)?;
        Some(self.release_free(pos))
    }

    /// Atomically trades an erased, over-worn block from another region for
    /// the pool's least-worn free block: the worn block is adopted into the
    /// pool in the same transaction, so — unlike
    /// [`donate_coldest_free_block`](Self::donate_coldest_free_block) — the
    /// pool never shrinks and the exchange is safe even at the GC
    /// watermark. Returns the fresh block's device-global index, or `None`
    /// when the pool is empty or the wear gain would be below `min_gain`
    /// effective cycles.
    pub fn swap_free_block(&mut self, worn_gbi: u32, min_gain: u32, ssd: &Ssd) -> Option<u32> {
        let pos = self.least_worn_free(ssd)?;
        let cold_pe = self.block_pe(self.free[pos], ssd);
        let worn_pe = ssd
            .device()
            .effective_pe(ssd.geometry().block_addr(worn_gbi));
        if worn_pe <= cold_pe.saturating_add(min_gain) {
            return None;
        }
        Some(self.exchange_free(pos, worn_gbi))
    }

    /// Effective P/E cycles of the least-worn free block, if any can be
    /// spared.
    #[must_use]
    pub fn coldest_free_pe(&self, ssd: &Ssd) -> Option<u32> {
        if self.free.len() as u32 <= self.watermark {
            return None;
        }
        self.free.iter().map(|&b| self.block_pe(b, ssd)).min()
    }

    /// Adds an erased block (received from another region) to the pool.
    pub fn adopt_free_block(&mut self, gbi: u32) {
        let local = self.gbi.len() as u32;
        self.gbi.push(gbi);
        self.chip.push(gbi / self.blocks_per_chip);
        self.programmed.push(0);
        self.valid_count.push(0);
        self.closed_seq.push(0);
        self.retired.push(false);
        let spb = self.slots_per_block() as usize;
        self.valid.resize(self.valid.len() + spb, false);
        self.free.push(local);
    }

    /// Rebuilds allocation state and the dense map from a post-crash scan:
    /// `programmed[b]` is the number of programmed pages in local block `b`
    /// and `mappings` the winning `(key, block, slot)` triples, `slot`
    /// counting slots from the start of the block (the page, for a page
    /// pool). The free list is recomputed; one partially programmed block
    /// per chip resumes as active.
    ///
    /// # Panics
    ///
    /// Panics if a mapping points outside the pool or two mappings claim
    /// the same key.
    pub(crate) fn restore_state(&mut self, programmed: &[u32], mappings: &[(u64, u32, u32)]) {
        assert_eq!(programmed.len(), self.gbi.len(), "scan shape mismatch");
        self.valid.fill(false);
        self.valid_count.fill(0);
        // Recovered blocks carry stamp 0: maximally old to the age-aware
        // policies, the safe direction after a crash.
        self.closed_seq.fill(0);
        for (b, &p) in programmed.iter().enumerate() {
            assert!(p <= self.pages_per_block);
            self.programmed[b] = p;
        }
        self.map.fill(NO_PTR);
        for &(key, block, slot) in mappings {
            assert!(
                self.map[key as usize] == NO_PTR,
                "two recovered copies mapped for key {key}"
            );
            assert!(
                slot / self.slots_per_page < self.programmed[block as usize],
                "mapping into unprogrammed page"
            );
            self.map_slot(key, block * self.slots_per_block() + slot);
        }
        self.free = (0..self.gbi.len() as u32)
            .filter(|&b| !self.retired[b as usize] && self.programmed[b as usize] == 0)
            .collect();
        // Partially programmed blocks were the per-chip active blocks at
        // the crash: resume one per chip; close any extras (their unwritten
        // tail is wasted until GC reclaims the block, the standard
        // "close the open block" recovery rule).
        self.actives.fill(None);
        for i in 0..self.gbi.len() {
            let p = self.programmed[i];
            if self.retired[i] || p == 0 || p >= self.pages_per_block {
                continue;
            }
            let chip = self.chip[i] as usize;
            if self.actives[chip].is_none() {
                self.actives[chip] = Some(i as u32);
            } else {
                self.programmed[i] = self.pages_per_block;
            }
        }
    }

    /// Rebuilds the pool from a mount scan of its blocks, given in
    /// pool-local order: every key maps to the copy holding its newest
    /// readable sector — the page for a page pool (keyed by LPN), the
    /// subpage for a subpage pool (keyed by LSN). Copies of keys beyond the
    /// map are ignored. Returns the highest write sequence number seen.
    pub(crate) fn restore_from_scan<'a>(
        &mut self,
        scans: impl IntoIterator<Item = &'a BlockScan>,
    ) -> u64 {
        let sectors_per_key = u64::from(SECTORS_PER_PAGE / self.slots_per_page);
        // key -> (seq, block, slot counted from the start of the block).
        let mut best: Vec<Option<(u64, u32, u32)>> = vec![None; self.map.len()];
        let mut programmed = Vec::with_capacity(self.gbi.len());
        let mut max_seq = 0u64;
        for (b, scan) in scans.into_iter().enumerate() {
            programmed.push(scan.programmed_pages());
            for (p, page) in scan.pages.iter().enumerate() {
                for live in &page.live {
                    max_seq = max_seq.max(live.seq);
                    let Some(entry) = best.get_mut((live.lsn / sectors_per_key) as usize) else {
                        continue;
                    };
                    if entry.is_none_or(|(seq, ..)| live.seq > seq) {
                        let slot = u32::from(live.slot) % self.slots_per_page;
                        *entry = Some((live.seq, b as u32, p as u32 * self.slots_per_page + slot));
                    }
                }
            }
        }
        let mappings: Vec<(u64, u32, u32)> = best
            .iter()
            .enumerate()
            .filter_map(|(key, e)| e.map(|(_, b, slot)| (key as u64, b, slot)))
            .collect();
        self.restore_state(&programmed, &mappings);
        max_seq
    }

    /// Bytes of dense map state.
    #[must_use]
    pub fn mapping_bytes(&self) -> u64 {
        (self.map.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Sum of valid slots across the pool (for tests and reporting).
    #[must_use]
    pub fn valid_slots(&self) -> u64 {
        self.valid_count.iter().map(|&c| u64::from(c)).sum()
    }

    /// Asserts the pool's structural invariants; panics on violation.
    /// `sparse` lists the slot pointers of an owner-kept map, for pools
    /// whose map is not the dense one.
    ///
    /// * every block's valid count equals its set validity slots, and no
    ///   block is programmed past its last page;
    /// * the free, active and retired sets are disjoint;
    /// * every mapped pointer hits a valid slot, and the number of valid
    ///   slots equals the number of mapped entries.
    pub fn check_invariants(&self, sparse: impl IntoIterator<Item = u32>) {
        let spb = self.slots_per_block() as usize;
        let mut valid_total = 0u64;
        for b in 0..self.gbi.len() {
            let set = self.valid[b * spb..(b + 1) * spb]
                .iter()
                .filter(|&&v| v)
                .count() as u32;
            assert_eq!(
                set, self.valid_count[b],
                "block {b}: valid count disagrees with its validity slots"
            );
            assert!(
                self.programmed[b] <= self.pages_per_block,
                "block {b} programmed past its last page"
            );
            valid_total += u64::from(set);
        }
        let mut seen = vec![false; self.gbi.len()];
        for &b in self.free.iter().chain(self.actives.iter().flatten()) {
            assert!(!self.retired[b as usize], "retired block {b} is in service");
            assert!(
                !seen[b as usize],
                "block {b} is listed twice in free/active"
            );
            seen[b as usize] = true;
        }
        let mut mapped = 0u64;
        for ptr in self
            .map
            .iter()
            .copied()
            .filter(|&p| p != NO_PTR)
            .chain(sparse)
        {
            assert!(self.valid[ptr as usize], "mapped slot {ptr} is not valid");
            mapped += 1;
        }
        assert_eq!(mapped, valid_total, "valid slots disagree with the map");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_nand::Geometry;

    fn setup() -> (Ssd, BlockPool, FtlStats) {
        let g = Geometry::tiny(); // 16 blocks of 4 pages
        let ssd = Ssd::new(g.clone());
        // Use all 16 blocks, logical space of 32 lpns (half of physical).
        let engine = BlockPool::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            32,
            2,
        );
        (ssd, engine, FtlStats::new())
    }

    fn full_oobs(lpn: u64) -> Vec<Option<Oob>> {
        (0..4)
            .map(|s| {
                Some(Oob {
                    lsn: lpn * 4 + s,
                    seq: 0,
                })
            })
            .collect()
    }

    #[test]
    fn program_maps_and_invalidates_old_copy() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(5, &full_oobs(5), &mut ssd, &mut stats, SimTime::ZERO);
        let first = eng.lookup(5).unwrap();
        eng.program_page(5, &full_oobs(5), &mut ssd, &mut stats, SimTime::ZERO);
        let second = eng.lookup(5).unwrap();
        assert_ne!(first, second);
        assert_eq!(eng.valid_slots(), 1, "old copy must be invalid");
        assert_eq!(stats.flash_sectors_consumed, 8);
    }

    #[test]
    fn read_back_through_lookup() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(3, &full_oobs(3), &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(3).unwrap();
        let addr = eng.page_addr(ptr, &ssd);
        let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
        assert_eq!(slots[2].as_ref().unwrap().lsn, 14);
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let (mut ssd, mut eng, mut stats) = setup();
        // 32 lpns over 16 blocks x 4 pages = 64 physical pages. Overwrite
        // the 32 lpns repeatedly; GC must keep the engine alive.
        for round in 0..6 {
            for lpn in 0..32 {
                eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
                let _ = round;
            }
        }
        assert!(stats.gc_invocations > 0, "GC must have run");
        assert_eq!(eng.valid_slots(), 32, "exactly one valid copy per lpn");
        eng.check_invariants([]);
        // Every lpn still readable with correct content.
        for lpn in 0..32 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn gc_preserves_partial_pages() {
        let (mut ssd, mut eng, mut stats) = setup();
        // Pages with only one data slot (RMW style) survive GC intact.
        let oobs = |lpn: u64| {
            let mut v: Vec<Option<Oob>> = vec![None; 4];
            v[1] = Some(Oob {
                lsn: lpn * 4 + 1,
                seq: 9,
            });
            v
        };
        for round in 0..8 {
            for lpn in 0..32 {
                let o = if round == 7 {
                    oobs(lpn)
                } else {
                    full_oobs(lpn)
                };
                eng.program_page(lpn, &o, &mut ssd, &mut stats, SimTime::ZERO);
            }
        }
        // Force more GC by overwriting a few lpns.
        for lpn in 0..8 {
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
        }
        for lpn in 8..32u64 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[1].as_ref().unwrap().lsn, lpn * 4 + 1);
            assert!(slots[0].is_err(), "padding slots stay padding");
        }
    }

    #[test]
    fn unmap_releases_validity() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(1, &full_oobs(1), &mut ssd, &mut stats, SimTime::ZERO);
        assert_eq!(eng.valid_slots(), 1);
        eng.unmap(1);
        assert_eq!(eng.valid_slots(), 0);
        assert_eq!(eng.lookup(1), None);
        // Double unmap is a no-op.
        eng.unmap(1);
        assert_eq!(eng.valid_slots(), 0);
    }

    #[test]
    fn donate_and_adopt_blocks() {
        let (mut ssd, mut eng, mut stats) = setup();
        let before = eng.free_blocks();
        let gbi = eng.donate_free_block(&ssd).unwrap();
        assert_eq!(eng.free_blocks(), before - 1);
        eng.adopt_free_block(gbi);
        assert_eq!(eng.free_blocks(), before);
        // The engine still functions.
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
        assert!(eng.lookup(0).is_some());
    }

    #[test]
    fn donation_refuses_below_watermark() {
        let g = Geometry::tiny();
        let ssd = Ssd::new(g.clone());
        let mut eng = BlockPool::new(vec![0, 1, 2], g.pages_per_block, g.blocks_per_chip, 4, 2);
        // 3 free blocks, watermark 2: can donate exactly one.
        assert!(eng.donate_free_block(&ssd).is_some());
        assert!(eng.donate_free_block(&ssd).is_none());
    }

    #[test]
    fn gc_time_is_charged() {
        let (mut ssd, mut eng, mut stats) = setup();
        let mut last = SimTime::ZERO;
        for round in 0..6 {
            for lpn in 0..32 {
                last = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, last);
                let _ = round;
            }
        }
        assert!(ssd.device().stats().erases > 0);
        // Makespan reflects GC reads + copies + erases, beyond pure host
        // programs.
        let host_only = 6 * 32 * 1650; // rough lower bound in us
        assert!(ssd.makespan() > SimTime::from_micros(host_only));
    }

    #[test]
    fn restore_state_rebuilds_free_and_actives() {
        let (mut ssd, mut eng, mut stats) = setup();
        for lpn in 0..8 {
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
        }
        // Snapshot the physical truth, then restore a fresh engine.
        let programmed: Vec<u32> = (0..16)
            .map(|b| {
                (0..4)
                    .filter(|&p| {
                        !ssd.device()
                            .block(ssd.geometry().block_addr(b))
                            .page(p)
                            .is_erased()
                    })
                    .count() as u32
            })
            .collect();
        let mappings: Vec<(u64, u32, u32)> = (0..8)
            .map(|lpn| {
                let ptr = eng.lookup(lpn).unwrap();
                (lpn, ptr.block, ptr.page)
            })
            .collect();
        let mut restored =
            BlockPool::new((0..16).collect(), 4, ssd.geometry().blocks_per_chip, 32, 2);
        restored.restore_state(&programmed, &mappings);
        assert_eq!(restored.valid_slots(), 8);
        for lpn in 0..8 {
            assert_eq!(restored.lookup(lpn), eng.lookup(lpn));
        }
        // Partially programmed blocks resumed as actives: writing continues
        // without touching a dirty page.
        restored.program_page(9, &full_oobs(9), &mut ssd, &mut stats, SimTime::ZERO);
        assert!(restored.lookup(9).is_some());
    }

    #[test]
    fn restore_closes_extra_partial_blocks() {
        // Two partial blocks on one chip: one resumes, the other closes.
        let g = Geometry {
            channels: 1,
            chips_per_channel: 1,
            blocks_per_chip: 4,
            pages_per_block: 4,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        };
        let mut ssd = Ssd::new(g.clone());
        // Physically program the partial prefixes the scan would report
        // (blocks must be written in page order).
        for (blk, pages) in [(0u32, 2u32), (1, 1)] {
            for p in 0..pages {
                ssd.program_full(g.block_addr(blk).page(p), &[None; 4], SimTime::ZERO)
                    .unwrap();
            }
        }
        let mut eng = BlockPool::new((0..4).collect(), 4, 4, 8, 2);
        eng.restore_state(&[2, 1, 0, 0], &[]);
        assert_eq!(eng.free_blocks(), 2);
        // One of the two partials was closed: it is a GC candidate once a
        // victim is needed; the other continues as active.
        let mut stats = FtlStats::new();
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
        assert!(eng.lookup(0).is_some());
    }

    #[test]
    fn donate_coldest_prefers_least_worn() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        // Wear block 0 heavily.
        for _ in 0..5 {
            ssd.erase(g.block_addr(0), SimTime::ZERO).unwrap();
        }
        let mut eng = BlockPool::new(vec![0, 1, 2, 3], g.pages_per_block, g.blocks_per_chip, 4, 2);
        let donated = eng.donate_coldest_free_block(&ssd).unwrap();
        assert_ne!(donated, 0, "coldest donation must avoid the worn block");
        assert_eq!(eng.coldest_free_pe(&ssd), Some(0));
    }

    #[test]
    fn program_failures_are_retried_elsewhere() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 21,
            program_fail_prob: 0.2,
            ..esp_nand::FaultConfig::default()
        });
        // Failed attempts burn pages, so keep utilization low enough that
        // GC always nets space even when copies retry.
        let mut eng = BlockPool::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..8 {
            for lpn in 0..16 {
                now = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.write_retries > 0, "p=0.2 must force retries");
        assert_eq!(stats.program_failures, stats.write_retries);
        assert_eq!(eng.valid_slots(), 16);
        // Every lpn readable with correct content despite the failures.
        for lpn in 0..16 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn erase_failures_retire_the_victim() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 5,
            erase_fail_prob: 0.3,
            ..esp_nand::FaultConfig::default()
        });
        // Small logical space (4 blocks of data over 16 physical) so GC can
        // afford to lose several blocks to grown-bad retirement.
        let mut eng = BlockPool::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        for round in 0..6 {
            for lpn in 0..16 {
                now = eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now);
                let _ = round;
            }
        }
        assert!(stats.erase_failures > 0, "p=0.3 must force erase failures");
        assert_eq!(stats.blocks_retired, stats.erase_failures);
        assert_eq!(eng.block_count(), 16 - stats.blocks_retired as u32);
        assert_eq!(
            ssd.device().bad_block_indices().len() as u64,
            stats.blocks_retired,
            "every retirement corresponds to a grown bad block"
        );
        assert_eq!(eng.valid_slots(), 16);
        eng.check_invariants([]);
        for lpn in 0..16 {
            let ptr = eng.lookup(lpn).unwrap();
            let addr = eng.page_addr(ptr, &ssd);
            let (slots, _) = ssd.read_full(addr, SimTime::ZERO);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
    }

    #[test]
    fn retire_gbi_excludes_the_block_in_place() {
        let (mut ssd, mut eng, mut stats) = setup();
        let before_free = eng.free_blocks();
        let before_total = eng.block_count();
        assert!(eng.retire_gbi(7));
        assert_eq!(eng.free_blocks(), before_free - 1);
        assert_eq!(eng.block_count(), before_total - 1);
        // Idempotent / unknown gbis refused.
        assert!(!eng.retire_gbi(7));
        assert!(!eng.retire_gbi(999));
        // Local slot preserved: block 8 still maps to gbi 8.
        eng.program_page(0, &full_oobs(0), &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(0).unwrap();
        assert_eq!(eng.gbi(ptr.block), ptr.block);
        // The engine never writes into the retired block.
        for lpn in 0..32 {
            eng.program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, SimTime::ZERO);
        }
        assert!(ssd
            .device()
            .block(ssd.geometry().block_addr(7))
            .page(0)
            .is_erased());
    }

    #[test]
    fn reclaim_page_moves_data_to_a_fresh_location() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(3, &full_oobs(3), &mut ssd, &mut stats, SimTime::ZERO);
        let before = eng.lookup(3).unwrap();
        let done = eng.reclaim_page(3, &mut ssd, &mut stats, SimTime::ZERO);
        let after = eng.lookup(3).unwrap();
        assert_ne!(before, after, "reclaim must relocate the page");
        assert!(done > SimTime::ZERO, "reclaim charges read + program time");
        assert_eq!(stats.read_reclaims, 1);
        assert_eq!(eng.valid_slots(), 1, "old copy invalidated");
        let (slots, _) = ssd.read_full(eng.page_addr(after, &ssd), done);
        assert_eq!(slots[0].as_ref().unwrap().lsn, 12);
        // Unmapped lpns are a no-op.
        let t = eng.reclaim_page(30, &mut ssd, &mut stats, done);
        assert_eq!(t, done);
        assert_eq!(stats.read_reclaims, 1);
    }

    #[test]
    fn scrub_relocates_disturbed_blocks_and_discharges_them() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(7, &full_oobs(7), &mut ssd, &mut stats, SimTime::ZERO);
        let ptr = eng.lookup(7).unwrap();
        let old_gbi = eng.gbi(ptr.block);
        let addr = eng.page_addr(ptr, &ssd);
        // Hammer the page until the block accumulates 50 senses.
        for _ in 0..50 {
            let _ = ssd.read_full(addr, SimTime::ZERO);
        }
        let old_block = ssd.geometry().block_addr(old_gbi);
        assert_eq!(ssd.device().reads_since_erase(old_block), 50);
        eng.scrub_disturbed(&mut PageCopy, &mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(stats.disturb_scrubs, 1);
        // The block was erased (sense counter discharged) and the data
        // lives elsewhere, still readable.
        assert_eq!(ssd.device().reads_since_erase(old_block), 0);
        let after = eng.lookup(7).unwrap();
        assert_ne!(eng.gbi(after.block), old_gbi);
        let (slots, _) = ssd.read_full(eng.page_addr(after, &ssd), SimTime::ZERO);
        assert_eq!(slots[0].as_ref().unwrap().lsn, 28);
        // A second sweep finds nothing above the limit.
        eng.scrub_disturbed(&mut PageCopy, &mut ssd, &mut stats, 50, SimTime::ZERO);
        assert_eq!(stats.disturb_scrubs, 1);
    }

    /// One-chip, 8-block pool with `mapped[b]` lpns valid in the first
    /// pages of block `b` (0 = left free), for tests that need exact
    /// per-block valid counts. Blocks with any valid pages are physically
    /// programmed full (pages past the valid prefix are stale data).
    fn staged(ssd: &mut Ssd, mapped: &[u32]) -> BlockPool {
        let g = ssd.geometry().clone();
        let mut eng = BlockPool::new(
            (0..8).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            32,
            2,
        );
        let mut programmed = vec![0u32; 8];
        let mut mappings = Vec::new();
        for (b, &valid) in mapped.iter().enumerate() {
            if valid == 0 {
                continue;
            }
            programmed[b] = g.pages_per_block; // full block
            for p in 0..g.pages_per_block {
                let lpn = u64::from(b as u32) * 4 + u64::from(p);
                ssd.program_full(
                    g.block_addr(b as u32).page(p),
                    &full_oobs(lpn),
                    SimTime::ZERO,
                )
                .unwrap();
                if p < valid {
                    mappings.push((lpn, b as u32, p));
                }
            }
        }
        eng.restore_state(&programmed, &mappings);
        eng
    }

    fn one_chip() -> Geometry {
        Geometry {
            channels: 1,
            chips_per_channel: 1,
            blocks_per_chip: 8,
            pages_per_block: 4,
            subpages_per_page: 4,
            subpage_bytes: 4096,
        }
    }

    #[test]
    fn wear_bias_prefers_less_worn_victims_within_slack() {
        let mut ssd = Ssd::new(one_chip());
        // Block 0 is the greedy choice (fewest valid pages) but heavily
        // worn; block 1 has one more valid page (within the slack of 1) on
        // fresh cells; block 2 is fully valid (never eligible).
        for _ in 0..5 {
            ssd.erase(ssd.geometry().block_addr(0), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[2, 3, 4, 0, 0, 0, 0, 0]);
        assert_eq!(eng.pick_victim(&ssd), Some(0), "greedy picks fewest valid");
        eng.set_wear_leveling(true);
        assert_eq!(
            eng.pick_victim(&ssd),
            Some(1),
            "wear bias trades one extra copy for a colder victim"
        );
        // A fully-valid block never wins, however cold.
        let mut ssd = Ssd::new(one_chip());
        for _ in 0..5 {
            ssd.erase(ssd.geometry().block_addr(0), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[2, 4, 4, 0, 0, 0, 0, 0]);
        eng.set_wear_leveling(true);
        assert_eq!(eng.pick_victim(&ssd), Some(0));
    }

    #[test]
    fn wear_rotate_migrates_cold_static_data() {
        let mut ssd = Ssd::new(one_chip());
        // Block 4 is far more worn than block 0, which pins static data.
        for _ in 0..25 {
            ssd.erase(ssd.geometry().block_addr(4), SimTime::ZERO)
                .unwrap();
        }
        let mut eng = staged(&mut ssd, &[4, 0, 0, 0, 0, 0, 0, 0]);
        let mut stats = FtlStats::new();
        // Off (default): never moves anything.
        let t = eng.wear_rotate(&mut PageCopy, &mut ssd, &mut stats, SimTime::ZERO, 20);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(stats.wear_level_migrations, 0);
        eng.set_wear_leveling(true);
        // Spread (25) exceeds the threshold: the cold block is relocated,
        // erased, and freed.
        let free_before = eng.free_blocks();
        let done = eng.wear_rotate(&mut PageCopy, &mut ssd, &mut stats, SimTime::ZERO, 20);
        assert!(done > SimTime::ZERO);
        assert_eq!(stats.wear_level_migrations, 1);
        assert_eq!(ssd.device().pe_cycles(ssd.geometry().block_addr(0)), 1);
        assert_eq!(
            eng.free_blocks(),
            free_before,
            "cold block rejoined the pool"
        );
        for lpn in 0..4 {
            let ptr = eng.lookup(lpn).unwrap();
            assert_ne!(ptr.block, 0, "data moved off the cold block");
            let (slots, _) = ssd.read_full(eng.page_addr(ptr, &ssd), done);
            assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
        }
        // Spread now within threshold: second call is a no-op.
        let again = eng.wear_rotate(&mut PageCopy, &mut ssd, &mut stats, done, 20);
        assert_eq!(again, done);
        assert_eq!(stats.wear_level_migrations, 1);
    }

    #[test]
    fn exhaustion_refuses_writes_instead_of_panicking() {
        // Every erase fails, so each GC victim retires and the pool wears
        // out fast. The engine must shed over-provisioning, then return a
        // typed end-of-life error — never panic, never livelock.
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        ssd.device_mut().set_faults(esp_nand::FaultConfig {
            seed: 9,
            erase_fail_prob: 0.95,
            ..esp_nand::FaultConfig::default()
        });
        let mut eng = BlockPool::new(
            (0..16).collect(),
            g.pages_per_block,
            g.blocks_per_chip,
            16,
            2,
        );
        let mut stats = FtlStats::new();
        let mut now = SimTime::ZERO;
        let mut died = None;
        'outer: for round in 0..400 {
            for lpn in 0..16 {
                match eng.try_program_page(lpn, &full_oobs(lpn), &mut ssd, &mut stats, now) {
                    Ok(t) => now = t,
                    Err(e) => {
                        died = Some(e);
                        break 'outer;
                    }
                }
                let _ = round;
            }
        }
        assert_eq!(
            died,
            Some(SpaceExhausted::EndOfLife),
            "retirement-driven exhaustion reports end of life"
        );
        assert!(eng.exhausted());
        assert!(stats.op_shrinks > 0, "watermark shed before giving up");
        assert!(stats.blocks_retired > 0);
        // Further writes fail fast with the same typed error.
        let err = eng
            .try_program_page(0, &full_oobs(0), &mut ssd, &mut stats, now)
            .unwrap_err();
        assert_eq!(err, SpaceExhausted::EndOfLife);
        // Every lpn that still has a mapping reads back correctly: dying
        // never corrupted surviving data.
        let mut readable = 0;
        for lpn in 0..16 {
            if let Some(ptr) = eng.lookup(lpn) {
                let (slots, _) = ssd.read_full(eng.page_addr(ptr, &ssd), now);
                assert_eq!(slots[0].as_ref().unwrap().lsn, lpn * 4);
                readable += 1;
            }
        }
        assert!(readable > 0, "some data survives to the read-only phase");
        eng.check_invariants([]);
    }

    #[test]
    #[should_panic(expected = "does not belong to lpn")]
    fn program_rejects_inconsistent_oob() {
        let (mut ssd, mut eng, mut stats) = setup();
        let mut oobs = full_oobs(3);
        oobs[0] = Some(Oob { lsn: 999, seq: 0 });
        eng.program_page(3, &oobs, &mut ssd, &mut stats, SimTime::ZERO);
    }
    #[test]
    fn subpage_slots_track_validity_per_sector() {
        let g = Geometry::tiny();
        let mut ssd = Ssd::new(g.clone());
        let mut stats = FtlStats::new();
        // 4 slots per page, a dense map over 64 sectors.
        let mut pool = BlockPool::with_slots((0..16).collect(), 4, 4, g.blocks_per_chip, 64, 2);
        let oobs: Vec<Option<Oob>> = (0..4)
            .map(|s| {
                Some(Oob {
                    lsn: 10 + s,
                    seq: 1,
                })
            })
            .collect();
        let (b, p, _) = pool
            .program(&oobs, &mut ssd, &mut stats, SimTime::ZERO)
            .unwrap();
        for s in 0..4u32 {
            pool.map_slot(10 + u64::from(s), pool.pack(b, p, s));
        }
        assert_eq!(pool.valid_count(b), 4);
        // Rewriting one sector elsewhere leaves three valid slots behind.
        let one = [Some(Oob { lsn: 11, seq: 2 }), None, None, None];
        let (b2, p2, _) = pool
            .program(&one, &mut ssd, &mut stats, SimTime::ZERO)
            .unwrap();
        pool.map_slot(11, pool.pack(b2, p2, 0));
        assert_ne!((b2, p2), (b, p));
        assert_eq!(pool.valid_slots(), 4);
        assert!(!pool.is_valid(pool.pack(b, p, 1)));
        assert_eq!(pool.unpack(pool.mapped(11).unwrap()), (b2, p2, 0));
        pool.check_invariants([]);
    }

    #[test]
    #[should_panic(expected = "valid count disagrees")]
    fn check_invariants_catches_a_stale_count() {
        let (mut ssd, mut eng, mut stats) = setup();
        eng.program_page(1, &full_oobs(1), &mut ssd, &mut stats, SimTime::ZERO);
        let b = eng.lookup(1).unwrap().block;
        eng.valid_count[b as usize] += 1;
        eng.check_invariants([]);
    }

    #[test]
    #[should_panic(expected = "not valid")]
    fn check_invariants_catches_a_dangling_sparse_pointer() {
        let (_, eng, _) = setup();
        eng.check_invariants([3]);
    }
}
