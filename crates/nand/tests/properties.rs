//! Randomized property tests for ESP device invariants, driven by the
//! deterministic `esp_sim::Rng` (every case reproducible from its seed).

use esp_nand::{
    BlockAddr, DeviceStats, FaultConfig, FaultModel, Geometry, NandDevice, NandError, NandTiming,
    Oob, PageAddr, ReadFault, RetentionModel, SubpageAddr, SubpageState,
};
use esp_sim::{Rng, SimDuration, SimTime};

fn oob(lsn: u64) -> Oob {
    Oob { lsn, seq: lsn }
}

/// One random page-level action.
#[derive(Debug, Clone)]
enum Action {
    ProgramSub { slot: u8, lsn: u64 },
    ProgramFull { lsns: Vec<u64> },
    Erase,
}

fn random_action(rng: &mut Rng) -> Action {
    match rng.next_below(3) {
        0 => Action::ProgramSub {
            slot: rng.next_below(4) as u8,
            lsn: rng.next_below(1000),
        },
        1 => Action::ProgramFull {
            lsns: (0..4).map(|_| rng.next_below(1000)).collect(),
        },
        _ => Action::Erase,
    }
}

/// Under arbitrary op sequences on a single page:
/// * the page never accepts more than N_sub programs between erases,
/// * at most one subpage ever holds live data after any subpage program,
/// * the live subpage (if any) is always the most recently programmed
///   never-before-programmed slot.
#[test]
fn page_program_invariants() {
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from(0xE5B ^ seed);
        let n = rng.next_in(1, 59) as usize;
        let actions: Vec<Action> = (0..n).map(|_| random_action(&mut rng)).collect();

        let mut dev = NandDevice::new(Geometry::tiny());
        let page = dev.geometry().block_addr(0).page(0);
        let blk = page.block;
        // Shadow model of the page.
        let mut programs_since_erase = 0u32;
        let mut slot_programmed = [false; 4];
        let mut expected_live: Option<(u8, u64)> = None;
        let mut full_written: Option<Vec<u64>> = None;

        for a in actions {
            match a {
                Action::ProgramSub { slot, lsn } => {
                    let r = dev.program_subpage(page.subpage(slot), oob(lsn), SimTime::ZERO);
                    if programs_since_erase >= 4 {
                        assert_eq!(r, Err(NandError::ProgramLimitExceeded), "seed {seed}");
                    } else {
                        assert!(r.is_ok(), "seed {seed}: {r:?}");
                        // A program on an already-programmed slot leaves
                        // garbage; on a fresh slot it becomes the only live
                        // subpage. Either way all other data died.
                        expected_live = if slot_programmed[slot as usize] {
                            None
                        } else {
                            Some((slot, lsn))
                        };
                        slot_programmed[slot as usize] = true;
                        full_written = None;
                        programs_since_erase += 1;
                    }
                }
                Action::ProgramFull { lsns } => {
                    let oobs: Vec<_> = lsns.iter().map(|&l| Some(oob(l))).collect();
                    let r = dev.program_full(page, &oobs, SimTime::ZERO);
                    if programs_since_erase > 0 {
                        assert_eq!(r, Err(NandError::ProgramOnDirtyPage), "seed {seed}");
                    } else {
                        assert!(r.is_ok(), "seed {seed}: {r:?}");
                        full_written = Some(lsns);
                        expected_live = None;
                        slot_programmed = [true; 4];
                        programs_since_erase = 1;
                    }
                }
                Action::Erase => {
                    dev.erase(blk, SimTime::ZERO).unwrap();
                    programs_since_erase = 0;
                    slot_programmed = [false; 4];
                    expected_live = None;
                    full_written = None;
                }
            }

            // Validate observable state.
            if let Some(lsns) = &full_written {
                for (slot, &lsn) in lsns.iter().enumerate() {
                    let got = dev.read_subpage(page.subpage(slot as u8), SimTime::ZERO);
                    assert_eq!(got.map(|o| o.lsn), Ok(lsn), "seed {seed}");
                }
            } else {
                let mut live = 0;
                for slot in 0..4u8 {
                    if dev.read_subpage(page.subpage(slot), SimTime::ZERO).is_ok() {
                        live += 1;
                        if let Some((ls, ll)) = expected_live {
                            assert_eq!(slot, ls, "seed {seed}");
                            let got = dev.read_subpage(page.subpage(slot), SimTime::ZERO).unwrap();
                            assert_eq!(got.lsn, ll, "seed {seed}");
                        }
                    }
                }
                assert!(live <= 1, "seed {seed}: {live} live subpages");
            }
        }
    }
}

/// Npp of a written subpage always equals the number of programs the
/// page saw before it, and retention capability is monotone in Npp.
#[test]
fn npp_matches_program_order() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from(0x4EA ^ seed);
        // A random permutation of the four slots.
        let mut order = [0u8, 1, 2, 3];
        for i in (1..4usize).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut dev = NandDevice::new(Geometry::tiny());
        dev.precycle(1000);
        let page = dev.geometry().block_addr(1).page(1);
        for (k, &slot) in order.iter().enumerate() {
            dev.program_subpage(page.subpage(slot), oob(k as u64), SimTime::ZERO)
                .unwrap();
            match dev.subpage_state(page.subpage(slot)) {
                SubpageState::Written(w) => assert_eq!(w.npp, k as u8, "seed {seed}"),
                other => panic!("seed {seed}: unexpected state {other:?}"),
            }
        }
    }
}

/// The retention model is monotone: more wear, more prior programs, or
/// more elapsed time never decreases BER.
#[test]
fn retention_ber_monotone() {
    let m = RetentionModel::paper_default();
    for seed in 0..128u64 {
        let mut rng = Rng::seed_from(0xBE12 ^ seed);
        let pe = rng.next_below(3000) as u32;
        let npp = rng.next_below(3) as u32;
        let days = rng.next_below(120);
        let t = SimDuration::from_days(days);
        let t2 = SimDuration::from_days(days + 1);
        assert!(
            m.normalized_ber(pe, npp, t) <= m.normalized_ber(pe + 100, npp, t),
            "seed {seed}"
        );
        assert!(
            m.normalized_ber(pe, npp, t) <= m.normalized_ber(pe, npp + 1, t),
            "seed {seed}"
        );
        assert!(
            m.normalized_ber(pe, npp, t) <= m.normalized_ber(pe, npp, t2),
            "seed {seed}"
        );
    }
}

/// Reads inside the reported retention capability always succeed; reads
/// past it always fail.
#[test]
fn capability_is_exact_boundary() {
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from(0xCAB ^ seed);
        let npp_programs = rng.next_below(4) as u8;
        let frac = 0.05 + rng.next_f64() * 0.90;
        let mut dev = NandDevice::new(Geometry::tiny());
        dev.precycle(1000);
        let page = dev.geometry().block_addr(2).page(0);
        // Burn npp_programs programs on other slots first.
        for k in 0..npp_programs {
            dev.program_subpage(page.subpage(k), oob(u64::from(k)), SimTime::ZERO)
                .unwrap();
        }
        let target = npp_programs; // next free slot
        dev.program_subpage(page.subpage(target), oob(77), SimTime::ZERO)
            .unwrap();
        let cap = dev
            .retention_model()
            .retention_capability(1000, u32::from(npp_programs));
        let inside = SimTime::ZERO + SimDuration::from_nanos((cap.as_nanos() as f64 * frac) as u64);
        assert!(
            dev.read_subpage(page.subpage(target), inside).is_ok(),
            "seed {seed}"
        );
        let outside = SimTime::ZERO
            + SimDuration::from_nanos((cap.as_nanos() as f64 * (1.0 + frac)) as u64 + 1);
        assert_eq!(
            dev.read_subpage(page.subpage(target), outside),
            Err(ReadFault::RetentionExceeded),
            "seed {seed}"
        );
    }
}

/// Erase always restores full programmability regardless of history.
#[test]
fn erase_restores_page() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from(0xE2A ^ seed);
        let n = rng.next_below(4) as usize;
        let slots: Vec<u8> = (0..n).map(|_| rng.next_below(4) as u8).collect();
        let mut dev = NandDevice::new(Geometry::tiny());
        let blk = dev.geometry().block_addr(0);
        let page = blk.page(3);
        for (i, &s) in slots.iter().enumerate() {
            let _ = dev.program_subpage(page.subpage(s), oob(i as u64), SimTime::ZERO);
        }
        let pe_before = dev.pe_cycles(blk);
        dev.erase(blk, SimTime::ZERO).unwrap();
        assert_eq!(dev.pe_cycles(blk), pe_before + 1, "seed {seed}");
        // Full programs resume in word-line order from page 0.
        let oobs: Vec<_> = (0..4).map(|i| Some(oob(i))).collect();
        for p in 0..=3 {
            assert!(
                dev.program_full(blk.page(p), &oobs, SimTime::ZERO).is_ok(),
                "seed {seed} page {p}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Differential test: the device's flat cell store against a reference
// model built from nested per-page vectors.
// ---------------------------------------------------------------------

/// The reference model: the nested `Vec<Page>`-per-block device the
/// flat cell store replaced, with its per-page state machine kept as it
/// was.
mod reference {
    use esp_nand::{NandError, Oob, ReadFault, SubpageState, WrittenSubpage};
    use esp_sim::SimTime;

    /// One physical page: `N_sub` subpages plus a program counter.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Page {
        subpages: Vec<SubpageState>,
        programs: u8,
    }

    impl Page {
        /// A fresh (erased) page with `n_sub` subpages.
        #[must_use]
        pub fn new(n_sub: u32) -> Self {
            Page {
                subpages: vec![SubpageState::Erased; n_sub as usize],
                programs: 0,
            }
        }

        /// Number of subpages.
        #[must_use]
        pub fn subpage_count(&self) -> u32 {
            self.subpages.len() as u32
        }

        /// Number of program operations since the last erase.
        #[must_use]
        pub fn program_count(&self) -> u8 {
            self.programs
        }

        /// True if the page has never been programmed since the last erase.
        #[must_use]
        pub fn is_erased(&self) -> bool {
            self.programs == 0
        }

        /// True if no further program operation is allowed before an erase
        /// (the page has been programmed `N_sub` times).
        #[must_use]
        pub fn is_exhausted(&self) -> bool {
            u32::from(self.programs) >= self.subpage_count()
        }

        /// State of the subpage at `slot`.
        ///
        /// # Panics
        ///
        /// Panics if `slot` is out of range.
        #[must_use]
        pub fn subpage(&self, slot: u8) -> &SubpageState {
            &self.subpages[slot as usize]
        }

        /// Programs the whole page in one operation (the conventional path).
        ///
        /// `oobs` supplies one spare-area entry per subpage; `None` entries are
        /// padding (space wasted by internal fragmentation in CGM/FGM FTLs).
        ///
        /// # Errors
        ///
        /// * [`NandError::ProgramOnDirtyPage`] if the page has been programmed
        ///   since the last erase — full-page programs require an erased page.
        /// * [`NandError::SlotCountMismatch`] if `oobs.len() != N_sub`.
        pub fn program_full(
            &mut self,
            oobs: &[Option<Oob>],
            now: SimTime,
            pe_cycles: u32,
        ) -> Result<(), NandError> {
            if oobs.len() != self.subpages.len() {
                return Err(NandError::SlotCountMismatch {
                    expected: self.subpages.len() as u32,
                    got: oobs.len() as u32,
                });
            }
            if !self.is_erased() {
                return Err(NandError::ProgramOnDirtyPage);
            }
            for (state, oob) in self.subpages.iter_mut().zip(oobs) {
                *state = SubpageState::Written(WrittenSubpage {
                    oob: *oob,
                    npp: 0,
                    programmed_at: now,
                    pe_at_program: pe_cycles,
                });
            }
            self.programs = 1;
            Ok(())
        }

        /// Programs a single subpage via SBPI bit-line selection (the ESP path).
        ///
        /// Physics, per Fig 4: every *other* subpage of this page that currently
        /// holds data is **destroyed** (its BER exceeds the ECC limit). If the
        /// target slot itself was already programmed, the newly written data is
        /// garbage too, so the slot ends up [`SubpageState::Destroyed`] — this
        /// models an FTL bug, not a supported operation, and the device reports
        /// it faithfully rather than rejecting the command.
        ///
        /// The subpage becomes an `Npp^k` type where `k` is the number of
        /// program operations the page had seen before this one.
        ///
        /// # Errors
        ///
        /// * [`NandError::ProgramLimitExceeded`] if the page has already been
        ///   programmed `N_sub` times since the last erase.
        /// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
        ///
        /// Returns the list of slots whose data was destroyed as a side effect,
        /// so callers (and tests) can observe the corruption.
        pub fn program_subpage(
            &mut self,
            slot: u8,
            oob: Oob,
            now: SimTime,
            pe_cycles: u32,
        ) -> Result<Vec<u8>, NandError> {
            if usize::from(slot) >= self.subpages.len() {
                return Err(NandError::SlotOutOfRange {
                    slot,
                    n_sub: self.subpages.len() as u32,
                });
            }
            if self.is_exhausted() {
                return Err(NandError::ProgramLimitExceeded);
            }
            let npp = self.programs;
            let mut destroyed = Vec::new();
            let target_was_programmed =
                !matches!(self.subpages[slot as usize], SubpageState::Erased);
            for (i, state) in self.subpages.iter_mut().enumerate() {
                if i != usize::from(slot) {
                    if let SubpageState::Written(_) = state {
                        *state = SubpageState::Destroyed;
                        destroyed.push(i as u8);
                    }
                }
            }
            self.subpages[slot as usize] = if target_was_programmed {
                destroyed.push(slot);
                SubpageState::Destroyed
            } else {
                SubpageState::Written(WrittenSubpage {
                    oob: Some(oob),
                    npp,
                    programmed_at: now,
                    pe_at_program: pe_cycles,
                })
            };
            self.programs += 1;
            Ok(destroyed)
        }

        /// Raw read of the subpage at `slot` — the ECC/retention judgment is the
        /// device's job (it owns the retention model and the clock).
        ///
        /// # Errors
        ///
        /// * [`ReadFault::NotWritten`] if the slot is erased.
        /// * [`ReadFault::Padding`] if the slot was programmed as padding.
        /// * [`ReadFault::DestroyedByProgram`] if a later program on the page
        ///   corrupted it.
        /// * [`ReadFault::Torn`] if a program or erase was cut mid-operation.
        pub fn read_subpage(&self, slot: u8) -> Result<&WrittenSubpage, ReadFault> {
            match &self.subpages[usize::from(slot)] {
                SubpageState::Erased => Err(ReadFault::NotWritten),
                SubpageState::Destroyed => Err(ReadFault::DestroyedByProgram),
                SubpageState::Torn => Err(ReadFault::Torn),
                SubpageState::Written(w) => {
                    if w.oob.is_none() {
                        Err(ReadFault::Padding)
                    } else {
                        Ok(w)
                    }
                }
            }
        }

        /// Marks the subpage at `slot` as destroyed (used by the device when a
        /// program operation reports status fail: the pulse ran, so the target
        /// holds garbage rather than data).
        ///
        /// # Panics
        ///
        /// Panics if `slot` is out of range.
        pub fn destroy_subpage(&mut self, slot: u8) {
            self.subpages[usize::from(slot)] = SubpageState::Destroyed;
        }

        /// A full-page program cut by power loss mid-pulse: every subpage holds
        /// a partial charge pattern and reads back uncorrectable. Legality
        /// mirrors [`Page::program_full`] (the command was accepted; only its
        /// completion was interrupted).
        ///
        /// # Errors
        ///
        /// * [`NandError::ProgramOnDirtyPage`] if the page is not erased.
        pub fn tear_program_full(&mut self) -> Result<(), NandError> {
            if !self.is_erased() {
                return Err(NandError::ProgramOnDirtyPage);
            }
            for s in &mut self.subpages {
                *s = SubpageState::Torn;
            }
            self.programs = 1;
            Ok(())
        }

        /// A subpage program cut by power loss mid-pulse. The target slot is
        /// torn, and — exactly as for a completed program — every other subpage
        /// of the page that held data is destroyed (the Fig 4(b) disturbance
        /// comes from the program pulses, which did run before the cut).
        /// Legality mirrors [`Page::program_subpage`].
        ///
        /// Returns the slots whose data was destroyed as a side effect.
        ///
        /// # Errors
        ///
        /// * [`NandError::ProgramLimitExceeded`] if the page is exhausted.
        /// * [`NandError::SlotOutOfRange`] if `slot >= N_sub`.
        pub fn tear_program_subpage(&mut self, slot: u8) -> Result<Vec<u8>, NandError> {
            if usize::from(slot) >= self.subpages.len() {
                return Err(NandError::SlotOutOfRange {
                    slot,
                    n_sub: self.subpages.len() as u32,
                });
            }
            if self.is_exhausted() {
                return Err(NandError::ProgramLimitExceeded);
            }
            let mut destroyed = Vec::new();
            for (i, state) in self.subpages.iter_mut().enumerate() {
                if i != usize::from(slot) {
                    if let SubpageState::Written(_) = state {
                        *state = SubpageState::Destroyed;
                        destroyed.push(i as u8);
                    }
                }
            }
            self.subpages[slot as usize] = SubpageState::Torn;
            self.programs += 1;
            Ok(destroyed)
        }

        /// An erase cut by power loss mid-operation: the partial erase leaves
        /// every subpage in an indeterminate, uncorrectable state. The page is
        /// marked exhausted so no program can target it until a completed erase
        /// resets it.
        pub fn tear_all(&mut self) {
            for s in &mut self.subpages {
                *s = SubpageState::Torn;
            }
            self.programs = self.subpages.len() as u8;
        }

        /// Resets the page to the erased state.
        pub fn erase(&mut self) {
            for s in &mut self.subpages {
                *s = SubpageState::Erased;
            }
            self.programs = 0;
        }
    }

    /// One erase block of the reference device.
    pub struct Block {
        pub pages: Vec<Page>,
        pub pe_cycles: u32,
        pub bad: bool,
        pub torn: bool,
        pub reads_since_erase: u64,
    }

    impl Block {
        pub fn new(pages: u32, n_sub: u32) -> Self {
            Block {
                pages: (0..pages).map(|_| Page::new(n_sub)).collect(),
                pe_cycles: 0,
                bad: false,
                torn: false,
                reads_since_erase: 0,
            }
        }
    }
}

/// The reference device: nested per-block page vectors driven with the
/// device's legality rules, fault draws and counters.
struct RefDevice {
    g: Geometry,
    blocks: Vec<reference::Block>,
    stats: DeviceStats,
    faults: FaultModel,
    retention: RetentionModel,
}

impl RefDevice {
    fn new(g: Geometry, faults: FaultConfig, retention: RetentionModel, precycle: u32) -> Self {
        let faults = FaultModel::new(faults);
        let mut blocks: Vec<_> = (0..g.block_count())
            .map(|_| reference::Block::new(g.pages_per_block, g.subpages_per_page))
            .collect();
        for b in &mut blocks {
            b.pe_cycles = precycle;
        }
        for gbi in faults.factory_bad_blocks(g.block_count()) {
            blocks[gbi as usize].bad = true;
        }
        RefDevice {
            g,
            blocks,
            stats: DeviceStats::default(),
            faults,
            retention,
        }
    }

    fn block_index(&self, b: BlockAddr) -> Result<usize, NandError> {
        if b.chip.channel < self.g.channels
            && b.chip.way < self.g.chips_per_channel
            && b.block < self.g.blocks_per_chip
        {
            Ok(self.g.block_index(b) as usize)
        } else {
            Err(NandError::AddressOutOfRange)
        }
    }

    fn programmable(&mut self, b: BlockAddr) -> Result<&mut reference::Block, NandError> {
        let gbi = self.block_index(b)?;
        let block = &mut self.blocks[gbi];
        if block.bad {
            return Err(NandError::BadBlock);
        }
        if block.torn {
            return Err(NandError::TornBlock);
        }
        Ok(block)
    }

    fn program_full(
        &mut self,
        page: PageAddr,
        oobs: &[Option<Oob>],
        now: SimTime,
    ) -> Result<(), NandError> {
        let block = self.programmable(page.block)?;
        let p = page.page as usize;
        if p >= block.pages.len() {
            return Err(NandError::AddressOutOfRange);
        }
        if p > 0 && block.pages[p - 1].is_erased() {
            return Err(NandError::NonSequentialProgram { page: page.page });
        }
        let pe = block.pe_cycles;
        block.pages[p].program_full(oobs, now, pe)?;
        self.stats.full_programs += 1;
        if self.faults.program_fails(pe, &self.retention) {
            let block = self.programmable(page.block).expect("checked above");
            for slot in 0..block.pages[p].subpage_count() {
                block.pages[p].destroy_subpage(slot as u8);
            }
            self.stats.program_failures += 1;
            return Err(NandError::ProgramFailed);
        }
        Ok(())
    }

    fn program_subpage(
        &mut self,
        addr: SubpageAddr,
        oob: Oob,
        now: SimTime,
    ) -> Result<(), NandError> {
        if !self.g.contains(addr) {
            return Err(NandError::AddressOutOfRange);
        }
        let block = self.programmable(addr.page.block)?;
        let pe = block.pe_cycles;
        let page = &mut block.pages[addr.page.page as usize];
        let destroyed = page.program_subpage(addr.slot, oob, now, pe)?;
        self.stats.subpage_programs += 1;
        self.stats.subpages_destroyed += destroyed.len() as u64;
        if self.faults.program_fails(pe, &self.retention) {
            let block = self.programmable(addr.page.block).expect("checked above");
            block.pages[addr.page.page as usize].destroy_subpage(addr.slot);
            self.stats.program_failures += 1;
            return Err(NandError::ProgramFailed);
        }
        Ok(())
    }

    fn tear_program_full(&mut self, page: PageAddr) -> Result<(), NandError> {
        let block = self.programmable(page.block)?;
        let p = page.page as usize;
        if p >= block.pages.len() {
            return Err(NandError::AddressOutOfRange);
        }
        if p > 0 && block.pages[p - 1].is_erased() {
            return Err(NandError::NonSequentialProgram { page: page.page });
        }
        block.pages[p].tear_program_full()?;
        self.stats.torn_programs += 1;
        Ok(())
    }

    fn tear_program_subpage(&mut self, addr: SubpageAddr) -> Result<(), NandError> {
        if !self.g.contains(addr) {
            return Err(NandError::AddressOutOfRange);
        }
        let block = self.programmable(addr.page.block)?;
        let destroyed = block.pages[addr.page.page as usize].tear_program_subpage(addr.slot)?;
        self.stats.subpages_destroyed += destroyed.len() as u64;
        self.stats.torn_programs += 1;
        Ok(())
    }

    fn erase(&mut self, b: BlockAddr) -> Result<(), NandError> {
        let gbi = self.block_index(b)?;
        if self.blocks[gbi].bad {
            return Err(NandError::BadBlock);
        }
        let failed = self
            .faults
            .erase_fails(self.blocks[gbi].pe_cycles, &self.retention);
        let block = &mut self.blocks[gbi];
        for page in &mut block.pages {
            page.erase();
        }
        block.pe_cycles += 1;
        block.torn = false;
        block.reads_since_erase = 0;
        self.stats.erases += 1;
        if failed {
            block.bad = true;
            self.stats.erase_failures += 1;
            return Err(NandError::EraseFailed);
        }
        Ok(())
    }

    fn tear_erase(&mut self, b: BlockAddr) -> Result<(), NandError> {
        let gbi = self.block_index(b)?;
        let block = &mut self.blocks[gbi];
        if block.bad {
            return Err(NandError::BadBlock);
        }
        for page in &mut block.pages {
            page.tear_all();
        }
        block.pe_cycles += 1;
        block.torn = true;
        block.reads_since_erase = 0;
        self.stats.torn_erases += 1;
        Ok(())
    }

    /// The ECC verdict of one slot (no ladder): retention plus disturb
    /// against the limit.
    fn verdict(&self, addr: SubpageAddr, now: SimTime) -> Result<Oob, ReadFault> {
        let gbi = self.g.block_index(addr.page.block) as usize;
        let block = &self.blocks[gbi];
        let w = block.pages[addr.page.page as usize].read_subpage(addr.slot)?;
        let ber = self.retention.normalized_ber_on_block(
            gbi as u64,
            w.pe_at_program,
            u32::from(w.npp),
            now.saturating_since(w.programmed_at),
        ) + self.retention.disturb_term(block.reads_since_erase);
        if ber <= self.retention.ecc_limit() {
            Ok(w.oob.expect("read_subpage filters padding"))
        } else {
            Err(ReadFault::RetentionExceeded)
        }
    }

    fn read_slot(&mut self, addr: SubpageAddr, now: SimTime) -> Result<Oob, ReadFault> {
        self.stats.reads += 1;
        let r = self.verdict(addr, now);
        if r == Err(ReadFault::RetentionExceeded) {
            self.stats.retention_failures += 1;
        }
        r
    }

    fn read_subpage(&mut self, addr: SubpageAddr, now: SimTime) -> Result<Oob, ReadFault> {
        let r = self.read_slot(addr, now);
        self.blocks[self.g.block_index(addr.page.block) as usize].reads_since_erase += 1;
        r
    }

    fn read_full(&mut self, page: PageAddr, now: SimTime) -> Vec<Result<Oob, ReadFault>> {
        let results = (0..self.g.subpages_per_page)
            .map(|slot| self.read_slot(page.subpage(slot as u8), now))
            .collect();
        self.blocks[self.g.block_index(page.block) as usize].reads_since_erase += 1;
        results
    }
}

/// One random device command of the differential test.
#[derive(Debug)]
enum Cmd {
    ProgramFull(PageAddr, Vec<Option<Oob>>),
    ProgramSub(SubpageAddr, Oob),
    TearFull(PageAddr),
    TearSub(SubpageAddr),
    Erase(BlockAddr),
    TearErase(BlockAddr),
    MarkBad(BlockAddr),
    Read(SubpageAddr),
    ReadFull(PageAddr),
    Wait(SimDuration),
}

/// A random block, page or slot address; `wild` allows one past the end
/// of each dimension so the range checks are exercised too.
fn random_subpage(rng: &mut Rng, g: &Geometry, wild: bool) -> SubpageAddr {
    let pick = |rng: &mut Rng, n: u32| {
        if wild && rng.next_below(16) == 0 {
            n
        } else {
            rng.next_below(u64::from(n)) as u32
        }
    };
    let block = BlockAddr {
        chip: g.chip_addr(rng.next_below(u64::from(g.chip_count())) as u32),
        block: pick(rng, g.blocks_per_chip),
    };
    let page = block.page(pick(rng, g.pages_per_block));
    page.subpage(pick(rng, g.subpages_per_page) as u8)
}

fn random_cmd(rng: &mut Rng, g: &Geometry, seq: &mut u64) -> Cmd {
    let mut oob = || {
        *seq += 1;
        Oob {
            lsn: *seq % 97,
            seq: *seq,
        }
    };
    let wild = random_subpage(rng, g, true);
    let tame = random_subpage(rng, g, false);
    match rng.next_below(100) {
        0..=29 => Cmd::ProgramSub(wild, oob()),
        30..=49 => {
            let oobs = (0..g.subpages_per_page)
                .map(|_| (rng.next_below(4) != 0).then(&mut oob))
                .collect();
            Cmd::ProgramFull(wild.page, oobs)
        }
        50..=59 => Cmd::Erase(wild.page.block),
        60..=62 => Cmd::TearSub(wild),
        63..=64 => Cmd::TearFull(wild.page),
        65 => Cmd::TearErase(wild.page.block),
        66 => Cmd::MarkBad(tame.page.block),
        67..=84 => Cmd::Read(tame),
        85..=94 => Cmd::ReadFull(tame.page),
        _ => Cmd::Wait(SimDuration::from_days(rng.next_below(60))),
    }
}

/// Every observable of the device equals the reference's.
fn assert_same_state(dev: &NandDevice, r: &RefDevice, ctx: &str) {
    assert_eq!(dev.stats(), &r.stats, "{ctx}: stats");
    let g = dev.geometry();
    for gbi in 0..g.block_count() {
        let b = g.block_addr(gbi);
        let rb = &r.blocks[gbi as usize];
        assert_eq!(dev.is_bad(b), rb.bad, "{ctx}: block {gbi} bad");
        assert_eq!(dev.is_torn(b), rb.torn, "{ctx}: block {gbi} torn");
        assert_eq!(dev.pe_cycles(b), rb.pe_cycles, "{ctx}: block {gbi} P/E");
        assert_eq!(
            dev.reads_since_erase(b),
            rb.reads_since_erase,
            "{ctx}: block {gbi} disturb"
        );
        for p in 0..g.pages_per_block {
            let page = b.page(p);
            let rp = &rb.pages[p as usize];
            assert_eq!(
                dev.program_count(page),
                rp.program_count(),
                "{ctx}: block {gbi} page {p} program count"
            );
            for slot in 0..g.subpages_per_page as u8 {
                assert_eq!(
                    dev.subpage_state(page.subpage(slot)),
                    *rp.subpage(slot),
                    "{ctx}: block {gbi} page {p} slot {slot}"
                );
            }
        }
    }
}

/// The flat cell store behaves exactly like the nested per-page model
/// under random command sequences: same result or error per command, same
/// subpage states, program counts, block flags, counters and read
/// verdicts after every step. Geometries with 2, 4 and 8 subpages per page
/// exercise the cell-index arithmetic beyond the default 4.
#[test]
fn flat_cell_store_matches_nested_reference() {
    for n_sub in [2u32, 4, 8] {
        let g = Geometry {
            channels: 1,
            chips_per_channel: 2,
            blocks_per_chip: 3,
            pages_per_block: 4,
            subpages_per_page: n_sub,
            subpage_bytes: 4096,
        };
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from(0xF1A7 ^ (u64::from(n_sub) << 32) ^ seed);
            let faulty = seed % 2 == 1;
            let faults = FaultConfig {
                seed,
                program_fail_prob: if faulty { 0.08 } else { 0.0 },
                erase_fail_prob: if faulty { 0.03 } else { 0.0 },
                factory_bad_blocks: u32::from(faulty),
                ..FaultConfig::default()
            };
            let retention = RetentionModel::paper_default().with_read_disturb(0.02);
            let precycle = rng.next_below(2000) as u32;
            let mut dev =
                NandDevice::with_models(g.clone(), NandTiming::paper_default(), retention.clone());
            dev.set_faults(faults.clone());
            dev.precycle(precycle);
            let mut r = RefDevice::new(g.clone(), faults, retention, precycle);
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            assert_same_state(&dev, &r, "initial");
            for step in 0..300 {
                let cmd = random_cmd(&mut rng, &g, &mut seq);
                let ctx = format!("n_sub {n_sub} seed {seed} step {step} {cmd:?}");
                match &cmd {
                    Cmd::ProgramFull(page, oobs) => assert_eq!(
                        dev.program_full(*page, oobs, now),
                        r.program_full(*page, oobs, now),
                        "{ctx}"
                    ),
                    Cmd::ProgramSub(addr, oob) => assert_eq!(
                        dev.program_subpage(*addr, *oob, now),
                        r.program_subpage(*addr, *oob, now),
                        "{ctx}"
                    ),
                    Cmd::TearFull(page) => assert_eq!(
                        dev.tear_program_full(*page),
                        r.tear_program_full(*page),
                        "{ctx}"
                    ),
                    Cmd::TearSub(addr) => assert_eq!(
                        dev.tear_program_subpage(*addr),
                        r.tear_program_subpage(*addr),
                        "{ctx}"
                    ),
                    Cmd::Erase(b) => assert_eq!(dev.erase(*b, now), r.erase(*b), "{ctx}"),
                    Cmd::TearErase(b) => {
                        assert_eq!(dev.tear_erase(*b), r.tear_erase(*b), "{ctx}");
                    }
                    Cmd::MarkBad(b) => {
                        dev.mark_bad(*b);
                        r.blocks[g.block_index(*b) as usize].bad = true;
                    }
                    Cmd::Read(addr) => assert_eq!(
                        dev.read_subpage(*addr, now),
                        r.read_subpage(*addr, now),
                        "{ctx}"
                    ),
                    Cmd::ReadFull(page) => assert_eq!(
                        dev.read_full_with_effort(*page, now).0,
                        r.read_full(*page, now),
                        "{ctx}"
                    ),
                    Cmd::Wait(d) => now += *d,
                }
                assert_same_state(&dev, &r, &ctx);
            }
        }
    }
}
