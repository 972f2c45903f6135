//! The traced run: an [`Ftl`] wrapper that records one span per call.
//!
//! [`Traced`] delegates every call to the FTL or array it wraps. Around
//! each host-path call (`write`, `read`, `flush`, `maintain`, `idle`) it
//! records a [`Span`]: which call, which layer and cell, its wall-clock
//! start and duration, and the FTL-counter and map-cache deltas the call
//! caused. Spans go into a shared in-memory [`SpanLog`] and are written
//! out once, after the run.
//!
//! The wrapper sits only at layer boundaries the benchmark itself
//! crosses: around the FTL (or array) the runner drives, and — in the
//! array workload — around each shard the array drives. Nothing inside
//! the program is instrumented.

use std::cell::RefCell;
use std::io::Write;
use std::ops::DerefMut;
use std::rc::Rc;
use std::time::Instant;

use esp_core::{Ftl, FtlStats, MapCacheStats};
use esp_sim::SimTime;
use esp_ssd::Ssd;

/// Which `Ftl` call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Write,
    Read,
    Flush,
    Maintain,
    Idle,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Write => "write",
            Call::Read => "read",
            Call::Flush => "flush",
            Call::Maintain => "maintain",
            Call::Idle => "idle",
        }
    }
}

/// Which boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The FTL or array the runner (`run_trace_qd` / `run_tenants_qd`)
    /// calls directly; the runner's self time is replay time outside
    /// these spans.
    Top,
    /// One shard FTL under an array; these spans nest inside `Top` ones.
    Shard,
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub layer: Layer,
    /// Index of the workload cell the call belongs to (its parent).
    pub cell: u16,
    /// Wall-clock start, ns since the log's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Advance of `gc_invocations + lap_migrations + cold_evictions`
    /// during the call: nonzero marks a GC-bearing write.
    pub gc_work: u64,
    /// Translation-page reads plus programs the map cache charged.
    pub tp_io: u64,
}

/// Spans of one traced replay, shared by every wrapper of a cell.
pub struct SpanLog {
    epoch: Instant,
    cell: u16,
    /// Calls made while this is false (set-up) are forwarded unrecorded.
    pub recording: bool,
    pub spans: Vec<Span>,
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared(capacity: usize) -> SharedLog {
        Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            cell: 0,
            recording: true,
            spans: Vec::with_capacity(capacity),
        }))
    }

    /// Tags the spans recorded from now on with `cell`.
    pub fn set_cell(&mut self, cell: u16) {
        self.cell = cell;
    }

    /// Writes every span as one tab-separated line, after a `#` header
    /// that names each cell index.
    pub fn write_tsv(&self, out: &mut impl Write, cell_names: &[String]) -> std::io::Result<()> {
        for (i, name) in cell_names.iter().enumerate() {
            writeln!(out, "# cell {i}: {name}")?;
        }
        writeln!(out, "cell\tlayer\tcall\tstart_ns\tdur_ns\tgc_work\ttp_io")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.cell,
                match s.layer {
                    Layer::Top => "top",
                    Layer::Shard => "shard",
                },
                s.call.name(),
                s.start_ns,
                s.dur_ns,
                s.gc_work,
                s.tp_io
            )?;
        }
        Ok(())
    }
}

/// An `Ftl` that forwards to `inner` and records a span per host-path
/// call. `H` is `&mut F` for a borrowed FTL or array, `Box<dyn Ftl>` for
/// an owned shard.
pub struct Traced<H> {
    inner: H,
    layer: Layer,
    log: SharedLog,
}

impl<H> Traced<H>
where
    H: DerefMut,
    H::Target: Ftl,
{
    pub fn new(inner: H, layer: Layer, log: SharedLog) -> Self {
        Traced { inner, layer, log }
    }

    fn span<R>(&mut self, call: Call, f: impl FnOnce(&mut H::Target) -> R) -> R {
        if !self.log.borrow().recording {
            return f(&mut *self.inner);
        }
        let (gc0, tp0) = (
            gc_work(self.inner.stats()),
            tp_io(self.inner.map_cache_stats()),
        );
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        let t1 = Instant::now();
        let gc = gc_work(self.inner.stats()) - gc0;
        let tp = tp_io(self.inner.map_cache_stats()) - tp0;
        let mut log = self.log.borrow_mut();
        let span = Span {
            call,
            layer: self.layer,
            cell: log.cell,
            start_ns: t0.duration_since(log.epoch).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
            gc_work: gc,
            tp_io: tp,
        };
        log.spans.push(span);
        r
    }
}

fn gc_work(s: &FtlStats) -> u64 {
    s.gc_invocations + s.lap_migrations + s.cold_evictions
}

fn tp_io(m: Option<MapCacheStats>) -> u64 {
    m.map_or(0, |m| m.tp_reads + m.tp_programs)
}

impl<H> Ftl for Traced<H>
where
    H: DerefMut,
    H::Target: Ftl,
{
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn logical_sectors(&self) -> u64 {
        self.inner.logical_sectors()
    }

    fn write(&mut self, lsn: u64, sectors: u32, sync: bool, issue: SimTime) -> SimTime {
        self.span(Call::Write, |f| f.write(lsn, sectors, sync, issue))
    }

    fn read(&mut self, lsn: u64, sectors: u32, issue: SimTime) -> SimTime {
        self.span(Call::Read, |f| f.read(lsn, sectors, issue))
    }

    fn flush(&mut self, issue: SimTime) -> SimTime {
        self.span(Call::Flush, |f| f.flush(issue))
    }

    fn maintain(&mut self, now: SimTime) {
        self.span(Call::Maintain, |f| f.maintain(now));
    }

    fn idle(&mut self, from: SimTime, until: SimTime) {
        self.span(Call::Idle, |f| f.idle(from, until));
    }

    fn stored_seq(&self, lsn: u64) -> Option<u64> {
        self.inner.stored_seq(lsn)
    }

    fn trim(&mut self, lsn: u64, sectors: u32) {
        self.inner.trim(lsn, sectors);
    }

    fn mapping_memory_bytes(&self) -> u64 {
        self.inner.mapping_memory_bytes()
    }

    fn map_cache_stats(&self) -> Option<MapCacheStats> {
        self.inner.map_cache_stats()
    }

    fn stats(&self) -> &FtlStats {
        self.inner.stats()
    }

    fn end_of_life(&self) -> bool {
        self.inner.end_of_life()
    }

    fn ssd(&self) -> &Ssd {
        self.inner.ssd()
    }

    fn fail_device(&mut self) {
        self.inner.fail_device();
    }

    fn enable_tracing(&mut self, capacity: usize) {
        self.inner.enable_tracing(capacity);
    }

    fn events(&self) -> Vec<esp_sim::TraceEvent> {
        self.inner.events()
    }

    fn events_dropped(&self) -> u64 {
        self.inner.events_dropped()
    }
}
