//! Microloops over the public device calls: the host cost of one SSD
//! timed operation and of the NAND model's hottest functions.
//!
//! Each probe runs a fixed number of calls on a small device and reports
//! on-CPU ns per call, the median over several repetitions.

use esp_nand::{Geometry, NandDevice, Oob, ReadFault, RetentionModel};
use esp_sim::{SimDuration, SimTime};
use esp_ssd::Ssd;

use crate::host;

const REPS: usize = 5;
/// Program/read/erase cycles over the whole probe device per repetition.
const CYCLES: u32 = 8;

fn geometry() -> Geometry {
    Geometry {
        channels: 2,
        chips_per_channel: 2,
        blocks_per_chip: 8,
        pages_per_block: 64,
        subpages_per_page: 4,
        subpage_bytes: 4096,
    }
}

/// Host ns per call of each probed operation.
pub struct DeviceProbes {
    pub ssd_program_full_ns: f64,
    pub ssd_read_full_ns: f64,
    pub ssd_erase_ns: f64,
    pub nand_program_subpage_ns: f64,
    pub nand_normalized_ber_ns: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

pub fn run() -> DeviceProbes {
    let (mut program, mut read, mut erase) = (Vec::new(), Vec::new(), Vec::new());
    let (mut subpage, mut ber) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let [p, r, e] = ssd_cycle();
        program.push(p);
        read.push(r);
        erase.push(e);
        subpage.push(nand_subpage_cycle());
        ber.push(normalized_ber_sweep());
    }
    DeviceProbes {
        ssd_program_full_ns: median(program),
        ssd_read_full_ns: median(read),
        ssd_erase_ns: median(erase),
        nand_program_subpage_ns: median(subpage),
        nand_normalized_ber_ns: median(ber),
    }
}

/// `Ssd::program_full`, `Ssd::read_full_into` and `Ssd::erase` over every
/// page and block of the probe device, `CYCLES` times; ns per call each.
fn ssd_cycle() -> [f64; 3] {
    let g = geometry();
    let mut ssd = Ssd::new(g.clone());
    let mut out: Vec<Result<Oob, ReadFault>> = Vec::with_capacity(4);
    let mut t = SimTime::ZERO;
    let (mut program_ns, mut read_ns, mut erase_ns) = (0, 0, 0);
    let mut seq = 0;
    for _ in 0..CYCLES {
        let t0 = host::thread_cpu_ns();
        for b in 0..g.block_count() {
            let block = g.block_addr(b);
            for p in 0..g.pages_per_block {
                let oobs = [0, 1, 2, 3].map(|k| {
                    seq += 1;
                    Some(Oob {
                        lsn: u64::from(b * g.pages_per_block + p) * 4 + k,
                        seq,
                    })
                });
                t = ssd.program_full(block.page(p), &oobs, t).expect("program");
            }
        }
        let t1 = host::thread_cpu_ns();
        for b in 0..g.block_count() {
            let block = g.block_addr(b);
            for p in 0..g.pages_per_block {
                t = ssd.read_full_into(block.page(p), t, &mut out);
            }
        }
        std::hint::black_box(&out);
        let t2 = host::thread_cpu_ns();
        for b in 0..g.block_count() {
            t = ssd.erase(g.block_addr(b), t).expect("erase");
        }
        let t3 = host::thread_cpu_ns();
        program_ns += t1 - t0;
        read_ns += t2 - t1;
        erase_ns += t3 - t2;
    }
    let pages = f64::from(CYCLES) * g.page_count() as f64;
    let blocks = f64::from(CYCLES) * f64::from(g.block_count());
    [
        program_ns as f64 / pages,
        read_ns as f64 / pages,
        erase_ns as f64 / blocks,
    ]
}

/// `NandDevice::program_subpage` filling every subpage slot of the probe
/// device (erase-free subpage programming), `CYCLES` times; ns per call.
fn nand_subpage_cycle() -> f64 {
    let g = geometry();
    let mut dev = NandDevice::new(g.clone());
    let mut ns = 0;
    let mut seq = 0;
    for _ in 0..CYCLES {
        let t0 = host::thread_cpu_ns();
        for b in 0..g.block_count() {
            let block = g.block_addr(b);
            for slot in 0..4u8 {
                for p in 0..g.pages_per_block {
                    seq += 1;
                    let oob = Oob {
                        lsn: u64::from(b * g.pages_per_block + p),
                        seq,
                    };
                    dev.program_subpage(block.page(p).subpage(slot), oob, SimTime::ZERO)
                        .expect("subpage program");
                }
            }
        }
        ns += host::thread_cpu_ns() - t0;
        for b in 0..g.block_count() {
            dev.erase(g.block_addr(b), SimTime::ZERO).expect("erase");
        }
    }
    ns as f64 / (f64::from(CYCLES) * g.subpage_count() as f64)
}

/// `RetentionModel::normalized_ber` over a P/E × programs-per-page ×
/// age grid; ns per call.
fn normalized_ber_sweep() -> f64 {
    let model = RetentionModel::paper_default();
    let mut acc = 0.0;
    let mut calls = 0u64;
    let t0 = host::thread_cpu_ns();
    for _ in 0..20 {
        for pe in (0..3000u32).step_by(50) {
            for npp in 0..4 {
                for days in 0..60 {
                    acc += model.normalized_ber(pe, npp, SimDuration::from_days(days));
                    calls += 1;
                }
            }
        }
    }
    let ns = host::thread_cpu_ns() - t0;
    std::hint::black_box(acc);
    ns as f64 / calls as f64
}
