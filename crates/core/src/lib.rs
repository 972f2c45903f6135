//! # esp-core — subFTL and the baseline FTLs
//!
//! The primary contribution of Kim et al., *"Improving Performance and
//! Lifetime of Large-Page NAND Storages Using Erase-Free Subpage
//! Programming"* (DAC 2017), plus both baselines it is evaluated against:
//!
//! * [`SubFtl`] — the ESP-aware hybrid FTL: a fine-grained **subpage
//!   region** written with erase-free subpage programs (lap-based write
//!   policy, hot/cold GC, 15-day retention scrubbing) over a coarse-grained
//!   **full-page region**.
//! * [`CgmFtl`] — coarse-grained (16 KB page) mapping; small writes cost
//!   read-modify-writes.
//! * [`FgmFtl`] — fine-grained (4 KB) mapping with a merging write buffer;
//!   synchronous small writes fragment pages.
//! * [`SectorLogFtl`] — the sector-log hybrid of Jin et al. (the paper's
//!   closest related work, §6): same region split as subFTL but without
//!   ESP.
//!
//! Beyond the paper's text, every FTL supports host [`Ftl::trim`] and
//! power-loss recovery (`recover` constructors rebuild all mapping state
//! from the flash spare areas, charging a mount-time scan), and reports its
//! exact mapping-table memory ([`Ftl::mapping_memory_bytes`]).
//!
//! All three implement the [`Ftl`] trait and replay workloads through
//! [`run_trace`], producing the IOPS / GC-invocation / WAF numbers the
//! paper's figures report.
//!
//! # Examples
//!
//! ```
//! use esp_core::{run_trace, Ftl, FtlConfig, SubFtl};
//! use esp_workload::{generate, SyntheticConfig};
//!
//! let mut ftl = SubFtl::new(&FtlConfig::tiny());
//! let trace = generate(&SyntheticConfig {
//!     footprint_sectors: ftl.logical_sectors() / 2,
//!     requests: 200,
//!     r_small: 1.0,
//!     r_synch: 1.0,
//!     ..SyntheticConfig::default()
//! });
//! let report = run_trace(&mut ftl, &trace);
//! // Small writes were served with erase-free subpage programs, and every
//! // read returned the data that was written.
//! assert!(report.programs.1 > 0); // (full-page, subpage) program counts
//! assert_eq!(report.stats.read_faults, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_pool;
mod buffer;
mod cgm;
mod config;
mod crash_harness;
mod eol;
mod fgm;
mod gc_policy;
mod map_cache;
mod read_path;
mod recovery;
mod report;
mod runner;
mod sector_log;
mod stats;
mod sub;
mod sub_map;
mod tenant;

pub use block_pool::{BlockPool, PagePtr};
pub use buffer::{FlushChunk, WriteBuffer};
pub use cgm::CgmFtl;
pub use config::{EvictionPolicy, FtlConfig};
pub use crash_harness::{
    random_workload, CrashCase, CrashHarness, CrashOp, CrashTarget, SweepReport,
};
pub use eol::SpaceExhausted;
pub use fgm::FgmFtl;
pub use gc_policy::{
    select_victim, GcPolicyKind, SelectOpts, VictimCandidate, VICTIM_WEAR_SLACK_SHIFT,
};
pub use map_cache::{MapCache, MapCacheConfig, MapCacheStats, ENTRIES_PER_TP};
pub use report::{
    latency_json, run_json, tenant_json, tenants_json, validate_bench, BenchReport,
    BENCH_SCHEMA_NAME, BENCH_SCHEMA_VERSION, REQUIRED_RUN_FIELDS,
};
pub use runner::{device_wear_summary, precondition, run_trace, run_trace_qd, Ftl};
pub use sector_log::SectorLogFtl;
pub use stats::{FtlStats, RunReport, WearSummary};
pub use sub::SubFtl;
pub use sub_map::{ProbeStats, SubEntry, SubpageMap};
pub use tenant::{
    run_tenants_qd, TenantConfig, TenantReport, TenantRunReport, TenantSet, DRR_QUANTUM_SECTORS,
};
