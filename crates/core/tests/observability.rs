//! Observability-layer integration tests: per-FTL event tracing, the
//! streaming latency histogram's accuracy bound, and the BENCH JSON
//! report's round-trip/schema guarantees.

use esp_core::{
    run_trace, validate_bench, BenchReport, CgmFtl, FgmFtl, Ftl, FtlConfig, SectorLogFtl, SubFtl,
};
use esp_sim::{HdrHistogram, Json, Rng};
use esp_workload::{generate, SyntheticConfig};

fn small_sync_trace(logical: u64) -> esp_workload::Trace {
    generate(&SyntheticConfig {
        footprint_sectors: logical / 2,
        requests: 400,
        r_small: 0.9,
        r_synch: 0.8,
        ..SyntheticConfig::default()
    })
}

/// Every FTL, once armed, records NAND command events time-sorted; with
/// tracing left disabled (the default) the same run records nothing.
fn check_tracing<F: Ftl>(mut armed: F, mut dark: F) {
    let trace = small_sync_trace(armed.logical_sectors());
    armed.enable_tracing(1 << 16);
    run_trace(&mut armed, &trace);
    run_trace(&mut dark, &trace);

    let events = armed.events();
    assert!(!events.is_empty(), "{}: no events recorded", armed.name());
    assert!(
        events.iter().any(|e| e.kind.starts_with("nand.")),
        "{}: no NAND command events",
        armed.name()
    );
    assert!(
        events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "{}: events not time-sorted",
        armed.name()
    );
    assert!(
        dark.events().is_empty() && dark.events_dropped() == 0,
        "{}: disabled recorder must record nothing",
        dark.name()
    );
}

#[test]
fn all_ftls_trace_nand_commands() {
    let c = FtlConfig::tiny();
    check_tracing(CgmFtl::new(&c), CgmFtl::new(&c));
    check_tracing(FgmFtl::new(&c), FgmFtl::new(&c));
    check_tracing(SubFtl::new(&c), SubFtl::new(&c));
    check_tracing(SectorLogFtl::new(&c), SectorLogFtl::new(&c));
}

#[test]
fn subftl_traces_subpage_programs_and_gc() {
    let mut ftl = SubFtl::new(&FtlConfig::tiny());
    ftl.enable_tracing(1 << 18);
    let trace = small_sync_trace(ftl.logical_sectors());
    run_trace(&mut ftl, &trace);
    let events = ftl.events();
    assert!(
        events.iter().any(|e| e.kind == "nand.program_subpage"),
        "small sync writes must use erase-free subpage programs"
    );
    // GC invocations recorded in stats must also appear as gc.collect
    // events (the buffer is large enough that nothing was dropped).
    assert_eq!(ftl.events_dropped(), 0);
    let collects = events.iter().filter(|e| e.kind == "gc.collect").count() as u64;
    assert_eq!(collects, ftl.stats().gc_invocations);
}

#[test]
fn histogram_percentiles_within_one_bucket_of_exact() {
    let mut rng = Rng::seed_from(0xB0B5);
    for round in 0..20 {
        let mut h = HdrHistogram::new();
        let n = 100 + rng.next_below(2000) as usize;
        let mut samples: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            // Span several orders of magnitude, like latencies do.
            let v = 1u64 << rng.next_below(30);
            let v = v + rng.next_below(v.max(1));
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for &q in &[0.5, 0.95, 0.99, 0.999] {
            let rank = ((n as f64 * q).ceil() as usize).max(1) - 1;
            let exact = samples[rank];
            let approx = h.percentile(q);
            // The log-bucketed histogram returns the floor of the bucket
            // the exact sample landed in: never above the exact value, and
            // below it by at most one bucket width (1/16 relative).
            assert!(
                approx <= exact,
                "round {round} q={q}: approx {approx} > exact {exact}"
            );
            assert!(
                exact - approx <= approx / 16 + 1,
                "round {round} q={q}: approx {approx} more than one bucket below {exact}"
            );
        }
    }
}

#[test]
fn bench_report_round_trips_and_validates() {
    let mut ftl = SubFtl::new(&FtlConfig::tiny());
    ftl.enable_tracing(1 << 12);
    let trace = small_sync_trace(ftl.logical_sectors());
    let report = run_trace(&mut ftl, &trace);

    let mut bench = BenchReport::new("observability_test");
    bench.meta("requests", Json::from(trace.requests.len() as u64));
    bench.push_run("subFTL", &report);
    bench.attach_events(&ftl.events()[..16.min(ftl.events().len())], 0);

    let json = bench.to_json();
    validate_bench(&json).expect("emitted report must satisfy its own schema");

    let text = json.to_pretty();
    let reparsed = Json::parse(&text).expect("emitted JSON must parse");
    validate_bench(&reparsed).expect("reparsed report must still validate");
    assert_eq!(
        reparsed.to_pretty(),
        text,
        "parse → emit must be a fixed point"
    );

    // Schema guardrails: deleting a required field must fail validation.
    let mut broken = Json::parse(&text).unwrap();
    if let Json::Obj(pairs) = &mut broken {
        pairs.retain(|(k, _)| k != "schema_version");
    }
    assert!(validate_bench(&broken).is_err());
}

/// The FTL-level trace field `block` names a device-global block index:
/// region events of the hybrids name blocks inside their region's share of
/// every chip (the first `per_chip` blocks of each chip), on every chip.
#[test]
fn region_trace_blocks_are_device_global() {
    let cfg = FtlConfig::tiny();
    let bpc = u64::from(cfg.geometry.blocks_per_chip);
    let per_chip = ((bpc as f64 * cfg.subpage_region_fraction).round() as u64).clamp(2, bpc - 1);
    let region_event = |kind: &str, tag: Option<&str>| {
        matches!(
            (kind, tag),
            ("gc.collect", Some("log_merge" | "sub")) | ("sub.lap_migration", _)
        )
    };
    let ftls: [Box<dyn Ftl>; 2] = [
        Box::new(SectorLogFtl::new(&cfg)),
        Box::new(SubFtl::new(&cfg)),
    ];
    for mut ftl in ftls {
        ftl.enable_tracing(1 << 18);
        let trace = generate(&SyntheticConfig {
            footprint_sectors: ftl.logical_sectors() / 2,
            requests: 3_000,
            r_small: 1.0,
            r_synch: 1.0,
            ..SyntheticConfig::default()
        });
        run_trace(ftl.as_mut(), &trace);
        let blocks: Vec<u64> = ftl
            .events()
            .iter()
            .filter(|e| region_event(e.kind, e.tag))
            .map(|e| e.get("block").expect("region event names its block"))
            .collect();
        assert!(!blocks.is_empty(), "{}: no region GC events", ftl.name());
        for &b in &blocks {
            assert!(
                b % bpc < per_chip,
                "{}: block {b} lies outside the region",
                ftl.name()
            );
        }
        assert!(
            blocks.iter().any(|&b| b >= bpc),
            "{}: region events never named a block past the first chip",
            ftl.name()
        );
    }
}
