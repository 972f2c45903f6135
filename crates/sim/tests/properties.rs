//! Randomized property tests for the simulation substrate, driven by the
//! crate's own deterministic [`Rng`] (no external test-framework
//! dependencies; every case is reproducible from the printed seed).

use esp_sim::{HdrHistogram, Resource, Rng, RunningStats, SimDuration, SimTime, Zipf};

const CASES: u64 = 64;

/// A resource never starts an op before it was requested, never overlaps
/// ops, and its busy time equals the sum of scheduled durations.
#[test]
fn resource_schedule_is_serial_and_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0xA11CE ^ seed);
        let n = rng.next_in(1, 99) as usize;
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(10_000), rng.next_in(1, 4_999)))
            .collect();
        let mut r = Resource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(earliest, dur) in &ops {
            let earliest = SimTime::from_nanos(earliest);
            let dur = SimDuration::from_nanos(dur);
            let end = r.occupy(earliest, dur);
            // Start = end - dur must be >= both the request time and the
            // previous completion.
            let start = SimTime::from_nanos(end.as_nanos() - dur.as_nanos());
            assert!(start >= earliest, "seed {seed}");
            assert!(start >= prev_end, "seed {seed}");
            prev_end = end;
            total += dur;
        }
        assert_eq!(r.busy_time(), total, "seed {seed}");
        assert_eq!(r.op_count(), ops.len() as u64, "seed {seed}");
        assert_eq!(r.next_free(), prev_end, "seed {seed}");
    }
}

/// Makespan (latest completion) is at least the busy time of any single
/// resource and at most the sum of all durations (serial execution).
#[test]
fn multi_resource_makespan_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0xB0B0 ^ seed);
        let n = rng.next_in(1, 199) as usize;
        let mut resources = vec![Resource::new(); 4];
        let mut makespan = SimTime::ZERO;
        let mut serial = SimDuration::ZERO;
        for _ in 0..n {
            let which = rng.next_below(4) as usize;
            let dur = SimDuration::from_nanos(rng.next_in(1, 999));
            let end = resources[which].occupy(SimTime::ZERO, dur);
            makespan = makespan.max(end);
            serial += dur;
        }
        for r in &resources {
            assert!(
                makespan.saturating_since(SimTime::ZERO) >= r.busy_time(),
                "seed {seed}"
            );
        }
        assert!(
            makespan.saturating_since(SimTime::ZERO) <= serial.max(SimDuration::ZERO),
            "seed {seed}"
        );
    }
}

/// next_below is always within bounds for arbitrary seeds and bounds.
#[test]
fn rng_bounds_hold() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from(0xC0FFEE ^ case);
        let seed = meta.next_u64();
        let bound = meta.next_in(1, 1_000_000);
        let mut rng = Rng::seed_from(seed);
        for _ in 0..100 {
            assert!(rng.next_below(bound) < bound, "seed {seed} bound {bound}");
        }
    }
}

/// Zipf samples are always valid ranks.
#[test]
fn zipf_in_range() {
    for case in 0..CASES {
        let mut meta = Rng::seed_from(0x21BF ^ case);
        let seed = meta.next_u64();
        let n = meta.next_in(1, 100_000);
        let theta = meta.next_f64() * 0.999;
        let zipf = Zipf::new(n, theta);
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            assert!(zipf.sample(&mut rng) < n, "seed {seed} n {n} theta {theta}");
        }
    }
}

/// RunningStats mean/min/max always bracket the data.
#[test]
fn stats_bracket_samples() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0x57A7 ^ seed);
        let n = rng.next_in(1, 199) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.record(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), lo, "seed {seed}");
        assert_eq!(s.max(), hi, "seed {seed}");
        assert!(
            s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9,
            "seed {seed}"
        );
        assert!(s.variance() >= 0.0, "seed {seed}");
    }
}

/// Histogram percentile is monotone in q and stays inside the observed
/// range.
#[test]
fn histogram_percentile_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0x1067 ^ seed);
        let n = rng.next_in(1, 199) as usize;
        let xs: Vec<u64> = (0..n).map(|_| rng.next_in(1, 999_999)).collect();
        let mut h = HdrHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut prev = 0;
        for i in 0..=10 {
            let q = f64::from(i) / 10.0;
            let p = h.percentile(q);
            assert!(p >= prev, "seed {seed}: percentile({q}) regressed");
            prev = p;
        }
        let min = *xs.iter().min().unwrap();
        let max = *xs.iter().max().unwrap();
        assert!(h.percentile(0.0) >= min, "seed {seed}");
        assert!(h.percentile(1.0) <= max, "seed {seed}");
    }
}

/// Time arithmetic: (t + d) - t == d for all representable pairs.
#[test]
fn time_add_sub_inverse() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(0x7123 ^ seed);
        let t = SimTime::from_nanos(rng.next_below(u64::MAX / 2));
        let d = SimDuration::from_nanos(rng.next_below(u64::MAX / 4));
        assert_eq!((t + d) - t, d, "seed {seed}");
    }
}
