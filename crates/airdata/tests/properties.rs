//! Property-style tests for the data substrate (deterministic sweeps
//! over the in-tree RNG; no proptest needed offline).

use airdata::csvio;
use airdata::generate::{generate_station, GeneratorConfig, StationData};
use airdata::impute;
use airdata::profile::StationProfile;
use airdata::schema::{Feature, STATIONS};
use linalg::rng::{rng_for, Rng, SliceRandom};

const CASES: usize = 24;

fn random_station(rng: &mut impl Rng) -> &'static str {
    STATIONS.choose(rng).expect("stations are non-empty")
}

fn random_config(rng: &mut impl Rng) -> GeneratorConfig {
    GeneratorConfig {
        start: (2013, 3, 1),
        hours: rng.gen_range(10..400u64),
        seed: rng.gen_range(0..1000u64),
        missing_rate: rng.gen_range(0.0..0.2),
    }
}

fn bitwise_eq(a: &StationData, b: &StationData) -> bool {
    a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            (x.year, x.month, x.day, x.hour) == (y.year, y.month, y.day, y.hour)
                && x.values
                    .iter()
                    .zip(&y.values)
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Generation is deterministic and always produces in-range,
/// physically-floored values (or NaN).
#[test]
fn generator_invariants() {
    let mut rng = rng_for(0xA1D, 1);
    for _ in 0..CASES {
        let name = random_station(&mut rng);
        let cfg = random_config(&mut rng);
        let p = StationProfile::of(name);
        let a = generate_station(&p, &cfg);
        let b = generate_station(&p, &cfg);
        assert!(
            bitwise_eq(&a, &b),
            "same config must regenerate identically"
        );
        assert_eq!(a.records.len() as u64, cfg.hours);
        for r in &a.records {
            assert!((1..=12).contains(&r.month));
            assert!((1..=31).contains(&r.day));
            assert!(r.hour < 24);
            for (f, &v) in Feature::ALL.iter().zip(&r.values) {
                if !v.is_nan() {
                    assert!(v >= f.floor(), "{f:?} = {v} below floor {}", f.floor());
                    assert!(v.is_finite());
                }
            }
        }
    }
}

/// Timestamps advance strictly by one hour per record.
#[test]
fn timestamps_are_consecutive() {
    let mut rng = rng_for(0xA1D, 2);
    for _ in 0..CASES {
        let name = random_station(&mut rng);
        let hours = rng.gen_range(5..200u64);
        let seed = rng.gen_range(0..100u64);
        let data = generate_station(
            &StationProfile::of(name),
            &GeneratorConfig::short(hours, seed),
        );
        for (i, w) in data.records.windows(2).enumerate() {
            let t0 = airdata::time::days_from_civil(w[0].year, w[0].month, w[0].day) * 24
                + i64::from(w[0].hour);
            let t1 = airdata::time::days_from_civil(w[1].year, w[1].month, w[1].day) * 24
                + i64::from(w[1].hour);
            assert_eq!(t1, t0 + 1, "gap at record {i}");
        }
    }
}

/// CSV round trips preserve timestamps, missingness pattern, and
/// values to the serialised precision.
#[test]
fn csv_round_trip() {
    let mut rng = rng_for(0xA1D, 3);
    for _ in 0..CASES {
        let name = random_station(&mut rng);
        let cfg = random_config(&mut rng);
        let data = generate_station(&StationProfile::of(name), &cfg);
        let parsed = csvio::from_csv_reader(csvio::to_csv_string(&data).as_bytes()).unwrap();
        assert_eq!(parsed.records.len(), data.records.len());
        assert_eq!(&parsed.station, &data.station);
        for (a, b) in parsed.records.iter().zip(&data.records) {
            assert_eq!(
                (a.year, a.month, a.day, a.hour),
                (b.year, b.month, b.day, b.hour)
            );
            for (x, y) in a.values.iter().zip(&b.values) {
                if y.is_nan() {
                    assert!(x.is_nan());
                } else {
                    assert!((x - y).abs() < 5e-4, "{x} vs {y}");
                }
            }
        }
    }
}

/// Imputation removes every gap and touches nothing observed.
#[test]
fn forward_fill_is_complete_and_conservative() {
    let mut rng = rng_for(0xA1D, 4);
    for _ in 0..CASES {
        let name = random_station(&mut rng);
        let cfg = random_config(&mut rng);
        let original = generate_station(&StationProfile::of(name), &cfg);
        let mut filled = original.clone();
        impute::forward_fill(&mut filled);
        assert!(impute::is_fully_observed(&filled));
        for (a, b) in original.records.iter().zip(&filled.records) {
            for (x, y) in a.values.iter().zip(&b.values) {
                if !x.is_nan() {
                    assert_eq!(x.to_bits(), y.to_bits(), "observed cell changed");
                }
            }
        }
    }
}

/// Civil-calendar conversion round-trips any day number.
#[test]
fn civil_round_trip() {
    let mut rng = rng_for(0xA1D, 5);
    for _ in 0..500 {
        let z = rng.gen_range(-1_000_000i64..1_000_000);
        let (y, m, d) = airdata::time::civil_from_days(z);
        assert_eq!(airdata::time::days_from_civil(y, m, d), z);
    }
}
