//! The synthetic hourly air-quality generator.
//!
//! Each station's series combines (a) a seasonal cycle (winter heating
//! raises PM/SO2/CO, summer sun raises O3), (b) a diurnal cycle (traffic
//! rush hours, afternoon photochemistry), (c) a slowly-mixing AR(1)
//! "stagnation episode" process that creates the multi-day pollution
//! episodes Beijing is known for, and (d) station-specific level shifts
//! from [`StationProfile`]. The absolute constants are calibrated to the
//! published ranges of the UCI dataset (PM2.5 mean ≈ 80 µg/m³ with
//! episodes beyond 400, TEMP −15…40 °C, PRES ≈ 990…1040 hPa).

use linalg::rng::Rng;

use linalg::rng as lrng;
use linalg::Matrix;

use crate::profile::StationProfile;
use crate::schema::{Feature, Record};
use crate::time;

/// Configuration of one generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// First timestamp: `(year, month, day)`, hour 0. The UCI span starts
    /// at 2013-03-01.
    pub start: (i32, u32, u32),
    /// Number of hourly records (the full dataset has
    /// [`time::DATASET_HOURS`]).
    pub hours: u64,
    /// Master seed; the station name is mixed in so that each station
    /// gets an independent stream.
    pub seed: u64,
    /// Probability that any single measurement is missing (the UCI files
    /// have roughly 1–4% missing cells).
    pub missing_rate: f64,
}

impl GeneratorConfig {
    /// A shorter span for tests and quick experiments.
    pub fn short(hours: u64, seed: u64) -> Self {
        Self {
            start: (2013, 3, 1),
            hours,
            seed,
            missing_rate: 0.02,
        }
    }
}

/// A generated (or loaded) station series.
#[derive(Debug, Clone, PartialEq)]
pub struct StationData {
    /// Station name.
    pub station: String,
    /// Hourly records in chronological order.
    pub records: Vec<Record>,
}

impl StationData {
    /// One feature as a column (NaN where missing).
    pub fn feature_column(&self, f: Feature) -> Vec<f64> {
        self.records.iter().map(|r| r.get(f)).collect()
    }

    /// Extracts the chosen features into a row-major matrix
    /// (NaN where missing; run [`crate::impute`] first if needed).
    pub fn to_matrix(&self, features: &[Feature]) -> Matrix {
        assert!(!features.is_empty(), "need at least one feature");
        let mut data = Vec::with_capacity(self.records.len() * features.len());
        for r in &self.records {
            data.extend(features.iter().map(|&f| r.get(f)));
        }
        Matrix::from_vec(self.records.len(), features.len(), data)
    }
}

/// Deterministic per-station stream id derived from the station name.
fn station_stream(name: &str) -> u64 {
    name.bytes().fold(0xA17_u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    })
}

/// Generates one station's hourly series.
pub fn generate_station(profile: &StationProfile, config: &GeneratorConfig) -> StationData {
    let mut rng = lrng::rng_for(config.seed, station_stream(&profile.name));
    let mut records = Vec::with_capacity(config.hours as usize);

    // Slow AR(1) processes carried across hours.
    let mut episode = 0.0_f64; // regional stagnation/pollution episode
    let mut temp_anom = 0.0_f64; // synoptic temperature anomaly
    let mut wind_ar = 0.0_f64;

    for t in 0..config.hours {
        let (year, month, day, hour) =
            time::timestamp_at(config.start.0, config.start.1, config.start.2, t);
        let doy = time::day_of_year(year, month, day) as f64;
        // Seasonal phases: `winter` peaks mid-January, `summer` mid-July.
        let winter = (2.0 * std::f64::consts::PI * (doy - 15.0) / 365.25).cos();
        let summer = -winter;
        let hour_f = f64::from(hour);
        // Diurnal phases.
        let rush = ((hour_f - 8.0) / 1.8).powi(2).exp().recip()
            + ((hour_f - 19.0) / 1.8).powi(2).exp().recip();
        let afternoon = (-((hour_f - 14.0) / 3.5).powi(2)).exp();
        let daylight = (std::f64::consts::PI * (hour_f - 5.0) / 14.0)
            .sin()
            .max(0.0);

        // Advance slow processes.
        episode = 0.97 * episode + 0.24 * lrng::standard_normal(&mut rng);
        temp_anom = 0.995 * temp_anom + 0.12 * lrng::standard_normal(&mut rng);
        wind_ar = 0.90 * wind_ar + 0.30 * lrng::standard_normal(&mut rng);

        // --- Meteorology ---
        let temp = 13.0
            + 14.5 * summer
            + 4.5 * (afternoon - 0.35)
            + profile.temp_offset
            + 3.0 * temp_anom
            + lrng::normal(&mut rng, 0.0, 0.6);
        let pres = 1012.5 + 9.0 * winter - 0.12 * (temp - 13.0) + lrng::normal(&mut rng, 0.0, 1.5);
        let spread = (2.0 + 9.0 * (0.5 + 0.5 * winter) + 2.0 * wind_ar.abs()).max(0.5);
        let dewp = temp - spread + lrng::normal(&mut rng, 0.0, 1.0);
        let wind = (1.9
            * profile.wind_level
            * (1.0 + 0.25 * winter)
            * (0.55 + 0.45 * daylight)
            * (wind_ar * 0.45).exp())
        .max(0.0);
        let raining = rng.gen::<f64>() < 0.012 + 0.05 * summer.max(0.0);
        let rain = if raining {
            -2.0 * rng.gen::<f64>().max(1e-9).ln()
        } else {
            0.0
        };

        // Stagnation: calm, cold-season hours let pollutants accumulate.
        let stagnation = (0.8 * episode - 0.35 * (wind - 2.0))
            .exp()
            .clamp(0.05, 12.0);
        let washout = if rain > 0.5 { 0.55 } else { 1.0 };

        // --- Pollutants ---
        let pl = profile.pollution_level;
        let pm25 = (58.0
            * pl
            * stagnation
            * (1.0 + 0.38 * winter)
            * (0.85 + 0.35 * rush)
            * washout
            * lrng::normal(&mut rng, 1.0, 0.10).max(0.3))
        .max(2.0);
        let dust = if (60.0..150.0).contains(&doy) && rng.gen::<f64>() < 0.01 {
            150.0 + 250.0 * rng.gen::<f64>()
        } else {
            0.0
        };
        // Station-specific, mildly non-linear coarse/fine relation: the
        // effective PM10/PM2.5 ratio shifts with episode intensity in a
        // site-dependent direction (see `StationProfile::coarse_curve`).
        let effective_ratio =
            (profile.coarse_ratio + profile.coarse_curve * (pm25 / 300.0).min(2.0)).max(1.02);
        let pm10 =
            (effective_ratio * pm25 * lrng::normal(&mut rng, 1.0, 0.08).max(0.5) + dust + 6.0)
                .max(2.0);
        let so2 = (13.0
            * pl
            * (1.0 + 1.25 * winter.max(0.0))
            * stagnation.powf(0.6)
            * lrng::normal(&mut rng, 1.0, 0.18).max(0.2))
        .max(0.5);
        let no2 = (42.0
            * pl
            * (0.7 + 0.8 * rush)
            * stagnation.powf(0.5)
            * (1.0 - 0.25 * daylight)
            * lrng::normal(&mut rng, 1.0, 0.12).max(0.3))
        .max(2.0);
        let co = (950.0
            * pl
            * (1.0 + 0.75 * winter.max(0.0))
            * stagnation.powf(0.8)
            * lrng::normal(&mut rng, 1.0, 0.10).max(0.3))
        .max(100.0);
        let o3 = (profile.ozone_level
            * (16.0 + 95.0 * summer.max(0.0).powf(0.8) * daylight * afternoon.max(0.15))
            * lrng::normal(&mut rng, 1.0, 0.15).max(0.2)
            - 0.18 * no2)
            .max(1.0);

        let mut record = Record {
            year,
            month,
            day,
            hour,
            values: [pm25, pm10, so2, no2, co, o3, temp, pres, dewp, rain, wind],
        };
        for (i, f) in Feature::ALL.iter().enumerate() {
            record.values[i] = record.values[i].max(f.floor());
            if rng.gen::<f64>() < config.missing_rate {
                record.values[i] = f64::NAN;
            }
        }
        records.push(record);
    }

    StationData {
        station: profile.name.clone(),
        records,
    }
}

/// Generates all 12 stations with the same configuration.
pub fn generate_all(config: &GeneratorConfig) -> Vec<StationData> {
    StationProfile::all()
        .iter()
        .map(|p| generate_station(p, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::NUM_FEATURES;
    use linalg::stats;

    fn gen(name: &str, hours: u64, seed: u64) -> StationData {
        generate_station(
            &StationProfile::of(name),
            &GeneratorConfig::short(hours, seed),
        )
    }

    fn complete(col: &[f64]) -> Vec<f64> {
        col.iter().copied().filter(|v| !v.is_nan()).collect()
    }

    #[test]
    fn generates_requested_length_and_timestamps() {
        let s = gen("Dongsi", 50, 1);
        assert_eq!(s.records.len(), 50);
        assert_eq!(
            (
                s.records[0].year,
                s.records[0].month,
                s.records[0].day,
                s.records[0].hour
            ),
            (2013, 3, 1, 0)
        );
        assert_eq!(s.records[25].hour, 1);
        assert_eq!(s.records[25].day, 2);
    }

    /// Bitwise equality that treats NaN (missing) cells as equal.
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

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = gen("Tiantan", 200, 7);
        let b = gen("Tiantan", 200, 7);
        assert!(bitwise_eq(&a, &b));
        let c = gen("Tiantan", 200, 8);
        assert!(!bitwise_eq(&a, &c));
    }

    #[test]
    fn stations_differ_under_the_same_seed() {
        let a = gen("Dongsi", 200, 7);
        let b = gen("Dingling", 200, 7);
        assert!(!bitwise_eq(&a, &b));
    }

    #[test]
    fn value_ranges_are_physically_plausible() {
        let s = gen("Guanyuan", 24 * 365, 3);
        let pm25 = complete(&s.feature_column(Feature::Pm25));
        let temp = complete(&s.feature_column(Feature::Temp));
        let pres = complete(&s.feature_column(Feature::Pres));
        let m = stats::mean(&pm25);
        assert!((30.0..180.0).contains(&m), "PM2.5 mean {m}");
        assert!(
            stats::max(&pm25).unwrap() > 150.0,
            "no pollution episodes generated"
        );
        assert!(stats::min(&pm25).unwrap() >= 2.0);
        let (tmin, tmax) = stats::min_max(&temp).unwrap();
        assert!(
            tmin < 5.0 && tmax > 22.0,
            "temperature seasonal span {tmin}..{tmax}"
        );
        let (pmin, pmax) = stats::min_max(&pres).unwrap();
        assert!(pmin > 960.0 && pmax < 1060.0, "pressure {pmin}..{pmax}");
    }

    #[test]
    fn pm25_pm10_strongly_correlated() {
        let s = gen("Shunyi", 24 * 120, 5);
        let pm25 = s.feature_column(Feature::Pm25);
        let pm10 = s.feature_column(Feature::Pm10);
        let pairs: Vec<(f64, f64)> = pm25
            .iter()
            .zip(&pm10)
            .filter(|(a, b)| !a.is_nan() && !b.is_nan())
            .map(|(&a, &b)| (a, b))
            .collect();
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = stats::pearson(&xs, &ys);
        assert!(r > 0.9, "PM2.5/PM10 correlation {r} too weak");
        // PM10 >= PM2.5 on average (coarse fraction).
        assert!(stats::mean(&ys) > stats::mean(&xs));
    }

    #[test]
    fn urban_sites_dirtier_than_rural() {
        let urban = gen("Wanshouxigong", 24 * 200, 11);
        let rural = gen("Dingling", 24 * 200, 11);
        let mu = stats::mean(&complete(&urban.feature_column(Feature::Pm25)));
        let mr = stats::mean(&complete(&rural.feature_column(Feature::Pm25)));
        assert!(mu > mr * 1.3, "urban {mu} vs rural {mr}");
        // ...and rural sites see more ozone.
        let ou = stats::mean(&complete(&urban.feature_column(Feature::O3)));
        let or = stats::mean(&complete(&rural.feature_column(Feature::O3)));
        assert!(or > ou, "ozone urban {ou} vs rural {or}");
    }

    #[test]
    fn missing_rate_is_respected() {
        let missing_fraction = |s: &StationData| {
            let missing: usize = s
                .records
                .iter()
                .map(|r| r.values.iter().filter(|v| v.is_nan()).count())
                .sum();
            missing as f64 / (s.records.len() * NUM_FEATURES) as f64
        };
        let s = gen("Huairou", 24 * 100, 13);
        let frac = missing_fraction(&s);
        assert!((0.01..0.035).contains(&frac), "missing fraction {frac}");
        let clean = generate_station(
            &StationProfile::of("Huairou"),
            &GeneratorConfig {
                missing_rate: 0.0,
                ..GeneratorConfig::short(100, 13)
            },
        );
        assert_eq!(missing_fraction(&clean), 0.0);
    }

    #[test]
    fn seasonal_cycle_present_in_temperature() {
        let s = generate_station(
            &StationProfile::of("Changping"),
            &GeneratorConfig {
                missing_rate: 0.0,
                ..GeneratorConfig::short(time::DATASET_HOURS, 2)
            },
        );
        let temp = s.feature_column(Feature::Temp);
        // July (2013) vs January (2014) means.
        let july: Vec<f64> = s
            .records
            .iter()
            .filter(|r| r.year == 2013 && r.month == 7)
            .map(|r| r.get(Feature::Temp))
            .collect();
        let january: Vec<f64> = s
            .records
            .iter()
            .filter(|r| r.year == 2014 && r.month == 1)
            .map(|r| r.get(Feature::Temp))
            .collect();
        assert!(stats::mean(&july) - stats::mean(&january) > 15.0);
        assert!(stats::std_dev(&temp) > 5.0);
    }

    #[test]
    fn to_matrix_extracts_selected_features() {
        let s = gen("Wanliu", 30, 4);
        let m = s.to_matrix(&[Feature::Pm10, Feature::Pm25]);
        assert_eq!(m.shape(), (30, 2));
        for (i, r) in s.records.iter().enumerate() {
            let a = m[(i, 0)];
            let b = r.get(Feature::Pm10);
            assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    #[test]
    fn generate_all_produces_twelve_stations() {
        let all = generate_all(&GeneratorConfig::short(20, 1));
        assert_eq!(all.len(), 12);
        let names: Vec<&str> = all.iter().map(|s| s.station.as_str()).collect();
        assert_eq!(names, crate::schema::STATIONS.to_vec());
    }
}
