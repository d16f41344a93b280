//! Missing-value imputation.
//!
//! Hourly sensor series are strongly autocorrelated, so the standard
//! treatment (and what preprocessing of the UCI files typically does) is
//! forward-fill along time with a column-mean fallback for leading gaps
//! or entirely-missing columns.

use crate::generate::StationData;
use crate::schema::Feature;
#[cfg(test)]
use crate::schema::NUM_FEATURES;

/// Forward-fills every feature column in place; leading missing values
/// (and fully-missing columns) fall back to the column mean, or 0 when a
/// column has no observed value at all.
///
/// Returns the number of cells imputed.
pub fn forward_fill(data: &mut StationData) -> usize {
    let mut imputed = 0usize;
    for f in Feature::ALL {
        let idx = f.index();
        // Column mean over observed cells.
        let mut sum = 0.0;
        let mut count = 0usize;
        for r in &data.records {
            let v = r.values[idx];
            if !v.is_nan() {
                sum += v;
                count += 1;
            }
        }
        let fallback = if count > 0 { sum / count as f64 } else { 0.0 };
        let mut last: Option<f64> = None;
        for r in &mut data.records {
            let v = r.values[idx];
            if v.is_nan() {
                r.values[idx] = last.unwrap_or(fallback);
                imputed += 1;
            } else {
                last = Some(v);
            }
        }
    }
    imputed
}

/// Fraction of missing cells remaining.
pub fn missing_cells(data: &StationData) -> usize {
    data.records
        .iter()
        .map(|r| r.values.iter().filter(|v| v.is_nan()).count())
        .sum()
}

/// Convenience check used by tests and examples.
pub fn is_fully_observed(data: &StationData) -> bool {
    missing_cells(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_station, GeneratorConfig};
    use crate::profile::StationProfile;
    use crate::schema::Record;

    fn noisy() -> StationData {
        generate_station(
            &StationProfile::of("Changping"),
            &GeneratorConfig {
                missing_rate: 0.1,
                ..GeneratorConfig::short(500, 3)
            },
        )
    }

    #[test]
    fn forward_fill_removes_all_gaps() {
        let mut data = noisy();
        let before = missing_cells(&data);
        assert!(before > 0, "generator produced no gaps to test with");
        let imputed = forward_fill(&mut data);
        assert_eq!(imputed, before);
        assert!(is_fully_observed(&data));
    }

    #[test]
    fn forward_fill_copies_the_previous_observation() {
        let mut data = noisy();
        // Find a missing cell with an observed predecessor.
        let mut target = None;
        'outer: for i in 1..data.records.len() {
            for f in Feature::ALL {
                if data.records[i].get(f).is_nan() && !data.records[i - 1].get(f).is_nan() {
                    target = Some((i, f, data.records[i - 1].get(f)));
                    break 'outer;
                }
            }
        }
        let (i, f, expect) = target.expect("no forward-fillable gap found");
        forward_fill(&mut data);
        assert_eq!(data.records[i].get(f), expect);
    }

    #[test]
    fn leading_gap_uses_column_mean() {
        let mut data = StationData {
            station: "T".into(),
            records: vec![
                Record {
                    year: 2013,
                    month: 3,
                    day: 1,
                    hour: 0,
                    values: [f64::NAN; NUM_FEATURES],
                },
                Record {
                    year: 2013,
                    month: 3,
                    day: 1,
                    hour: 1,
                    values: [2.0; NUM_FEATURES],
                },
                Record {
                    year: 2013,
                    month: 3,
                    day: 1,
                    hour: 2,
                    values: [4.0; NUM_FEATURES],
                },
            ],
        };
        forward_fill(&mut data);
        assert_eq!(data.records[0].get(Feature::Pm25), 3.0);
    }

    #[test]
    fn fully_missing_column_falls_back_to_zero() {
        let mut data = StationData {
            station: "T".into(),
            records: vec![Record {
                year: 2013,
                month: 3,
                day: 1,
                hour: 0,
                values: [f64::NAN; NUM_FEATURES],
            }],
        };
        forward_fill(&mut data);
        assert!(is_fully_observed(&data));
        assert_eq!(data.records[0].get(Feature::O3), 0.0);
    }
}
