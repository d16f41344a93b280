//! Civil-calendar arithmetic for hourly timestamps.
//!
//! The dataset spans 2013-03-01T00 to 2017-02-28T23 (35 064 hourly
//! records per station). We only need day-precision calendar conversion
//! (Howard Hinnant's `days_from_civil` algorithm) plus an hour offset, so
//! no external time crate is warranted.

/// Days from the civil epoch 1970-01-01 for a Gregorian date.
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    debug_assert!((1..=12).contains(&month), "month {month}");
    debug_assert!((1..=31).contains(&day), "day {day}");
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((month + 9) % 12); // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(mut z: i64) -> (i32, u32, u32) {
    z += 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// An hourly timestamp: `(year, month, day, hour)` at `hours` hours after
/// the given civil start date (hour 0).
pub fn timestamp_at(
    start_year: i32,
    start_month: u32,
    start_day: u32,
    hours: u64,
) -> (i32, u32, u32, u32) {
    let start_days = days_from_civil(start_year, start_month, start_day);
    let total_hours = start_days * 24 + hours as i64;
    let days = total_hours.div_euclid(24);
    let hour = total_hours.rem_euclid(24) as u32;
    let (y, m, d) = civil_from_days(days);
    (y, m, d, hour)
}

/// Day-of-year in `[0, 365]`, used to phase the seasonal cycle.
pub fn day_of_year(year: i32, month: u32, day: u32) -> u32 {
    (days_from_civil(year, month, day) - days_from_civil(year, 1, 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn round_trip_across_leap_years() {
        for &(y, m, d) in &[
            (2013, 3, 1),
            (2016, 2, 29), // leap day
            (2017, 2, 28),
            (2000, 12, 31),
            (1999, 1, 1),
        ] {
            let z = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(z), (y, m, d), "for {y}-{m}-{d}");
        }
    }

    #[test]
    fn dataset_span_is_35064_hours() {
        let start = days_from_civil(2013, 3, 1);
        let end = days_from_civil(2017, 3, 1); // exclusive
        assert_eq!((end - start) * 24, 35_064);
    }

    #[test]
    fn timestamp_walks_hours() {
        assert_eq!(timestamp_at(2013, 3, 1, 0), (2013, 3, 1, 0));
        assert_eq!(timestamp_at(2013, 3, 1, 23), (2013, 3, 1, 23));
        assert_eq!(timestamp_at(2013, 3, 1, 24), (2013, 3, 2, 0));
        // Last record of the dataset.
        assert_eq!(timestamp_at(2013, 3, 1, 35_064 - 1), (2017, 2, 28, 23));
    }

    #[test]
    fn day_of_year_is_zero_based() {
        assert_eq!(day_of_year(2014, 1, 1), 0);
        assert_eq!(day_of_year(2014, 12, 31), 364);
        assert_eq!(day_of_year(2016, 12, 31), 365); // leap year
    }
}
