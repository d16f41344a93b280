//! Schema of the Beijing Multi-Site Air-Quality dataset.

/// The 12 monitoring stations of the UCI dataset. The paper selects 10
/// files; [`crate::scenario::realistic_nodes_multi`] does the same.
pub const STATIONS: [&str; 12] = [
    "Aotizhongxin",
    "Changping",
    "Dingling",
    "Dongsi",
    "Guanyuan",
    "Gucheng",
    "Huairou",
    "Nongzhanguan",
    "Shunyi",
    "Tiantan",
    "Wanliu",
    "Wanshouxigong",
];

/// Number of numeric features per record.
pub const NUM_FEATURES: usize = 11;

/// One numeric feature column of the dataset, in CSV column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// PM2.5 concentration (µg/m³) — the usual prediction target.
    Pm25,
    /// PM10 concentration (µg/m³).
    Pm10,
    /// SO2 concentration (µg/m³).
    So2,
    /// NO2 concentration (µg/m³).
    No2,
    /// CO concentration (µg/m³).
    Co,
    /// O3 concentration (µg/m³).
    O3,
    /// Temperature (°C).
    Temp,
    /// Pressure (hPa).
    Pres,
    /// Dew point (°C).
    Dewp,
    /// Precipitation (mm).
    Rain,
    /// Wind speed (m/s).
    Wspm,
}

impl Feature {
    /// All features in CSV column order.
    pub const ALL: [Feature; NUM_FEATURES] = [
        Feature::Pm25,
        Feature::Pm10,
        Feature::So2,
        Feature::No2,
        Feature::Co,
        Feature::O3,
        Feature::Temp,
        Feature::Pres,
        Feature::Dewp,
        Feature::Rain,
        Feature::Wspm,
    ];

    /// Column index within a record's value array.
    pub fn index(self) -> usize {
        Feature::ALL
            .iter()
            .position(|&f| f == self)
            .expect("feature present in ALL")
    }

    /// The CSV header name used by the UCI files.
    pub fn csv_name(self) -> &'static str {
        match self {
            Feature::Pm25 => "PM2.5",
            Feature::Pm10 => "PM10",
            Feature::So2 => "SO2",
            Feature::No2 => "NO2",
            Feature::Co => "CO",
            Feature::O3 => "O3",
            Feature::Temp => "TEMP",
            Feature::Pres => "PRES",
            Feature::Dewp => "DEWP",
            Feature::Rain => "RAIN",
            Feature::Wspm => "WSPM",
        }
    }

    /// Parses a CSV header name.
    pub fn from_csv_name(name: &str) -> Option<Feature> {
        Feature::ALL.iter().copied().find(|f| f.csv_name() == name)
    }

    /// Physically sensible lower bound used to clamp generated values.
    pub fn floor(self) -> f64 {
        match self {
            Feature::Temp | Feature::Dewp => -40.0,
            Feature::Pres => 950.0,
            _ => 0.0,
        }
    }
}

/// One hourly observation at one station.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Calendar year.
    pub year: i32,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
    /// Hour 0–23.
    pub hour: u32,
    /// Feature values in [`Feature::ALL`] order; `NaN` marks a missing
    /// measurement (serialised as "NA" in the CSV form).
    pub values: [f64; NUM_FEATURES],
}

impl Record {
    /// The value of one feature.
    pub fn get(&self, f: Feature) -> f64 {
        self.values[f.index()]
    }

    /// Sets the value of one feature.
    pub fn set(&mut self, f: Feature, v: f64) {
        self.values[f.index()] = v;
    }

    /// True when every feature is present (non-NaN).
    pub fn is_complete(&self) -> bool {
        self.values.iter().all(|v| !v.is_nan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_distinct_stations() {
        let mut s = STATIONS.to_vec();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn feature_indices_are_positional() {
        for (i, f) in Feature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn csv_names_round_trip() {
        for f in Feature::ALL {
            assert_eq!(Feature::from_csv_name(f.csv_name()), Some(f));
        }
        assert_eq!(Feature::from_csv_name("nope"), None);
    }

    #[test]
    fn record_get_set() {
        let mut r = Record {
            year: 2013,
            month: 3,
            day: 1,
            hour: 0,
            values: [0.0; NUM_FEATURES],
        };
        r.set(Feature::O3, 42.0);
        assert_eq!(r.get(Feature::O3), 42.0);
        assert!(r.is_complete());
        r.set(Feature::Co, f64::NAN);
        assert!(!r.is_complete());
    }
}
