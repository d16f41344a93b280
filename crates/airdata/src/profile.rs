//! Per-station generation profiles.
//!
//! The real dataset's stations differ systematically: dense urban sites
//! (Dongsi, Wanshouxigong, Nongzhanguan) run high on PM/NO2/CO, the rural
//! northern sites (Dingling, Huairou, Changping) run low on primary
//! pollutants but higher on O3, and the remaining sites sit in between.
//! These profiles encode that cross-station heterogeneity — the property
//! the node-selection mechanism exists to exploit.

use crate::schema::STATIONS;

/// Broad land-use class of a monitoring site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Dense inner-city site: high primary pollutants.
    Urban,
    /// Mixed residential/industrial fringe.
    Suburban,
    /// Northern rural/background site: cleaner, more ozone.
    Rural,
}

/// The generation profile of one station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationProfile {
    /// Station name (one of [`STATIONS`]).
    pub name: String,
    /// Land-use class.
    pub class: SiteClass,
    /// Multiplier on the city-wide baseline of primary pollutants
    /// (PM2.5, PM10, SO2, NO2, CO).
    pub pollution_level: f64,
    /// Multiplier on ozone (photochemical; higher at clean sites).
    pub ozone_level: f64,
    /// Additive temperature offset in °C (urban heat island).
    pub temp_offset: f64,
    /// Multiplier on wind speed (open rural sites are windier).
    pub wind_level: f64,
    /// Station-specific ratio of coarse (PM10) to fine (PM2.5) particles.
    pub coarse_ratio: f64,
    /// Station-specific curvature of the PM10/PM2.5 relation: positive at
    /// dusty sites (coarse fraction grows during episodes), negative at
    /// combustion-dominated sites (fine fraction grows). This is what
    /// makes the per-station feature/label *pattern* - not just its range
    /// - differ, which the selection mechanism exists to exploit.
    pub coarse_curve: f64,
}

impl StationProfile {
    /// Profile of a named station of the UCI dataset.
    ///
    /// # Panics
    /// Panics if `name` is not one of [`STATIONS`].
    pub fn of(name: &str) -> StationProfile {
        let (class, pollution, ozone, temp, wind, coarse, curve) = match name {
            // Dense urban core: combustion-dominated, fine fraction grows
            // during episodes (negative curvature).
            "Dongsi" => (SiteClass::Urban, 1.22, 0.90, 1.2, 0.85, 1.30, -0.45),
            "Wanshouxigong" => (SiteClass::Urban, 1.25, 0.88, 1.1, 0.82, 1.32, -0.55),
            "Nongzhanguan" => (SiteClass::Urban, 1.18, 0.92, 1.1, 0.86, 1.26, -0.35),
            "Guanyuan" => (SiteClass::Urban, 1.15, 0.92, 1.0, 0.88, 1.24, -0.25),
            "Tiantan" => (SiteClass::Urban, 1.12, 0.95, 1.0, 0.90, 1.22, -0.15),
            "Wanliu" => (SiteClass::Urban, 1.17, 0.90, 0.9, 0.85, 1.28, -0.40),
            "Aotizhongxin" => (SiteClass::Suburban, 1.10, 0.97, 0.8, 0.92, 1.25, 0.10),
            // Industrial west / fringe: dusty, coarse fraction grows.
            "Gucheng" => (SiteClass::Suburban, 1.20, 0.90, 0.7, 0.90, 1.48, 0.65),
            "Shunyi" => (SiteClass::Suburban, 0.95, 1.02, 0.3, 1.05, 1.36, 0.45),
            // Northern rural / background: wind-blown dust dominates.
            "Changping" => (SiteClass::Rural, 0.80, 1.10, 0.0, 1.10, 1.30, 0.40),
            "Huairou" => (SiteClass::Rural, 0.70, 1.15, -0.5, 1.15, 1.24, 0.55),
            "Dingling" => (SiteClass::Rural, 0.62, 1.20, -0.8, 1.20, 1.18, 0.70),
            other => panic!("unknown station {other}"),
        };
        StationProfile {
            name: name.to_string(),
            class,
            pollution_level: pollution,
            ozone_level: ozone,
            temp_offset: temp,
            wind_level: wind,
            coarse_ratio: coarse,
            coarse_curve: curve,
        }
    }

    /// Profiles of all 12 stations, in [`STATIONS`] order.
    pub fn all() -> Vec<StationProfile> {
        STATIONS.iter().map(|s| StationProfile::of(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_station_has_a_profile() {
        let all = StationProfile::all();
        assert_eq!(all.len(), 12);
        for (p, s) in all.iter().zip(STATIONS) {
            assert_eq!(p.name, s);
        }
    }

    #[test]
    #[should_panic(expected = "unknown station")]
    fn unknown_station_panics() {
        StationProfile::of("Atlantis");
    }

    #[test]
    fn rural_sites_are_cleaner_and_more_ozone_rich_than_urban() {
        let dingling = StationProfile::of("Dingling");
        let dongsi = StationProfile::of("Dongsi");
        assert!(dingling.pollution_level < dongsi.pollution_level);
        assert!(dingling.ozone_level > dongsi.ozone_level);
        assert!(dingling.wind_level > dongsi.wind_level);
        assert_eq!(dingling.class, SiteClass::Rural);
        assert_eq!(dongsi.class, SiteClass::Urban);
    }

    #[test]
    fn pollution_levels_span_a_meaningful_range() {
        let all = StationProfile::all();
        let min = all
            .iter()
            .map(|p| p.pollution_level)
            .fold(f64::INFINITY, f64::min);
        let max = all.iter().map(|p| p.pollution_level).fold(0.0, f64::max);
        assert!(max / min > 1.5, "stations too homogeneous: {min}..{max}");
    }
}
