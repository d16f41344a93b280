//! UCI-format CSV I/O.
//!
//! The real files are named `PRSA_Data_<Station>_20130301-20170228.csv`
//! with the header
//! `No,year,month,day,hour,PM2.5,PM10,SO2,NO2,CO,O3,TEMP,PRES,DEWP,RAIN,wd,WSPM,station`
//! and `NA` for missing cells. This module writes byte-compatible files
//! (wind direction is synthesised since our generator does not model it)
//! and reads either real or generated files back into [`StationData`].

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::generate::StationData;
use crate::schema::{Feature, Record, NUM_FEATURES};

/// The UCI column header.
pub const HEADER: &str =
    "No,year,month,day,hour,PM2.5,PM10,SO2,NO2,CO,O3,TEMP,PRES,DEWP,RAIN,wd,WSPM,station";

const WIND_DIRECTIONS: [&str; 16] = [
    "N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE", "S", "SSW", "SW", "WSW", "W", "WNW", "NW",
    "NNW",
];

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NA".to_string()
    } else if (v - v.round()).abs() < 5e-5 {
        format!("{}", v.round())
    } else {
        format!("{v:.4}")
    }
}

/// Serialises one station to a UCI-format CSV string.
pub fn to_csv_string(data: &StationData) -> String {
    let mut out = String::with_capacity(64 * (data.records.len() + 1));
    out.push_str(HEADER);
    out.push('\n');
    for (i, r) in data.records.iter().enumerate() {
        // Deterministic pseudo wind direction from the record index.
        let wd = WIND_DIRECTIONS[(i * 7 + 3) % WIND_DIRECTIONS.len()];
        let _ = write!(out, "{},{},{},{},{}", i + 1, r.year, r.month, r.day, r.hour);
        for f in [
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
        ] {
            let _ = write!(out, ",{}", format_value(r.get(f)));
        }
        let _ = write!(
            out,
            ",{wd},{},{}",
            format_value(r.get(Feature::Wspm)),
            data.station
        );
        out.push('\n');
    }
    out
}

/// Writes one station to a file at `path`.
pub fn write_csv(data: &StationData, path: &Path) -> io::Result<()> {
    let file = fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(to_csv_string(data).as_bytes())?;
    w.flush()
}

/// An error encountered while parsing a CSV file.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (message, 1-based line number).
    Parse(String, usize),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::Parse(msg, line) => write!(f, "csv parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn parse_cell(cell: &str, line_no: usize) -> Result<f64, CsvError> {
    if cell == "NA" || cell.is_empty() {
        return Ok(f64::NAN);
    }
    cell.parse::<f64>()
        .map_err(|e| CsvError::Parse(format!("bad number {cell:?}: {e}"), line_no))
}

/// Parses UCI-format CSV content into a [`StationData`].
///
/// Column layout is taken from the header line, so files with the
/// original UCI column order and files missing the `wd` column both
/// parse.
pub fn from_csv_reader(reader: impl BufRead) -> Result<StationData, CsvError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| CsvError::Parse("empty file".into(), 1))??;
    let columns: Vec<&str> = header.trim().split(',').collect();
    let col_of = |name: &str| columns.iter().position(|&c| c == name);
    let year_col =
        col_of("year").ok_or_else(|| CsvError::Parse("missing 'year' column".into(), 1))?;
    let month_col =
        col_of("month").ok_or_else(|| CsvError::Parse("missing 'month' column".into(), 1))?;
    let day_col = col_of("day").ok_or_else(|| CsvError::Parse("missing 'day' column".into(), 1))?;
    let hour_col =
        col_of("hour").ok_or_else(|| CsvError::Parse("missing 'hour' column".into(), 1))?;
    let station_col = col_of("station");
    let feature_cols: Vec<(Feature, usize)> = Feature::ALL
        .iter()
        .map(|&f| {
            col_of(f.csv_name())
                .map(|c| (f, c))
                .ok_or_else(|| CsvError::Parse(format!("missing '{}' column", f.csv_name()), 1))
        })
        .collect::<Result<_, _>>()?;

    let mut station = String::new();
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.trim().split(',').collect();
        if cells.len() < columns.len() {
            return Err(CsvError::Parse(
                format!("expected {} cells, found {}", columns.len(), cells.len()),
                line_no,
            ));
        }
        let int = |c: usize| -> Result<i64, CsvError> {
            cells[c]
                .parse::<i64>()
                .map_err(|e| CsvError::Parse(format!("bad integer {:?}: {e}", cells[c]), line_no))
        };
        let mut values = [f64::NAN; NUM_FEATURES];
        for &(f, c) in &feature_cols {
            values[f.index()] = parse_cell(cells[c], line_no)?;
        }
        if let Some(sc) = station_col {
            if station.is_empty() {
                station = cells[sc].to_string();
            }
        }
        records.push(Record {
            year: int(year_col)? as i32,
            month: int(month_col)? as u32,
            day: int(day_col)? as u32,
            hour: int(hour_col)? as u32,
            values,
        });
    }
    Ok(StationData { station, records })
}

/// Reads a UCI-format CSV file from disk.
pub fn read_csv(path: &Path) -> Result<StationData, CsvError> {
    let file = fs::File::open(path)?;
    from_csv_reader(BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_station, GeneratorConfig};
    use crate::profile::StationProfile;

    fn sample() -> StationData {
        generate_station(
            &StationProfile::of("Dongsi"),
            &GeneratorConfig::short(100, 5),
        )
    }

    #[test]
    fn round_trip_preserves_records() {
        let data = sample();
        let csv = to_csv_string(&data);
        let parsed = from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(parsed.station, "Dongsi");
        assert_eq!(parsed.records.len(), data.records.len());
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

    #[test]
    fn header_matches_uci_layout() {
        let csv = to_csv_string(&sample());
        assert!(csv.starts_with(HEADER));
        let first_row = csv.lines().nth(1).unwrap();
        assert_eq!(first_row.split(',').count(), HEADER.split(',').count());
        assert!(first_row.ends_with("Dongsi"));
    }

    #[test]
    fn missing_values_serialise_as_na() {
        let mut data = sample();
        data.records[0].values[Feature::Co.index()] = f64::NAN;
        let csv = to_csv_string(&data);
        let parsed = from_csv_reader(csv.as_bytes()).unwrap();
        assert!(parsed.records[0].get(Feature::Co).is_nan());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("airdata_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("PRSA_Data_Dongsi_test.csv");
        let data = sample();
        write_csv(&data, &path).unwrap();
        let parsed = read_csv(&path).unwrap();
        assert_eq!(parsed.records.len(), data.records.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_csv_reader("".as_bytes()).is_err());
        assert!(from_csv_reader("a,b,c\n1,2,3\n".as_bytes()).is_err());
        let bad_number = format!("{HEADER}\n1,2013,3,1,0,x,2,3,4,5,6,7,8,9,10,N,11,S\n");
        assert!(from_csv_reader(bad_number.as_bytes()).is_err());
        let short_row = format!("{HEADER}\n1,2013,3\n");
        assert!(from_csv_reader(short_row.as_bytes()).is_err());
    }

    #[test]
    fn header_without_wd_column_parses() {
        let csv =
            "No,year,month,day,hour,PM2.5,PM10,SO2,NO2,CO,O3,TEMP,PRES,DEWP,RAIN,WSPM,station\n\
                   1,2013,3,1,0,10,20,3,40,500,60,7,1010,2,0,3,Tiantan\n";
        let parsed = from_csv_reader(csv.as_bytes()).unwrap();
        assert_eq!(parsed.station, "Tiantan");
        assert_eq!(parsed.records[0].get(Feature::Pm25), 10.0);
        assert_eq!(parsed.records[0].get(Feature::Wspm), 3.0);
    }
}
