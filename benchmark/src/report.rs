//! What a run prints: one `workload metric value unit` line per metric
//! for people and `--agree`, and the driver's JSON object as the last
//! line.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// `workload metric value unit`, the value with every digit it has.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    format!("{workload} {} {} {}", m.name, m.value, m.unit)
}

/// `workload answer_digest <16 hex digits> hex`: compared as text, not
/// as a number, so no bit of it is rounded away.
pub fn digest_line(workload: &str, digest: u64) -> String {
    format!("{workload} answer_digest {digest:016x} hex")
}

/// Splits a [`metric_line`] or [`digest_line`] into
/// `(workload, metric, value text, unit)`.
pub fn parse_metric_line(line: &str) -> Option<(&str, &str, &str, &str)> {
    let mut parts = line.split_whitespace();
    let parsed = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    let is_value = parsed.3 == "hex" || parsed.2.parse::<f64>().is_ok();
    (parts.next().is_none() && is_value).then_some(parsed)
}

/// The last line of a run: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Panics
/// Panics on a non-finite value: JSON cannot carry it, and a run that
/// measured one must not print a result.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip_with_all_digits() {
        let m = Metric::new("latency_p50_ms", 0.1 + 0.2, "ms");
        let line = metric_line("serve_closed", &m);
        assert_eq!(line, "serve_closed latency_p50_ms 0.30000000000000004 ms");
        let (w, name, value, unit) = parse_metric_line(&line).unwrap();
        assert_eq!((w, name, unit), ("serve_closed", "latency_p50_ms", "ms"));
        assert_eq!(
            value.parse::<f64>().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn digests_are_carried_as_text() {
        let line = digest_line("paper_stream", 0xFFFF_FFFF_FFFF_FFFE);
        assert_eq!(
            parse_metric_line(&line),
            Some(("paper_stream", "answer_digest", "fffffffffffffffe", "hex"))
        );
        assert!(digest_line("w", 1).contains(" 0000000000000001 "));
    }

    #[test]
    fn other_lines_are_not_metric_lines() {
        assert!(parse_metric_line("").is_none());
        assert!(parse_metric_line("fingerprint nproc 2").is_none());
        assert!(parse_metric_line("a b 1.0 ms trailing").is_none());
        assert!(parse_metric_line("a b notanumber ms").is_none());
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let json = result_json(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn small_and_whole_values_stay_plain_json_numbers() {
        let json = result_json(
            false,
            1,
            1,
            &[Metric::new("x", 4e-7, "s"), Metric::new("y", 3.0, "count")],
        );
        assert!(json.contains("\"value\": 0.0000004,"), "{json}");
        assert!(json.contains("\"value\": 3,"), "{json}");
    }

    #[test]
    #[should_panic(expected = "metric x is NaN")]
    fn a_non_finite_metric_never_reaches_the_driver() {
        result_json(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]);
    }
}
