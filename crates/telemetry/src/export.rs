//! Snapshot exporters: JSON (for `results/telemetry.json`) and
//! Prometheus text exposition (for scraping a long-lived leader).

use crate::histogram::HistogramSnapshot;
use crate::json::{write_f64, write_key, write_str, write_u64};
use crate::registry::Snapshot;

/// Renders a snapshot as a JSON document:
///
/// ```json
/// {
///   "counters": {"qens_x_total": 3},
///   "gauges": {"qens_y": 1.5},
///   "histograms": [
///     {"name": "qens_z_nanos", "count": 9, "sum": 90, "min": 1,
///      "max": 30, "mean": 10.0, "p50": ..., "p90": ..., "p95": ...,
///      "p99": ...,
///      "buckets": [{"lo": 0, "hi": 0, "count": 1}, ...]}
///   ]
/// }
/// ```
///
/// Only non-empty histogram buckets are emitted, so documents stay small.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    write_metrics_body(&mut out, snapshot);
    out.push('}');
    out
}

/// The `"counters": {...}, "gauges": {...}, "histograms": [...]` body.
fn write_metrics_body(out: &mut String, s: &Snapshot) {
    write_key(out, "counters");
    out.push('{');
    for (i, (name, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, name);
        write_u64(out, *v);
    }
    out.push('}');
    out.push(',');
    write_key(out, "gauges");
    out.push('{');
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, name);
        write_f64(out, *v);
    }
    out.push('}');
    out.push(',');
    write_key(out, "histograms");
    out.push('[');
    for (i, h) in s.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_histogram(out, h);
    }
    out.push(']');
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    write_key(out, "name");
    write_str(out, &h.name);
    out.push(',');
    write_key(out, "count");
    write_u64(out, h.count);
    out.push(',');
    write_key(out, "sum");
    write_u64(out, h.sum);
    out.push(',');
    write_key(out, "min");
    write_u64(out, h.min);
    out.push(',');
    write_key(out, "max");
    write_u64(out, h.max);
    out.push(',');
    write_key(out, "mean");
    write_f64(out, h.mean());
    out.push(',');
    write_key(out, "p50");
    write_f64(out, h.p50());
    out.push(',');
    write_key(out, "p90");
    write_f64(out, h.p90());
    out.push(',');
    write_key(out, "p95");
    write_f64(out, h.p95());
    out.push(',');
    write_key(out, "p99");
    write_f64(out, h.p99());
    out.push(',');
    write_key(out, "buckets");
    out.push('[');
    let mut first = true;
    for b in &h.buckets {
        if b.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        write_key(out, "lo");
        write_u64(out, b.lo);
        out.push(',');
        write_key(out, "hi");
        write_u64(out, b.hi);
        out.push(',');
        write_key(out, "count");
        write_u64(out, b.count);
        out.push('}');
    }
    out.push(']');
    out.push('}');
}

/// A deterministic one-line `# HELP` description for a metric name.
///
/// Well-known workspace prefixes get a specific description; everything
/// else falls back to a generic line derived from the unit suffix, so
/// every exposed series always carries HELP metadata (required by the
/// exposition-format conformance test).
pub fn help_text(name: &str) -> &'static str {
    // Specific, stable descriptions for the workspace's metric families.
    match name {
        "qens_trace_events_total" => return "Trace events recorded across all queries.",
        "qens_trace_spans_total" => return "Trace spans opened across all queries.",
        "qens_trace_dropped_total" => {
            return "Trace events dropped after the buffer cap was reached."
        }
        "qens_build_info" => {
            return "Build metadata (crate version and build profile) as labels; value is always 1."
        }
        "qens_uptime_seconds" => return "Seconds since this process first exported metrics.",
        "qens_fleet_size" => return "Largest edge network size observed by the fleet registry.",
        "qens_fleet_queries_total" => return "Queries observed end-to-end by the fleet registry.",
        "qens_fleet_never_selected" => return "Nodes in the fleet never selected by any query.",
        "qens_fleet_selection_gini" => {
            return "Gini coefficient of per-node selection counts (0 = even, 1 = concentrated)."
        }
        "qens_fleet_selection_entropy" => {
            return "Normalized entropy of the selection distribution (1 = uniform)."
        }
        "qens_journal_events_total" => return "Structured events recorded into the fleet journal.",
        "qens_journal_overwritten_total" => {
            return "Journal events overwritten after the ring filled."
        }
        _ => {}
    }
    let family = [
        (
            "qens_cache_",
            "selection-cache metric (hits, misses, invalidations, entries).",
        ),
        (
            "qens_index_",
            "spatial-index candidate generation metric (cells probed, domains pruned, candidates, rebuilds, in-place patches).",
        ),
        ("qens_cluster_", "k-means clustering stage metric."),
        ("qens_selection_", "query-driven node selection metric."),
        ("qens_fedlearn_", "federated round engine metric."),
        ("qens_fault_", "injected-fault handling metric."),
        ("qens_edgesim_", "edge network simulation metric."),
        (
            "qens_serve_",
            "query serving front-end metric (ingestion queue, admission control, batching).",
        ),
        ("qens_par_", "deterministic thread-pool metric."),
        (
            "qens_node_",
            "per-node fleet scorecard counter (top-K hot nodes plus an \"other\" aggregate).",
        ),
        ("qens_fleet_", "fleet-level selection-skew metric."),
        ("qens_journal_", "structured event journal metric."),
        ("qens_trace_", "structured tracing metric."),
        ("qens_mlkit_", "local training kernel metric."),
        ("qens_slo_", "latency SLO tracking metric."),
    ]
    .iter()
    .find(|(p, _)| name.starts_with(p))
    .map(|(_, h)| *h);
    if let Some(h) = family {
        return h;
    }
    // Generic fallback keyed on the unit suffix.
    if name.ends_with("_total") {
        "Monotonic event counter."
    } else if name.ends_with("_nanos") {
        "Latency distribution in nanoseconds."
    } else if name.ends_with("_micros") {
        "Latency distribution in microseconds."
    } else if name.ends_with("_bytes") {
        "Size distribution in bytes."
    } else {
        "Workspace metric."
    }
}

/// The uptime epoch: latched on the first exposition and shared by all
/// later ones, so `qens_uptime_seconds` is monotone across scrapes.
fn process_start() -> &'static std::time::Instant {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now)
}

fn push_help_and_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help_text(name));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` + `# TYPE` lines per series, cumulative
/// `le` buckets with a final `+Inf`, and `_sum` / `_count` series per
/// histogram.
///
/// Histogram metric names keep their unit suffix (`..._nanos_bucket`);
/// consumers that want seconds can divide at query time.
///
/// Every exposition additionally leads with two self-describing series:
/// `qens_build_info{version,profile} 1` (the Prometheus build-info
/// idiom — the constant value makes joins against any other series
/// cheap) and `qens_uptime_seconds` (seconds since this process first
/// exported), so a scrape alone answers "what is running, since when?".
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    push_help_and_type(&mut out, "qens_build_info", "gauge");
    out.push_str(&format!(
        "qens_build_info{{version=\"{}\",profile=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    ));
    push_help_and_type(&mut out, "qens_uptime_seconds", "gauge");
    out.push_str(&format!(
        "qens_uptime_seconds {:.3}\n",
        process_start().elapsed().as_secs_f64()
    ));
    for (name, v) in &snapshot.counters {
        push_help_and_type(&mut out, name, "counter");
        out.push_str(name);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    for (name, v) in &snapshot.gauges {
        push_help_and_type(&mut out, name, "gauge");
        out.push_str(name);
        out.push(' ');
        if v.is_finite() {
            out.push_str(&format!("{v}"));
        } else if v.is_nan() {
            out.push_str("NaN");
        } else if *v > 0.0 {
            out.push_str("+Inf");
        } else {
            out.push_str("-Inf");
        }
        out.push('\n');
    }
    for h in &snapshot.histograms {
        push_help_and_type(&mut out, &h.name, "histogram");
        let mut cumulative = 0u64;
        for b in &h.buckets {
            if b.count == 0 {
                continue;
            }
            cumulative += b.count;
            out.push_str(&h.name);
            out.push_str("_bucket{le=\"");
            out.push_str(&b.hi.to_string());
            out.push_str("\"} ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
        out.push_str(&h.name);
        out.push_str("_bucket{le=\"+Inf\"} ");
        out.push_str(&h.count.to_string());
        out.push('\n');
        out.push_str(&h.name);
        out.push_str("_sum ");
        out.push_str(&h.sum.to_string());
        out.push('\n');
        out.push_str(&h.name);
        out.push_str("_count ");
        out.push_str(&h.count.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("qens_test_export_total").add(4);
        r.gauge("qens_test_export_ratio").set(0.25);
        let h = r.histogram("qens_test_export_nanos");
        h.record(1);
        h.record(100);
        r
    }

    #[test]
    fn json_contains_all_sections() {
        let _g = crate::test_lock();
        let r = sample_registry();
        let doc = to_json(&r.snapshot());
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains(r#""qens_test_export_total":4"#));
        assert!(doc.contains(r#""qens_test_export_ratio":0.25"#));
        assert!(doc.contains(r#""name":"qens_test_export_nanos""#));
        assert!(doc.contains(r#""count":2"#));
        assert!(doc.contains(r#""p95":"#));
    }

    #[test]
    fn prometheus_has_cumulative_buckets_and_totals() {
        let _g = crate::test_lock();
        let r = sample_registry();
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE qens_test_export_total counter"));
        assert!(text.contains("qens_test_export_total 4"));
        assert!(text.contains("# TYPE qens_test_export_ratio gauge"));
        assert!(text.contains("# TYPE qens_test_export_nanos histogram"));
        assert!(text.contains("qens_test_export_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("qens_test_export_nanos_sum 101"));
        assert!(text.contains("qens_test_export_nanos_count 2"));
        // Buckets are cumulative: the le=+Inf count equals the total.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("qens_test_export_nanos_bucket"))
            .collect();
        assert!(
            lines.len() >= 2,
            "expected at least two bucket lines: {lines:?}"
        );
    }

    /// Exposition-format conformance: every exposed series is preceded
    /// by matching `# HELP` and `# TYPE` lines, histogram buckets are
    /// cumulative (non-decreasing) and end in `+Inf` with a count equal
    /// to `_count`.
    #[test]
    fn prometheus_exposition_is_conformant() {
        let _g = crate::test_lock();
        let r = sample_registry();
        let text = to_prometheus(&r.snapshot());

        // Collect the base name of every sample line (strip labels and
        // histogram sub-series suffixes) and check HELP/TYPE presence.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let sample = line.split_whitespace().next().unwrap();
            let base = sample.split('{').next().unwrap();
            let base = base
                .strip_suffix("_bucket")
                .or_else(|| base.strip_suffix("_sum"))
                .or_else(|| base.strip_suffix("_count"))
                .unwrap_or(base);
            assert!(
                text.contains(&format!("# HELP {base} ")),
                "series {sample} missing # HELP {base}"
            );
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "series {sample} missing # TYPE {base}"
            );
        }

        // HELP must precede TYPE which must precede the first sample.
        let help_at = text.find("# HELP qens_test_export_nanos ").unwrap();
        let type_at = text.find("# TYPE qens_test_export_nanos ").unwrap();
        let sample_at = text.find("qens_test_export_nanos_bucket").unwrap();
        assert!(help_at < type_at && type_at < sample_at);

        // Histogram buckets are cumulative and terminate in +Inf == _count.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("qens_test_export_nanos_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(
            bucket_counts.windows(2).all(|w| w[0] <= w[1]),
            "buckets must be cumulative: {bucket_counts:?}"
        );
        let inf_line = text
            .lines()
            .find(|l| l.contains("_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket present");
        let inf_count: u64 = inf_line.split_whitespace().last().unwrap().parse().unwrap();
        let count_line = text
            .lines()
            .find(|l| l.starts_with("qens_test_export_nanos_count"))
            .unwrap();
        let total: u64 = count_line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf_count, total);
    }

    #[test]
    fn prometheus_leads_with_build_info_and_uptime() {
        let _g = crate::test_lock();
        let r = sample_registry();
        let text = to_prometheus(&r.snapshot());
        let build_line = text
            .lines()
            .find(|l| l.starts_with("qens_build_info{"))
            .expect("build_info series present");
        assert!(
            build_line.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))),
            "build_info must carry the crate version: {build_line}"
        );
        assert!(
            build_line.contains("profile=\"debug\"") || build_line.contains("profile=\"release\""),
            "build_info must carry the build profile: {build_line}"
        );
        assert!(build_line.ends_with(" 1"), "build_info value is always 1");
        let uptime_line = text
            .lines()
            .find(|l| l.starts_with("qens_uptime_seconds "))
            .expect("uptime series present");
        let uptime: f64 = uptime_line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert!(uptime >= 0.0, "uptime must be non-negative");
        // Uptime is monotone across scrapes (shared epoch).
        let again = to_prometheus(&r.snapshot());
        let uptime2: f64 = again
            .lines()
            .find(|l| l.starts_with("qens_uptime_seconds "))
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert!(uptime2 >= uptime);
        // Both lead series carry HELP/TYPE like everything else.
        assert!(text.contains("# HELP qens_build_info "));
        assert!(text.contains("# TYPE qens_uptime_seconds gauge"));
    }

    #[test]
    fn help_text_is_deterministic_and_specific() {
        assert_eq!(
            help_text("qens_trace_events_total"),
            "Trace events recorded across all queries."
        );
        assert_eq!(
            help_text("qens_fault_retries_total"),
            "injected-fault handling metric."
        );
        assert_eq!(
            help_text("qens_serve_shed_total"),
            "query serving front-end metric (ingestion queue, admission control, batching)."
        );
        assert_eq!(
            help_text("qens_node_selected_total"),
            "per-node fleet scorecard counter (top-K hot nodes plus an \"other\" aggregate)."
        );
        assert_eq!(
            help_text("qens_fleet_selection_gini"),
            "Gini coefficient of per-node selection counts (0 = even, 1 = concentrated)."
        );
        assert_eq!(
            help_text("qens_journal_events_total"),
            "Structured events recorded into the fleet journal."
        );
        assert_eq!(help_text("qens_unknown_nanos"), help_text("x_nanos"));
        assert_eq!(help_text("weird"), "Workspace metric.");
    }

    /// One series each family really registers gets that family's line,
    /// not the generic unit-suffix fallback. (The `qens_fleet_`,
    /// `qens_journal_` and `qens_trace_` series all have lines of their
    /// own, checked above.)
    #[test]
    fn registered_series_get_their_family_help() {
        for (series, family) in [
            ("qens_cache_hits_total", "selection-cache metric"),
            ("qens_index_patches_total", "spatial-index candidate"),
            ("qens_cluster_kmeans_fit_nanos", "k-means clustering"),
            ("qens_selection_select_nanos", "query-driven node selection"),
            ("qens_fedlearn_rounds_total", "federated round engine"),
            ("qens_fedlearn_run_query_nanos", "federated round engine"),
            ("qens_fault_retries_total", "injected-fault handling"),
            ("qens_edgesim_query_bytes", "edge network simulation"),
            ("qens_serve_wait_micros", "query serving front-end"),
            ("qens_par_queue_wait_nanos", "deterministic thread-pool"),
            ("qens_node_selected_total", "per-node fleet scorecard"),
            ("qens_mlkit_train_nanos", "local training kernel"),
            ("qens_slo_good_total", "latency SLO tracking"),
        ] {
            let help = help_text(series);
            assert!(help.starts_with(family), "{series}: {help:?}");
        }
    }

    /// The fleet's appended exposition obeys the same conformance rules
    /// as the registry's: every sample preceded by matching `# HELP` and
    /// `# TYPE` lines, HELP before TYPE before the first sample.
    #[test]
    fn fleet_exposition_is_conformant() {
        let _g = crate::test_lock();
        crate::fleet::set_enabled(true);
        crate::fleet::reset();
        crate::journal::clear();
        crate::emit(&crate::Event::FleetObserved(5));
        crate::emit(&crate::Event::Selected(1, 0, 0, 0));
        crate::emit(&crate::Event::Selected(1, 3, 1, 0));
        let mut text = String::new();
        crate::fleet::to_prometheus(&mut text, crate::fleet::PROM_TOP_K);
        assert!(!text.is_empty());
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let sample = line.split_whitespace().next().unwrap();
            let base = sample.split('{').next().unwrap();
            assert!(
                text.contains(&format!("# HELP {base} ")),
                "series {sample} missing # HELP {base}"
            );
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "series {sample} missing # TYPE {base}"
            );
            let help_at = text.find(&format!("# HELP {base} ")).unwrap();
            let type_at = text.find(&format!("# TYPE {base} ")).unwrap();
            let sample_at = text.find(line).unwrap();
            assert!(help_at < type_at && type_at < sample_at);
        }
        assert!(text.contains("qens_journal_events_total 2"));
        crate::fleet::reset();
        crate::journal::clear();
    }
}
