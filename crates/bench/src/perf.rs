//! The perf-regression harness behind `repro bench`.
//!
//! Times a fixed set of kernels (k-means fit, query-driven selection
//! uncached and behind a warm selection cache, an end-to-end federated
//! round, the Prometheus exporter, a live `POST /query` round trip)
//! and writes `results/BENCH_qens.json` in a tiny stable schema:
//!
//! ```json
//! {"schema":"qens-bench-v1","results":[
//!   {"name":"kmeans_fit","nanos_per_iter":123456.0,"iters":32}, ...
//! ]}
//! ```
//!
//! `repro bench --check` additionally compares the fresh run against the
//! committed baseline at the repository root (`BENCH_qens.json`) and
//! prints a warning for every kernel slower than the tolerance band.
//! The gate is **warn-only** by default: CI boxes and laptops disagree
//! wildly on absolute nanoseconds, so a tight hard gate would only
//! teach people to bump the baseline. Setting `QENS_BENCH_GATE=<factor>`
//! (e.g. `20`) promotes it to a hard gate at that slowdown factor —
//! generous enough to absorb machine noise, tight enough that an
//! accidental O(n²) shows up as a failed `scripts/verify.sh` instead of
//! a scrolled-past warning. Kernels missing from the baseline stay
//! warn-only even under the gate (a new kernel is not a regression).

use std::path::{Path, PathBuf};
use std::time::Instant;

use qens::prelude::*;

/// Slowdown factor past which `--check` warns (fresh > baseline × band).
pub const TOLERANCE_BAND: f64 = 3.0;

/// Reads the optional hard-gate factor from `QENS_BENCH_GATE`. `None`
/// (unset, empty, unparsable or non-positive) keeps the default
/// warn-only behaviour.
pub fn gate_from_env() -> Option<f64> {
    std::env::var("QENS_BENCH_GATE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|g| g.is_finite() && *g > 0.0)
}

/// The outcome of one baseline comparison, split by severity: `missing`
/// is informational (new kernels), `regressions` carries
/// `(kernel, slowdown_factor, message)` rows the gate can act on.
#[derive(Debug, Default)]
pub struct BenchComparison {
    /// Kernels slower than the baseline by more than the band.
    pub regressions: Vec<(String, f64, String)>,
    /// Kernels present in the fresh run but absent from the baseline.
    pub missing: Vec<String>,
}

/// One timed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Kernel name (stable across runs; the compare key).
    pub name: String,
    /// Mean nanoseconds per iteration.
    pub nanos_per_iter: f64,
    /// Iterations the mean was taken over.
    pub iters: usize,
}

/// Times `f` for `iters` iterations after `warmup` unmeasured ones.
fn time_kernel<F: FnMut()>(name: &str, warmup: usize, iters: usize, mut f: F) -> BenchResult {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    BenchResult {
        name: name.to_string(),
        nanos_per_iter: elapsed / iters as f64,
        iters,
    }
}

/// Fleet size of the scaling kernels in the committed baseline.
pub const SCALE_FLEET: usize = 1_000_000;

/// Runs the whole fixed suite at the committed 1M-node scaling-fleet
/// size. Deterministic inputs (seeded), measured wall time — so numbers
/// vary per machine but the *set* of kernels and their inputs never do.
pub fn run_suite() -> Vec<BenchResult> {
    run_suite_sized(SCALE_FLEET)
}

/// [`run_suite`] with an explicit scaling-fleet size (tests shrink it;
/// kernel *names* keep the baseline's `_1m_` spelling regardless, since
/// they are the compare key).
pub fn run_suite_sized(scale_fleet: usize) -> Vec<BenchResult> {
    use qens::cluster::{KMeans, KMeansConfig};
    use qens::geom::{HyperRect, Interval, Query};
    use qens::linalg::Matrix;
    use qens::selection::{
        GridConfig, IndexedQueryDriven, QueryDriven, SelectionContext, SelectionPolicy,
    };

    let mut out = Vec::new();

    // Kernel 1: k-means fit on a fixed 512x4 matrix, k = 5.
    let rows: Vec<Vec<f64>> = (0..512)
        .map(|i| {
            let x = f64::from(i % 97);
            vec![x, (x * 1.7) % 31.0, (x * 0.3) % 11.0, f64::from(i / 97)]
        })
        .collect();
    let data = Matrix::from_rows(&rows);
    let kconfig = KMeansConfig::with_k(5, 11);
    out.push(time_kernel("kmeans_fit", 3, 24, || {
        let _ = KMeans::fit(&data, &kconfig);
    }));

    // A small quantised federation shared by the remaining kernels.
    let fed = FederationBuilder::new()
        .heterogeneous_nodes(6, 120)
        .clusters_per_node(4)
        .seed(13)
        .epochs(2)
        .build();
    let query = fed.query_from_bounds(0, &[0.0, 25.0, 0.0, 55.0]);

    // Kernel 2: query-driven scoring + ranking over the population
    // (the leader's Eq. 2-4 hot path).
    let ranker = QueryDriven::top_l(3);
    let ctx = SelectionContext::new(fed.network(), &query);
    out.push(time_kernel("selection_rank", 5, 64, || {
        let _ = ranker.select(&ctx);
    }));

    // Kernel 2b: the same selection answered by a warm memo (the
    // warmup iterations store the answer). The gap between this and
    // `selection_rank` is what a hit saves on this 6-node scan; at
    // fleet scale the repo benchmark's `fleet_churn` measures it.
    let cached_ranker = qens::selection::CachedQueryDriven::with_defaults(QueryDriven::top_l(3));
    out.push(time_kernel("selection_rank_cached", 5, 64, || {
        let _ = cached_ranker.select(&ctx);
    }));

    // Kernel 3: one end-to-end federated round (select + train + agg).
    let policy = PolicyKind::query_driven(3);
    out.push(time_kernel("fedlearn_round", 1, 8, || {
        let _ = fed.run_query(&query, &policy);
    }));

    // Kernel 4: the Prometheus exporter over whatever the federation
    // recorded above (text exposition is on the serve hot path).
    let snap = qens::telemetry::global().snapshot();
    out.push(time_kernel("prometheus_export", 5, 64, || {
        let _ = qens::telemetry::export::to_prometheus(&snap);
    }));

    // Kernel 5: the fleet scorecard update path — the per-participant
    // bookkeeping every selection, round completion and transfer pays
    // when fleet observability is on (one iteration = one participant's
    // full selected -> trained -> transferred -> participated cycle).
    let fleet_was_on = qens::telemetry::fleet::enabled();
    qens::telemetry::fleet::set_enabled(true);
    qens::telemetry::fleet::reset();
    qens::telemetry::fleet::observe_fleet(200);
    let mut fleet_qid = 0u64;
    out.push(time_kernel("fleet_scorecard_update", 16, 256, || {
        fleet_qid += 1;
        let node = fleet_qid % 200;
        qens::telemetry::fleet::query_observed(fleet_qid);
        qens::telemetry::fleet::selected(fleet_qid, node, 3);
        qens::telemetry::fleet::trained(node, 0.25, 1_000);
        qens::telemetry::fleet::transferred(node, 4096);
        qens::telemetry::fleet::participated(node);
    }));
    qens::telemetry::fleet::set_enabled(fleet_was_on);
    qens::telemetry::fleet::reset();

    // Kernel 6: a live POST /query round trip against an ephemeral
    // server — HTTP parse, admission, batcher hand-off, federation
    // round, reply. The end-to-end serving latency the /query endpoint
    // actually delivers (the warmup iteration also warms its selection
    // cache, like a steady-state server).
    let server = crate::serve::spawn("127.0.0.1:0", crate::serve::demo_federation())
        .expect("spawn bench server");
    let addr = server.addr().to_string();
    out.push(time_kernel("serve_roundtrip", 1, 8, || {
        let (status, body) =
            crate::serve::http::post(&addr, "/query", "{\"bounds\": [0, 20, 0, 45]}")
                .expect("bench round trip");
        assert_eq!(status, 200, "bench round trip failed: {body}");
    }));
    server.request_shutdown();
    server.wait().expect("bench server shutdown");

    // Kernels 7/8: fleet-scale selection — the full Eq. 2-4 scan vs the
    // spatial-index candidate generator over the same summary-only
    // fleet and query. These run last so the big fleet is allocated
    // after every other kernel has finished. The query is narrow
    // (16 units of a 1000-unit space per side), the regime the index
    // exists for; `repro bench --check` asserts the indexed leg's
    // speedup below.
    let fleet = crate::scale::synthetic_fleet(scale_fleet, 3, 77);
    let scale_query = Query::new(
        900,
        HyperRect::new(vec![
            Interval::new(500.0, 516.0),
            Interval::new(500.0, 516.0),
        ]),
    );
    let scale_ctx = SelectionContext::new(&fleet, &scale_query);
    let scan_ranker = QueryDriven::top_l(3);
    out.push(time_kernel("selection_rank_1m_scan", 1, 4, || {
        let _ = scan_ranker.select(&scale_ctx);
    }));
    let indexed_ranker = IndexedQueryDriven::new(QueryDriven::top_l(3), GridConfig::default());
    // The first warmup iteration bulk-builds the index (steady state is
    // what the baseline tracks; build cost has its own histogram,
    // `qens_index_build_nanos`).
    out.push(time_kernel("selection_rank_1m_indexed", 2, 32, || {
        let _ = indexed_ranker.select(&scale_ctx);
    }));
    assert_eq!(
        scan_ranker.select(&scale_ctx),
        indexed_ranker.select(&scale_ctx),
        "bench fleet: indexed selection diverged from the full scan"
    );

    out
}

/// Minimum `selection_rank_1m_scan` / `selection_rank_1m_indexed`
/// speedup `--check` expects (ISSUE 10's acceptance floor).
pub const INDEX_SPEEDUP_FLOOR: f64 = 5.0;

/// The indexed-beats-scan check: returns the measured speedup factor
/// and whether it clears [`INDEX_SPEEDUP_FLOOR`]. `None` when either
/// kernel is missing from `results`.
pub fn index_speedup(results: &[BenchResult]) -> Option<(f64, bool)> {
    let scan = results
        .iter()
        .find(|r| r.name == "selection_rank_1m_scan")?;
    let indexed = results
        .iter()
        .find(|r| r.name == "selection_rank_1m_indexed")?;
    if indexed.nanos_per_iter <= 0.0 {
        return None;
    }
    let factor = scan.nanos_per_iter / indexed.nanos_per_iter;
    Some((factor, factor >= INDEX_SPEEDUP_FLOOR))
}

/// Serialises results in the stable `qens-bench-v1` schema.
pub fn to_json(results: &[BenchResult]) -> String {
    let mut s = String::from("{\"schema\":\"qens-bench-v1\",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"nanos_per_iter\":{:.1},\"iters\":{}}}",
            r.name, r.nanos_per_iter, r.iters
        ));
    }
    s.push_str("]}\n");
    s
}

/// Parses the `qens-bench-v1` schema back. Deliberately tiny — the
/// format is machine-written with a fixed key order, so a scan for
/// `"name":"…"` / `"nanos_per_iter":…` pairs is exact, not heuristic.
pub fn from_json(doc: &str) -> Option<Vec<BenchResult>> {
    if !doc.contains("\"schema\":\"qens-bench-v1\"") {
        return None;
    }
    let mut results = Vec::new();
    let mut rest = doc;
    while let Some(start) = rest.find("{\"name\":\"") {
        rest = &rest[start + "{\"name\":\"".len()..];
        let name_end = rest.find('"')?;
        let name = rest[..name_end].to_string();
        let nanos_key = "\"nanos_per_iter\":";
        let npos = rest.find(nanos_key)?;
        let after = &rest[npos + nanos_key.len()..];
        let num_end = after.find([',', '}'])?;
        let nanos_per_iter: f64 = after[..num_end].trim().parse().ok()?;
        let iters_key = "\"iters\":";
        let ipos = rest.find(iters_key)?;
        let after = &rest[ipos + iters_key.len()..];
        let num_end = after.find(['}', ','])?;
        let iters: usize = after[..num_end].trim().parse().ok()?;
        results.push(BenchResult {
            name,
            nanos_per_iter,
            iters,
        });
        rest = &rest[ipos..];
    }
    Some(results)
}

/// Compares fresh results against a baseline at an explicit tolerance
/// band, splitting regressions from baseline-coverage gaps so the
/// caller can gate on the former only.
pub fn compare_with_band(
    fresh: &[BenchResult],
    baseline: &[BenchResult],
    band: f64,
) -> BenchComparison {
    let mut cmp = BenchComparison::default();
    for f in fresh {
        let Some(b) = baseline.iter().find(|b| b.name == f.name) else {
            cmp.missing.push(f.name.clone());
            continue;
        };
        if b.nanos_per_iter > 0.0 && f.nanos_per_iter > b.nanos_per_iter * band {
            let factor = f.nanos_per_iter / b.nanos_per_iter;
            cmp.regressions.push((
                f.name.clone(),
                factor,
                format!(
                    "bench: {} regressed {factor:.1}x ({:.0} ns/iter vs baseline {:.0} ns/iter, band {band}x)",
                    f.name, f.nanos_per_iter, b.nanos_per_iter,
                ),
            ));
        }
    }
    cmp
}

/// Compares fresh results against a baseline; returns warning lines
/// (empty = all kernels within the default band). Legacy flat view of
/// [`compare_with_band`].
pub fn compare(fresh: &[BenchResult], baseline: &[BenchResult]) -> Vec<String> {
    let cmp = compare_with_band(fresh, baseline, TOLERANCE_BAND);
    let mut warnings: Vec<String> = cmp
        .missing
        .iter()
        .map(|name| {
            format!(
                "bench: kernel {name:?} missing from baseline (new kernel? re-record the baseline)"
            )
        })
        .collect();
    warnings.extend(cmp.regressions.into_iter().map(|(_, _, msg)| msg));
    warnings
}

/// The `repro bench [--check]` entry point. Always writes
/// `results/BENCH_qens.json`; with `check`, also compares against the
/// committed `BENCH_qens.json` at the repo root. Returns `false` only
/// when `QENS_BENCH_GATE` is set and a kernel regressed past that
/// factor — everything else (no baseline, new kernels, regressions
/// within the gate) stays warn-only and returns `true`.
pub fn run_bench(check: bool, baseline_path: Option<&Path>) -> bool {
    let results = run_suite();
    for r in &results {
        println!(
            "{:<24} {:>14.0} ns/iter  ({} iters)",
            r.name, r.nanos_per_iter, r.iters
        );
    }
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_qens.json");
    std::fs::write(&path, to_json(&results)).expect("write BENCH_qens.json");
    println!("(bench results -> {})", path.display());

    if !check {
        return true;
    }
    let gate = gate_from_env();

    // The scaling claim is relative (same machine, same run), so unlike
    // the nanosecond baselines it can be checked hard: warn-only by
    // default, a failure under QENS_BENCH_GATE.
    let mut speedup_ok = true;
    match index_speedup(&results) {
        Some((factor, ok)) => {
            println!(
                "bench check: indexed selection speedup {factor:.1}x over the scan \
                 (floor {INDEX_SPEEDUP_FLOOR}x)"
            );
            if !ok {
                eprintln!(
                    "WARNING: bench: selection_rank_1m_indexed is only {factor:.1}x faster than \
                     selection_rank_1m_scan (floor {INDEX_SPEEDUP_FLOOR}x)"
                );
                if gate.is_some() {
                    eprintln!(
                        "FAIL: bench: index speedup below the {INDEX_SPEEDUP_FLOOR}x floor \
                         under QENS_BENCH_GATE"
                    );
                    speedup_ok = false;
                }
            }
        }
        None => eprintln!("WARNING: bench: scaling kernels missing; speedup unchecked"),
    }
    let baseline_path = baseline_path.unwrap_or(Path::new("BENCH_qens.json"));
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(doc) => match from_json(&doc) {
            Some(baseline) => baseline,
            None => {
                eprintln!(
                    "WARNING: bench: baseline {} is not qens-bench-v1; skipping compare",
                    baseline_path.display()
                );
                return speedup_ok;
            }
        },
        Err(e) => {
            eprintln!(
                "WARNING: bench: no baseline at {} ({e}); run `repro bench` and commit the file",
                baseline_path.display()
            );
            return speedup_ok;
        }
    };
    let cmp = compare_with_band(&results, &baseline, TOLERANCE_BAND);
    for name in &cmp.missing {
        eprintln!(
            "WARNING: bench: kernel {name:?} missing from baseline \
             (new kernel? re-record the baseline)"
        );
    }
    if cmp.regressions.is_empty() {
        println!(
            "bench check OK: {} kernels within {}x of {}",
            results.len(),
            TOLERANCE_BAND,
            baseline_path.display()
        );
        return speedup_ok;
    }
    for (_, _, msg) in &cmp.regressions {
        eprintln!("WARNING: {msg}");
    }
    let Some(gate) = gate else {
        println!(
            "bench check: {} warning(s) against {} (warn-only; set QENS_BENCH_GATE=<factor> \
             to make regressions past that factor fail)",
            cmp.regressions.len(),
            baseline_path.display()
        );
        return speedup_ok;
    };
    let over_gate: Vec<&(String, f64, String)> = cmp
        .regressions
        .iter()
        .filter(|(_, factor, _)| *factor > gate)
        .collect();
    if over_gate.is_empty() {
        println!(
            "bench check: {} regression(s) within the QENS_BENCH_GATE={gate}x hard gate \
             (warned, not failing)",
            cmp.regressions.len()
        );
        return speedup_ok;
    }
    for (name, factor, _) in &over_gate {
        eprintln!("FAIL: bench: {name} regressed {factor:.1}x, past the QENS_BENCH_GATE={gate}x hard gate");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str, nanos: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            nanos_per_iter: nanos,
            iters: 10,
        }
    }

    #[test]
    fn json_round_trips() {
        let results = vec![r("kmeans_fit", 1234.5), r("fedlearn_round", 99.0)];
        let doc = to_json(&results);
        let parsed = from_json(&doc).expect("parse own output");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "kmeans_fit");
        assert!((parsed[0].nanos_per_iter - 1234.5).abs() < 1e-9);
        assert_eq!(parsed[1].iters, 10);
    }

    #[test]
    fn from_json_rejects_foreign_schemas() {
        assert!(from_json("{\"schema\":\"other\"}").is_none());
        assert!(from_json("not json at all").is_none());
    }

    #[test]
    fn compare_warns_only_outside_the_band() {
        let baseline = vec![r("a", 100.0), r("b", 100.0)];
        let fresh = vec![r("a", 100.0 * TOLERANCE_BAND * 1.1), r("b", 120.0)];
        let warnings = compare(&fresh, &baseline);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("\"a\"") || warnings[0].contains("a regressed"));
    }

    #[test]
    fn compare_flags_kernels_missing_from_baseline() {
        let warnings = compare(&[r("new_kernel", 1.0)], &[]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("missing from baseline"));
    }

    #[test]
    fn compare_with_band_separates_regressions_from_missing() {
        let baseline = vec![r("a", 100.0)];
        let fresh = vec![r("a", 2_500.0), r("brand_new", 1.0)];
        let cmp = compare_with_band(&fresh, &baseline, 20.0);
        assert_eq!(cmp.missing, vec!["brand_new".to_string()]);
        assert_eq!(cmp.regressions.len(), 1);
        let (name, factor, msg) = &cmp.regressions[0];
        assert_eq!(name, "a");
        assert!((factor - 25.0).abs() < 1e-9);
        assert!(msg.contains("25.0x"));
        // Within the band: clean.
        let cmp = compare_with_band(&[r("a", 1_500.0)], &baseline, 20.0);
        assert!(cmp.regressions.is_empty() && cmp.missing.is_empty());
    }

    #[test]
    fn index_speedup_reads_the_scaling_pair() {
        let results = vec![
            r("selection_rank_1m_scan", 10_000.0),
            r("selection_rank_1m_indexed", 1_000.0),
        ];
        let (factor, ok) = index_speedup(&results).expect("pair present");
        assert!((factor - 10.0).abs() < 1e-9);
        assert!(ok);
        let slow = vec![
            r("selection_rank_1m_scan", 2_000.0),
            r("selection_rank_1m_indexed", 1_000.0),
        ];
        let (factor, ok) = index_speedup(&slow).expect("pair present");
        assert!((factor - 2.0).abs() < 1e-9);
        assert!(!ok);
        assert!(index_speedup(&[r("selection_rank_1m_scan", 1.0)]).is_none());
    }

    #[test]
    fn suite_runs_and_serialises() {
        // Keep it cheap: assert the suite produces the fixed kernel set
        // and the serialised doc parses back, with the scaling fleet
        // shrunk to test size — names stay the baseline's `_1m_` ones.
        // (The suite's fleet kernel mutates the process-global registry:
        // take the lock.)
        let _g = crate::fleet_test_lock();
        let results = run_suite_sized(20_000);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "kmeans_fit",
                "selection_rank",
                "selection_rank_cached",
                "fedlearn_round",
                "prometheus_export",
                "fleet_scorecard_update",
                "serve_roundtrip",
                "selection_rank_1m_scan",
                "selection_rank_1m_indexed"
            ]
        );
        assert!(results.iter().all(|r| r.nanos_per_iter > 0.0));
        let parsed = from_json(&to_json(&results)).expect("round trip");
        assert_eq!(parsed.len(), results.len());
    }
}
