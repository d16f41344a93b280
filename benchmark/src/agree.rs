//! `--agree`: the whole benchmark twice on the same code, set A against
//! set B. Every end-to-end metric must agree within its bound, every
//! count that repeats exactly for a seed and every answer digest must be
//! equal. A benchmark that cannot tell its own two runs apart cannot
//! judge a change.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::protocol::{END_TO_END, PER_LAYER};
use crate::report::parse_metric_line;
use crate::{run_child, stats, Args, WORKLOADS};

/// Untraced runs of every workload per set; a set's reading of a metric
/// is their median.
const RUNS_PER_SET: usize = 3;

/// `(workload, metric)` → the values of one set's runs, as printed.
type Readings = BTreeMap<(String, String), Vec<String>>;

fn collect(into: &mut Readings, output: &str) {
    for line in output.lines() {
        if let Some((workload, metric, value, _)) = parse_metric_line(line) {
            into.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(value.to_string());
        }
    }
}

fn median_of(readings: &Readings, workload: &str, metric: &str) -> Option<f64> {
    let values: Vec<f64> = readings
        .get(&(workload.to_string(), metric.to_string()))?
        .iter()
        .filter_map(|v| v.parse().ok())
        .collect();
    (!values.is_empty()).then(|| stats::median(&values))
}

/// How far apart two readings are, as a share of the smaller.
pub fn disagreement(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a.abs() <= b.abs() { (a, b) } else { (b, a) };
    if lo == hi {
        0.0
    } else if lo == 0.0 {
        f64::INFINITY
    } else {
        (hi - lo).abs() / lo.abs()
    }
}

pub fn run(args: &Args) -> ExitCode {
    let mut sets = [Readings::new(), Readings::new()];
    // Alternate the sets so that drift of the machine hits both; the
    // traced runs come last.
    let rounds = (1..=RUNS_PER_SET).map(|run| (false, format!("run {run}/{RUNS_PER_SET}")));
    for (trace, label) in rounds.chain([(true, "traced".to_string())]) {
        for (set, readings) in sets.iter_mut().enumerate() {
            for workload in WORKLOADS {
                eprintln!("agree: set {} {label} {workload}", ["A", "B"][set]);
                match run_child(args, workload, trace) {
                    Ok(out) => collect(readings, &out),
                    Err(why) => {
                        eprintln!("agree: {why}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let [a, b] = &sets;
    let mut ok = true;
    println!(
        "{:<13} {:<32} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "apart", "bound"
    );
    for workload in WORKLOADS {
        for &(metric, _, _, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (
                median_of(a, workload, metric),
                median_of(b, workload, metric),
            ) else {
                println!("{workload:<13} {metric:<32} missing");
                ok = false;
                continue;
            };
            let apart = disagreement(va, vb);
            let agrees = apart <= bound;
            ok &= agrees;
            println!(
                "{workload:<13} {metric:<32} {va:>16.6} {vb:>16.6} {:>7.2}% {:>6.1}%  {}",
                apart * 100.0,
                bound * 100.0,
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
        let exact = PER_LAYER
            .iter()
            .filter(|m| m.3)
            .map(|m| m.0)
            .chain(["answer_digest", "failed_share"]);
        for metric in exact {
            let key = (workload.to_string(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<13} {metric:<32} missing");
                ok = false;
                continue;
            };
            // Every run of both sets must have printed the same text. A
            // count of a layer this workload never calls is 0 everywhere:
            // checked, not listed.
            let agrees = va.iter().chain(vb).all(|v| v == &va[0]);
            if agrees && va[0] == "0" && metric != "failed_share" {
                continue;
            }
            ok &= agrees;
            println!(
                "{workload:<13} {metric:<32} {:>16} {:>16} {:>8} {:>7}  {}",
                va[0],
                vb[0],
                "",
                "equal",
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        println!("agree: the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("agree: the two sets DISAGREE");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_symmetric_and_relative_to_the_smaller() {
        assert_eq!(disagreement(100.0, 110.0), 0.1);
        assert_eq!(disagreement(110.0, 100.0), 0.1);
        assert_eq!(disagreement(5.0, 5.0), 0.0);
        assert_eq!(disagreement(0.0, 0.0), 0.0);
        assert_eq!(disagreement(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn readings_are_grouped_per_workload_and_metric() {
        let mut r = Readings::new();
        collect(
            &mut r,
            "# nproc 2\nfleet_select setup_s 1.5 s\nfleet_select setup_s 2.5 s\n\
             fleet_select answer_digest 00ff hex\n{\"correct\": true}\n",
        );
        assert_eq!(median_of(&r, "fleet_select", "setup_s"), Some(2.0));
        assert_eq!(median_of(&r, "fleet_select", "nope"), None);
        assert_eq!(
            r[&("fleet_select".to_string(), "answer_digest".to_string())],
            vec!["00ff"]
        );
    }
}
