//! Plain-text and CSV rendering of experiment results.

use std::fs;
use std::io;
use std::path::Path;

use crate::figures::{ClusterProjection, DataNeed, ParticipantPair};
use crate::tables::LossComparison;
use qens::prelude::{PolicyComparison, SelectivitySeries};

/// Renders a Table I/II row next to the paper's numbers.
pub fn render_loss_comparison(
    title: &str,
    paper: (f64, f64),
    got: &LossComparison,
    structured_label: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:>22} {:>20}\n",
        "Model", structured_label, "Random selection"
    ));
    out.push_str(&format!(
        "{:<10} {:>22.4} {:>20.4}   (ours, scaled MSE over {} queries)\n",
        got.model, got.structured_loss, got.random_loss, got.queries
    ));
    out.push_str(&format!(
        "{:<10} {:>22.2} {:>20.2}   (paper, raw units)\n",
        got.model, paper.0, paper.1
    ));
    out.push_str(&format!(
        "shape: random/structured ratio ours {:.2}x vs paper {:.2}x\n",
        got.ratio(),
        paper.1 / paper.0
    ));
    out
}

/// Renders a Fig. 1/2 participant pair.
pub fn render_pair(title: &str, pair: &ParticipantPair) -> String {
    let mut out = format!("{title}\n");
    for (label, p, loss) in [
        ("selected", &pair.selected, pair.selected_probe_loss),
        ("random", &pair.random, pair.random_probe_loss),
    ] {
        out.push_str(&format!(
            "  {label:<9} {:<14} slope {:>7.2}  corr {:>6.2}  x in [{:>8.1}, {:>8.1}]  probe loss {:.6}\n",
            p.name, p.slope, p.correlation, p.x_range.0, p.x_range.1, loss
        ));
    }
    out
}

/// Renders the Fig. 5 projection.
pub fn render_fig5(query: &[f64], clusters: &[ClusterProjection]) -> String {
    let mut out = format!("query region: {query:?}\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>10} {:>12}   rect\n",
        "cluster", "size", "h_ik", "supporting"
    ));
    for c in clusters {
        out.push_str(&format!(
            "{:<8} {:>6} {:>10.4} {:>12}   {:?}\n",
            c.cluster_id,
            c.size,
            c.overlap,
            if c.supporting { "yes" } else { "no" },
            c.rect
                .iter()
                .map(|v| (v * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ));
    }
    out
}

/// Renders the Fig. 6 data-need table.
pub fn render_fig6(query: &[f64], needs: &[DataNeed]) -> String {
    let mut out = format!("query region: {query:?}\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>8} {:>14}\n",
        "node", "needed", "available", "pct", "clusters"
    ));
    for n in needs {
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>7.1}% {:>8}/{}\n",
            n.node,
            n.needed,
            n.total,
            100.0 * n.needed as f64 / n.total as f64,
            n.supporting_clusters,
            n.clusters
        ));
    }
    out
}

/// Renders the Fig. 7 policy table.
pub fn render_fig7(model: &str, rows: &[PolicyComparison]) -> String {
    let mut out = format!("Fig. 7 ({model}): average loss per mechanism\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>14} {:>8}\n",
        "mechanism", "mean loss", "data frac", "sim secs/query", "failed"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>12.6} {:>12.3} {:>14.4} {:>8}\n",
            r.policy,
            r.mean_loss.unwrap_or(f64::NAN),
            r.mean_data_fraction,
            r.mean_sim_seconds,
            r.failed_queries
        ));
    }
    out
}

/// Writes one model's Fig. 7 series to `fig7_<label>.csv` under `dir`
/// (`label` is `LR` or `NN`, lower-cased in the file name).
pub fn write_fig7_csv(dir: &Path, label: &str, rows: &[PolicyComparison]) -> io::Result<()> {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.6}", r.mean_loss.unwrap_or(f64::NAN)),
                format!("{:.6}", r.mean_data_fraction),
                format!("{:.6}", r.mean_sim_seconds),
                r.failed_queries.to_string(),
            ]
        })
        .collect();
    write_csv(
        &dir.join(format!("fig7_{}.csv", label.to_lowercase())),
        "policy,mean_loss,mean_data_fraction,mean_sim_seconds,failed",
        &rows,
    )
}

/// Renders the "Fig. 8 under faults" dropout-sweep table.
pub fn render_fault_sweep(rows: &[crate::figures::FaultSweepRow]) -> String {
    let mut out = String::from(
        "Fig. 8 under faults: mean loss vs dropout rate \
         (full-strength tolerance for both policies)\n",
    );
    out.push_str(&format!(
        "{:>8} {:<18} {:>12} {:>10} {:>8} {:>13} {:>9}\n",
        "dropout", "mechanism", "mean loss", "completed", "failed", "replacements", "dropped"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>7.0}% {:<18} {:>12.6} {:>10} {:>8} {:>13} {:>9}\n",
            100.0 * r.dropout,
            r.policy,
            r.mean_loss.unwrap_or(f64::NAN),
            r.completed,
            r.failed,
            r.replacements,
            r.dropped
        ));
    }
    out
}

/// Writes the fault sweep to `fig8_faults.csv` under `dir`.
pub fn write_fig8_faults_csv(dir: &Path, rows: &[crate::figures::FaultSweepRow]) -> io::Result<()> {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.dropout),
                r.policy.clone(),
                format!("{:.6}", r.mean_loss.unwrap_or(f64::NAN)),
                r.completed.to_string(),
                r.failed.to_string(),
                r.replacements.to_string(),
                r.dropped.to_string(),
                format!("{:.6}", r.mean_sim_seconds),
            ]
        })
        .collect();
    write_csv(
        &dir.join("fig8_faults.csv"),
        "dropout,policy,mean_loss,completed,failed,replacements,dropped,mean_sim_seconds",
        &rows,
    )
}

/// Renders the Fig. 8/9 per-query series.
pub fn render_fig8_fig9(series: &SelectivitySeries) -> String {
    let mut out =
        String::from("Fig. 8 (training seconds) and Fig. 9 (% of data needed), per query\n");
    out.push_str(&format!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}\n",
        "query", "secs w/ query", "secs w/o", "% data w/", "% data w/o"
    ));
    for i in 0..series.query_ids.len() {
        out.push_str(&format!(
            "{:>6} {:>14.4} {:>14.4} {:>11.1}% {:>11.1}%\n",
            series.query_ids[i],
            series.with_seconds[i],
            series.without_seconds[i],
            100.0 * series.with_fraction[i],
            100.0 * series.without_fraction[i],
        ));
    }
    if let Some(s) = series.mean_speedup() {
        out.push_str(&format!("mean training-time saving: {s:.2}x\n"));
    }
    out
}

/// Writes a CSV file under `results/`, creating the directory.
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::from(header);
    out.push('\n');
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
    fs::write(path, out)
}

/// Writes the Fig. 8/9 selectivity series to `fig8_fig9.csv` under `dir`.
pub fn write_fig8_fig9_csv(dir: &Path, series: &SelectivitySeries) -> io::Result<()> {
    let rows: Vec<Vec<String>> = (0..series.query_ids.len())
        .map(|i| {
            vec![
                series.query_ids[i].to_string(),
                format!("{:.6}", series.with_seconds[i]),
                format!("{:.6}", series.without_seconds[i]),
                format!("{:.6}", series.with_fraction[i]),
                format!("{:.6}", series.without_fraction[i]),
            ]
        })
        .collect();
    write_csv(
        &dir.join("fig8_fig9.csv"),
        "query,with_seconds,without_seconds,with_fraction,without_fraction",
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::LossComparison;

    #[test]
    fn loss_comparison_renders_both_rows() {
        let got = LossComparison {
            model: "LR",
            structured_loss: 1.0,
            random_loss: 10.0,
            queries: 5,
        };
        let s = render_loss_comparison("Table II", (9.70, 178.10), &got, "All-node selection");
        assert!(s.contains("Table II"));
        assert!(s.contains("178.10"));
        assert!(s.contains("10.00x"));
    }

    #[test]
    fn csv_writer_round_trips() {
        let dir = std::env::temp_dir().join("qens_report_test");
        let path = dir.join("test.csv");
        write_csv(&path, "a,b", &[vec!["1".into(), "2".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(&path).unwrap();
    }
}
