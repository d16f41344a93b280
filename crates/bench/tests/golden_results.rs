//! Committed artifacts are regenerated, not trusted: each golden test
//! rebuilds a `results/` file through the functions `repro` calls, writes
//! it to a temp dir and compares the bytes with the committed copy. The
//! shape tests then pin every ablation finding EXPERIMENTS.md states,
//! over the same rows (computed once per test binary).

mod common;

use std::sync::OnceLock;

use bench::ablations::{self, AblationRow};
use bench::{figures, report, scale, ExperimentScale};
use common::{assert_golden, assert_same, committed, fresh};
use qens::prelude::ModelKind;

fn ablation_rows() -> &'static [AblationRow] {
    static ROWS: OnceLock<Vec<AblationRow>> = OnceLock::new();
    ROWS.get_or_init(ablations::run)
}

#[test]
fn ablations_csv_matches_a_fresh_run() {
    assert_golden(&["ablations.csv"], "ablations", |dir| {
        ablations::write_csv(dir, ablation_rows())
    });
}

#[test]
fn fig7_lr_csv_matches_a_fresh_run() {
    assert_golden(&["fig7_lr.csv"], "fig7", |dir| {
        let rows = figures::fig7(ExperimentScale::Quick, ModelKind::Linear);
        report::write_fig7_csv(dir, "LR", &rows)
    });
}

/// The NN series runs `run_stream` → `run_query` per policy, so it pins
/// the round engine's ensemble path on the paper's MLP.
#[test]
fn fig7_nn_csv_matches_a_fresh_run() {
    assert_golden(&["fig7_nn.csv"], "fig7", |dir| {
        let scale = ExperimentScale::Quick;
        let rows = figures::fig7(
            scale,
            ModelKind::Neural {
                hidden: scale.nn_hidden(),
            },
        );
        report::write_fig7_csv(dir, "NN", &rows)
    });
}

#[test]
fn fig8_fig9_csv_matches_a_fresh_run() {
    assert_golden(&["fig8_fig9.csv"], "fig8_fig9", |dir| {
        report::write_fig8_fig9_csv(dir, &figures::fig8_fig9(ExperimentScale::Quick))
    });
}

#[test]
fn fig8_faults_csv_matches_a_fresh_run() {
    assert_golden(&["fig8_faults.csv"], "faults", |dir| {
        report::write_fig8_faults_csv(dir, &figures::fig8_faults(ExperimentScale::Quick))
    });
}

/// The 1k–100k rows only, in process; `repro_cli.rs` runs the whole
/// sweep, 1M-node row included, through the built binary.
#[test]
fn fig11_scale_csv_matches_a_fresh_run_up_to_100k_nodes() {
    let name = "fig11_scale.csv";
    let sizes = &scale::FLEET_SIZES[..3];
    let fresh = fresh(&[name], |dir| {
        let rows = scale::csv_rows(&scale::run_sweep(sizes));
        report::write_csv(&dir.join(name), scale::CSV_HEADER, &rows)
    })
    .remove(0);
    // The header, then a scan and an indexed row per fleet size.
    let committed: String = committed(name)
        .lines()
        .take(1 + 2 * sizes.len())
        .map(|line| format!("{line}\n"))
        .collect();
    assert_same(name, "scale", &committed, &fresh);
}

fn row(ablation: &str, parameter: &str, value: &str) -> &'static AblationRow {
    ablation_rows()
        .iter()
        .find(|r| r.ablation == ablation && r.parameter == parameter && r.value == value)
        .unwrap_or_else(|| panic!("no ablation row {ablation}/{parameter}={value}"))
}

fn loss(ablation: &str, parameter: &str, value: &str) -> f64 {
    row(ablation, parameter, value)
        .mean_loss
        .expect("row carries a loss")
}

fn sweep<'a>(parameter: &'a str) -> impl Iterator<Item = &'static AblationRow> + 'a {
    ablation_rows()
        .iter()
        .filter(move |r| r.ablation == "thresholds" && r.parameter == parameter)
}

#[test]
fn eq4_ranks_better_than_either_half() {
    // 0.0074 against potential-only 0.0088 and count-only 0.0204.
    let eq4 = loss("ranking", "rule", "eq4");
    assert!(eq4 < loss("ranking", "rule", "potential_only"));
    assert!(eq4 < loss("ranking", "rule", "count_only"));
}

#[test]
fn eq2_keeps_more_supporting_clusters_than_volume_fraction() {
    // 25 against 4 of 50 clusters: at least 5x as many.
    let count = |v| row("overlap", "score", v).count.expect("cluster count");
    let (all, eq2, volume) = (
        count("all_clusters"),
        count("eq2_additive"),
        count("volume_fraction"),
    );
    assert!(eq2 <= all && volume > 0.0);
    assert!(eq2 >= 5.0 * volume, "Eq. 2 keeps {eq2}, volume {volume}");
}

#[test]
fn more_clusters_per_node_train_on_less_data() {
    // Data fraction 0.300 / 0.222 / 0.150 / 0.102 / 0.067 at K = 1 / 3 /
    // 5 / 8 / 13, and loss 0.030 at K = 1 against 0.0033 at K = 13.
    let fractions: Vec<f64> = ["1", "3", "5", "8", "13"]
        .iter()
        .map(|k| row("k", "k", k).data_fraction.expect("fraction"))
        .collect();
    assert!(fractions.windows(2).all(|w| w[1] < w[0]), "{fractions:?}");
    assert!(loss("k", "k", "13") * 5.0 < loss("k", "k", "1"));
}

#[test]
fn raising_epsilon_or_psi_trades_failures_for_data() {
    // ε 0.01 → 0.4: fraction 0.254 → 0, failures 1 → 20 of 20.
    let eps: Vec<&AblationRow> = sweep("epsilon").collect();
    assert!(eps
        .windows(2)
        .all(|w| w[1].data_fraction <= w[0].data_fraction && w[1].failed >= w[0].failed));
    // ψ 0.05 → 1: failures 1 → 20 of 20.
    let psi: Vec<&AblationRow> = sweep("psi").collect();
    assert!(psi.windows(2).all(|w| w[1].failed >= w[0].failed));
    assert_eq!(row("thresholds", "epsilon", "0.4").failed, Some(20));
    assert_eq!(row("thresholds", "psi", "1").failed, Some(20));
}

#[test]
fn weighted_averaging_beats_both_other_aggregation_rules() {
    // 0.0088 against averaging 0.0317 and FedAvg weights 0.0298: over 3x.
    let weighted = loss("agg", "rule", "weighted");
    assert!(weighted * 3.0 < loss("agg", "rule", "averaging"));
    assert!(weighted * 3.0 < loss("agg", "rule", "fedavg-weights"));
}

#[test]
fn an_incompatible_continuation_forgets_the_leader_region() {
    // 0.000091 → 0.002827 (31x); the compatible node leaves 0.000091.
    let leader = loss("forgetting", "stage", "leader");
    let compatible = loss("forgetting", "stage", "compatible");
    assert!(compatible <= leader * 1.1);
    let multiple = row("forgetting", "stage", "incompatible")
        .count
        .expect("loss multiple");
    assert!(multiple >= 10.0, "only {multiple}x");
}

#[test]
fn private_summaries_cost_no_loss_down_to_a_budget_of_one_tenth() {
    // Exact 0.0088; ε = 10 / 1 / 0.3 / 0.1 give 0.0088 / 0.0033 /
    // 0.0009 / 0.0021. ε = 0.03 is the first to cost loss (0.0265).
    let exact = loss("privacy", "dp_epsilon", "inf");
    for eps in ["10", "1", "0.3", "0.1"] {
        let private = loss("privacy", "dp_epsilon", eps);
        assert!(private <= exact, "ε = {eps}: {private} vs exact {exact}");
    }
    assert!(loss("privacy", "dp_epsilon", "0.03") > exact);
}

#[test]
fn stage_orders_stay_within_ten_percent() {
    // 0.0591 vs 0.0566 at 10 epochs, 0.0512 vs 0.0513 at 40.
    for epochs in ["10", "40"] {
        let seq = loss(
            "stage_order",
            "order@epochs",
            &format!("sequential@{epochs}"),
        );
        let int = loss(
            "stage_order",
            "order@epochs",
            &format!("interleaved@{epochs}"),
        );
        assert!(
            (seq - int).abs() <= 0.1 * seq.min(int),
            "{epochs} epochs: {seq} vs {int}"
        );
    }
}
