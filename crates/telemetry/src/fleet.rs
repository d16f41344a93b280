//! Per-node fleet scorecards and selection-skew analytics.
//!
//! The paper's contribution is *which* edge nodes a query selects, so
//! the reproduction needs a per-node story to go with the per-query
//! one: how often each node is selected, participates to completion,
//! drops out, straggles, retries, gets promoted from standby or sits in
//! a cohort that loses quorum — plus how much it trained and
//! transferred over its lifetime. This module keeps one [`Scorecard`]
//! per node in each [`crate::Telemetry`] handle, folded from the
//! [`crate::Event`]s the selection and federation round loops emit, and
//! derives fleet-level **skew analytics** on demand: the Gini
//! coefficient and normalized entropy of the selection-count
//! distribution, the top-K hot nodes and the never-selected count.
//!
//! # Determinism
//!
//! Every event is emitted from leader-serial code, counters are integers
//! and the one floating accumulation (`train_sim_seconds`) sums
//! simulated seconds in the serial transfer-pass order — so the
//! registry contents, and the fixed-key-order [`to_json`] export, are
//! bit-identical at any `QENS_THREADS` (the `faults::FaultTrace`
//! contract). The only nondeterministic field, `train_wall_nanos`, is
//! deliberately **excluded** from [`to_json`]; live endpoints read it
//! straight off the snapshot instead.
//!
//! # Enablement and cost
//!
//! Off in a fresh handle; enable with [`Fleet::set_enabled`] or
//! `FederationBuilder::fleet(true)`. With the layer off, [`crate::emit`]
//! skips this view after one relaxed atomic load, so such runs are
//! bitwise identical to a build without this module. An update on the
//! enabled path is one mutex lock plus a `BTreeMap` probe; the repo
//! benchmark's `telemetry.overhead_share` counts it with every other
//! telemetry cost of a served query.
//!
//! # Cardinality policy
//!
//! A 200-node fleet must not become 200×N Prometheus series.
//! [`to_prometheus`] exports per-node series only for the top
//! [`PROM_TOP_K`] nodes by selection count, folds every other node into
//! a single `node="other"` aggregate per family, and carries the
//! fleet-wide skew stats as plain gauges — bounded cardinality no
//! matter the fleet size.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::journal::Journal;
use crate::json::{write_f64, write_key, write_u64};
use crate::Event;

/// Per-node Prometheus series are emitted for this many hot nodes; the
/// rest fold into the `node="other"` aggregate.
pub const PROM_TOP_K: usize = 8;

/// One node's lifetime counters. All integer fields saturate only at
/// `u64::MAX`; `train_sim_seconds` accumulates simulated seconds in
/// leader-serial order (deterministic), `train_wall_nanos` accumulates
/// measured wall time (live-only — never exported deterministically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scorecard {
    /// Node index within its network.
    pub node: u64,
    /// Queries whose initial participant list included this node.
    pub selected: u64,
    /// Queries this node survived to completion (final cohort).
    pub participated: u64,
    /// Times the node left a cohort (dropout, crash, transfer failure
    /// or deadline miss).
    pub dropped: u64,
    /// Straggler slowdowns applied to the node's training.
    pub straggled: u64,
    /// Lost transfer attempts that were retried.
    pub retried: u64,
    /// Promotions from the ranked standby tail into a live cohort.
    pub promoted: u64,
    /// Times the node sat in a cohort whose round lost quorum.
    pub quorum_lost: u64,
    /// Rounds the node actually trained in.
    pub rounds_trained: u64,
    /// Model bytes charged to the node's uplink.
    pub bytes_transferred: u64,
    /// Cumulative simulated training+transfer seconds (logical time;
    /// deterministic).
    pub train_sim_seconds: f64,
    /// Cumulative measured training wall nanoseconds (live-only).
    pub train_wall_nanos: u64,
    /// Id of the last query that selected this node (`u64::MAX` =
    /// never selected).
    pub last_selected_query: u64,
    /// The node's summary epoch at its last selection.
    pub last_summary_epoch: u64,
}

impl Scorecard {
    fn new(node: u64) -> Self {
        Self {
            node,
            selected: 0,
            participated: 0,
            dropped: 0,
            straggled: 0,
            retried: 0,
            promoted: 0,
            quorum_lost: 0,
            rounds_trained: 0,
            bytes_transferred: 0,
            train_sim_seconds: 0.0,
            train_wall_nanos: 0,
            last_selected_query: u64::MAX,
            last_summary_epoch: 0,
        }
    }

    /// The integer lifetime counters, in export order.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("selected", self.selected),
            ("participated", self.participated),
            ("dropped", self.dropped),
            ("straggled", self.straggled),
            ("retried", self.retried),
            ("promoted", self.promoted),
            ("quorum_lost", self.quorum_lost),
            ("rounds_trained", self.rounds_trained),
            ("bytes_transferred", self.bytes_transferred),
        ]
    }

    /// The deterministic JSON object for this scorecard: fixed key
    /// order, `train_wall_nanos` excluded (it is the one
    /// scheduling-dependent field).
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        write_key(out, "node");
        write_u64(out, self.node);
        for (key, value) in self.counters() {
            out.push(',');
            write_key(out, key);
            write_u64(out, value);
        }
        out.push(',');
        write_key(out, "train_sim_seconds");
        write_f64(out, self.train_sim_seconds);
        out.push(',');
        write_key(out, "last_selected_query");
        if self.last_selected_query == u64::MAX {
            out.push_str("null");
        } else {
            write_u64(out, self.last_selected_query);
        }
        out.push(',');
        write_key(out, "last_summary_epoch");
        write_u64(out, self.last_summary_epoch);
        out.push('}');
    }
}

#[derive(Debug, Default)]
struct FleetState {
    /// Node index → scorecard; `BTreeMap` so every snapshot and export
    /// walks nodes in index order.
    cards: BTreeMap<u64, Scorecard>,
    /// Largest network size observed at a selection site (for the
    /// never-selected count; untracked ids below it are zero cards).
    fleet_size: u64,
    /// Queries observed end-to-end (the `QueryObserver` hook).
    queries: u64,
}

impl FleetState {
    /// `node`'s card, created on first touch.
    fn card(&mut self, node: u64) -> &mut Scorecard {
        self.cards
            .entry(node)
            .or_insert_with(|| Scorecard::new(node))
    }
}

/// One handle's scorecards, journal and fleet switch (it gates both).
#[derive(Debug, Default)]
pub struct Fleet {
    enabled: AtomicBool,
    state: Mutex<FleetState>,
    pub(crate) journal: Journal,
}

impl Fleet {
    /// Whether scorecard/journal recording is live. One relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns scorecard and journal recording on or off. Recorded cards
    /// and entries stay.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn state(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The scorecard view of the event stream: applies one [`Event`]
    /// ([`crate::emit`] calls it while recording is live).
    pub(crate) fn fold(&self, event: &Event) {
        let mut s = self.state();
        match *event {
            Event::Selected(query, node, _, summary_epoch) => {
                let c = s.card(node);
                c.selected += 1;
                c.last_selected_query = query;
                c.last_summary_epoch = summary_epoch;
            }
            Event::Dropout(_, node, _)
            | Event::Crash(_, node, _)
            | Event::TransferFailed(_, node, ..)
            | Event::DeadlineMiss(_, node, ..) => s.card(node).dropped += 1,
            Event::Straggled(node, ..) => s.card(node).straggled += 1,
            Event::LinkLoss(node, ..) => s.card(node).retried += 1,
            Event::Promoted(_, node, _) => s.card(node).promoted += 1,
            Event::QuorumLost(.., ref cohort) => {
                for &node in cohort {
                    s.card(node).quorum_lost += 1;
                }
            }
            Event::Charged(node, sim_seconds, wall_nanos, bytes) => {
                let c = s.card(node);
                c.rounds_trained += 1;
                c.train_sim_seconds += sim_seconds;
                c.train_wall_nanos = c.train_wall_nanos.saturating_add(wall_nanos);
                c.bytes_transferred += bytes;
            }
            Event::Participated(node) => s.card(node).participated += 1,
            Event::QueryObserved(_) => s.queries += 1,
            Event::FleetObserved(nodes) => s.fleet_size = s.fleet_size.max(nodes),
            Event::RetrySuccess(..) | Event::CacheInvalidated(..) => {}
        }
    }

    /// A copy of every tracked scorecard, in node-index order.
    pub fn snapshot(&self) -> Vec<Scorecard> {
        self.state().cards.values().copied().collect()
    }

    /// The scorecard of one node: its tracked card, a zero card when the
    /// node is known to exist but was never touched, `None` when the
    /// index is outside every observed network.
    pub fn scorecard(&self, node: u64) -> Option<Scorecard> {
        let s = self.state();
        if let Some(c) = s.cards.get(&node) {
            return Some(*c);
        }
        (node < s.fleet_size).then(|| Scorecard::new(node))
    }

    /// The largest network size observed so far.
    pub fn fleet_size(&self) -> u64 {
        self.state().fleet_size
    }

    /// Queries observed end-to-end.
    pub fn queries(&self) -> u64 {
        self.state().queries
    }

    /// The cards, the fleet size and the query count, read at once.
    fn read(&self) -> (Vec<Scorecard>, u64, u64) {
        let s = self.state();
        (s.cards.values().copied().collect(), s.fleet_size, s.queries)
    }
}

/// Fleet-level selection-skew statistics, computed deterministically
/// from a scorecard snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewStats {
    /// Selections summed over the fleet.
    pub total_selections: u64,
    /// Gini coefficient of the per-node selection counts over the whole
    /// fleet (never-selected nodes count as zeros). 0 = perfectly even,
    /// → 1 = one node takes everything.
    pub gini: f64,
    /// Shannon entropy of the selection distribution normalized by
    /// `ln(fleet_size)`: 1 = uniform, → 0 = concentrated.
    pub entropy: f64,
    /// The `(node, selected)` pairs of the K hottest nodes, selection
    /// count descending, node index ascending on ties.
    pub top: Vec<(u64, u64)>,
    /// Nodes in the fleet that no query ever selected.
    pub never_selected: u64,
}

/// Computes [`SkewStats`] over a snapshot. `fleet_size` pads the
/// distribution with zeros for never-selected nodes (it is clamped up
/// to the tracked node count, so a stale size cannot lose nodes).
///
/// Both the Gini numerator and the top-K order are integer arithmetic
/// over sorted `u64`s, and the entropy sum runs in node-index order —
/// every float here is a pure function of the counts, never of thread
/// scheduling.
pub fn skew(cards: &[Scorecard], fleet_size: u64, k: usize) -> SkewStats {
    let n = fleet_size
        .max(cards.len() as u64)
        .max(cards.iter().map(|c| c.node + 1).max().unwrap_or(0));
    let total: u64 = cards.iter().map(|c| c.selected).sum();
    let selected_nodes = cards.iter().filter(|c| c.selected > 0).count() as u64;
    let never_selected = n - selected_nodes;

    // Gini over the full n-node distribution (zeros included), via the
    // sorted formula G = 2·Σ i·x_(i) / (n·S) − (n+1)/n with 1-based
    // ranks — the Σ stays in u128, so the only float op is one division.
    let gini = if total == 0 || n <= 1 {
        0.0
    } else {
        let mut counts: Vec<u64> = cards.iter().map(|c| c.selected).collect();
        counts.resize(n as usize, 0);
        counts.sort_unstable();
        let weighted: u128 = counts
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u128 + 1) * x as u128)
            .sum();
        (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
    };

    // Normalized entropy over the same distribution; zero-count nodes
    // contribute nothing, and the sum runs in node-index order.
    let entropy = if total == 0 {
        0.0
    } else if n <= 1 {
        1.0
    } else {
        let mut h = 0.0;
        for c in cards {
            if c.selected > 0 {
                let p = c.selected as f64 / total as f64;
                h -= p * p.ln();
            }
        }
        h / (n as f64).ln()
    };

    let mut ranked: Vec<(u64, u64)> = cards
        .iter()
        .filter(|c| c.selected > 0)
        .map(|c| (c.node, c.selected))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);

    SkewStats {
        total_selections: total,
        gini,
        entropy,
        top: ranked,
        never_selected,
    }
}

impl SkewStats {
    /// The fixed-key-order JSON object for these stats.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        write_key(out, "total_selections");
        write_u64(out, self.total_selections);
        out.push(',');
        write_key(out, "gini");
        write_f64(out, self.gini);
        out.push(',');
        write_key(out, "entropy");
        write_f64(out, self.entropy);
        out.push(',');
        write_key(out, "never_selected");
        write_u64(out, self.never_selected);
        out.push(',');
        write_key(out, "top");
        out.push('[');
        for (i, &(node, selected)) in self.top.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_key(out, "node");
            write_u64(out, node);
            out.push(',');
            write_key(out, "selected");
            write_u64(out, selected);
            out.push('}');
        }
        out.push(']');
        out.push('}');
    }
}

impl Fleet {
    /// Renders the whole fleet — size, query count, every scorecard, skew
    /// stats — as one deterministic JSON document (fixed key order, no wall
    /// time). This is the body of the `/nodes` endpoint and the per-stream
    /// section of `results/fleet.json`.
    pub fn to_json(&self) -> String {
        let (cards, fleet_size, queries) = self.read();
        let stats = skew(&cards, fleet_size, PROM_TOP_K);
        let mut out = String::with_capacity(256 + cards.len() * 192);
        out.push('{');
        write_key(&mut out, "fleet_size");
        write_u64(&mut out, fleet_size.max(cards.len() as u64));
        out.push(',');
        write_key(&mut out, "queries");
        write_u64(&mut out, queries);
        out.push(',');
        write_key(&mut out, "nodes");
        out.push('[');
        for (i, c) in cards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(&mut out);
        }
        out.push(']');
        out.push(',');
        write_key(&mut out, "skew");
        stats.write_json(&mut out);
        out.push('}');
        out
    }
}

/// A Prometheus counter family exported per node: metric name plus the
/// scorecard field it reads.
type PromFamily = (&'static str, fn(&Scorecard) -> u64);

/// The per-node counter families exported to Prometheus.
const PROM_FAMILIES: [PromFamily; 4] = [
    ("qens_node_selected_total", |c| c.selected),
    ("qens_node_participated_total", |c| c.participated),
    ("qens_node_dropped_total", |c| c.dropped),
    ("qens_node_promoted_total", |c| c.promoted),
];

impl Fleet {
    /// Appends the fleet's Prometheus series to `out`: per-node counters
    /// for the top-`top_k` nodes by selection count with every other node
    /// folded into `node="other"`, plus fleet-level skew gauges and journal
    /// counters. Appends nothing while recording is disabled, so a
    /// scrape with the layer off is byte-identical to the pre-fleet exposition.
    pub fn to_prometheus(&self, out: &mut String, top_k: usize) {
        if !self.enabled() {
            return;
        }
        let (cards, fleet_size, queries) = self.read();
        let stats = skew(&cards, fleet_size, top_k);
        let hot: Vec<u64> = stats.top.iter().map(|&(node, _)| node).collect();
        for (name, get) in PROM_FAMILIES {
            push_meta(out, name, "counter");
            for &node in &hot {
                let card = cards
                    .iter()
                    .find(|c| c.node == node)
                    .expect("hot node tracked");
                out.push_str(&format!("{name}{{node=\"n{node}\"}} {}\n", get(card)));
            }
            let other: u64 = cards
                .iter()
                .filter(|c| !hot.contains(&c.node))
                .map(get)
                .sum();
            out.push_str(&format!("{name}{{node=\"other\"}} {other}\n"));
        }
        push_meta(out, "qens_fleet_size", "gauge");
        out.push_str(&format!(
            "qens_fleet_size {}\n",
            fleet_size.max(cards.len() as u64)
        ));
        push_meta(out, "qens_fleet_queries_total", "counter");
        out.push_str(&format!("qens_fleet_queries_total {queries}\n"));
        push_meta(out, "qens_fleet_never_selected", "gauge");
        out.push_str(&format!(
            "qens_fleet_never_selected {}\n",
            stats.never_selected
        ));
        push_meta(out, "qens_fleet_selection_gini", "gauge");
        out.push_str(&format!("qens_fleet_selection_gini {}\n", stats.gini));
        push_meta(out, "qens_fleet_selection_entropy", "gauge");
        out.push_str(&format!("qens_fleet_selection_entropy {}\n", stats.entropy));
        push_meta(out, "qens_journal_events_total", "counter");
        out.push_str(&format!(
            "qens_journal_events_total {}\n",
            self.journal.events_total()
        ));
        push_meta(out, "qens_journal_overwritten_total", "counter");
        out.push_str(&format!(
            "qens_journal_overwritten_total {}\n",
            self.journal.overwritten()
        ));
    }
}

fn push_meta(out: &mut String, name: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(crate::export::help_text(name));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// A fresh handle with the fleet layer on.
    fn on() -> Telemetry {
        let tele = Telemetry::new();
        tele.fleet().set_enabled(true);
        tele
    }

    fn emit(tele: &Telemetry, event: &Event) {
        tele.enter(|| crate::emit(event));
    }

    fn select(tele: &Telemetry, query: u64, node: u64, summary_epoch: u64) {
        emit(tele, &Event::Selected(query, node, 0, summary_epoch));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let tele = on();
        tele.fleet().set_enabled(false);
        for event in [
            Event::Selected(1, 0, 0, 3),
            Event::Charged(0, 1.5, 10, 64),
            Event::FleetObserved(5),
            Event::QueryObserved(1),
        ] {
            emit(&tele, &event);
        }
        assert!(tele.fleet().snapshot().is_empty());
        assert_eq!(tele.fleet().fleet_size(), 0);
        assert_eq!(tele.fleet().queries(), 0);
    }

    #[test]
    fn scorecards_accumulate_per_node() {
        let tele = on();
        for event in [
            Event::FleetObserved(4),
            Event::Selected(7, 1, 0, 2),
            Event::Selected(8, 1, 0, 2),
            Event::Selected(7, 2, 0, 5),
            Event::Charged(1, 0.5, 100, 4096),
            Event::Charged(1, 0.25, 50, 0),
            Event::LinkLoss(1, 0, 0),
            Event::LinkLoss(1, 0, 1),
            Event::LinkLoss(1, 0, 2),
            Event::Dropout(7, 2, 0),
            Event::Straggled(2, 0, 2.0),
            Event::Promoted(7, 3, 0),
            Event::QuorumLost(8, 0, 0, 1, vec![2]),
            Event::Participated(1),
            Event::QueryObserved(7),
            Event::QueryObserved(8),
        ] {
            emit(&tele, &event);
        }

        let cards = tele.fleet().snapshot();
        assert_eq!(cards.len(), 3);
        let n1 = tele.fleet().scorecard(1).unwrap();
        assert_eq!(n1.selected, 2);
        assert_eq!(n1.last_selected_query, 8);
        assert_eq!(n1.last_summary_epoch, 2);
        assert_eq!(n1.rounds_trained, 2);
        assert!((n1.train_sim_seconds - 0.75).abs() < 1e-12);
        assert_eq!(n1.train_wall_nanos, 150);
        assert_eq!(n1.bytes_transferred, 4096);
        assert_eq!(n1.retried, 3);
        assert_eq!(n1.participated, 1);
        let n2 = tele.fleet().scorecard(2).unwrap();
        assert_eq!((n2.dropped, n2.straggled, n2.quorum_lost), (1, 1, 1));
        assert_eq!(tele.fleet().scorecard(3).unwrap().promoted, 1);
        // Known-but-untouched node: a zero card; unknown index: None.
        let zero = tele.fleet().scorecard(0).unwrap();
        assert_eq!(zero.selected, 0);
        assert_eq!(zero.last_selected_query, u64::MAX);
        assert!(tele.fleet().scorecard(99).is_none());
        assert_eq!(tele.fleet().queries(), 2);
    }

    #[test]
    fn skew_of_a_uniform_fleet_is_flat() {
        let tele = on();
        emit(&tele, &Event::FleetObserved(4));
        for node in 0..4u64 {
            for q in 0..5u64 {
                select(&tele, q, node, 0);
            }
        }
        let stats = skew(&tele.fleet().snapshot(), tele.fleet().fleet_size(), 3);
        assert_eq!(stats.total_selections, 20);
        assert!(stats.gini.abs() < 1e-12, "uniform gini ~0: {}", stats.gini);
        assert!(
            (stats.entropy - 1.0).abs() < 1e-12,
            "uniform entropy ~1: {}",
            stats.entropy
        );
        assert_eq!(stats.never_selected, 0);
        assert_eq!(stats.top.len(), 3);
        assert_eq!(stats.top[0], (0, 5), "ties break on node index");
    }

    #[test]
    fn skew_of_a_hotspot_fleet_is_concentrated() {
        let tele = on();
        emit(&tele, &Event::FleetObserved(10));
        for q in 0..30u64 {
            select(&tele, q, 4, 0);
        }
        let stats = skew(&tele.fleet().snapshot(), tele.fleet().fleet_size(), 3);
        assert_eq!(stats.total_selections, 30);
        assert!(stats.gini > 0.85, "one hot node: gini {}", stats.gini);
        assert!(stats.entropy.abs() < 1e-12);
        assert_eq!(stats.never_selected, 9);
        assert_eq!(stats.top, vec![(4, 30)]);
    }

    #[test]
    fn skew_of_an_idle_fleet_is_all_zeros() {
        let stats = skew(&[], 6, 3);
        assert_eq!(stats.total_selections, 0);
        assert_eq!(stats.gini, 0.0);
        assert_eq!(stats.entropy, 0.0);
        assert_eq!(stats.never_selected, 6);
        assert!(stats.top.is_empty());
    }

    #[test]
    fn fleet_json_is_byte_stable_with_fixed_keys() {
        let tele = on();
        for event in [
            Event::FleetObserved(3),
            Event::Selected(11, 0, 0, 1),
            Event::Selected(11, 2, 0, 4),
            Event::Charged(0, 1.25, 999, 0),
            Event::QueryObserved(11),
        ] {
            emit(&tele, &event);
        }
        let a = tele.fleet().to_json();
        let b = tele.fleet().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"fleet_size":3,"queries":1,"nodes":["#));
        assert!(a.contains(r#""node":0,"selected":1"#));
        assert!(a.contains(r#""train_sim_seconds":1.25"#));
        assert!(a.contains(r#""last_selected_query":11"#));
        assert!(a.contains(r#""skew":{"total_selections":2"#));
        assert!(a.contains(r#""never_selected":1"#));
        assert!(
            !a.contains("wall"),
            "wall time must not leak into the deterministic export"
        );
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn prometheus_cardinality_is_bounded_on_a_200_node_fleet() {
        let tele = on();
        emit(&tele, &Event::FleetObserved(200));
        // A skewed load: node i selected (i % 17) times.
        for node in 0..200u64 {
            for q in 0..(node % 17) {
                select(&tele, q, node, 0);
            }
        }
        let mut out = String::new();
        tele.fleet().to_prometheus(&mut out, PROM_TOP_K);
        let node_series = out
            .lines()
            .filter(|l| l.starts_with("qens_node_") && !l.starts_with('#'))
            .count();
        let bound = PROM_FAMILIES.len() * (PROM_TOP_K + 1);
        assert!(
            node_series <= bound,
            "{node_series} per-node series exceed the {bound} cardinality cap"
        );
        // The aggregate bucket keeps the totals honest: per-family sum
        // over exported series equals the fleet-wide total.
        let total_selected: u64 = tele.fleet().snapshot().iter().map(|c| c.selected).sum();
        let exported: u64 = out
            .lines()
            .filter(|l| l.starts_with("qens_node_selected_total{"))
            .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(exported, total_selected);
        assert!(out.contains("qens_node_selected_total{node=\"other\"}"));
        assert!(out.contains("qens_fleet_selection_gini "));
        assert!(out.contains("# HELP qens_node_selected_total "));
        assert!(out.contains("# TYPE qens_fleet_size gauge"));
    }

    #[test]
    fn prometheus_is_silent_while_disabled() {
        let tele = on();
        select(&tele, 1, 0, 0);
        tele.fleet().set_enabled(false);
        let mut out = String::new();
        tele.fleet().to_prometheus(&mut out, PROM_TOP_K);
        assert!(out.is_empty());
    }
}
