//! Per-query resource accounting.
//!
//! Fig. 8 (training time with/without query-driven selectivity) and
//! Fig. 9 (fraction of data each query needed) are pure accounting
//! outputs; this module is the ledger both are read from.

/// What one query cost across the whole federation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryAccounting {
    /// Query id.
    pub query_id: u64,
    /// Nodes selected for the query.
    pub nodes_selected: usize,
    /// Samples actually used for training (over all selected nodes).
    pub samples_used: usize,
    /// Total samples available across *all* nodes (the Fig. 9
    /// denominator).
    pub samples_total: usize,
    /// Sample-visits performed (samples × epochs, summed over nodes).
    pub sample_visits: usize,
    /// Simulated wall time of the training round (leader waits for the
    /// slowest participant), in seconds.
    pub sim_seconds: f64,
    /// Simulated *total* training seconds summed over participants (the
    /// single-machine / sequential view the paper's Fig. 8 plots).
    pub sim_seconds_total: f64,
    /// Measured wall-clock seconds spent in local training.
    pub wall_seconds: f64,
    /// Bytes shipped (summaries + model weights).
    pub bytes_transferred: usize,
    /// Model-transfer attempts lost on the wire and retried (each lost
    /// attempt is one retry, whether or not the transfer eventually
    /// succeeded).
    pub retries: usize,
    /// Participants that never reported in some round: transient
    /// dropouts, crashes, exhausted transfer budgets and deadline
    /// misses all count once per node-round.
    pub dropped_participants: usize,
    /// Ranked standby nodes promoted to cover failed participants.
    pub replacements: usize,
    /// Rounds a participant's (completed) work was discarded because it
    /// finished past the straggler deadline.
    pub deadline_misses: usize,
}

impl QueryAccounting {
    /// Fraction of the network's data this query trained on (Fig. 9's
    /// y-axis). Zero when the network is empty.
    pub fn data_fraction(&self) -> f64 {
        if self.samples_total == 0 {
            0.0
        } else {
            self.samples_used as f64 / self.samples_total as f64
        }
    }

    /// Routes this ledger into the global telemetry registry, so Fig. 8/9
    /// quantities are visible through the same export path as the span
    /// timers. Counter totals therefore *must* agree with the summed
    /// accounting rows — `tests/telemetry_pipeline.rs` asserts exactly
    /// that. No-op while telemetry is disabled.
    pub fn commit_telemetry(&self) {
        // One deterministic point event per committed ledger — the
        // leader commits serially, so this records on the logical clock.
        telemetry::trace::instant(
            "edgesim.accounting",
            &[
                ("nodes", self.nodes_selected as u64),
                ("samples", self.samples_used as u64),
                ("bytes", self.bytes_transferred as u64),
                ("retries", self.retries as u64),
            ],
        );
        telemetry::counter!("qens_edgesim_queries_total").incr();
        telemetry::counter!("qens_edgesim_nodes_selected_total").add(self.nodes_selected as u64);
        telemetry::counter!("qens_edgesim_samples_used_total").add(self.samples_used as u64);
        telemetry::counter!("qens_edgesim_sample_visits_total").add(self.sample_visits as u64);
        telemetry::counter!("qens_edgesim_bytes_transferred_total")
            .add(self.bytes_transferred as u64);
        // Seconds are f64; gauges accumulate them exactly (one writer at
        // a time: the leader commits once per completed query).
        telemetry::gauge!("qens_edgesim_wall_seconds").add(self.wall_seconds);
        telemetry::gauge!("qens_edgesim_sim_seconds").add(self.sim_seconds);
        // Distribution views in micro-units (histograms store u64).
        telemetry::histogram!("qens_edgesim_query_sim_micros")
            .record((self.sim_seconds * 1e6) as u64);
        telemetry::histogram!("qens_edgesim_query_wall_micros")
            .record((self.wall_seconds * 1e6) as u64);
        telemetry::histogram!("qens_edgesim_query_bytes").record(self.bytes_transferred as u64);
        // Fault/reaction counters. Recorded serially at the leader, so
        // totals are scheduling-independent like every other domain
        // counter. Guarded so fault-free runs register no fault metrics
        // at all (the registry stays byte-identical to pre-fault runs).
        if self.retries > 0 {
            telemetry::counter!("qens_fault_retries_total").add(self.retries as u64);
        }
        if self.dropped_participants > 0 {
            telemetry::counter!("qens_fault_dropped_participants_total")
                .add(self.dropped_participants as u64);
        }
        if self.replacements > 0 {
            telemetry::counter!("qens_fault_replacements_total").add(self.replacements as u64);
        }
        if self.deadline_misses > 0 {
            telemetry::counter!("qens_fault_deadline_misses_total")
                .add(self.deadline_misses as u64);
        }
    }
}

/// Aggregates accounting rows across a query stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamAccounting {
    /// Per-query rows in issue order.
    pub rows: Vec<QueryAccounting>,
}

impl StreamAccounting {
    /// Adds a row.
    pub fn push(&mut self, row: QueryAccounting) {
        self.rows.push(row);
    }

    /// Mean simulated seconds per query.
    pub fn mean_sim_seconds(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.sim_seconds).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean data fraction per query.
    pub fn mean_data_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(QueryAccounting::data_fraction)
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, used: usize, total: usize, sim: f64) -> QueryAccounting {
        QueryAccounting {
            query_id: id,
            samples_used: used,
            samples_total: total,
            sim_seconds: sim,
            ..Default::default()
        }
    }

    #[test]
    fn data_fraction_is_guarded() {
        assert_eq!(row(0, 10, 40, 0.0).data_fraction(), 0.25);
        assert_eq!(row(0, 0, 0, 0.0).data_fraction(), 0.0);
    }

    #[test]
    fn fault_fields_default_to_zero() {
        let r = QueryAccounting::default();
        assert_eq!(r.retries, 0);
        assert_eq!(r.dropped_participants, 0);
        assert_eq!(r.replacements, 0);
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    fn stream_means() {
        let mut s = StreamAccounting::default();
        assert_eq!(s.mean_sim_seconds(), 0.0);
        assert_eq!(s.mean_data_fraction(), 0.0);
        s.push(row(0, 10, 100, 2.0));
        s.push(row(1, 30, 100, 4.0));
        assert!((s.mean_sim_seconds() - 3.0).abs() < 1e-12);
        assert!((s.mean_data_fraction() - 0.2).abs() < 1e-12);
    }
}
