//! One `POST /query`, from a parsed query to the reply the connection
//! thread writes: a federation round through the server's one policy,
//! encoded as JSON.
//!
//! The connection thread runs the query itself, so at most one query
//! per worker is in flight and the worker count is the admission bound.

use qens::fedlearn;
use qens::geom::Query;

use super::ServerState;

pub(super) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs `query` through the server's policy (and its selection memo) and
/// returns the status line and JSON body of the answer: `200` with the
/// selection, the federated loss and the round's accounting, or `422`
/// naming why the round failed.
///
/// `"batch"` is always 1: each query is its own round. The field stays
/// because the repo benchmark's reply parser requires it.
pub(super) fn answer(state: &ServerState, query: &Query) -> (&'static str, String) {
    let network = state.fed.network();
    match fedlearn::run_query(network, query, state.policy.as_ref(), state.fed.config()) {
        Ok(out) => {
            let loss = out
                .query_loss(network, query)
                .map_or("null".to_string(), |l| format!("{l}"));
            let participants: Vec<String> = out
                .selection
                .participants
                .iter()
                .map(|p| format!("{{\"node\":{},\"ranking\":{}}}", p.node.0, p.ranking))
                .collect();
            (
                "200 OK",
                format!(
                    "{{\"query_id\":{},\"loss\":{loss},\"participants\":[{}],\"standby\":{},\"samples_used\":{},\"sim_seconds\":{},\"batch\":1}}\n",
                    query.id(),
                    participants.join(","),
                    out.selection.standby.len(),
                    out.accounting.samples_used,
                    out.accounting.sim_seconds,
                ),
            )
        }
        Err(e) => (
            "422 Unprocessable Entity",
            format!("{{\"error\":\"{}\"}}\n", json_escape(&e.to_string())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
