//! Exporters for the engine's observability state: Chrome `trace_event`
//! JSON for the span trace, a plain JSON dump of the sampled time series,
//! and a schema validator for exported traces.
//!
//! The exporters sit here rather than in `mrp-engine` because this crate is
//! the one that already owns a JSON value type ([`crate::json::Json`]) and
//! depends on the engine. Everything renders from the public accessors on
//! [`ObsState`](mrp_engine::ObsState), so harnesses can also roll their own
//! formats.
//!
//! Chrome traces load in `chrome://tracing` or <https://ui.perfetto.dev>:
//! each span family becomes a category (`attempt`, `suspend`,
//! `shuffle_stall`, `partition`), each node a thread lane, and virtual
//! simulation time maps directly onto the trace's microsecond timestamps.

use crate::json::Json;
use mrp_engine::Span;
use mrp_sim::{SimTime, TimeSeriesSampler};
use std::collections::HashMap;

/// Renders spans as a Chrome `trace_event` JSON array of `B`/`E` pairs.
///
/// Spans still open when the run ended are clamped to `finished_at` (never
/// before their begin), so the output always balances. Timestamps are
/// virtual-time microseconds; the node id becomes the `tid` lane and the
/// span family the `cat` category.
///
/// ```
/// use mrp_engine::{Cluster, ClusterConfig, FifoScheduler, JobSpec, ObsConfig};
/// use mrp_preempt::obs_export::{chrome_trace_json, validate_chrome_trace};
/// use mrp_sim::{SimTime, MIB};
///
/// let cfg = ClusterConfig::paper_single_node().with_obs(ObsConfig::full());
/// let mut cluster = Cluster::new(cfg, Box::new(FifoScheduler::new()));
/// cluster.create_input_file("/in", 256 * MIB).unwrap();
/// cluster.submit_job(JobSpec::map_only("tl", "/in"));
/// cluster.run(SimTime::from_secs(3_600));
/// let obs = cluster.observability().unwrap();
/// let trace = chrome_trace_json(obs.spans(), cluster.now()).pretty();
/// validate_chrome_trace(&trace).unwrap();
/// ```
pub fn chrome_trace_json(spans: &[Span], finished_at: SimTime) -> Json {
    let mut events = Vec::with_capacity(spans.len() * 2);
    for span in spans {
        let end = span.end.unwrap_or(finished_at).max(span.begin);
        for (ph, ts) in [("B", span.begin), ("E", end)] {
            events.push(Json::obj(vec![
                ("name", Json::Str(span.name())),
                ("cat", Json::Str(span.kind.category().to_string())),
                ("ph", Json::Str(ph.to_string())),
                ("ts", Json::Num(ts.as_micros() as f64)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(span.node.0 as f64)),
            ]));
        }
    }
    // Chrome requires begin/end events in timestamp order per thread;
    // sorting the whole array (stably, so B precedes its zero-length E)
    // satisfies that and keeps the output deterministic.
    events.sort_by_key(|e| e.get("ts").and_then(Json::as_u64).unwrap_or(0));
    Json::Arr(events)
}

/// Renders the sampled time series as JSON:
/// `{"interval_us": .., "columns": [..], "rows": [[at_us, v0, v1, ..], ..]}`.
pub fn series_json(sampler: &TimeSeriesSampler) -> Json {
    let rows = sampler
        .rows()
        .iter()
        .map(|row| {
            let mut cells = Vec::with_capacity(row.values.len() + 1);
            cells.push(Json::Num(row.at.as_micros() as f64));
            cells.extend(row.values.iter().map(|v| Json::Num(*v as f64)));
            Json::Arr(cells)
        })
        .collect();
    Json::obj(vec![
        (
            "interval_us",
            Json::Num(sampler.interval().as_micros() as f64),
        ),
        (
            "columns",
            Json::Arr(
                sampler
                    .columns()
                    .iter()
                    .map(|c| Json::Str(c.clone()))
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Validates a Chrome `trace_event` export: the text must parse as a JSON
/// array of `B`/`E` events carrying `name`/`cat`/`ts`/`pid`/`tid`, every
/// `E` must close a matching open `B` at a timestamp no earlier than its
/// begin, and nothing may remain open at the end.
///
/// This is the schema check CI runs against a `swim_cluster` export; it is
/// deliberately stricter than what the Chrome viewer tolerates.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let json = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Json::Arr(events) = json else {
        return Err("trace must be a JSON array of events".to_string());
    };
    // LIFO per (lane, category, name): nested same-name spans would close in
    // reverse begin order, which is also what the trace viewer assumes.
    let mut open: HashMap<(u64, String, String), Vec<u64>> = HashMap::new();
    let mut last_ts = 0u64;
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("event {i}: missing field `{key}`"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `ph` must be a string"))?;
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `name` must be a string"))?;
        let cat = field("cat")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `cat` must be a string"))?;
        let ts = field("ts")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: `ts` must be a non-negative integer"))?;
        field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: `pid` must be a non-negative integer"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: `tid` must be a non-negative integer"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamps must be non-decreasing ({ts} after {last_ts})"
            ));
        }
        last_ts = ts;
        let key = (tid, cat.to_string(), name.to_string());
        match ph {
            "B" => open.entry(key).or_default().push(ts),
            "E" => {
                let begun = open
                    .get_mut(&key)
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("event {i}: E `{name}` without a matching B"))?;
                if ts < begun {
                    return Err(format!(
                        "event {i}: span `{name}` ends at {ts}, before its begin {begun}"
                    ));
                }
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    let unclosed: usize = open.values().map(Vec::len).sum();
    if unclosed > 0 {
        return Err(format!("{unclosed} span(s) left open at end of trace"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: &str, name: &str, ts: u64, tid: u64) -> Json {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str("attempt".to_string())),
            ("ph", Json::Str(ph.to_string())),
            ("ts", Json::Num(ts as f64)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
        ])
    }

    #[test]
    fn validator_accepts_balanced_trace() {
        let trace = Json::Arr(vec![
            ev("B", "a", 0, 1),
            ev("B", "b", 5, 2),
            ev("E", "a", 10, 1),
            ev("E", "b", 10, 2),
        ]);
        validate_chrome_trace(&trace.pretty()).unwrap();
    }

    #[test]
    fn validator_rejects_unbalanced_and_unordered_traces() {
        let open = Json::Arr(vec![ev("B", "a", 0, 1)]);
        assert!(validate_chrome_trace(&open.pretty())
            .unwrap_err()
            .contains("left open"));
        let stray = Json::Arr(vec![ev("E", "a", 4, 1)]);
        assert!(validate_chrome_trace(&stray.pretty())
            .unwrap_err()
            .contains("without a matching B"));
        let unordered = Json::Arr(vec![
            ev("B", "a", 9, 1),
            ev("E", "a", 9, 1),
            ev("B", "b", 3, 1),
        ]);
        assert!(validate_chrome_trace(&unordered.pretty())
            .unwrap_err()
            .contains("non-decreasing"));
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn series_renders() {
        use mrp_sim::{SimDuration, SimTime, TimeSeriesSampler};
        let mut sampler = TimeSeriesSampler::new(
            SimDuration::from_secs(1),
            vec!["x".to_string(), "y".to_string()],
        );
        sampler.record(SimTime::from_secs(1), vec![3, 4]);
        let json = series_json(&sampler);
        assert_eq!(json.get("columns").unwrap().as_arr().unwrap().len(), 2);
        let rows = json.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_arr().unwrap()[0].as_u64(), Some(1_000_000));
    }
}
