//! The trace event-log schema and its validator.
//!
//! Every line of a trace is one JSON object. Required shape:
//!
//! * `seq` — u64, strictly `0, 1, 2, …` in line order;
//! * `kind` — one of [`EVENT_KINDS`];
//! * `stage` — non-empty string naming the emitting stage;
//! * the first line is the `run_start` event and carries `seed` (u64);
//! * `span_start`/`span_end`/`point`/`quarantine` carry `span`, 16
//!   lowercase hex chars; `span_end`, `point` and `quarantine` must
//!   reference a span some earlier `span_start` opened;
//! * `quarantine` additionally carries `q_stage` and `label` (strings,
//!   the `RunHealth` vocabulary) and `count` (u64 ≥ 1).
//!
//! Arbitrary extra fields are allowed — stages attach width-invariant
//! payloads (unit counts, seeds) — as long as they do not collide with
//! the reserved keys above. [`validate_lines`] is what the CI trace
//! smoke step and the determinism golden test run against emitted logs.

use crate::trace::EVENT_KINDS;
use serde_json::Value;
use std::collections::BTreeSet;

/// What a validated trace contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (lines).
    pub events: usize,
    /// Spans opened (`span_start` events).
    pub spans: usize,
    /// Distinct stage names seen.
    pub stages: BTreeSet<String>,
    /// Total units quarantined across `quarantine` events.
    pub quarantined: u64,
}

fn field<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("line {line}: missing required field '{key}'"))
}

fn u64_field(v: &Value, key: &str, line: usize) -> Result<u64, String> {
    field(v, key, line)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a u64"))
}

fn str_field<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    field(v, key, line)?
        .as_str()
        .ok_or_else(|| format!("line {line}: field '{key}' is not a string"))
}

fn is_span_hex(text: &str) -> bool {
    text.len() == 16
        && text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Validate a trace event log (one JSON object per line) against the
/// schema, returning a summary of what it contained.
pub fn validate_lines(lines: &[String]) -> Result<TraceSummary, String> {
    if lines.is_empty() {
        return Err("empty trace: expected at least a run_start event".into());
    }
    let mut opened: BTreeSet<String> = BTreeSet::new();
    let mut summary = TraceSummary {
        events: lines.len(),
        spans: 0,
        stages: BTreeSet::new(),
        quarantined: 0,
    };
    for (i, line) in lines.iter().enumerate() {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {i}: not valid JSON ({e:?})"))?;
        if v.as_object().is_none() {
            return Err(format!("line {i}: event is not a JSON object"));
        }
        let seq = u64_field(&v, "seq", i)?;
        if seq != i as u64 {
            return Err(format!("line {i}: seq {seq} out of order (want {i})"));
        }
        let kind = str_field(&v, "kind", i)?;
        if !EVENT_KINDS.contains(&kind) {
            return Err(format!("line {i}: unknown event kind '{kind}'"));
        }
        let stage = str_field(&v, "stage", i)?;
        if stage.is_empty() {
            return Err(format!("line {i}: empty stage name"));
        }
        summary.stages.insert(stage.to_owned());

        if i == 0 {
            if kind != "run_start" {
                return Err(format!(
                    "line 0: first event must be run_start, got '{kind}'"
                ));
            }
            u64_field(&v, "seed", i)?;
        } else if kind == "run_start" {
            return Err(format!("line {i}: run_start after the first line"));
        }

        match kind {
            "run_start" => {}
            _ => {
                let span = str_field(&v, "span", i)?;
                if !is_span_hex(span) {
                    return Err(format!(
                        "line {i}: span '{span}' is not 16 lowercase hex chars"
                    ));
                }
                match kind {
                    "span_start" => {
                        summary.spans += 1;
                        opened.insert(span.to_owned());
                    }
                    _ if !opened.contains(span) => {
                        return Err(format!(
                            "line {i}: {kind} references unopened span {span}"
                        ));
                    }
                    "quarantine" => {
                        str_field(&v, "q_stage", i)?;
                        str_field(&v, "label", i)?;
                        let count = u64_field(&v, "count", i)?;
                        if count == 0 {
                            return Err(format!("line {i}: quarantine count is zero"));
                        }
                        summary.quarantined += count;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        s.to_owned()
    }

    fn valid_trace() -> Vec<String> {
        vec![
            line(r#"{"kind":"run_start","seed":2014,"seq":0,"stage":"run"}"#),
            line(r#"{"kind":"span_start","seq":1,"span":"00000000000000ab","stage":"s"}"#),
            line(r#"{"kind":"point","seq":2,"shard":0,"span":"00000000000000ab","stage":"s"}"#),
            line(
                r#"{"count":2,"kind":"quarantine","label":"bad-json","q_stage":"wire","seq":3,"span":"00000000000000ab","stage":"s"}"#,
            ),
            line(r#"{"kind":"span_end","seq":4,"span":"00000000000000ab","stage":"s"}"#),
        ]
    }

    #[test]
    fn valid_trace_summarises() {
        let summary = validate_lines(&valid_trace()).expect("valid");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.quarantined, 2);
        assert!(summary.stages.contains("s"));
    }

    #[test]
    fn rejects_structural_violations() {
        assert!(validate_lines(&[]).is_err(), "empty");
        // Not JSON.
        assert!(validate_lines(&[line("nope")]).is_err());
        // First event not run_start.
        let mut t = valid_trace();
        t.remove(0);
        let t: Vec<String> = t
            .iter()
            .enumerate()
            .map(|(i, l)| l.replace(&format!("\"seq\":{}", i + 1), &format!("\"seq\":{i}")))
            .collect();
        assert!(validate_lines(&t).unwrap_err().contains("run_start"));
        // Out-of-order seq.
        let mut t = valid_trace();
        t[2] = t[2].replace("\"seq\":2", "\"seq\":7");
        assert!(validate_lines(&t).unwrap_err().contains("out of order"));
        // Unknown kind.
        let mut t = valid_trace();
        t[2] = t[2].replace("\"kind\":\"point\"", "\"kind\":\"warp\"");
        assert!(validate_lines(&t).unwrap_err().contains("unknown event kind"));
        // Bad span hex.
        let mut t = valid_trace();
        t[1] = t[1].replace("00000000000000ab", "XYZ");
        assert!(validate_lines(&t).unwrap_err().contains("hex"));
        // Reference to a span never opened.
        let mut t = valid_trace();
        t[4] = t[4].replace("00000000000000ab", "00000000000000cd");
        assert!(validate_lines(&t).unwrap_err().contains("unopened"));
        // Quarantine without a label.
        let mut t = valid_trace();
        t[3] = t[3].replace("\"label\":\"bad-json\",", "");
        assert!(validate_lines(&t).unwrap_err().contains("label"));
    }
}
