//! The correctness gate. Every fetched result must name the spec hash
//! it was submitted under and account for every trial; one spec per
//! workload must also match an in-process `od_runtime::run_job` bit for
//! bit. A failure counts against the run and fails it.

use od_runtime::json::{parse, Json};
use od_runtime::{run_job, JobSpec, RunOptions};

/// Checks one `GET /results/<hash>` body against the submitted spec and
/// returns its `summary` document.
pub fn check_result(body: &[u8], spec_hash: &str, trials: u64) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "result is not UTF-8".to_string())?;
    let doc = parse(text).map_err(|e| format!("result is not JSON: {e}"))?;
    let found = doc.get("spec_hash").and_then(Json::as_str).unwrap_or("");
    if found != spec_hash {
        return Err(format!(
            "result carries spec hash {found:?}, submitted {spec_hash}"
        ));
    }
    let summary = doc
        .get("summary")
        .ok_or_else(|| format!("result for {spec_hash} has no summary"))?;
    let count = |key: &str| summary.get(key).and_then(Json::as_u64);
    let (Some(t), Some(c), Some(s), Some(k)) = (
        count("trials"),
        count("consensus"),
        count("stopped"),
        count("capped"),
    ) else {
        return Err(format!("result for {spec_hash} lacks trial accounting"));
    };
    if t != trials || c + s + k != t {
        return Err(format!(
            "result for {spec_hash}: trials {t} (submitted {trials}), \
             consensus {c} + stopped {s} + capped {k}"
        ));
    }
    Ok(summary.clone())
}

/// Runs `spec` in-process and compares its summary with `summary`, the
/// one the service returned.
pub fn check_reference(spec: &JobSpec, summary: &Json) -> Result<(), String> {
    let report = run_job(spec, &RunOptions::default()).map_err(|e| e.to_string())?;
    let expected = report.summary.to_json().to_string_compact();
    let served = summary.to_string_compact();
    if expected != served {
        return Err(format!(
            "served summary of {} differs from the in-process run:\n  served   {served}\n  expected {expected}",
            spec.content_hash()
        ));
    }
    Ok(())
}

/// A copy of a valid result with `capped` raised by one and nothing
/// else changed: the trial accounting no longer balances, so the gate
/// must reject it.
pub fn tampered(body: &[u8]) -> Option<Vec<u8>> {
    let mut doc = parse(std::str::from_utf8(body).ok()?).ok()?;
    let Json::Obj(fields) = &mut doc else {
        return None;
    };
    let Some(Json::Obj(summary)) = fields.get_mut("summary") else {
        return None;
    };
    let capped = summary.get("capped").and_then(Json::as_u64)?;
    summary.insert("capped".to_string(), Json::Int(capped as i64 + 1));
    Some(doc.to_string_pretty().into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> JobSpec {
        JobSpec::from_json_text(
            r#"{"name":"gate","protocol":{"name":"three-majority","params":{}},
                "initial":{"kind":"balanced","n":500,"k":3},"trials":3,"master_seed":9,
                "max_rounds":100000,"shard_size":2,"mode":"full","stop":{"kind":"consensus"}}"#,
        )
        .unwrap()
    }

    fn served(spec: &JobSpec) -> Vec<u8> {
        let report = run_job(spec, &RunOptions::default()).unwrap();
        let mut doc = Json::object();
        doc.insert("spec_hash", Json::Str(spec.content_hash()));
        doc.insert("summary", report.summary.to_json());
        doc.to_string_pretty().into_bytes()
    }

    #[test]
    fn gate_accepts_a_faithful_result() {
        let spec = small_spec();
        let body = served(&spec);
        let summary = check_result(&body, &spec.content_hash(), spec.trials).unwrap();
        check_reference(&spec, &summary).unwrap();
    }

    #[test]
    fn gate_trips_on_a_tampered_result() {
        let spec = small_spec();
        let body = tampered(&served(&spec)).unwrap();
        assert!(check_result(&body, &spec.content_hash(), spec.trials).is_err());
    }

    #[test]
    fn gate_trips_on_a_foreign_hash_or_a_different_summary() {
        let spec = small_spec();
        let body = served(&spec);
        assert!(check_result(&body, "0000", spec.trials).is_err());
        let other = JobSpec {
            master_seed: 10,
            ..spec.clone()
        };
        let summary = check_result(&body, &spec.content_hash(), spec.trials).unwrap();
        assert!(check_reference(&other, &summary).is_err());
    }
}
