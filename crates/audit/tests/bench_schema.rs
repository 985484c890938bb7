//! `BENCH_replay.json` is the checked-in record backing the compiled-
//! replay speedup claims in DESIGN.md and the README. This test parses
//! it with the workspace's own JSON reader and validates the schema, so
//! a hand-edit that breaks a consumer (or a non-number in a timing
//! table) fails CI instead of silently corrupting the record.

use std::fs;
use std::path::Path;

use byc_types::json::Value;

/// Per-policy timing tables keyed by policy label; every value must be
/// a strictly positive number.
fn check_timing_table(v: &Value, path: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let Value::Object(entries) = v else {
        return vec![format!("{path}: expected an object of timings")];
    };
    if entries.is_empty() {
        errs.push(format!("{path}: timing table is empty"));
    }
    for (policy, val) in entries {
        match val.as_f64() {
            Some(ms) if ms > 0.0 => {}
            _ => errs.push(format!("{path}.{policy}: not a positive number")),
        }
    }
    errs
}

fn require_str(v: &Value, key: &str, path: &str, errs: &mut Vec<String>) {
    if v.get(key).and_then(Value::as_str).is_none() {
        errs.push(format!("{path}.{key}: missing or not a string"));
    }
}

#[test]
fn bench_replay_json_parses_and_validates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("BENCH_replay.json"))
        .expect("BENCH_replay.json at the workspace root");
    let doc = Value::parse(&text).expect("BENCH_replay.json parses as JSON");

    let mut errs: Vec<String> = Vec::new();
    require_str(&doc, "description", "<root>", &mut errs);

    // The date stamp must be YYYY-MM-DD.
    match doc.get("date").and_then(Value::as_str) {
        Some(d) => {
            let parts: Vec<&str> = d.split('-').collect();
            let shaped = parts.len() == 3
                && parts[0].len() == 4
                && parts[1].len() == 2
                && parts[2].len() == 2
                && parts.iter().all(|p| p.chars().all(|c| c.is_ascii_digit()));
            if !shaped {
                errs.push(format!("<root>.date: `{d}` is not YYYY-MM-DD"));
            }
        }
        None => errs.push("<root>.date: missing or not a string".into()),
    }

    let workload = doc.get("workload").expect("workload section");
    require_str(workload, "release", "workload", &mut errs);
    require_str(workload, "granularity", "workload", &mut errs);
    for key in ["servers", "queries", "seed"] {
        if workload.get(key).and_then(Value::as_u64).is_none() {
            errs.push(format!("workload.{key}: missing or not an integer"));
        }
    }
    for key in ["scale", "capacity_fraction"] {
        match workload.get(key).and_then(Value::as_f64) {
            Some(v) if v > 0.0 => {}
            _ => errs.push(format!("workload.{key}: missing or not positive")),
        }
    }

    let baseline = doc
        .get("baseline_replay_engine")
        .expect("baseline_replay_engine section");
    require_str(baseline, "note", "baseline_replay_engine", &mut errs);
    for table in ["inline_ms", "engine_ms"] {
        match baseline.get(table) {
            Some(t) => errs.extend(check_timing_table(t, table)),
            None => errs.push(format!("baseline_replay_engine.{table}: missing")),
        }
    }

    let compiled = doc.get("compiled_replay").expect("compiled_replay section");
    let before = compiled.get("before").expect("compiled_replay.before");
    require_str(before, "note", "compiled_replay.before", &mut errs);
    let mut policies: Option<Vec<&str>> = None;
    for table in [
        "reference_ms",
        "compiled_oneshot_ms",
        "compiled_amortized_ms",
        "amortized_speedup",
    ] {
        let Some(t) = before.get(table) else {
            errs.push(format!("compiled_replay.before.{table}: missing"));
            continue;
        };
        errs.extend(check_timing_table(t, table));
        // Every table covers the same policy set.
        if let Value::Object(entries) = t {
            let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            match &policies {
                None => policies = Some(keys),
                Some(first) => {
                    if *first != keys {
                        errs.push(format!(
                            "compiled_replay.before.{table}: policy set {keys:?} differs from {first:?}"
                        ));
                    }
                }
            }
        }
    }

    if compiled
        .get("after")
        .and_then(|a| a.get("runs"))
        .and_then(Value::as_array)
        .is_none()
    {
        errs.push("compiled_replay.after.runs: missing or not an array".into());
    }

    match compiled.get("headline") {
        Some(Value::Object(entries)) if !entries.is_empty() => {
            for (k, v) in entries {
                if v.as_str().is_none() {
                    errs.push(format!("compiled_replay.headline.{k}: not a string"));
                }
            }
        }
        _ => errs.push("compiled_replay.headline: missing or empty".into()),
    }

    let hot = doc.get("policy_hot_path").expect("policy_hot_path section");
    require_str(hot, "note", "policy_hot_path", &mut errs);
    require_str(hot, "date", "policy_hot_path", &mut errs);
    // The 15% rows cover the full 13-policy roster.
    match hot.get("cache15_ms") {
        Some(t) => {
            errs.extend(check_timing_table(t, "policy_hot_path.cache15_ms"));
            if let Value::Object(entries) = t {
                if entries.len() != 13 {
                    errs.push(format!(
                        "policy_hot_path.cache15_ms: {} policies, expected the 13-policy roster",
                        entries.len()
                    ));
                }
            }
        }
        None => errs.push("policy_hot_path.cache15_ms: missing".into()),
    }
    // Rate-Profile's thin-cache rows are recorded at exactly 2% and 5%.
    match hot.get("rate_profile_thin_cache_ms") {
        Some(t) => {
            errs.extend(check_timing_table(
                t,
                "policy_hot_path.rate_profile_thin_cache_ms",
            ));
            if let Value::Object(entries) = t {
                let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys != ["cache02", "cache05"] {
                    errs.push(format!(
                        "policy_hot_path.rate_profile_thin_cache_ms: rows {keys:?}, expected cache02 and cache05"
                    ));
                }
            }
        }
        None => errs.push("policy_hot_path.rate_profile_thin_cache_ms: missing".into()),
    }
    match hot.get("headline") {
        Some(Value::Object(entries)) if !entries.is_empty() => {
            for (k, v) in entries {
                if v.as_str().is_none() {
                    errs.push(format!("policy_hot_path.headline.{k}: not a string"));
                }
            }
        }
        _ => errs.push("policy_hot_path.headline: missing or empty".into()),
    }
    // The acceptance gate is recorded, not just claimed: the slowest
    // `before` Rate-Profile amortized replay must be >= 2.5x the `after`.
    let rp = hot
        .get("rate_profile_amortized_ms")
        .expect("policy_hot_path.rate_profile_amortized_ms");
    let before_min = rp
        .get("before_range")
        .and_then(Value::as_array)
        .and_then(|r| {
            r.iter()
                .map(Value::as_f64)
                .try_fold(f64::MAX, |m, v| v.map(|v| m.min(v)))
        });
    let after = rp.get("after").and_then(Value::as_f64);
    match (before_min, after) {
        (Some(before), Some(after)) if before > 0.0 && after > 0.0 => {
            if before / after < 2.5 {
                errs.push(format!(
                    "policy_hot_path.rate_profile_amortized_ms: {before} -> {after} is below the 2.5x acceptance gate"
                ));
            }
        }
        _ => errs.push(
            "policy_hot_path.rate_profile_amortized_ms: before_range/after missing or not positive"
                .into(),
        ),
    }

    assert!(
        errs.is_empty(),
        "BENCH_replay.json schema errors:\n{}",
        errs.join("\n")
    );
}
