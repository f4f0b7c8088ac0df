//! The benchmark's contract: its workloads, its metrics, and the checks
//! `run.sh --check` applies to the root `BENCHMARK.json`.
//!
//! The tables here are the single source of the metric names the runner
//! emits; `BENCHMARK.json` must list exactly these, and `check_manifest`
//! fails when the two drift apart.

use serde::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

pub const RUN_SECONDS: u64 = 20;
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

/// `(name, why)`. The `why` is what `BENCHMARK.json` records.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wide_stencil",
        "stencil on 400 ranks, ~51 records each: every O(ranks) or O(ranks^2) layer (ready-set scan, vector clocks, per-rank checkpoints and text) works here and idles in deep_random",
    ),
    (
        "deep_random",
        "random:16000 on 8 ranks, ~10k records each: per-record costs (emit, match, frame+CRC, file write, JSON) dominate; a change that buys width by taxing every record shows here",
    ),
    (
        "hunt_planted",
        "explore+localize on native planted-wildcard, 16 ranks: thousands of short engine runs (launch, decision log, digest prune, checkpoint fork, shrink); store, causality, viz do nothing",
    ),
    (
        "hunt_script",
        "explore --dpor+localize on interpreted sdl:racy-wildcard, 8 ranks: script interpreter, static may-match analysis and sleep sets run here and are bypassed in hunt_planted",
    ),
];

/// Wall times of real `tracedbg` subprocesses, no benchmark spans active.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("produce_s", "s", Better::Lower, 0.25),
    e2e("inspect_s", "s", Better::Lower, 0.25),
    e2e("produce_rss_mb", "MB", Better::Lower, 0.05),
    e2e("output_kb", "KB", Better::Lower, 0.01),
];

/// One traced in-process pass per workload; layer = crate. A layer a
/// workload bypasses reports 0 there.
pub const PER_LAYER: [MetricSpec; 87] = [
    lo("mpsim.launch_us", "us"),
    lo("mpsim.run_ns_per_record", "ns"),
    lo("mpsim.turns", "count"),
    lo("mpsim.matches", "count"),
    lo("mpsim.decision_alternatives", "count"),
    lo("mpsim.snapshot_us", "us"),
    lo("mpsim.restore_us", "us"),
    lo("instrument.record_overhead_pct", "%"),
    lo("obs.metrics_overhead_pct", "%"),
    lo("workloads.factory_ms", "ms"),
    lo("workloads.script_parse_us", "us"),
    lo("trace.store_build_ms", "ms"),
    lo("trace.stats_ms", "ms"),
    lo("trace.write_binary_ms", "ms"),
    lo("trace.read_binary_ms", "ms"),
    lo("trace.write_text_ms", "ms"),
    lo("trace.read_text_ms", "ms"),
    lo("trace.digest_us", "us"),
    lo("store.tee_overhead_ms", "ms"),
    lo("store.ingest_ms", "ms"),
    lo("store.open_us", "us"),
    lo("store.query_rank_us", "us"),
    lo("store.query_rank_us_p90", "us"),
    lo("store.query_tag_us", "us"),
    lo("store.query_tag_us_p90", "us"),
    lo("store.query_window_us", "us"),
    lo("store.query_window_us_p90", "us"),
    lo("store.materialize_ms", "ms"),
    lo("store.verify_ms", "ms"),
    lo("store.bytes", "B"),
    lo("tracegraph.matching_ms", "ms"),
    lo("tracegraph.commgraph_ms", "ms"),
    lo("causality.hb_build_ms", "ms"),
    lo("causality.hb_share_of_record_pct", "%"),
    lo("causality.races_ms", "ms"),
    lo("causality.circular_waits_ms", "ms"),
    lo("debugger.history_report_ms", "ms"),
    lo("debugger.replay_to_ms", "ms"),
    lo("debugger.step_us", "us"),
    lo("debugger.undo_ms", "ms"),
    hi("debugger.ckpt_hits", "count"),
    lo("debugger.ckpt_misses", "count"),
    lo("debugger.schedule_replay_ms", "ms"),
    lo("profile.wait_ms", "ms"),
    lo("profile.path_ms", "ms"),
    lo("profile.report_build_ms", "ms"),
    lo("profile.seal_ms", "ms"),
    lo("lint.trace_ms", "ms"),
    lo("viz.timeline_ms", "ms"),
    hi("serde_json.encode_mb_per_s", "MB/s"),
    hi("serde_json.decode_mb_per_s", "MB/s"),
    hi("explore.runs_executed", "count"),
    hi("explore.runs_pruned", "count"),
    hi("explore.runs_skipped_sleep", "count"),
    lo("explore.ns_per_run", "ns"),
    lo("explore.shrink_ms", "ms"),
    hi("explore.jobs_speedup", "x"),
    lo("analysis.static_us", "us"),
    lo("localize.reference_runs", "count"),
    lo("localize.ns_per_reference_run", "ns"),
    lo("localize.total_ms", "ms"),
    lo("cli.spawn_ms", "ms"),
    lo("cli.record_ms", "ms"),
    lo("cli.record_ns_per_record", "ns"),
    lo("cli.record_file_ms", "ms"),
    lo("cli.ingest_ms", "ms"),
    lo("cli.query_ms", "ms"),
    lo("cli.analyze_ms", "ms"),
    lo("cli.debug_ms", "ms"),
    lo("cli.explore_ms", "ms"),
    lo("cli.localize_ms", "ms"),
    lo("cli.replay_ms", "ms"),
    lo("cli.unattributed_pct_record", "%"),
    lo("cli.unattributed_pct_analyze", "%"),
    lo("cli.unattributed_pct_debug", "%"),
    lo("cli.unattributed_pct_explore", "%"),
    lo("cli.unattributed_pct_localize", "%"),
    lo("bench.traced_vs_cli_pct", "%"),
    lo("bench.traced_pass_ms", "ms"),
    lo("bench.cold_pass_penalty_pct", "%"),
    lo("bench.cli_pass_ms", "ms"),
    lo("bench.spans", "count"),
    lo("work.records", "count"),
    lo("work.runs", "count"),
    lo("work.ranks", "count"),
    lo("store.bytes_per_record", "B"),
    lo("cli.peak_rss_mb", "MB"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.0).collect()
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_of(v: &Value) -> Vec<&str> {
    v.as_object()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

fn check_keys(what: &str, v: &Value, want: &[&str], errs: &mut Vec<String>) {
    let mut got = keys_of(v);
    let mut want: Vec<&str> = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        errs.push(format!("{what}: keys {got:?}, expected exactly {want:?}"));
    }
}

fn check_metrics(
    section: &str,
    v: Option<&Value>,
    table: &[MetricSpec],
    max: usize,
    errs: &mut Vec<String>,
    seen: &mut Vec<String>,
) {
    let Some(list) = v.and_then(Value::as_array) else {
        errs.push(format!("{section}: missing or not a list"));
        return;
    };
    if list.is_empty() || list.len() > max {
        errs.push(format!(
            "{section}: {} metrics, allowed 1..={max}",
            list.len()
        ));
    }
    let bounded = table.first().is_some_and(|m| m.bound.is_some());
    let want_keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for (i, m) in list.iter().enumerate() {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("");
        let at = format!("{section}[{i}] {name:?}");
        check_keys(&at, m, want_keys, errs);
        if !valid_name(name) {
            errs.push(format!("{at}: invalid name"));
        }
        if seen.iter().any(|s| s == name) {
            errs.push(format!("{at}: name used twice"));
        }
        seen.push(name.to_string());
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        if !valid_unit(unit) {
            errs.push(format!("{at}: invalid unit {unit:?}"));
        }
        let better = m.get("better").and_then(Value::as_str).unwrap_or("");
        if better != "lower" && better != "higher" {
            errs.push(format!("{at}: better must be lower or higher"));
        }
        let bound = m.get("bound").and_then(Value::as_f64);
        if bounded && !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errs.push(format!("{at}: bound must be in (0, 0.25]"));
        }
        match table.get(i) {
            Some(t) if t.name == name => {
                if t.unit != unit || t.better.as_str() != better || t.bound != bound {
                    errs.push(format!(
                        "{at}: unit/better/bound differ from the runner's table"
                    ));
                }
            }
            _ => errs.push(format!(
                "{at}: the runner emits {:?} here",
                table.get(i).map(|t| t.name)
            )),
        }
    }
    if list.len() != table.len() {
        errs.push(format!(
            "{section}: {} metrics listed, the runner emits {}",
            list.len(),
            table.len()
        ));
    }
}

/// Validate the text of `BENCHMARK.json` against the driver's schema and
/// against the runner's own tables. Returns every problem found.
pub fn check_manifest(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if text.len() > 64 * 1024 {
        errs.push(format!("file is {} bytes, limit 65536", text.len()));
    }
    let v = match serde_json::value_from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    check_keys(
        "top level",
        &v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        &mut errs,
    );

    let strings = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let command = strings("command");
    if command != COMMAND {
        errs.push(format!(
            "command {command:?}, the runner expects {COMMAND:?}"
        ));
    }
    if command.len() > 32 || command.iter().any(|c| c.len() > 200) {
        errs.push("command: at most 32 strings of at most 200 characters".into());
    }
    let paths = strings("paths");
    if paths != PATHS {
        errs.push(format!("paths {paths:?}, the runner expects {PATHS:?}"));
    }
    for c in command.iter().skip(1) {
        let inside = paths.iter().any(|p| c.starts_with(&format!("{p}/")));
        if c.starts_with('/')
            || c.split('/').any(|part| part == "..")
            || (c.contains('/') && !inside)
        {
            errs.push(format!("command names {c:?}, which is outside paths"));
        }
    }
    match v.get("run_seconds").and_then(Value::as_u64) {
        Some(s) if s == RUN_SECONDS && (1..=60).contains(&s) => {}
        other => errs.push(format!(
            "run_seconds {other:?}, the runner expects {RUN_SECONDS}"
        )),
    }

    let mut seen: Vec<String> = Vec::new();
    match v.get("workloads").and_then(Value::as_array) {
        Some(list) => {
            if !(2..=8).contains(&list.len()) {
                errs.push(format!("workloads: {} listed, allowed 2..=8", list.len()));
            }
            let names: Vec<&str> = list
                .iter()
                .map(|w| w.get("name").and_then(Value::as_str).unwrap_or(""))
                .collect();
            if names != workload_names() {
                errs.push(format!(
                    "workloads {names:?}, the runner has {:?}",
                    workload_names()
                ));
            }
            for (i, w) in list.iter().enumerate() {
                let at = format!("workloads[{i}] {:?}", names[i]);
                check_keys(&at, w, &["name", "why"], &mut errs);
                if !valid_name(names[i]) {
                    errs.push(format!("{at}: invalid name"));
                }
                if seen.iter().any(|s| s == names[i]) {
                    errs.push(format!("{at}: name used twice"));
                }
                seen.push(names[i].to_string());
                let why = w.get("why").and_then(Value::as_str).unwrap_or("");
                if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
                    errs.push(format!("{at}: why must be one line of 1..=200 characters"));
                }
                if WORKLOADS.get(i).is_some_and(|t| t.1 != why) {
                    errs.push(format!("{at}: why differs from the runner's table"));
                }
            }
        }
        None => errs.push("workloads: missing or not a list".into()),
    }

    let mut seen: Vec<String> = Vec::new();
    check_metrics(
        "end_to_end",
        v.get("end_to_end"),
        &END_TO_END,
        16,
        &mut errs,
        &mut seen,
    );
    if !seen.iter().any(|n| n == "setup_s") {
        errs.push("end_to_end: setup_s is required".into());
    }
    check_metrics(
        "per_layer",
        v.get("per_layer"),
        &PER_LAYER,
        128,
        &mut errs,
        &mut seen,
    );
    errs
}

/// The manifest the tables above describe, in the driver's schema.
pub fn render_manifest() -> String {
    use crate::spans::json_str;
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", list(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", list(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(name),
            json_str(why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics are bounded"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract_alphabet() {
        for ok in [
            "setup_s",
            "store.query_rank_us_p90",
            "a",
            "9lives",
            "x-y.z_1",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "pct%",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract_alphabet() {
        for ok in ["ms", "s", "1/s", "count", "%", "MB/s", "B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_table_entry_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(
                why.chars().count() <= 200,
                "{name}: why is {} chars",
                why.chars().count()
            );
        }
    }

    #[test]
    fn the_rendered_manifest_passes_its_own_check() {
        assert_eq!(check_manifest(&render_manifest()), Vec::<String>::new());
    }

    #[test]
    fn the_committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(check_manifest(&text), Vec::<String>::new());
    }

    #[test]
    fn check_reports_schema_violations() {
        let good = render_manifest();
        let extra = good.replacen("\"command\"", "\"environment\": {}, \"command\"", 1);
        assert!(check_manifest(&extra)
            .iter()
            .any(|e| e.contains("top level")));
        let bad_bound = good.replacen("\"bound\": 0.25", "\"bound\": 0.5", 1);
        assert!(check_manifest(&bad_bound)
            .iter()
            .any(|e| e.contains("bound")));
        let bad_name = good.replacen("\"produce_s\"", "\"produce s\"", 1);
        assert!(check_manifest(&bad_name)
            .iter()
            .any(|e| e.contains("invalid name")));
        let dup = good.replacen("\"inspect_s\"", "\"produce_s\"", 1);
        assert!(check_manifest(&dup)
            .iter()
            .any(|e| e.contains("used twice")));
        assert!(check_manifest("{")
            .iter()
            .any(|e| e.contains("not valid JSON")));
    }
}
