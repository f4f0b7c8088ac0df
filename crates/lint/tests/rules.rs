//! One triggering fixture per lint rule ID, for both front ends, plus
//! configuration filtering.

use tracedbg_lint::{lint_script, lint_trace, Diagnostic, LintConfig, Severity};
use tracedbg_trace::{CollKind, EventKind, MsgInfo, Rank, SiteTable, Tag, TraceRecord, TraceStore};
use tracedbg_workloads::script;

fn has(diags: &[Diagnostic], rule: &str) -> bool {
    diags.iter().any(|d| d.rule.0 == rule)
}

fn find<'a>(diags: &'a [Diagnostic], rule: &str) -> &'a Diagnostic {
    diags
        .iter()
        .find(|d| d.rule.0 == rule)
        .unwrap_or_else(|| panic!("expected a {rule} diagnostic, got {diags:?}"))
}

fn msg(src: u32, dst: u32, tag: i32, seq: u64) -> MsgInfo {
    MsgInfo {
        src: Rank(src),
        dst: Rank(dst),
        tag: Tag(tag),
        bytes: 8,
        seq,
    }
}

fn lint(recs: Vec<TraceRecord>, n_ranks: usize) -> Vec<Diagnostic> {
    let store = TraceStore::build(recs, SiteTable::new(), n_ranks);
    lint_trace(&store, &LintConfig::default())
}

fn lint_src(src: &str, nprocs: usize) -> Vec<Diagnostic> {
    let parsed = script::parse(src).expect("fixture script parses");
    lint_script(&parsed, nprocs, "fixture.script", &LintConfig::default())
}

// ------------------------------------------------------- trace front end

#[test]
fn tdl001_unreceived_send() {
    let recs = vec![TraceRecord::basic(0u32, EventKind::Send, 1, 0)
        .with_span(0, 2)
        .with_msg(msg(0, 1, 5, 0))];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL001");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.rank, Some(0));
    assert!(d.message.contains("tag 5"));
}

#[test]
fn tdl002_blocked_receive() {
    let recs = vec![TraceRecord::basic(0u32, EventKind::RecvPost, 1, 0).with_args(1, 5)];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL002");
    assert_eq!(d.rank, Some(0));
    assert!(d.message.contains("never completed"));
}

#[test]
fn tdl003_impossible_receive_tag_mismatch() {
    // Rank 1 sends tag 6; rank 0 waits forever for tag 5 from rank 1.
    let recs = vec![
        TraceRecord::basic(1u32, EventKind::Send, 1, 0)
            .with_span(0, 2)
            .with_msg(msg(1, 0, 6, 0)),
        TraceRecord::basic(0u32, EventKind::RecvPost, 1, 3).with_args(1, 5),
    ];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL003");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("tag 5"));
    assert!(d.suggestion.as_deref().unwrap().contains("tag 6"));
}

#[test]
fn tdl004_collective_kind_mismatch() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::Collective(CollKind::Barrier), 1, 0),
        TraceRecord::basic(1u32, EventKind::Collective(CollKind::Bcast), 1, 0),
    ];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL004");
    assert!(d.message.contains("different operations"));
}

#[test]
fn tdl004_collective_count_mismatch() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::Collective(CollKind::Barrier), 1, 0),
        TraceRecord::basic(1u32, EventKind::Collective(CollKind::Barrier), 1, 0),
        TraceRecord::basic(0u32, EventKind::Collective(CollKind::Barrier), 2, 5),
    ];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL004");
    assert!(d.message.contains("never entered"));
}

#[test]
fn tdl005_wildcard_race() {
    // Two senders race to a wildcard receive on P0; the loser is drained
    // by a second wildcard so nothing is left unmatched.
    let recs = vec![
        TraceRecord::basic(1u32, EventKind::Send, 1, 0)
            .with_span(0, 2)
            .with_msg(msg(1, 0, 5, 0)),
        TraceRecord::basic(2u32, EventKind::Send, 1, 1)
            .with_span(1, 3)
            .with_msg(msg(2, 0, 5, 0)),
        TraceRecord::basic(0u32, EventKind::RecvPost, 1, 4).with_args(-1, 5),
        TraceRecord::basic(0u32, EventKind::RecvDone, 2, 4)
            .with_span(4, 10)
            .with_msg(msg(1, 0, 5, 0)),
        TraceRecord::basic(0u32, EventKind::RecvPost, 3, 10).with_args(-1, 5),
        TraceRecord::basic(0u32, EventKind::RecvDone, 4, 10)
            .with_span(10, 12)
            .with_msg(msg(2, 0, 5, 0)),
    ];
    let diags = lint(recs, 3);
    let d = find(&diags, "TDL005");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("nondeterministic"));
    assert!(!has(&diags, "TDL001"), "both messages were received");
}

#[test]
fn tdl006_wait_cycle() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::RecvPost, 1, 0).with_args(1, -1),
        TraceRecord::basic(1u32, EventKind::RecvPost, 1, 0).with_args(0, -1),
    ];
    let diags = lint(recs, 2);
    let d = find(&diags, "TDL006");
    assert!(d.message.contains("circular wait"));
    // The blocked posts themselves are also reported individually.
    assert!(has(&diags, "TDL002"));
}

#[test]
fn tdl007_event_after_end() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::ProcStart, 1, 0),
        TraceRecord::basic(0u32, EventKind::ProcEnd, 2, 5),
        TraceRecord::basic(0u32, EventKind::Probe, 3, 6),
    ];
    let diags = lint(recs, 1);
    let d = find(&diags, "TDL007");
    assert!(d.message.contains("probe after finalize"));
}

#[test]
fn clean_trace_has_no_diagnostics() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::ProcStart, 1, 0),
        TraceRecord::basic(1u32, EventKind::ProcStart, 1, 0),
        TraceRecord::basic(0u32, EventKind::Send, 2, 1)
            .with_span(1, 2)
            .with_msg(msg(0, 1, 5, 0)),
        TraceRecord::basic(1u32, EventKind::RecvPost, 2, 1).with_args(0, 5),
        TraceRecord::basic(1u32, EventKind::RecvDone, 3, 2)
            .with_span(2, 3)
            .with_msg(msg(0, 1, 5, 0)),
        TraceRecord::basic(0u32, EventKind::ProcEnd, 3, 4),
        TraceRecord::basic(1u32, EventKind::ProcEnd, 4, 4),
    ];
    assert!(lint(recs, 2).is_empty());
}

// ------------------------------------------------------ script front end

#[test]
fn sdl101_undefined_call() {
    let diags = lint_src("fn main\n  call helper\nend\n", 2);
    let d = find(&diags, "SDL101");
    assert!(d.message.contains("`helper`"));
    assert_eq!(d.loc.as_ref().unwrap().line, 2);
}

#[test]
fn sdl102_rank_out_of_bounds() {
    let diags = lint_src(
        "fn main\n  send nprocs tag 1 rank\n  recv from 0 tag 1 into x\nend\n",
        4,
    );
    let d = find(&diags, "SDL102");
    assert!(d.message.contains("rank 4"));
    assert!(d.message.contains("0..4"));
}

#[test]
fn sdl103_guaranteed_deadlock() {
    // Every rank receives from its left neighbour before sending: the
    // classic head-to-head cycle with no send in flight.
    let src = "\
fn main
  recv from ( ( rank + 1 ) % nprocs ) tag 1 into x
  send ( ( rank + 1 ) % nprocs ) tag 1 rank
end
";
    let diags = lint_src(src, 3);
    let d = find(&diags, "SDL103");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("guaranteed deadlock"));
}

#[test]
fn sdl103_not_reported_for_buffered_ring() {
    // Send first, then receive: buffered sends make this complete.
    let src = "\
fn main
  send ( ( rank + 1 ) % nprocs ) tag 1 rank
  recv from ( ( rank + nprocs - 1 ) % nprocs ) tag 1 into x
end
";
    let diags = lint_src(src, 3);
    assert!(!has(&diags, "SDL103"), "buffered ring completes: {diags:?}");
}

#[test]
fn sdl103_not_reported_when_wildcards_present() {
    // A wildcard receive makes the schedule nondeterministic; the rule
    // must stay silent rather than guess.
    let src = "\
fn main
  recv from any tag 1 into x
end
";
    let diags = lint_src(src, 2);
    assert!(!has(&diags, "SDL103"));
}

#[test]
fn sdl104_tag_typo() {
    let src = "\
fn main
  if rank == 0
    send 1 tag 10 rank
  else
    recv from 0 tag 11 into x
  end
end
";
    let diags = lint_src(src, 2);
    // Both sides of the asymmetry are reported: the orphan send (tag 10)
    // and the orphan receive (tag 11), each suggesting the other's tag.
    let sdl104: Vec<_> = diags.iter().filter(|d| d.rule.0 == "SDL104").collect();
    assert_eq!(sdl104.len(), 2, "{diags:?}");
    assert!(sdl104
        .iter()
        .any(|d| d.message.contains("tag 11") && d.suggestion.as_deref().unwrap().contains("10")));
}

#[test]
fn sdl104_silent_when_any_tag_recv_absorbs() {
    let src = "\
fn main
  if rank == 0
    send 1 tag 10 rank
  else
    recv from 0 into x
  end
end
";
    let diags = lint_src(src, 2);
    assert!(!has(&diags, "SDL104"), "any-tag receive absorbs: {diags:?}");
}

#[test]
fn sdl105_self_message() {
    let diags = lint_src(
        "fn main\n  send rank tag 1 rank\n  recv from any tag 1 into x\nend\n",
        2,
    );
    let d = find(&diags, "SDL105");
    assert!(d.message.contains("itself"));
}

#[test]
fn sdl106_missing_main() {
    // `script::parse` refuses a source without `fn main`, so this guards
    // programmatically-built scripts (and future parser relaxations).
    let empty = script::Script::default();
    let diags = lint_script(&empty, 2, "empty.script", &LintConfig::default());
    let d = find(&diags, "SDL106");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn clean_script_has_no_errors() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scripts/pingpong.script"
    ))
    .expect("pingpong example script exists");
    for nprocs in [2, 4, 7] {
        let diags = lint_src(&src, nprocs);
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(errors.is_empty(), "pingpong at {nprocs} procs: {errors:?}");
        // Pingpong's reply collection uses a deliberate wildcard receive;
        // with >= 2 workers SDL109 correctly flags the arrival race, and
        // nothing else should fire.
        for d in &diags {
            assert_eq!(d.rule.as_str(), "SDL109", "unexpected: {d:?}");
        }
        let want_racy = nprocs > 2;
        assert_eq!(
            diags.iter().any(|d| d.rule.as_str() == "SDL109"),
            want_racy,
            "SDL109 at {nprocs} procs"
        );
    }
}

// ------------------------------ static = dynamic (tests/golden/scripts/)
//
// One script per answer the linter's own interpreter used to get wrong;
// what each does at run time is in its header comment and checked by
// verify.sh's analyze stage.

fn lint_fixture(name: &str, nprocs: usize) -> Vec<Diagnostic> {
    let path = format!(
        "{}/../../tests/golden/scripts/{name}.script",
        env!("CARGO_MANIFEST_DIR")
    );
    lint_src(
        &std::fs::read_to_string(path).expect("fixture script"),
        nprocs,
    )
}

#[test]
fn modulo_truncates_like_the_runtime() {
    let diags = lint_fixture("left-neighbour", 4);
    let d = find(&diags, "SDL102");
    assert_eq!(d.rank, Some(0));
    assert_eq!(d.loc.as_ref().unwrap().line, 8);
    assert_eq!(
        d.message,
        "rank 0 would receive from rank -1, but only ranks 0..4 exist"
    );
}

#[test]
fn a_receive_rebinds_its_status_variable() {
    for nprocs in [2, 4, 8] {
        let diags = lint_fixture("status-src", nprocs);
        assert!(diags.is_empty(), "at {nprocs} procs: {diags:?}");
    }
}

#[test]
fn a_trip_count_past_64_bits_neither_panics_nor_hides_what_follows() {
    let diags = lint_fixture("wide-loop", 4);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = find(&diags, "SDL105");
    assert_eq!(d.message, "rank 0 sends a message to itself");
    assert_eq!(d.loc.as_ref().unwrap().line, 8);
}

#[test]
fn builtins_win_over_bindings() {
    // `let rank = 0` binds nothing `send rank …` can read: rank 1 sends to
    // itself and rank 0 waits forever, as at run time.
    let diags = lint_fixture("shadowed-rank", 2);
    assert_eq!(
        find(&diags, "SDL105").message,
        "rank 1 sends a message to itself"
    );
    assert_eq!(
        find(&diags, "SDL103").message,
        "guaranteed deadlock with 2 processes: rank 0 receiving from rank 1 tag 1 (line 6)"
    );
    assert!(has(&diags, "SDL107"), "{diags:?}");
}

// ---------------------------------------------------------- configuration

#[test]
fn config_disable_suppresses_rule() {
    let src = "fn main\n  call helper\nend\n";
    let parsed = script::parse(src).unwrap();
    let cfg = LintConfig::from_spec("-SDL101");
    let diags = lint_script(&parsed, 2, "f.script", &cfg);
    assert!(!has(&diags, "SDL101"));
}

#[test]
fn config_only_restricts_to_listed_rules() {
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::RecvPost, 1, 0).with_args(1, -1),
        TraceRecord::basic(1u32, EventKind::RecvPost, 1, 0).with_args(0, -1),
    ];
    let store = TraceStore::build(recs, SiteTable::new(), 2);
    let cfg = LintConfig::from_spec("TDL006");
    let diags = lint_trace(&store, &cfg);
    assert!(has(&diags, "TDL006"));
    assert!(
        !has(&diags, "TDL002"),
        "TDL002 not in allow-list: {diags:?}"
    );
}

// ------------------------------------------- static-analysis rules (SDL107+)

#[test]
fn sdl107_static_deadlock_through_wildcards() {
    // Every rank begins with a wildcard receive; the only sends come
    // after. SDL103's exact simulator must bail (wildcards), but the
    // may-match wait-for fixpoint proves the whole set blocked.
    let src = "\
fn main
  recv from any tag 1 into x
  send ( ( rank + 1 ) % nprocs ) tag 1 rank
end
";
    let diags = lint_src(src, 3);
    let d = find(&diags, "SDL107");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("static deadlock"));
    assert!(!has(&diags, "SDL103"), "the simulator bails on wildcards");
}

#[test]
fn sdl107_silent_when_a_rank_sends_first() {
    // Ring with a kick-off: rank 0 sends before receiving, so the
    // wait-for set never closes.
    let src = "\
fn main
  let nxt = ( rank + 1 ) % nprocs
  let prv = ( rank + nprocs - 1 ) % nprocs
  if rank == 0
    send nxt tag 1 rank
    recv from prv tag 1 into x
  else
    recv from prv tag 1 into x
    send nxt tag 1 rank
  end
end
";
    for nprocs in [2, 3, 5] {
        let diags = lint_src(src, nprocs);
        assert!(!has(&diags, "SDL107"), "ring at {nprocs}: {diags:?}");
        assert!(!has(&diags, "SDL108"), "every site pairs: {diags:?}");
    }
}

#[test]
fn sdl108_unmatched_send_site() {
    let src = "\
fn main
  if rank == 0
    send 1 tag 1 rank
    send 1 tag 9 rank
  end
  if rank == 1
    recv from 0 tag 1 into x
  end
end
";
    let diags = lint_src(src, 2);
    let sdl108: Vec<_> = diags.iter().filter(|d| d.rule.0 == "SDL108").collect();
    assert_eq!(
        sdl108.len(),
        1,
        "only the tag-9 send is orphaned: {diags:?}"
    );
    assert_eq!(sdl108[0].severity, Severity::Warning);
    assert!(sdl108[0].message.contains("never be received"));
    assert_eq!(sdl108[0].loc.as_ref().unwrap().line, 4);
}

#[test]
fn sdl108_unmatched_recv_site() {
    let src = "\
fn main
  if rank == 0
    send 1 tag 1 rank
  end
  if rank == 1
    recv from 0 tag 1 into x
    recv from 0 tag 2 into y
  end
end
";
    let diags = lint_src(src, 2);
    let d = find(&diags, "SDL108");
    assert!(d.message.contains("never be satisfied"));
    assert_eq!(d.loc.as_ref().unwrap().line, 7);
}

#[test]
fn sdl109_racing_wildcard_needs_two_senders() {
    let src = "\
fn main
  if rank == 0
    recv from any tag 1 into x
  else
    send 0 tag 1 rank
  end
end
";
    // One worker: a single possible sender, nothing races.
    assert!(!has(&lint_src(src, 2), "SDL109"));
    // Two workers: the arrival order is schedule-dependent.
    let diags = lint_src(src, 3);
    let d = find(&diags, "SDL109");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("rank(s) 1, 2"));
}

#[test]
fn tdl008_match_outside_may_match() {
    use tracedbg_lint::lint_trace_with_script;
    // The trace says rank 0's line-3 send matched rank 1's line-6 recv —
    // but the analyzed script routes that send to rank 2. Divergence.
    let src = "\
fn main
  if rank == 0
    send 2 tag 5 rank
  end
  if rank == 1
    recv from 0 tag 5 into x
  end
  if rank == 2
    recv from 0 tag 5 into y
  end
end
";
    let parsed = script::parse(src).unwrap();
    let sites = SiteTable::new();
    let s_send = sites.site("fixture.script", 3, "main");
    let s_recv = sites.site("fixture.script", 6, "main");
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::Send, 1, 0)
            .with_span(0, 1)
            .with_msg(msg(0, 1, 5, 0))
            .with_site(s_send),
        TraceRecord::basic(1u32, EventKind::RecvPost, 1, 1)
            .with_args(0, 5)
            .with_site(s_recv),
        TraceRecord::basic(1u32, EventKind::RecvDone, 2, 2)
            .with_span(2, 3)
            .with_msg(msg(0, 1, 5, 0))
            .with_site(s_recv),
    ];
    let store = TraceStore::build(recs, sites, 3);
    let diags =
        lint_trace_with_script(&store, &parsed, 3, "fixture.script", &LintConfig::default());
    let d = find(&diags, "TDL008");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("outside the static may-match relation"));
    assert_eq!(d.events, vec![0, 2]);
}

#[test]
fn tdl008_silent_when_trace_agrees() {
    use tracedbg_lint::lint_trace_with_script;
    let src = "\
fn main
  if rank == 0
    send 1 tag 5 rank
  end
  if rank == 1
    recv from 0 tag 5 into x
  end
end
";
    let parsed = script::parse(src).unwrap();
    let sites = SiteTable::new();
    let s_send = sites.site("fixture.script", 3, "main");
    let s_recv = sites.site("fixture.script", 6, "main");
    let recs = vec![
        TraceRecord::basic(0u32, EventKind::Send, 1, 0)
            .with_span(0, 1)
            .with_msg(msg(0, 1, 5, 0))
            .with_site(s_send),
        TraceRecord::basic(1u32, EventKind::RecvPost, 1, 1)
            .with_args(0, 5)
            .with_site(s_recv),
        TraceRecord::basic(1u32, EventKind::RecvDone, 2, 2)
            .with_span(2, 3)
            .with_msg(msg(0, 1, 5, 0))
            .with_site(s_recv),
    ];
    let store = TraceStore::build(recs, sites, 2);
    let diags =
        lint_trace_with_script(&store, &parsed, 2, "fixture.script", &LintConfig::default());
    assert!(!has(&diags, "TDL008"), "{diags:?}");
    // Plain lint_trace has no analysis, so TDL008 never fires either.
    assert!(!has(&lint(Vec::new(), 2), "TDL008"));
}

#[test]
fn catalog_lists_new_rules_with_docs_urls() {
    let catalog = tracedbg_lint::rule_catalog();
    for id in ["SDL107", "SDL108", "SDL109", "TDL008"] {
        let info = catalog
            .iter()
            .find(|r| r.id.as_str() == id)
            .unwrap_or_else(|| panic!("{id} missing from catalog"));
        assert!(!info.description.is_empty());
        assert_eq!(
            info.id.docs_url(),
            format!("https://tracedbg.dev/rules/{id}")
        );
    }
    // IDs are unique and sorted — stable for `--rules` listings.
    let ids: Vec<&str> = catalog.iter().map(|r| r.id.as_str()).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(ids, sorted);
}

#[test]
fn json_report_carries_docs_url() {
    let src = "fn main\n  call helper\nend\n";
    let parsed = script::parse(src).unwrap();
    let diags = lint_script(&parsed, 2, "f.script", &LintConfig::default());
    let json = tracedbg_lint::report::render_json(&diags);
    assert!(json.contains("https://tracedbg.dev/rules/SDL101"), "{json}");
}

#[test]
fn diagnostics_sort_errors_first() {
    // TDL003 (warning) and TDL002 (error) both fire here.
    let recs = vec![
        TraceRecord::basic(1u32, EventKind::Send, 1, 0)
            .with_span(0, 2)
            .with_msg(msg(1, 0, 6, 0)),
        TraceRecord::basic(0u32, EventKind::RecvPost, 1, 3).with_args(1, 5),
    ];
    let diags = lint(recs, 2);
    assert!(diags.len() >= 2);
    for pair in diags.windows(2) {
        assert!(pair[0].severity <= pair[1].severity);
    }
}
