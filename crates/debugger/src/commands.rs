//! A text command interface over a [`Session`].
//!
//! This is the scripting surface the figure-reproduction harnesses drive;
//! each command returns a transcript line, so a scripted debugging session
//! reads like the interaction §4.1 narrates (set a stopline, replay, step,
//! inspect, find the bug).

use crate::analysis::HistoryReport;
use crate::procset::ProcSets;
use crate::session::{Session, SessionStatus};
use crate::stopline::Stopline;
use std::collections::BTreeMap;
use tracedbg_trace::{EventKind, EventQuery, Rank, Tag};

/// Stateful command processor.
pub struct CommandInterface {
    session: Session,
    /// The pending stopline, set by `stopline ...`, consumed by `replay`.
    pending: Option<Stopline>,
    /// Named process sets (p2d2's set-oriented operations).
    sets: ProcSets,
    /// Per-command-verb timing: count and total wall-clock nanoseconds
    /// (BTreeMap: the `stats` listing is sorted and stable).
    timings: BTreeMap<String, (u64, u64)>,
}

impl CommandInterface {
    pub fn new(session: Session) -> Self {
        let sets = ProcSets::new(session.n_ranks());
        CommandInterface {
            session,
            pending: None,
            sets,
            timings: BTreeMap::new(),
        }
    }

    pub fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    fn status_line(&self) -> String {
        match self.session.status() {
            SessionStatus::Idle => "idle".into(),
            SessionStatus::Completed => "completed".into(),
            SessionStatus::Deadlocked(d) => format!(
                "DEADLOCK: blocked {:?}, cycle {:?}",
                d.blocked_ranks(),
                d.cycle
            ),
            SessionStatus::Stopped { traps, paused } => {
                format!("stopped: traps {traps:?} paused {paused:?}")
            }
            SessionStatus::Panicked { rank, message } => {
                format!("PANIC in {rank:?}: {message}")
            }
        }
    }

    /// Execute one command, returning the transcript output. Every command
    /// is timed under its verb; `stats` reports the accumulated figures.
    pub fn execute(&mut self, cmd: &str) -> String {
        let verb = cmd
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .to_string();
        let t0 = std::time::Instant::now();
        let out = self.execute_inner(cmd);
        if !verb.is_empty() {
            let slot = self.timings.entry(verb).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += t0.elapsed().as_nanos() as u64;
        }
        out
    }

    /// Per-verb `(count, total_ns)` timing collected so far, sorted by
    /// verb name.
    pub fn command_timings(&self) -> Vec<(String, u64, u64)> {
        self.timings
            .iter()
            .map(|(verb, (count, ns))| (verb.clone(), *count, *ns))
            .collect()
    }

    /// Parse a rank argument and check it against the session's rank
    /// count; the `Err` is the transcript line to answer with.
    fn rank_arg(&self, arg: &str) -> Result<Rank, String> {
        let n = self.session.n_ranks();
        match arg.parse::<u32>() {
            Ok(r) if (r as usize) < n => Ok(Rank(r)),
            Ok(r) => Err(format!("error: no such rank P{r} (0..{n})")),
            Err(_) => Err(format!("error: bad rank {arg:?}")),
        }
    }

    /// Every command [`CommandInterface::execute`] answers, as `help` lists
    /// them: `<x>` is an argument, `[x]` an optional one. Kept beside the
    /// match that dispatches them; a test holds the two together.
    #[rustfmt::skip]
    pub const COMMANDS: &'static [&'static str] = &[
        "run", "continue", "step [rank]", "step <set-spec>", "markers", "where <rank>",
        "probe <rank> <label>", "stopline t <ns>", "stopline markers <m...>", "replay", "undo",
        "analyze", "restart", "break <func|file:line>", "watch <label> change",
        "watch <label> == <v>", "watch <label> != <v>", "delete breaks", "why <rank>",
        "setdef <name> <spec>", "sets", "find send to <N>", "find send from <N>",
        "find recv on <N>", "find tag <T>", "find fn <F>", "find probe <L>", "verify", "pending",
        "view [width]", "stats", "help",
    ];

    fn execute_inner(&mut self, cmd: &str) -> String {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        match parts.as_slice() {
            ["help"] => format!("> help\n  {}", Self::COMMANDS.join("\n  ")),
            ["run"] => {
                self.session.run();
                format!("> run\n{}", self.status_line())
            }
            ["continue"] => {
                self.session.continue_all();
                format!("> continue\n{}", self.status_line())
            }
            ["step"] => {
                self.session.step_all();
                format!("> step\n{}", self.status_line())
            }
            ["step", spec] => {
                // A bare rank steps one process; anything else is a set
                // spec or a named set (p2d2's set-oriented stepping).
                if spec.parse::<u32>().is_ok() {
                    match self.rank_arg(spec) {
                        Ok(Rank(r)) => {
                            self.session.step(Rank(r));
                            format!(
                                "> step {r}\nP{r} at marker {}",
                                self.session.markers().get(Rank(r))
                            )
                        }
                        Err(e) => e,
                    }
                } else {
                    match self.sets.parse(spec) {
                        Ok(set) => {
                            self.session.step_set(&set);
                            format!("> step {spec}\n{:?}", self.session.markers())
                        }
                        Err(e) => format!("error: {e}"),
                    }
                }
            }
            ["markers"] => {
                format!("> markers\n{:?}", self.session.markers())
            }
            ["where", r] => match self.rank_arg(r) {
                Ok(Rank(r)) => {
                    let lines = self.session.where_is(Rank(r));
                    let body = if lines.is_empty() {
                        "  (no monitor history)".to_string()
                    } else {
                        lines
                            .iter()
                            .map(|l| format!("  {l}"))
                            .collect::<Vec<_>>()
                            .join("\n")
                    };
                    format!("> where {r}\n{body}")
                }
                Err(e) => e,
            },
            ["probe", r, label] => match self.rank_arg(r) {
                Ok(Rank(r)) => match self.session.latest_probe(Rank(r), label) {
                    Some(v) => format!("> probe {r} {label}\nP{r} {label} = {v}"),
                    None => format!("> probe {r} {label}\n(no such probe)"),
                },
                Err(e) => e,
            },
            ["stopline", "t", t] => match t.parse::<u64>() {
                Ok(t) => {
                    let store = self.session.trace();
                    // Source-backed slice: resolves through the time-window
                    // index when the trace lives in an on-disk store.
                    let sl = match Stopline::vertical_from(&store, t) {
                        Ok(sl) => sl,
                        Err(e) => return format!("error: {e}"),
                    };
                    let out = format!("> stopline t {t}\nstopline {:?}", sl.markers);
                    self.pending = Some(sl);
                    out
                }
                Err(_) => format!("error: bad time {t:?}"),
            },
            ["stopline", "markers", rest @ ..] => {
                let counts: Result<Vec<u64>, _> = rest.iter().map(|s| s.parse::<u64>()).collect();
                match counts {
                    Ok(c) if c.len() == self.session.n_ranks() => {
                        let sl = Stopline {
                            markers: tracedbg_trace::MarkerVector::from_counts(c),
                            origin: "manual".into(),
                        };
                        let out = format!("> stopline markers\nstopline {:?}", sl.markers);
                        self.pending = Some(sl);
                        out
                    }
                    Ok(c) => format!(
                        "error: {} markers given, {} processes",
                        c.len(),
                        self.session.n_ranks()
                    ),
                    Err(e) => format!("error: {e}"),
                }
            }
            ["replay"] => match self.pending.clone() {
                Some(sl) => {
                    self.session.replay_to(&sl);
                    format!("> replay (stopline {})\n{}", sl.origin, self.status_line())
                }
                None => "error: no stopline set".into(),
            },
            ["undo"] => {
                if self.session.undo() {
                    format!("> undo\n{}", self.status_line())
                } else {
                    "> undo\nnothing to undo".into()
                }
            }
            ["analyze"] => {
                let store = self.session.trace();
                let rep = HistoryReport::analyze(&store);
                format!("> analyze\n{rep}")
            }
            ["restart"] => {
                self.session.restart();
                "> restart\nidle".into()
            }
            ["break", spec] => {
                // "func" or "file:line"
                let armed = match spec.rsplit_once(':') {
                    Some((file, line)) => match line.parse::<u32>() {
                        Ok(l) => self.session.break_at_line(file, l),
                        Err(_) => return format!("error: bad line in {spec:?}"),
                    },
                    None => self.session.break_at_function(spec),
                };
                format!("> break {spec}\n{armed} site(s) armed")
            }
            ["watch", label, "change"] => {
                self.session
                    .watch(None, label, tracedbg_instrument::WatchCond::Change);
                format!("> watch {label} change\narmed")
            }
            ["watch", label, "==", v] => match v.parse::<i64>() {
                Ok(v) => {
                    self.session
                        .watch(None, label, tracedbg_instrument::WatchCond::Equals(v));
                    format!("> watch {label} == {v}\narmed")
                }
                Err(_) => format!("error: bad value {v:?}"),
            },
            ["watch", label, "!=", v] => match v.parse::<i64>() {
                Ok(v) => {
                    self.session
                        .watch(None, label, tracedbg_instrument::WatchCond::NotEquals(v));
                    format!("> watch {label} != {v}\narmed")
                }
                Err(_) => format!("error: bad value {v:?}"),
            },
            ["delete", "breaks"] => {
                self.session.clear_breaks();
                "> delete breaks\ncleared".into()
            }
            ["why", r] => match self.rank_arg(r) {
                Ok(Rank(r)) => match self.session.why(Rank(r)) {
                    Some(cause) => format!("> why {r}\n{cause:?}"),
                    None => format!("> why {r}\n(no trap recorded)"),
                },
                Err(e) => e,
            },
            ["setdef", name, spec] => match self.sets.define(name, spec) {
                Ok(()) => format!("> setdef {name} {spec}\n{}", self.sets),
                Err(e) => format!("error: {e}"),
            },
            ["sets"] => format!("> sets\n{}", self.sets),
            ["find", rest @ ..] => {
                let store = self.session.trace();
                let q = match rest {
                    ["send", "to", d] => match self.rank_arg(d) {
                        Ok(d) => EventQuery::new().kind(EventKind::Send).msg_to(d),
                        Err(e) => return e,
                    },
                    ["send", "from", s] => match self.rank_arg(s) {
                        Ok(s) => EventQuery::new().kind(EventKind::Send).msg_from(s),
                        Err(e) => return e,
                    },
                    ["recv", "on", r] => match self.rank_arg(r) {
                        Ok(r) => EventQuery::new().kind(EventKind::RecvDone).rank(r),
                        Err(e) => return e,
                    },
                    ["tag", t] => match t.parse::<i32>() {
                        Ok(t) => EventQuery::new().tag(Tag(t)),
                        Err(_) => return format!("error: bad tag {t:?}"),
                    },
                    ["fn", name] => EventQuery::new().in_function(*name),
                    ["probe", label] => EventQuery::new().kind(EventKind::Probe).label(label),
                    _ => {
                        return "error: find <send to N | send from N | recv on N | \
                                tag T | fn NAME | probe LABEL>"
                            .into()
                    }
                };
                // The index-aware TraceSource path: on the in-memory store
                // it is a reference scan; an attached on-disk store would
                // answer the same query from its zone indexes.
                let hits = match q.find_records(&store) {
                    Ok(hits) => hits,
                    Err(e) => return format!("error: {e}"),
                };
                let mut out = format!("> find {}\n{} match(es)", rest.join(" "), hits.len());
                for rec in hits.iter().take(8) {
                    out.push_str(&format!(
                        "\n  {:?} marker {} at t={}: {}",
                        rec.rank, rec.marker, rec.t_start, rec
                    ));
                }
                if hits.len() > 8 {
                    out.push_str("\n  ...");
                }
                out
            }
            ["verify"] => {
                let divs = self.session.verify_replay();
                if divs.is_empty() {
                    "> verify\nreplay is faithful: no divergence".into()
                } else {
                    let mut out = format!("> verify\n{} divergence(s):", divs.len());
                    for d in divs.iter().take(4) {
                        out.push_str(&format!("\n{d}"));
                    }
                    out
                }
            }
            ["pending"] => {
                // Undelivered messages per destination — the §4.4
                // communication supervision view of the live mailboxes.
                let mut out = String::from("> pending");
                let mut any = false;
                for (rank, msgs) in self.session.engine().undelivered() {
                    for m in msgs {
                        any = true;
                        out.push_str(&format!(
                            "\n  P{} <- P{} tag{} #{} ({} bytes) undelivered",
                            rank,
                            m.src,
                            m.tag,
                            m.seq,
                            m.payload.len()
                        ));
                    }
                }
                if !any {
                    out.push_str("\n(no undelivered messages)");
                }
                out
            }
            ["view"] | ["view", _] => {
                let width = match parts.get(1) {
                    Some(w) => match w.parse::<usize>() {
                        Ok(w) => w,
                        Err(_) => return format!("error: bad width {w:?}"),
                    },
                    None => 100,
                };
                let store = self.session.trace();
                let mm = tracedbg_tracegraph::MessageMatching::build(&store);
                let model = tracedbg_viz::TimelineModel::build(&store, &mm, false);
                format!("> view\n{}", tracedbg_viz::render_ascii(&model, width))
            }
            ["stats"] => {
                // The debugger's telemetry view: command timing, checkpoint
                // lookups, and engine metrics across incarnations.
                let tel = self.session.telemetry();
                let mut out = String::from("> stats");
                out.push_str(&format!(
                    "\nengine: {} turns, {} matches, {} msgs, {} bytes",
                    tel.engine.turns,
                    tel.engine.matches,
                    tel.engine.total_msgs(),
                    tel.engine.total_bytes()
                ));
                out.push_str(&format!(
                    "\ncheckpoints: {} cached, {} hits, {} misses, \
                     restore distance {} markers",
                    tel.cache_len, tel.cache.hits, tel.cache.misses, tel.cache.restore_distance
                ));
                out.push_str(&format!(
                    "\nrestores: {} ({} us), snapshots: {} ({} us)",
                    tel.restores,
                    tel.restore_ns / 1_000,
                    tel.snapshots,
                    tel.snapshot_ns / 1_000
                ));
                if !tel.replay_delta.is_empty() {
                    out.push_str(&format!(
                        "\nreplay deltas: {} (mean {} decisions, max {})",
                        tel.replay_delta.count,
                        tel.replay_delta.mean(),
                        tel.replay_delta.max
                    ));
                }
                if self.timings.is_empty() {
                    out.push_str("\n(no commands timed yet)");
                } else {
                    out.push_str("\ncommands:");
                    for (verb, (count, ns)) in &self.timings {
                        out.push_str(&format!("\n  {verb:<10} x{count:<4} {} us", ns / 1_000));
                    }
                }
                out
            }
            _ => format!("error: unknown command {cmd:?}"),
        }
    }

    /// Run a whole script, returning the full transcript.
    pub fn script(&mut self, commands: &[&str]) -> String {
        commands
            .iter()
            .map(|c| self.execute(c))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ProgramFactory, SessionConfig};
    use crate::testprog::*;
    use tracedbg_mpsim::RecorderConfig;

    fn iface() -> CommandInterface {
        let factory: ProgramFactory = Box::new(|| {
            vec![
                rank(vec![compute(100), probe("x", |_| 42), send(1, 1, 7)]),
                rank(vec![recv_from(0, 1)]),
            ]
        });
        CommandInterface::new(Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            factory,
        ))
    }

    /// Every command `help` lists reaches an arm of the dispatch, with and
    /// without its optional argument.
    #[test]
    fn every_listed_command_dispatches() {
        let mut ci = iface();
        let help = ci.execute("help");
        for usage in CommandInterface::COMMANDS {
            assert!(help.lines().any(|l| l.trim() == *usage), "{usage}: {help}");
            let words: Vec<&str> = usage.split(' ').collect();
            let given = |w: &&'static str| if w.starts_with(['<', '[']) { "x" } else { *w };
            let full: Vec<&str> = words.iter().map(given).collect();
            let bare: Vec<&str> = words
                .iter()
                .copied()
                .filter(|w| !w.starts_with('['))
                .collect();
            for cmd in [full.join(" "), bare.join(" ")] {
                let reply = ci.execute(&cmd);
                assert!(!reply.contains("unknown command"), "{cmd}: {reply}");
            }
        }
        assert!(ci.execute("help me").contains("unknown command"));
    }

    #[test]
    fn run_and_analyze() {
        let mut ci = iface();
        let t = ci.execute("run");
        assert!(t.contains("completed"), "{t}");
        let a = ci.execute("analyze");
        assert!(a.contains("1 matched message(s)"), "{a}");
    }

    #[test]
    fn probe_command() {
        let mut ci = iface();
        ci.execute("run");
        let p = ci.execute("probe 0 x");
        assert!(p.contains("x = 42"), "{p}");
        let missing = ci.execute("probe 0 nothere");
        assert!(missing.contains("no such probe"), "{missing}");
        assert_eq!(ci.execute("probe 2 x"), "error: no such rank P2 (0..2)");
    }

    #[test]
    fn stopline_replay_step_script() {
        let mut ci = iface();
        let t = ci.script(&[
            "run",
            "stopline markers 2 1",
            "replay",
            "markers",
            "step 0",
            "continue",
        ]);
        assert!(t.contains("stopline ⟨2,1⟩"), "{t}");
        assert!(t.contains("stopped"), "{t}");
        assert!(t.contains("P0 at marker 3"), "{t}");
        assert!(t.trim_end().ends_with("completed"), "{t}");
    }

    #[test]
    fn error_paths() {
        let mut ci = iface();
        assert!(ci.execute("replay").contains("no stopline"));
        assert!(ci.execute("bogus").contains("unknown command"));
        assert!(ci.execute("step zz").contains("bad rank"));
        // Out-of-range ranks are command errors, not index panics.
        assert_eq!(ci.execute("step 2"), "error: no such rank P2 (0..2)");
        assert_eq!(ci.execute("where 2"), "error: no such rank P2 (0..2)");
        assert!(ci.execute("where zz").contains("bad rank"));
        assert!(ci
            .execute("stopline markers 1 2 3")
            .contains("3 markers given, 2 processes"));
        assert!(ci.execute("undo").contains("nothing to undo"));
    }

    #[test]
    fn break_watch_why_commands() {
        let mut ci = iface();
        ci.execute("run");
        ci.execute("stopline markers 1 1");
        ci.execute("replay");
        let b = ci.execute("break p0");
        assert!(b.contains("site(s) armed"), "{b}");
        let c = ci.execute("continue");
        assert!(c.contains("stopped"), "{c}");
        let why = ci.execute("why 0");
        assert!(why.contains("Breakpoint"), "{why}");
        assert_eq!(ci.execute("why 7"), "error: no such rank P7 (0..2)");
        let d = ci.execute("delete breaks");
        assert!(d.contains("cleared"), "{d}");
        let done = ci.execute("continue");
        assert!(done.contains("completed"), "{done}");
    }

    #[test]
    fn watch_command_syntax() {
        let mut ci = iface();
        ci.execute("run");
        ci.execute("stopline markers 1 1");
        ci.execute("replay");
        let w = ci.execute("watch x == 42");
        assert!(w.contains("armed"), "{w}");
        let c = ci.execute("continue");
        assert!(c.contains("stopped"), "{c}");
        let why = ci.execute("why 0");
        assert!(why.contains("Watch"), "{why}");
        assert!(ci.execute("watch x != banana").contains("bad value"));
        assert!(ci.execute("watch y change").contains("armed"));
    }

    #[test]
    fn set_oriented_stepping() {
        let mut ci = iface();
        ci.execute("run");
        ci.execute("stopline markers 1 1");
        ci.execute("replay");
        let d = ci.execute("setdef everyone 0-1");
        assert!(d.contains("everyone = {0,1}"), "{d}");
        let before = ci.session().markers();
        let s = ci.execute("step everyone");
        assert!(s.contains("\u{27e8}2,2\u{27e9}"), "{s}");
        let after = ci.session().markers();
        assert_eq!(after.get(Rank(0)), before.get(Rank(0)) + 1);
        assert_eq!(after.get(Rank(1)), before.get(Rank(1)) + 1);
        assert!(ci.execute("sets").contains("everyone"));
        assert!(ci.execute("step nosuchset").contains("error"));
        assert!(ci.execute("setdef all 0").contains("error"));
    }

    #[test]
    fn find_command() {
        let mut ci = iface();
        ci.execute("run");
        let f = ci.execute("find send to 1");
        assert!(f.contains("1 match(es)"), "{f}");
        let f2 = ci.execute("find probe x");
        assert!(f2.contains("1 match(es)"), "{f2}");
        let f3 = ci.execute("find fn p0");
        assert!(!f3.contains("0 match(es)"), "{f3}");
        assert!(ci.execute("find tag 12345").contains("0 match(es)"));
        assert!(ci.execute("find nonsense").contains("error"));
        for q in ["send to 2", "send from 2", "recv on 2"] {
            let out = ci.execute(&format!("find {q}"));
            assert_eq!(out, "error: no such rank P2 (0..2)", "find {q}");
        }
    }

    #[test]
    fn verify_command_reports_fidelity() {
        let mut ci = iface();
        ci.execute("run");
        let v = ci.execute("verify");
        assert!(v.contains("faithful"), "{v}");
        // Also from a stopped state.
        ci.execute("stopline markers 2 1");
        ci.execute("replay");
        let v2 = ci.execute("verify");
        assert!(v2.contains("faithful"), "{v2}");
    }

    #[test]
    fn pending_and_view_commands() {
        let mut ci = iface();
        ci.execute("run");
        let p = ci.execute("pending");
        assert!(p.contains("no undelivered messages"), "{p}");
        let v = ci.execute("view");
        assert!(v.contains("legend:"), "{v}");
        assert!(v.contains("P0"), "{v}");
        let v2 = ci.execute("view 40");
        assert!(v2.lines().any(|l| l.len() < 60), "{v2}");
        assert!(ci.execute("view zz").contains("bad width"));
    }

    #[test]
    fn pending_shows_lost_message() {
        // A send nobody receives shows up in `pending` at the stop.
        let factory: ProgramFactory =
            Box::new(|| vec![rank(vec![send(1, 9, 1)]), rank(vec![compute(10)])]);
        let mut ci = CommandInterface::new(Session::launch(
            SessionConfig {
                recorder: RecorderConfig::full(),
                ..Default::default()
            },
            factory,
        ));
        ci.execute("run");
        let p = ci.execute("pending");
        assert!(p.contains("P1 <- P0 tag9"), "{p}");
    }

    #[test]
    fn stats_reports_timing_and_cache_behaviour() {
        let mut ci = iface();
        ci.execute("run");
        ci.execute("stopline markers 2 1");
        ci.execute("replay");
        ci.execute("markers");
        let s = ci.execute("stats");
        assert!(s.contains("engine:"), "{s}");
        assert!(s.contains("checkpoints:"), "{s}");
        assert!(s.contains("commands:"), "{s}");
        assert!(s.contains("replay"), "{s}");
        assert!(s.contains("markers"), "{s}");
        let timings = ci.command_timings();
        assert!(timings.iter().any(|(v, c, _)| v == "run" && *c == 1));
        // The stats verb itself is timed once its call returns.
        let s2 = ci.execute("stats");
        assert!(s2.contains("stats"), "{s2}");
    }

    #[test]
    fn stopline_from_time() {
        let mut ci = iface();
        ci.execute("run");
        let t = ci.execute("stopline t 50");
        assert!(t.contains("stopline ⟨"), "{t}");
        let r = ci.execute("replay");
        assert!(r.contains("stopped") || r.contains("completed"), "{r}");
    }
}
