//! `tracedbg` — command-line front end.
//!
//! Every verb is one row of [`VERBS`] (name, synopsis, handler); `tracedbg
//! --help` prints every synopsis. What a positional argument means —
//! workload (`tracedbg workloads` lists them; `script:<path>`, `sdl:<name>`
//! are those `analyze`, `lint` and `explore --dpor` reason about) or
//! recorded trace — is decided in one place, [`input`]. `debug` opens the
//! p2d2-style command loop (`help` lists its commands).

#[path = "tracedbg/input.rs"]
mod input;
#[path = "tracedbg/replay.rs"]
mod replay;

use input::{causal_indexes, load_artifact, write_trace_file, Input, TraceInput};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use tracedbg::prelude::*;
use tracedbg::tracegraph::{ActionGraph, Profile};
use tracedbg::viz::{dot, vcg};
use tracedbg::workloads::{catalog, scripts, Script, Workload};

/// A verb: its name, its synopsis and its handler. The synopsis is the
/// verb's grammar ([`Grammar::read`]) as well as its usage line, so the
/// two cannot drift apart.
pub struct Verb {
    name: &'static str,
    synopsis: &'static str,
    run: fn(&Opts) -> Result<ExitCode, String>,
}

/// Every verb, in the order `tracedbg --help` lists them.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb { name: "run", run: cmd_run, synopsis:
        "<workload> [--seed N] [--procs N] [--trace FILE] [--store DIR] [--segment-events N]" },
    Verb { name: "ingest", run: cmd_ingest, synopsis:
        "<trace.trc | trace.tbin> --out DIR [--segment-events N]" },
    Verb { name: "query", run: cmd_query, synopsis: "<store-dir> \
        [--rank N | --tag T | --kind PS|PE|FE|FX|SN|RP|RD|CP|PR|CB|CC|CR|CA|CG|CS \
        | --window lo:hi] [--limit N] [--count] [--stats]" },
    Verb { name: "view", run: cmd_view, synopsis:
        "<trace.trc | trace.tbin | store-dir> [--width N] [--svg FILE] [--window lo:hi]" },
    Verb { name: "analyze", run: cmd_analyze, synopsis:
        "<trace.trc | trace.tbin | store-dir | script:path | sdl:name> [--procs N] [--json | --dot]" },
    Verb { name: "report", run: cmd_report, synopsis:
        "<trace.trc | trace.tbin | store-dir> [--out FILE]" },
    Verb { name: "graph", run: cmd_graph, synopsis:
        "<trace.trc | trace.tbin | store-dir> [--kind comm|call|trace] [--format dot|vcg] [--rank N]" },
    Verb { name: "debug", run: cmd_debug, synopsis:
        "<workload> [--seed N] [--procs N] [--checkpoint-every N] [-e CMD]..." },
    Verb { name: "lint", run: cmd_lint, synopsis: "(rules | <trace.trc | trace.tbin | store-dir \
        | script:path | sdl:name>) [--procs N] [--json] [--rules SPEC] [--script SPEC]" },
    Verb { name: "explore", run: cmd_explore, synopsis: "<workload> [--runs N] [--seed N] \
        [--procs N] [--preemptions K] [--faults] [--strategy random|systematic|both] [--dpor] \
        [--jobs N] [--out DIR] [--json] [--metrics [FILE]] [--progress]" },
    Verb { name: "localize", run: cmd_localize, synopsis: "(--schedule FILE | <workload>) \
        [--runs N] [--seed N] [--jobs N] [--procs N] [--explore-runs N] \
        [--trace <trace.trc | trace.tbin | store-dir>] [--out FILE] [--json]" },
    Verb { name: "replay", run: replay::cmd_replay, synopsis: "--schedule FILE \
        [--from-checkpoint | --to-suspect REPORT | --to-critical-path REPORT] [--trace FILE] [--json]" },
    Verb { name: "profile", run: cmd_profile, synopsis: "(<workload> | <trace.trc | trace.tbin \
        | store-dir> | --schedule FILE) [--seed N] [--procs N] [--out FILE] [--json] \
        [--perfetto FILE]" },
    Verb { name: "stats", run: cmd_stats, synopsis:
        "<workload | trace.trc | trace.tbin | store-dir> [--seed N] [--procs N] [--metrics [FILE]]" },
    Verb { name: "bench", run: cmd_bench, synopsis:
        "[--quick] [--filter NAME] [--jobs N] [--out DIR]" },
    Verb { name: "workloads", run: |_| { print!("{}", catalog::listing()); Ok(ExitCode::SUCCESS) },
        synopsis: "" },
];

/// What a declared flag takes after it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Takes {
    /// `[--json]`: nothing; the next word is never its value.
    Nothing,
    /// `--out FILE`, `-e CMD` (which may repeat): the next word, unless
    /// it is a long flag (`--rules -SDL104` is a value).
    Value,
    /// `[--metrics [FILE]]`: as `Value`, but the word may be absent.
    MaybeValue,
}

/// The flag a command-line word names (`json` for `--json`, `e` for
/// `-e`); `None` for any other word, a negative number included.
fn flag_name(word: &str) -> Option<&str> {
    let short = word
        .strip_prefix('-')
        .filter(|n| n.starts_with(char::is_alphabetic));
    word.strip_prefix("--").or(short)
}

/// A flag a synopsis declares (`word`: `--json`, `-e`), with the values
/// it admits (`None`: any) and the bracket group it sits in (0: none).
struct Flag {
    word: &'static str,
    takes: Takes,
    set: Option<&'static str>,
    group: usize,
}

/// A synopsis read as a grammar: its flags, the most positionals it
/// takes, and the groups whose members exclude each other (`[-a | -b]`).
struct Grammar {
    flags: Vec<Flag>,
    positionals: usize,
    alternatives: Vec<usize>,
}

impl Grammar {
    /// Read a synopsis. Brackets and `|` are words of their own, a `<…>`
    /// is one word, and `...` (the group before it repeats) is skipped.
    /// A flag takes the word after it as its value unless that word is a
    /// flag, `|` or a bracket; `[FILE]` after it is an optional value, and
    /// a value with a `|` in it (`dot|vcg`) is the set the flag admits.
    /// Every other word is a positional, of which a bracket group has one
    /// at most: `(rules | <trace>)` is one.
    fn read(synopsis: &'static str) -> Grammar {
        let (mut words, mut rest) = (Vec::new(), synopsis.trim_start());
        while let Some(c) = rest.chars().next() {
            let end = match c {
                '[' | '(' | ']' | ')' => 1,
                '<' => rest.find('>').map_or(rest.len(), |e| e + 1),
                _ => rest.find([' ', '[', ']', '(', ')']).unwrap_or(rest.len()),
            };
            words.push(&rest[..end]);
            rest = rest[end..].trim_start();
        }
        let plain = |w: &&str| !matches!(*w, "[" | "]" | "(" | ")" | "|") && flag_name(w).is_none();
        let mut g = Grammar {
            flags: Vec::new(),
            positionals: 0,
            alternatives: Vec::new(),
        };
        let (mut open, mut groups, mut counted) = (vec![0], 0, Vec::new());
        let mut i = 0;
        while let Some(&word) = words.get(i) {
            let group = open[open.len() - 1];
            let next = |k: usize| words.get(i + k).copied().filter(plain);
            match word {
                "[" | "(" => {
                    groups += 1;
                    open.push(groups);
                }
                "]" | ")" => drop(open.pop()),
                "|" => g.alternatives.push(group),
                "..." => {}
                _ if flag_name(word).is_some() => {
                    let (takes, set, skip) = match (next(1), words.get(i + 1), next(2)) {
                        (Some(v), ..) => (Takes::Value, Some(v).filter(|v| v.contains('|')), 1),
                        (None, Some(&"["), Some(_)) => (Takes::MaybeValue, None, 3),
                        _ => (Takes::Nothing, None, 0),
                    };
                    let set = set.filter(|v| !v.starts_with('<'));
                    g.flags.push(Flag {
                        word,
                        takes,
                        set,
                        group,
                    });
                    i += skip;
                }
                _ if group == 0 || !counted.contains(&group) => {
                    counted.push(group);
                    g.positionals += 1;
                }
                _ => {}
            }
            i += 1;
        }
        g
    }

    /// The declared flag `name` names (`json` for `--json`).
    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| flag_name(f.word) == Some(name))
    }
}

impl Verb {
    fn usage(&self) -> String {
        let usage = format!("usage: tracedbg {} {}", self.name, self.synopsis);
        usage.trim_end().into()
    }

    /// What the synopsis declares the flag `name` takes; `None` if it is
    /// not declared.
    fn takes(&self, name: &str) -> Option<Takes> {
        Grammar::read(self.synopsis).flag(name).map(|f| f.takes)
    }
}

/// Every verb's usage line.
fn help() -> String {
    let lines: String = VERBS.iter().map(|v| v.usage() + "\n").collect();
    lines + "`tracedbg workloads` lists the run targets\n"
}

/// A verb's command line, read against its synopsis.
pub struct Opts {
    verb: &'static Verb,
    /// The positional arguments, in order.
    args: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    /// Read `words` against `verb`'s synopsis. Refused, with the verb's
    /// usage line: a positional past those it takes, an undeclared flag,
    /// a value flag with no value or with one outside its set, and two
    /// flags of one alternative.
    fn parse(verb: &'static Verb, words: &[String]) -> Result<Opts, String> {
        let grammar = Grammar::read(verb.synopsis);
        let refuse = |what| format!("{} {what} ({})", verb.name, verb.usage());
        let (mut args, mut flags, mut given) = (Vec::new(), Vec::new(), Vec::<&Flag>::new());
        let mut it = words.iter().peekable();
        while let Some(word) = it.next() {
            let Some(name) = flag_name(word) else {
                if args.len() == grammar.positionals {
                    return Err(refuse(format!("takes no further argument {word:?}")));
                }
                args.push(word.clone());
                continue;
            };
            let flag = grammar
                .flag(name)
                .ok_or_else(|| refuse(format!("takes no flag {word}")))?;
            let rival = given.iter().find(|g| {
                g.word != flag.word
                    && g.group == flag.group
                    && grammar.alternatives.contains(&g.group)
            });
            if let Some(rival) = rival {
                return Err(refuse(format!("takes {} or {word}, not both", rival.word)));
            }
            given.push(flag);
            let value = match flag.takes {
                Takes::Nothing => None,
                _ => it.next_if(|next| !next.starts_with("--")).cloned(),
            };
            if flag.takes == Takes::Value && value.is_none() {
                return Err(refuse(format!("{word} needs a value")));
            }
            if let (Some(set), Some(v)) = (flag.set, &value) {
                if !set.split('|').any(|s| s == v) {
                    return Err(refuse(format!("{word} takes {set}, not {v:?}")));
                }
            }
            flags.push((name.to_string(), value));
        }
        Ok(Opts { verb, args, flags })
    }

    /// The first positional argument; its absence is the usage line.
    fn arg(&self) -> Result<&String, String> {
        self.args.first().ok_or_else(|| self.verb.usage())
    }

    /// The values given for the flag `name`, which the verb must declare.
    fn read<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Option<String>> {
        debug_assert!(self.verb.takes(name).is_some(), "undeclared --{name}");
        let name = name.to_string();
        let given = self.flags.iter().filter(move |(n, _)| *n == name);
        given.map(|(_, v)| v)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.read(name).find_map(|v| v.as_deref())
    }

    /// Was the flag given at all (with or without a value)?
    pub fn has(&self, name: &str) -> bool {
        self.read(name).next().is_some()
    }

    /// The flag's value parsed, `default` when the flag is absent. A
    /// value that does not parse is an error, never the default.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => Ok(default),
        }
    }

    /// `--window lo:hi`, `None` when absent; `lo > hi` is refused.
    fn window(&self) -> Result<Option<(u64, u64)>, String> {
        let Some(win) = self.flag("window") else {
            return Ok(None);
        };
        let (lo, hi) = win
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or("bad --window, expected lo:hi")?;
        if lo > hi {
            return Err(format!("bad --window {win}: lo > hi"));
        }
        Ok(Some((lo, hi)))
    }

    fn commands(&self) -> Vec<String> {
        self.read("e").filter_map(|v| v.clone()).collect()
    }
}

/// Exit status of the verbs whose status is a verdict (`lint`, `explore`,
/// `replay`, `localize`): 0, else 1.
pub fn success_if(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// Run `f` with the simulated processes' panic backtraces kept off
/// stderr: a replayed artifact usually records a failure, and its panics
/// are the expected outcome.
pub fn quietly<T>(f: impl FnOnce() -> T) -> T {
    tracedbg::mpsim::set_quiet_panics(true);
    let out = f();
    tracedbg::mpsim::set_quiet_panics(false);
    out
}

/// Write a file the command line names and say so (`<what> written to
/// <path>`), unless `--json` holds stdout.
fn write_out(opts: &Opts, what: &str, path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    if opts.verb.takes("json").is_none() || !opts.has("json") {
        println!("{what} written to {path}");
    }
    Ok(())
}

/// Print a sealed report — its JSON with `--json`, else its rendering —
/// and write the JSON to `--out FILE` when asked. The report is encoded
/// once if either wants it, else not at all.
fn emit_report(
    opts: &Opts,
    to_json: impl FnOnce() -> String,
    render: impl FnOnce() -> String,
) -> Result<(), String> {
    let (json, out) = (opts.has("json"), opts.flag("out"));
    let text = (json || out.is_some()).then(to_json).unwrap_or_default();
    if json {
        println!("{text}");
    } else {
        print!("{}", render());
    }
    out.map_or(Ok(()), |out| write_out(opts, "report", out, &text))
}

/// The positional workload of `run`/`debug`/`explore`, resolved with the
/// verb's `--seed` and `--procs`.
fn workload_arg(opts: &Opts) -> Result<(String, u64, Workload), String> {
    let name = opts.arg()?;
    let seed = opts.num("seed", 42u64)?;
    let workload = Input::workload(name, seed, opts.num("procs", 8usize)?)?;
    Ok((name.clone(), seed, workload))
}

/// Run a workload once under the full recorder (the `profile` and
/// `stats` verbs).
fn run_full(workload: &Workload) -> (Engine, RunOutcome) {
    let cfg = EngineConfig::with_recorder(RecorderConfig::full());
    let mut engine = Engine::launch(cfg, (workload.factory)());
    let outcome = engine.run();
    (engine, outcome)
}

/// `--segment-events N` of `run --store` and `ingest`; the store's default
/// when absent.
fn store_options(opts: &Opts) -> Result<StoreOptions, String> {
    let segment_events = opts.num("segment-events", StoreOptions::default().segment_events)?;
    Ok(StoreOptions { segment_events })
}

fn cmd_run(opts: &Opts) -> Result<ExitCode, String> {
    let (_, _, workload) = workload_arg(opts)?;
    let mut engine = Engine::launch(EngineConfig::default(), (workload.factory)());
    // A factory may hold every rank's plan, as big as the trace.
    drop(workload);
    // --store: the directory is reset before the run, so a bad path fails
    // before the debuggee runs; the store is written from the finished
    // trace, as --trace is.
    let store_dir = match opts.flag("store") {
        Some(dir) => {
            let w = StoreWriter::create(dir.as_ref(), store_options(opts)?);
            Some((w.map_err(|e| e.to_string())?, dir))
        }
        None => None,
    };
    let status = SessionStatus::from(engine.run());
    println!("outcome: {status:?}");
    let store = engine.into_trace_store();
    if let Some((w, dir)) = store_dir {
        let summary = w
            .write_records(store.records(), store.sites(), store.n_ranks())
            .map_err(|e| e.to_string())?;
        println!(
            "store written to {dir} ({} events, {} segments, {} bytes)",
            summary.n_events, summary.n_segments, summary.bytes
        );
    }
    println!("{}", tracedbg::trace::TraceStats::compute(store.records()));
    let report = HistoryReport::analyze(&store);
    println!("{report}");
    if let Some(out) = opts.flag("trace") {
        write_trace_file(out, &store)?;
        println!("trace written to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_view(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.arg()?;
    let store = Input::trace("view", path)?.into_store()?;
    let matching = MessageMatching::build(&store);
    let mut model = TimelineModel::build(&store, &matching, false);
    if let Some((lo, hi)) = opts.window()? {
        model = model.window(lo, hi);
    }
    let width = opts.num("width", 120usize)?;
    println!("{}", render_ascii(&model, width));
    if let Some(svg_path) = opts.flag("svg") {
        write_out(opts, "svg", svg_path, render_svg(&model, 1100.0))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The input of `analyze`/`lint`: a script-backed workload (static front
/// end) or a recorded trace (post-mortem front end).
const SCRIPT_OR_TRACE: &str = "trace.trc | trace.tbin | store-dir | script:<path> | sdl:<name>";

/// The parsed script and file label of a script-backed workload; a native
/// workload has no source for `verb` to reason about.
fn script_of(
    verb: &str,
    spec: &str,
    workload: Workload,
) -> Result<(Script, String, usize), String> {
    let (parsed, file) = workload.script.ok_or_else(|| {
        format!("{verb} takes {SCRIPT_OR_TRACE}, not the native workload {spec:?}")
    })?;
    Ok((parsed, file, workload.nprocs))
}

fn cmd_analyze(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.arg()?;
    // Script-backed specs get the static analysis; anything else is a
    // recorded trace and gets the history analyzer. Here (only) a bare
    // builtin-script name reads as that script: `ring` is `sdl:ring`.
    let spec = scripts::builtin(path).map_or(path.clone(), |b| b.file());
    let trace = match Input::resolve(&spec, 0, opts.num("procs", 8usize)?)? {
        Input::Workload(w) => {
            let (parsed, file, nprocs) = script_of("analyze", path, w)?;
            let a = tracedbg::analysis::analyze(&parsed, nprocs, &file);
            if opts.has("json") {
                println!("{}", a.to_json(path));
            } else if opts.has("dot") {
                println!("{}", a.to_dot(path));
            } else {
                print!("{}", a.render(path));
            }
            return Ok(ExitCode::SUCCESS);
        }
        Input::Trace(t) => t,
    };
    let store = trace.into_store()?;
    let (matching, hb) = causal_indexes(&store, path)?;
    let report = HistoryReport::from_indexes(&store, matching, &hb);
    println!("{report}");
    println!();
    let actions = ActionGraph::build(&store);
    println!("--- action graph (§4.4) ---");
    print!("{}", actions.render());
    let profile = Profile::compute(&store);
    if !profile.is_empty() {
        println!("\n--- function profile (simulated time) ---");
        print!("{profile}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.arg()?;
    let store = Input::trace("report", path)?.into_store()?;
    let (matching, hb) = causal_indexes(&store, path)?;
    let analysis = HistoryReport::from_indexes(&store, matching, &hb).to_string();
    let html = tracedbg::viz::render_html_report(&store, &analysis, path);
    let out = opts.flag("out").unwrap_or("trace_report.html");
    write_out(opts, "report", out, html)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_graph(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.arg()?;
    let store = Input::trace("graph", path)?.into_store()?;
    // The synopsis admits `--kind comm|call|trace` and `--format dot|vcg`.
    let as_vcg = opts.flag("format") == Some("vcg");
    let out = match opts.flag("kind").unwrap_or("comm") {
        "call" => {
            let rank = Rank(opts.num("rank", 0u32)?);
            let cg = CallGraph::project(&TraceGraph::build(&store), rank);
            if as_vcg {
                vcg::call_graph_vcg(&cg, 4)
            } else {
                dot::call_graph_dot(&cg, 4)
            }
        }
        "trace" => {
            let tg = TraceGraph::build(&store);
            if as_vcg {
                vcg::trace_graph_vcg(&tg)
            } else {
                dot::trace_graph_dot(&tg)
            }
        }
        _ => {
            let cg = CommGraph::build(&store, &MessageMatching::build(&store));
            if as_vcg {
                vcg::comm_graph_vcg(&cg)
            } else {
                dot::comm_graph_dot(&cg)
            }
        }
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_debug(opts: &Opts) -> Result<ExitCode, String> {
    let (_, _, workload) = workload_arg(opts)?;
    let cfg = SessionConfig {
        // Checkpoint every Nth stop for O(delta) undo/replay; 0 disables
        // the cache and every replay re-executes from scratch.
        checkpoint_every: opts.num("checkpoint-every", 1usize)?,
        ..SessionConfig::default()
    };
    let session = Session::launch(cfg, workload.factory);
    let mut ci = CommandInterface::new(session);
    let scripted = opts.commands();
    if !scripted.is_empty() {
        for cmd in scripted {
            println!("{}", ci.execute(&cmd));
        }
        return Ok(ExitCode::SUCCESS);
    }
    println!("tracedbg interactive debugger — 'help' for commands, 'quit' to exit");
    let stdin = std::io::stdin();
    loop {
        print!("(tracedbg) ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        let read = stdin.lock().read_line(&mut line);
        if read.map_err(|e| e.to_string())? == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "quit" | "exit" | "q" => break,
            cmd => println!("{}", ci.execute(cmd)),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg lint` — run the correctness checker over a recorded trace
/// (post-mortem front end) or a workload script (pre-execution front end).
/// Exits non-zero when any error-severity diagnostic is found.
fn cmd_lint(opts: &Opts) -> Result<ExitCode, String> {
    use tracedbg::lint::{self, report};

    let input = opts.arg()?;
    if input == "rules" {
        for rule in lint::rule_catalog() {
            let (id, severity, url) = (rule.id, rule.severity.to_string(), rule.id.docs_url());
            let (front_end, description) = (rule.front_end, rule.description);
            println!("{id}  {severity:<7}  {front_end:<6}  {description:<70}  {url}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let cfg = opts
        .flag("rules")
        .map_or_else(lint::LintConfig::default, lint::LintConfig::from_spec);
    let diags = match Input::resolve(input, 0, opts.num("procs", 8usize)?)? {
        Input::Workload(w) => {
            let (parsed, file, nprocs) = script_of("lint", input, w)?;
            lint::lint_script(&parsed, nprocs, &file, &cfg)
        }
        Input::Trace(t) => {
            let store = t.into_store()?;
            let (matching, hb) = causal_indexes(&store, input)?;
            // Told which script produced the trace, the rules also hold
            // its static analysis against what was recorded (TDL008).
            let analysis = match opts.flag("script") {
                Some(spec) => {
                    let spec = script_flag_spec(spec);
                    let w = Input::workload(&spec, 0, store.n_ranks())?;
                    let (parsed, file, _) = script_of("lint --script", &spec, w)?;
                    // The analysis must model exactly the traced execution:
                    // its rank count, not the spec's default.
                    Some(tracedbg::analysis::analyze(&parsed, store.n_ranks(), &file))
                }
                None => None,
            };
            let cx = lint::TraceCx {
                store: &store,
                matching,
                hb,
                analysis,
            };
            lint::lint_trace_cx(cx, &cfg)
        }
    };
    if opts.has("json") {
        println!("{}", report::render_json(&diags));
    } else {
        print!("{}", report::render_human(&diags));
    }
    Ok(success_if(!report::has_errors(&diags)))
}

/// The spec `lint --script` names: `script:`/`sdl:` forms as they are, a
/// bare builtin name as that builtin, and anything else as a path —
/// `--script foo.script` means `--script script:foo.script`.
fn script_flag_spec(spec: &str) -> String {
    match scripts::builtin(spec) {
        Some(b) => b.file(),
        None if spec.starts_with("script:") || spec.starts_with("sdl:") => spec.to_string(),
        None => format!("script:{spec}"),
    }
}

/// `tracedbg explore` — search the schedule space (and optionally the
/// fault space) of a workload for deadlocks, panics, and lint violations.
/// Each finding is saved as a minimized `.sched.json` artifact that
/// `tracedbg replay --schedule` re-executes deterministically. Exits
/// non-zero when any violation was found, mirroring `lint`.
fn cmd_explore(opts: &Opts) -> Result<ExitCode, String> {
    let (name, seed, workload) = workload_arg(opts)?;
    let runs = opts.num("runs", 64usize)?;
    // --dpor: prove rank independence statically and let the systematic
    // search skip interleavings that only permute commuting decisions.
    // Only script-backed workloads have a source to analyze.
    let independence = if opts.has("dpor") {
        let (parsed, file) = workload.script.as_ref().ok_or(
            "--dpor needs a script-backed workload (script:<path> or sdl:<name>) \
             so the static analysis has a source to prove independence from",
        )?;
        Some(tracedbg::analysis::analyze(parsed, workload.nprocs, file).independence)
    } else {
        None
    };
    let cfg = ExploreConfig {
        workload: name.clone(),
        seed,
        runs,
        preemptions: opts.num("preemptions", 2usize)?,
        inject_faults: opts.has("faults"),
        // The synopsis admits `random|systematic|both`.
        strategy: match opts.flag("strategy") {
            Some("random") => ExploreStrategy::Random,
            Some("systematic") => ExploreStrategy::Systematic,
            _ => ExploreStrategy::Both,
        },
        // 0 = one worker per available core; findings are identical for
        // every job count at a fixed seed.
        jobs: opts.num("jobs", 0usize)?,
        metrics: opts.has("metrics"),
        progress: opts.has("progress"),
        independence,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let (report, metrics) = Explorer::new(cfg, workload.factory).explore_traced();
    let wall_ms = started.elapsed().as_millis() as u64;
    if opts.has("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    let out_dir = opts.flag("out").unwrap_or("target/explore");
    if let Some(m) = metrics {
        // Telemetry goes to its own file so the ExploreReport JSON above
        // stays byte-comparable across job counts.
        let metrics_path = match opts.flag("metrics") {
            Some(p) => p.to_string(),
            None => {
                std::fs::create_dir_all(out_dir)
                    .map_err(|e| format!("cannot create {out_dir}: {e}"))?;
                format!("{out_dir}/metrics.json")
            }
        };
        write_out(opts, "metrics", &metrics_path, m.to_json())?;
    }
    let found = !report.findings.is_empty();
    if found {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
        // Stamped at write time only: the in-report JSON stays free of
        // wall-clock data, but every artifact on disk records where it
        // came from.
        let meta = ArtifactMeta {
            jobs: report.jobs as u64,
            runs: runs as u64,
            wall_ms,
            version: env!("CARGO_PKG_VERSION").to_string(),
        };
        let safe = name.replace(|c: char| !c.is_alphanumeric() && c != '-', "-");
        for (i, f) in report.findings.iter().enumerate() {
            let path = format!("{out_dir}/{safe}-{}-{i}.sched.json", f.class);
            let mut artifact = f.artifact.clone();
            artifact.meta = Some(meta.clone());
            write_out(opts, "schedule", &path, artifact.to_json())?;
        }
    }
    Ok(success_if(!found))
}

/// `tracedbg profile` — critical-path profiling and wait-state analysis
/// over any trace plane: a workload (run once under the full recorder),
/// a recorded `.trc`/`.tbin` file or ingested store
/// directory, or a failing explorer artifact (`--schedule`, replaying its
/// recorded decisions and faults). Prints the wait/blame table, writes
/// the sealed [`ProfileReport`] with `--out`, and with `--perfetto FILE`
/// exports a Chrome/Perfetto trace-event timeline (load it in
/// `ui.perfetto.dev` or `chrome://tracing`: one track per rank, wait
/// slices with their causing rank, message-flow arrows, and a dedicated
/// critical-path track). The report is a pure function of the trace, so
/// every input plane that delivers the same records gives one report but
/// for the fields naming the input.
fn cmd_profile(opts: &Opts) -> Result<ExitCode, String> {
    let (source, workload, procs, seed, store) = if let Some(path) = opts.flag("schedule") {
        let (a, w) = load_artifact(path)?;
        let mut session = Session::launch(SessionConfig::for_artifact(&a), w.factory);
        quietly(|| session.run());
        ("schedule", a.workload, a.procs, a.seed, session.trace())
    } else {
        let name = opts.arg()?;
        let seed = opts.num("seed", 42u64)?;
        match Input::resolve(name, seed, opts.num("procs", 8usize)?)? {
            Input::Trace(trace) => {
                let plane = match trace {
                    TraceInput::Mem(_) => "trace",
                    TraceInput::Disk(_) => "store",
                };
                let store = trace.into_store()?;
                (plane, name.clone(), store.n_ranks(), 0, store)
            }
            Input::Workload(w) => {
                let store = run_full(&w).0.into_trace_store();
                ("workload", name.clone(), store.n_ranks(), seed, store)
            }
        }
    };
    let report = ProfileReport::build(
        &store,
        ProfileInput {
            source,
            workload: &workload,
            procs,
            seed,
            flight_dropped: 0,
        },
    );
    emit_report(opts, || report.to_json(), || report.render())?;
    if let Some(out) = opts.flag("perfetto") {
        let matching = MessageMatching::build(&store);
        let waits = WaitAnalysis::build(&store, &matching);
        let path = CriticalPath::build(&store, &matching);
        let json = perfetto_json(&store, &matching, &waits, &path);
        write_out(opts, "perfetto trace", out, json)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg stats` — run a workload once and show the
/// AIMS-statistics-style per-rank profile (message volume, wait turns)
/// derived from its trace and decision log; `--metrics` additionally
/// writes the machine-readable [`MetricsReport`] JSON.
fn cmd_stats(opts: &Opts) -> Result<ExitCode, String> {
    let name = opts.arg()?;
    let seed = opts.num("seed", 42u64)?;
    let workload = match Input::resolve(name, seed, opts.num("procs", 8usize)?)? {
        Input::Trace(_) if opts.has("metrics") => {
            return Err(format!(
                "stats --metrics needs a workload: a recorded trace has no decision log \
                 to derive engine metrics from ({name} is a trace)"
            ))
        }
        // Recorded-trace mode: stream the statistics off any trace plane
        // through `TraceSource` — a store directory is never materialized.
        Input::Trace(trace) => {
            let stats = TraceStats::from_source(trace.source()).map_err(|e| e.to_string())?;
            print!("{stats}");
            return Ok(ExitCode::SUCCESS);
        }
        Input::Workload(w) => w,
    };
    let started = std::time::Instant::now();
    let (engine, outcome) = run_full(&workload);
    let wall_ms = started.elapsed().as_millis() as u64;
    println!("outcome: {outcome:?}");
    let m = engine.take_metrics().expect("a run derives its metrics");
    print!("{}", render_rank_profile(&m));
    if opts.has("metrics") {
        let nprocs = m.nprocs() as u64;
        let report = MetricsReport::new(
            "stats",
            name,
            nprocs,
            seed,
            1,
            tracedbg::obs::EventMetrics {
                runs: 1,
                engine: m,
                explore: None,
            },
            tracedbg::obs::TimingMetrics {
                wall_ms: wall_ms.max(1),
                ..Default::default()
            },
        );
        let path = opts.flag("metrics").unwrap_or("metrics.json");
        write_out(opts, "metrics", path, report.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg localize` — differential fault localization: replay a
/// failing artifact (from `--schedule`, or the first finding of an
/// on-the-fly exploration of a workload), harvest passing reference
/// schedules, and rank suspect processes by decision-log divergence,
/// event-graph diff, and telemetry anomaly. `--trace` supplies the
/// failing trace from a recorded `.trc`/`.tbin` file or an ingested
/// store directory (materialized once: the differ reads every rank).
/// Exits non-zero only when no passing reference could be found.
fn cmd_localize(opts: &Opts) -> Result<ExitCode, String> {
    let (artifact, workload) = if let Some(path) = opts.flag("schedule") {
        load_artifact(path)?
    } else {
        // Workload mode: explore on the fly, localize the first finding.
        let (name, seed, workload) = workload_arg(opts)?;
        let cfg = ExploreConfig {
            workload: name.clone(),
            seed,
            runs: opts.num("explore-runs", 64usize)?,
            ..Default::default()
        };
        let report = Explorer::new(cfg, workload.factory).explore();
        let finding = report.findings.first().ok_or_else(|| {
            format!("exploration found no failures in {name} — nothing to localize")
        })?;
        let artifact = finding.artifact.clone();
        let workload = Input::workload(&artifact.workload, artifact.seed, artifact.procs)?;
        (artifact, workload)
    };
    let lcfg = tracedbg::localize::LocalizeConfig {
        runs: opts.num("runs", 8usize)?,
        seed: opts.num("seed", 0u64)?,
        jobs: opts.num("jobs", 1usize)?,
    };
    // Resolve the failing-trace override up front so IO errors surface
    // before any simulated processes run. The graph differ asks for every
    // rank's edges twice; a store directory would be walked once per
    // question, so it is materialized here, once.
    let failing_trace = match opts.flag("trace") {
        Some(p) => Some(Input::trace("localize --trace", p)?.into_store()?),
        None => None,
    };
    let failing_source = failing_trace.as_ref().map(|t| t as &dyn TraceSource);
    let report = quietly(|| {
        tracedbg::localize::localize_with_trace(&workload.factory, &artifact, &lcfg, failing_source)
    });
    emit_report(opts, || report.to_json(), || report.render())?;
    let found_reference = report.verdict != tracedbg::localize::VERDICT_NO_REFERENCE;
    Ok(success_if(found_reference))
}

/// `tracedbg ingest` — convert a recorded trace file into the indexed
/// on-disk store format `tracedbg query` (and every trace-consuming
/// command) reads.
fn cmd_ingest(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.arg()?;
    let out = opts.flag("out").ok_or_else(|| opts.verb.usage())?;
    let store = Input::trace("ingest", path)?.into_store()?;
    let started = std::time::Instant::now();
    let summary = tracedbg::store::ingest_records(
        store.records(),
        store.sites(),
        store.n_ranks(),
        std::path::Path::new(out),
        store_options(opts)?,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "ingested {path}: {} events, {} ranks -> {out} ({} segments, {} bytes) in {:.1} ms",
        summary.n_events,
        summary.n_ranks,
        summary.n_segments,
        summary.bytes,
        started.elapsed().as_secs_f64() * 1e3,
    );
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg query` — indexed queries over an ingested store directory.
/// Events stream from the store's cursors; the trace is never
/// materialized, so multi-million-event stores answer in milliseconds.
fn cmd_query(opts: &Opts) -> Result<ExitCode, String> {
    let dir = opts.arg()?;
    let disk = Input::store("query", dir)?;
    if opts.has("stats") {
        // Streaming one-pass statistics through the TraceSource trait.
        let stats = tracedbg::trace::TraceStats::from_source(&disk).map_err(|e| e.to_string())?;
        print!("{stats}");
        return Ok(ExitCode::SUCCESS);
    }
    // The synopsis admits one selector at most, and a kind by its code.
    let sel = match (opts.flag("kind"), opts.window()?) {
        (Some(code), _) => Select::Kind(EventKind::from_code(code).expect("a listed code")),
        (_, Some((lo, hi))) => Select::TimeWindow(lo, hi),
        _ if opts.has("rank") => Select::Rank(Rank(opts.num("rank", 0)?)),
        _ if opts.has("tag") => Select::Tag(Tag(opts.num("tag", 0)?)),
        _ => Select::All,
    };
    let (t_lo, t_hi) = disk.time_bounds();
    println!(
        "{dir}: {} events, {} ranks, t=[{t_lo}, {t_hi}] — {sel}",
        disk.n_events(),
        disk.n_ranks(),
    );
    let limit = opts.num("limit", 20usize)?;
    let count_only = opts.has("count");
    let (mut shown, mut total) = (0usize, 0usize);
    for rec in disk.select(sel).map_err(|e| e.to_string())? {
        let rec = rec.map_err(|e| e.to_string())?;
        total += 1;
        if !count_only && shown < limit {
            println!(
                "  {:?} marker {} at t={}: {}",
                rec.rank, rec.marker, rec.t_start, rec
            );
            shown += 1;
        }
    }
    if !count_only && total > shown {
        println!("  ... ({} more; raise --limit)", total - shown);
    }
    println!("{total} match(es)");
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg bench` — the in-tree perf harness. Runs the fixed-iteration
/// suites from `tracedbg-bench` (trace parse, happens-before
/// construction, golden-trace replay, engine throughput, and explorer
/// runs/sec at jobs=1 vs jobs=N), prints a human table per suite, and
/// writes `BENCH_<suite>.json` files into `--out` (default the current
/// directory) for the perf trajectory.
fn cmd_bench(opts: &Opts) -> Result<ExitCode, String> {
    let suite_opts = tracedbg_bench::suites::SuiteOptions {
        quick: opts.has("quick"),
        filter: opts.flag("filter").map(|s| s.to_string()),
        // 0 = one worker per available core for the explore_jobsN point.
        jobs: opts.num("jobs", 0usize)?,
    };
    let out_dir = std::path::Path::new(opts.flag("out").unwrap_or("."));
    let suites = tracedbg_bench::suites::run_suites(&suite_opts);
    if suites.is_empty() {
        return Err(format!(
            "filter {:?} matched no benchmarks",
            suite_opts.filter.as_deref().unwrap_or("")
        ));
    }
    for s in &suites {
        print!(
            "{}",
            tracedbg_bench::measure::render_table(s.name, &s.records)
        );
        let path = tracedbg_bench::measure::write_suite(out_dir, s.name, &s.records)
            .map_err(|e| format!("cannot write BENCH_{}.json: {e}", s.name))?;
        println!("wrote {}\n", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// A JSON string literal, for the hand-assembled `replay --json` objects.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

/// A reader that closes stdout early (`tracedbg run … | head -1`) ends
/// the output; it is not an error. The Rust runtime starts with SIGPIPE
/// ignored, which turns the next `println!` into a panic and exit code
/// 101; restoring the default disposition makes the write end the
/// process quietly, like any Unix filter.
#[cfg(unix)]
fn die_quietly_on_closed_stdout() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is the C library's; SIG_DFL is a valid disposition
    // for SIGPIPE, and this runs first thing in `main`, before any other
    // thread exists or any handler could have been installed.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

fn main() -> ExitCode {
    #[cfg(unix)]
    die_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", help());
        return ExitCode::FAILURE;
    };
    if cmd == "--help" {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(verb) = VERBS.iter().find(|v| v.name == cmd) else {
        eprintln!("error: unknown command {cmd:?}");
        return ExitCode::FAILURE;
    };
    if args.iter().any(|a| a == "--help") {
        println!("{}", verb.usage());
        return ExitCode::SUCCESS;
    }
    let result = Opts::parse(verb, &args[1..]).and_then(|opts| (verb.run)(&opts));
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verb(name: &str) -> &'static Verb {
        VERBS.iter().find(|v| v.name == name).expect(name)
    }

    fn parse(name: &str, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Opts::parse(verb(name), &args)
    }

    #[test]
    fn opts_parses_flags_values_and_positionals() {
        let args = [
            "ring", "--seed", "7", "--procs", "4", "-e", "run", "-e", "step 1",
        ];
        let o = parse("debug", &args).unwrap();
        assert_eq!(o.args, vec!["ring"]);
        assert_eq!(o.flag("seed"), Some("7"));
        assert_eq!(o.num("procs", 0usize), Ok(4));
        assert_eq!(o.commands(), vec!["run", "step 1"], "-e repeats");
        assert!(!o.has("checkpoint-every"));
        assert_eq!(
            o.num("checkpoint-every", 1usize),
            Ok(1),
            "missing flag falls back"
        );
        let bad = parse("explore", &["ring", "--runs", "lots"]).unwrap();
        let err = bad.num("runs", 64usize).unwrap_err();
        assert_eq!(err, "--runs: bad value \"lots\"", "never the default");
        let negative = parse("stats", &["pool", "--seed", "-1"]).unwrap();
        assert_eq!(negative.flag("seed"), Some("-1"), "a number is a value");
        let skip = parse("lint", &["t.trc", "--rules", "-SDL104", "--json"]).unwrap();
        assert_eq!(
            (skip.flag("rules"), skip.has("json")),
            (Some("-SDL104"), true)
        );
    }

    /// What each flag takes is read off the synopsis.
    #[test]
    fn the_synopsis_declares_what_each_flag_takes() {
        let takes = |name, flag| verb(name).takes(flag);
        assert_eq!(takes("lint", "json"), Some(Takes::Nothing));
        assert_eq!(
            takes("analyze", "json"),
            Some(Takes::Nothing),
            "[--json | --dot]"
        );
        assert_eq!(takes("analyze", "dot"), Some(Takes::Nothing));
        assert_eq!(takes("report", "out"), Some(Takes::Value));
        assert_eq!(
            takes("profile", "schedule"),
            Some(Takes::Value),
            "(... | --schedule FILE)"
        );
        assert_eq!(
            takes("localize", "schedule"),
            Some(Takes::Value),
            "(--schedule FILE | ...)"
        );
        assert_eq!(takes("debug", "e"), Some(Takes::Value));
        assert_eq!(takes("query", "window"), Some(Takes::Value));
        assert_eq!(takes("stats", "metrics"), Some(Takes::MaybeValue));
        assert_eq!(takes("explore", "metrics"), Some(Takes::MaybeValue));
        assert_eq!(takes("run", "metrics"), None);
        assert_eq!(takes("run", "porcs"), None);
        assert_eq!(takes("workloads", "json"), None);
        // The benchmark and verify.sh pass these.
        assert_eq!(takes("explore", "dpor"), Some(Takes::Nothing));
        assert_eq!(
            takes("profile", "jobs"),
            None,
            "the report never depended on it"
        );
        assert_eq!(takes("debug", "checkpoint-every"), Some(Takes::Value));
    }

    #[test]
    fn a_flag_the_verb_does_not_take_is_refused_with_its_usage() {
        let usage = |name| verb(name).usage();
        let err = |name, args: &[&str]| parse(name, args).err().expect(name);
        let ring = ["ring", "--porcs", "4"];
        assert_eq!(
            err("run", &ring),
            format!("run takes no flag --porcs ({})", usage("run"))
        );
        assert!(
            err("run", &["stencil", "--metrics", "F"]).starts_with("run takes no flag --metrics")
        );
        assert!(err("report", &["r.trc", "-o", "x.html"]).starts_with("report takes no flag -o"));
        assert!(err("report", &["r.trc", "--o", "x.html"]).starts_with("report takes no flag --o"));
        assert!(err("bench", &["--frobnicate"]).starts_with("bench takes no flag --frobnicate"));
        let no_value = format!("report --out needs a value ({})", usage("report"));
        assert_eq!(err("report", &["r.trc", "--out"]), no_value);
        assert!(err("run", &["ring", "--trace", "--procs", "4"]).starts_with("run --trace needs"));
        assert_eq!(usage("workloads"), "usage: tracedbg workloads");
    }

    /// What the synopsis says beyond the flags' names is enforced too:
    /// how many positionals a verb takes, which flags exclude each other
    /// and which values a flag admits.
    #[test]
    fn the_synopsis_is_the_whole_grammar() {
        let grammar = |name| Grammar::read(verb(name).synopsis);
        let positionals: Vec<(&str, usize)> = VERBS
            .iter()
            .map(|v| (v.name, grammar(v.name).positionals))
            .collect();
        for (name, n) in positionals {
            let none = ["replay", "bench", "workloads"].contains(&name);
            assert_eq!(n, usize::from(!none), "{name}");
        }
        assert_eq!(
            grammar("graph").flag("format").unwrap().set,
            Some("dot|vcg")
        );
        let codes: Vec<&str> = EventKind::all().into_iter().map(|k| k.code()).collect();
        assert_eq!(
            grammar("query").flag("kind").unwrap().set,
            Some(&*codes.join("|"))
        );
        assert_eq!(grammar("query").flag("window").unwrap().set, None, "lo:hi");
        assert_eq!(
            grammar("localize").flag("trace").unwrap().set,
            None,
            "<a | b>"
        );

        let err = |name, args: &[&str]| parse(name, args).err().expect(name);
        let usage = |name| verb(name).usage();
        assert_eq!(
            err("view", &["a.trc", "b.trc"]),
            format!(
                "view takes no further argument \"b.trc\" ({})",
                usage("view")
            )
        );
        assert!(err("bench", &["x"]).starts_with("bench takes no further argument \"x\""));
        assert!(err("localize", &["w", "x"]).starts_with("localize takes no further"));
        assert!(err("lint", &["rules", "t.trc"]).starts_with("lint takes no further"));
        assert!(parse("lint", &["rules"]).is_ok());
        assert!(parse("replay", &["--schedule", "a.json"]).is_ok());
        let two_modes = [
            "--schedule",
            "a",
            "--to-suspect",
            "r",
            "--to-critical-path",
            "p",
        ];
        assert_eq!(
            err("replay", &two_modes),
            format!(
                "replay takes --to-suspect or --to-critical-path, not both ({})",
                usage("replay")
            )
        );
        let checkpoint = ["--schedule", "a", "--from-checkpoint", "--to-suspect", "r"];
        assert!(err("replay", &checkpoint).starts_with("replay takes --from-checkpoint or"));

        assert_eq!(
            err("analyze", &["sdl:pairs", "--json", "--dot"]),
            format!(
                "analyze takes --json or --dot, not both ({})",
                usage("analyze")
            )
        );
        let two = ["st", "--rank", "1", "--window", "0:5"];
        assert!(err("query", &two).starts_with("query takes --rank or --window, not both"));
        assert!(parse("query", &["st", "--rank", "1", "--limit", "3", "--count"]).is_ok());
        assert!(
            parse("analyze", &["t.trc", "--json", "--json"]).is_ok(),
            "one flag twice"
        );

        let xyz = ["t.trc", "--kind", "call", "--format", "xyz"];
        assert_eq!(
            err("graph", &xyz),
            format!(
                "graph --format takes dot|vcg, not \"xyz\" ({})",
                usage("graph")
            )
        );
        assert!(err("graph", &["t.trc", "--kind", "cal"]).starts_with("graph --kind takes"));
        assert!(err("explore", &["ring", "--strategy", "dfs"]).starts_with("explore --strategy"));
        let vcg = parse("graph", &["t.trc", "--kind", "trace", "--format", "vcg"]).unwrap();
        assert_eq!(
            (vcg.flag("kind"), vcg.flag("format")),
            (Some("trace"), Some("vcg"))
        );
    }

    #[test]
    fn a_boolean_flag_never_takes_the_next_word() {
        let lint = parse("lint", &["--json", "r.trc"]).unwrap();
        assert_eq!(
            (lint.has("json"), lint.arg()),
            (true, Ok(&"r.trc".to_string()))
        );
        let explore = parse("explore", &["--json", "planted-wildcard", "--runs", "4"]).unwrap();
        assert_eq!(explore.args, vec!["planted-wildcard"]);
        // An optional value is the next word unless that word is a flag.
        let metrics = parse("stats", &["ring", "--metrics", "m.json"]).unwrap();
        assert_eq!(metrics.flag("metrics"), Some("m.json"));
        let bare = parse("explore", &["ring", "--metrics", "--json"]).unwrap();
        assert_eq!((bare.has("metrics"), bare.flag("metrics")), (true, None));
        assert!(bare.has("json"));
    }

    #[test]
    fn a_missing_positional_is_the_usage_line() {
        let stats = parse("stats", &["--procs", "4"]).unwrap();
        assert_eq!(stats.arg(), Err(verb("stats").usage()));
        assert!(verb("replay")
            .usage()
            .starts_with("usage: tracedbg replay --schedule FILE"));
    }

    #[test]
    fn a_window_is_lo_colon_hi_with_lo_at_most_hi() {
        let window = |w| parse("view", &["t.trc", "--window", w]).unwrap().window();
        assert_eq!(window("5:5"), Ok(Some((5, 5))));
        assert_eq!(
            window("500000:1"),
            Err("bad --window 500000:1: lo > hi".into())
        );
        assert_eq!(window("5"), Err("bad --window, expected lo:hi".into()));
        assert_eq!(parse("query", &["st"]).unwrap().window(), Ok(None));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "undeclared --metrics")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse("run", &["ring"]).unwrap().has("metrics");
    }

    /// Every `tracedbg …` line in README.md's code blocks names a verb and
    /// only flags it takes; nothing is run.
    #[test]
    fn every_readme_invocation_parses() {
        let mut in_block = false;
        let mut checked = 0;
        for line in include_str!("../../../../README.md").lines() {
            if line.trim_start().starts_with("```") {
                in_block = !in_block;
            }
            let words: Vec<&str> = line
                .split_whitespace()
                .take_while(|w| !w.starts_with('#'))
                .collect();
            let Some(at) = words.iter().position(|w| *w == "tracedbg") else {
                continue;
            };
            if !in_block || !matches!(words[..at], [] | ["$"] | [.., "--bin"]) {
                continue;
            }
            let rest = &words[at + 1..];
            let rest = rest.strip_prefix(&["--"][..]).unwrap_or(rest);
            let (name, args) = rest.split_first().expect(line);
            assert!(VERBS.iter().any(|v| v.name == *name), "{line}");
            if let Err(e) = parse(name, args) {
                panic!("README.md: {line}: {e}");
            }
            checked += 1;
        }
        assert!(checked >= 40, "only {checked} invocations found");
    }

    fn nprocs(spec: &str, procs: usize) -> usize {
        let w = Input::workload(spec, 1, procs).expect(spec);
        assert_eq!((w.factory)().len(), w.nprocs, "{spec}: factory/nprocs");
        w.nprocs
    }

    #[test]
    fn workload_factory_resolves_known_names() {
        // `tracedbg workloads` and the resolver read one table: every
        // printed name resolves (a prefix form with its placeholder filled
        // in; `script:` needs a file, see the resolver test) ...
        for line in catalog::listing().lines() {
            let name = line.split_whitespace().next().unwrap();
            match name.split_once(":<") {
                None => nprocs(name, 4),
                Some(("script", _)) => continue,
                Some(("sdl", _)) => nprocs("sdl:pairs", 4),
                Some((prefix, _)) => nprocs(&format!("{prefix}:6"), 4),
            };
        }
        // ... and nothing resolves that is not printed.
        for miss in [
            "no-such-workload",
            "./ring",
            "Ring",
            "ring.trc",
            "fib",
            "sdl",
        ] {
            assert!(!catalog::is_workload(miss), "{miss}");
            assert_eq!(
                Input::workload(miss, 1, 4).err().expect(miss),
                format!("unknown workload {miss:?} (try `tracedbg workloads`)")
            );
        }
        let err = |spec| Input::workload(spec, 1, 4).err().expect(spec);
        assert_eq!(err("fib:x"), "bad fib input \"x\"");
        assert_eq!(err("random:many"), "bad transfer count \"many\"");
        assert!(err("sdl:no-such-script").starts_with("unknown builtin script"));
    }

    #[test]
    fn sdl_workloads_clamp_to_min_procs() {
        assert_eq!(nprocs("sdl:racy-wildcard", 1), 3, "a master, two workers");
        assert_eq!(nprocs("sdl:ring", 1), 2);
    }

    #[test]
    fn racy_workloads_enforce_a_minimum_of_three_procs() {
        assert_eq!(nprocs("racy-wildcard", 1), 3);
        assert_eq!(nprocs("racy-deadlock", 12), 12);
    }

    #[test]
    fn script_workload_resolves_bare_names_only_when_allowed() {
        // `ring` is a native workload; only `analyze` and `lint --script`
        // read the bare name as the builtin script.
        let ring = Input::workload("ring", 1, 4).unwrap();
        let err = script_of("lint", "ring", ring).unwrap_err();
        assert_eq!(
            err,
            format!("lint takes {SCRIPT_OR_TRACE}, not the native workload \"ring\"")
        );
        let pairs = Input::workload("sdl:pairs", 1, 1).unwrap();
        let (_, file, n) = script_of("lint", "sdl:pairs", pairs).unwrap();
        assert_eq!((file.as_str(), n), ("sdl:pairs", 2), "clamped to min_procs");
        for (flag, spec) in [
            ("ring", "sdl:ring"),
            ("sdl:pairs", "sdl:pairs"),
            ("script:a.script", "script:a.script"),
            ("foo.script", "script:foo.script"),
        ] {
            assert_eq!(script_flag_spec(flag), spec);
        }
    }

    /// One rule for "workload or file": a listed name or prefix form is the
    /// workload, anything else is a path, on whichever plane it is. (That
    /// the name wins whatever the working directory holds is
    /// `tests/integration.rs::a_name_is_the_workload_whatever_the_cwd_holds`.)
    #[test]
    fn a_spec_resolves_to_one_variant_for_every_verb() {
        let dir = std::env::temp_dir().join(format!("tracedbg-resolve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("empty-dir")).unwrap();
        let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let store = run_full(&Input::workload("ring", 1, 2).unwrap())
            .0
            .trace_store();
        write_trace_file(&at("t.trc"), &store).unwrap();
        write_trace_file(&at("t.tbin"), &store).unwrap();
        let opts = StoreOptions { segment_events: 64 };
        let (records, sites) = (store.records(), store.sites());
        tracedbg::store::ingest_records(records, sites, 2, at("st").as_ref(), opts).unwrap();
        std::fs::write(at("a.script"), scripts::builtin("ring").unwrap().source).unwrap();

        let resolve = |spec: &str| match Input::resolve(spec, 1, 4)? {
            Input::Workload(w) if w.script.is_some() => Ok("script"),
            Input::Workload(_) => Ok("native"),
            Input::Trace(TraceInput::Mem(s)) if s.len() == store.len() => Ok("mem"),
            Input::Trace(TraceInput::Mem(_)) => Ok("mem, but not the trace written"),
            Input::Trace(TraceInput::Disk(_)) => Ok("disk"),
        };
        for (spec, want) in [
            ("ring".to_string(), Ok("native")),
            ("fib:6".to_string(), Ok("native")),
            ("random:4".to_string(), Ok("native")),
            ("sdl:ring".to_string(), Ok("script")),
            (format!("script:{}", at("a.script")), Ok("script")),
            (at("t.trc"), Ok("mem")),
            (at("t.tbin"), Ok("mem")),
            (at("st"), Ok("disk")),
            // A workload that cannot be built is an error, not a path.
            ("fib:x".to_string(), Err("bad fib input")),
            ("sdl:nope".to_string(), Err("unknown builtin script")),
            (
                "script:nope.script".to_string(),
                Err("cannot read nope.script"),
            ),
            ("./ring".to_string(), Err("cannot open ./ring")),
            ("Ring".to_string(), Err("cannot open Ring")),
            (at("empty-dir"), Err(&at("empty-dir/manifest.tds"))),
        ] {
            match (resolve(&spec), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{spec}"),
                (Err::<_, String>(e), Err(want)) => assert!(e.starts_with(want), "{spec}: {e}"),
                (got, want) => panic!("{spec}: {got:?}, want {want:?}"),
            }
        }
        // (`view ring`, `query ring`: what a verb that reads a trace says to
        // a workload is pinned by the integration test named above.)
        assert!(Input::store("query", &at("st")).is_ok());
        assert!(
            Input::store("query", &at("t.trc")).is_err(),
            "a file is not a store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_string_escapes_control_and_quote_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny\u{1}"), "\"x\\ny\\u0001\"");
    }
}
