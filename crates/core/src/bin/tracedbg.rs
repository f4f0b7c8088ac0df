//! `tracedbg` — command-line front end.
//!
//! ```text
//! tracedbg run <workload> [--trace out.trc] [--store dir] [--seed N] [--procs N]
//! tracedbg ingest <trace.trc | trace.tbin> --out <dir> [--segment-events N]
//! tracedbg query <dir> [--rank N | --tag T | --kind CODE | --window lo:hi]
//!                [--limit N] [--count] [--stats]
//! tracedbg view <trace.trc | store-dir> [--width N] [--svg out.svg] [--window lo:hi]
//! tracedbg analyze <trace.trc | script:path | sdl:name> [--procs N] [--json | --dot]
//! tracedbg report <trace.trc> -o report.html
//! tracedbg graph <trace.trc> --kind comm|call|trace [--format dot|vcg] [--rank N]
//! tracedbg debug <workload> [--seed N] [--procs N] [--checkpoint-every N] [-e CMD]...
//! tracedbg lint <trace.trc | script:path | sdl:name> [--procs N] [--json] [--rules SPEC]
//!               [--script SPEC]
//! tracedbg explore <workload> [--runs N] [--seed N] [--preemptions K] [--faults]
//!                  [--strategy random|systematic|both] [--dpor] [--jobs N] [--out DIR]
//!                  [--json] [--metrics [FILE]] [--progress]
//! tracedbg replay --schedule <file.sched.json> [--from-checkpoint] [--to-suspect REPORT]
//!                 [--to-critical-path REPORT] [--trace out.trc] [--json]
//! tracedbg localize (--schedule <file.sched.json> | <workload>) [--runs N] [--seed N]
//!                   [--jobs N] [--procs N] [--trace <trc|store-dir>] [--out FILE] [--json]
//! tracedbg profile (<workload> | <trace.trc|trace.tbin|store-dir> | --schedule FILE)
//!                  [--seed N] [--procs N] [--jobs N] [--out FILE] [--json]
//!                  [--perfetto FILE]
//! tracedbg stats <workload | trace.trc | store-dir> [--seed N] [--procs N]
//!                [--metrics [FILE]]
//! tracedbg bench [--quick] [--filter NAME] [--jobs N] [--out DIR]
//! tracedbg workloads
//! ```
//!
//! `tracedbg workloads` lists the workloads; the script-backed ones
//! (`script:<path>`, `sdl:<name>`) are those `analyze`, `lint` and
//! `explore --dpor` can reason about statically. What a positional
//! argument means — workload or recorded trace — is decided in one place,
//! [`input`].
//!
//! `debug` opens the p2d2-style command loop (`run`, `analyze`,
//! `stopline t <ns>`, `replay`, `step <rank>`, `probe <rank> <label>`,
//! `break <func|file:line>`, `watch <label> == <v>`, `undo`, ...); with
//! `-e` commands it runs non-interactively.

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
use tracedbg::workloads::{catalog, scripts, Workload};

pub struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--") && !v.starts_with("-e"))
                    .map(|v| (*v).clone());
                if value.is_some() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else if a == "-e" {
                let cmd = it.next().cloned().unwrap_or_default();
                flags.push(("e".into(), Some(cmd)));
            } else {
                positional.push(a.clone());
            }
        }
        Opts { positional, flags }
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Was the flag given at all (with or without a value)?
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The flag's value parsed, `default` when the flag is absent. A
    /// value that does not parse is an error, never the default.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => Ok(default),
        }
    }

    fn commands(&self) -> Vec<String> {
        self.flags
            .iter()
            .filter(|(n, _)| n == "e")
            .filter_map(|(_, v)| v.clone())
            .collect()
    }
}

/// Exit status of the verbs whose status is a verdict (`lint`, `explore`,
/// `replay`, `localize`).
pub fn success_if(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
    if let Some(out) = out {
        std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
        if !json {
            println!("report written to {out}");
        }
    }
    Ok(())
}

/// The positional workload of `run`/`debug`/`explore`, resolved with the
/// verb's `--seed` and `--procs`.
fn workload_arg(opts: &Opts, usage: &str) -> Result<(String, u64, Workload), String> {
    let name = opts.positional.first().ok_or(usage)?;
    let seed = opts.num("seed", 42u64)?;
    let workload = Input::workload(name, seed, opts.num("procs", 8usize)?)?;
    Ok((name.clone(), seed, workload))
}

/// Run a workload once under the full recorder with telemetry on (the
/// `profile` and `stats` verbs).
fn run_metered(workload: &Workload) -> (Engine, RunOutcome) {
    let cfg = EngineConfig {
        recorder: RecorderConfig::full(),
        metrics: true,
        ..Default::default()
    };
    let mut engine = Engine::launch(cfg, (workload.factory)());
    let outcome = engine.run();
    (engine, outcome)
}

fn cmd_run(opts: &Opts) -> Result<ExitCode, String> {
    let (_, _, workload) = workload_arg(opts, "usage: tracedbg run <workload>")?;
    let mut session = Session::launch(SessionConfig::default(), workload.factory);
    // --store: the directory is reset before the run, so a bad path fails
    // before the debuggee runs; the store is written from the finished
    // trace, as --trace is.
    let store_dir = match opts.flag("store") {
        Some(dir) => {
            let w = StoreWriter::create(
                std::path::Path::new(dir),
                StoreOptions {
                    segment_events: opts.num("segment-events", 65536usize)?,
                },
            )
            .map_err(|e| e.to_string())?;
            Some((w, dir))
        }
        None => None,
    };
    let status = session.run();
    println!("outcome: {status:?}");
    let store = session.into_trace();
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
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg view <trace.trc>")?;
    let store = Input::trace("view", path)?.into_store()?;
    let matching = MessageMatching::build(&store);
    let mut model = TimelineModel::build(&store, &matching, false);
    if let Some(win) = opts.flag("window") {
        let (lo, hi) = win
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or("bad --window, expected lo:hi")?;
        model = model.window(lo, hi);
    }
    let width = opts.num("width", 120usize)?;
    println!("{}", render_ascii(&model, width));
    if let Some(svg_path) = opts.flag("svg") {
        std::fs::write(svg_path, render_svg(&model, 1100.0)).map_err(|e| e.to_string())?;
        println!("svg written to {svg_path}");
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
) -> Result<(tracedbg::workloads::Script, String, usize), String> {
    let (parsed, file) = workload.script.ok_or_else(|| {
        format!("{verb} takes {SCRIPT_OR_TRACE}, not the native workload {spec:?}")
    })?;
    Ok((parsed, file, workload.nprocs))
}

fn cmd_analyze(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.positional.first().ok_or(
        "usage: tracedbg analyze <trace.trc | script:path | sdl:name> \
         [--procs N] [--json | --dot]",
    )?;
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
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg report <trace.trc> [--o out.html]")?;
    let store = Input::trace("report", path)?.into_store()?;
    let (matching, hb) = causal_indexes(&store, path)?;
    let analysis = HistoryReport::from_indexes(&store, matching, &hb).to_string();
    let html = tracedbg::viz::render_html_report(&store, &analysis, path);
    let out = opts.flag("o").unwrap_or("trace_report.html");
    std::fs::write(out, html).map_err(|e| e.to_string())?;
    println!("report written to {out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_graph(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg graph <trace.trc> --kind comm|call|trace")?;
    let store = Input::trace("graph", path)?.into_store()?;
    let kind = opts.flag("kind").unwrap_or("comm");
    let format = opts.flag("format").unwrap_or("dot");
    let out = match (kind, format) {
        ("comm", "dot") => {
            let mm = MessageMatching::build(&store);
            dot::comm_graph_dot(&CommGraph::build(&store, &mm))
        }
        ("comm", "vcg") => {
            let mm = MessageMatching::build(&store);
            vcg::comm_graph_vcg(&CommGraph::build(&store, &mm))
        }
        ("call", fmt) => {
            let rank = Rank(opts.num("rank", 0u32)?);
            let tg = TraceGraph::build(&store);
            let cg = CallGraph::project(&tg, rank);
            if fmt == "vcg" {
                vcg::call_graph_vcg(&cg, 4)
            } else {
                dot::call_graph_dot(&cg, 4)
            }
        }
        ("trace", fmt) => {
            let tg = TraceGraph::build(&store);
            if fmt == "vcg" {
                vcg::trace_graph_vcg(&tg)
            } else {
                dot::trace_graph_dot(&tg)
            }
        }
        (k, f) => return Err(format!("unknown kind/format {k}/{f}")),
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_debug(opts: &Opts) -> Result<ExitCode, String> {
    let (_, _, workload) = workload_arg(opts, "usage: tracedbg debug <workload>")?;
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
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "quit" | "exit" | "q" => break,
            "help" => println!(
                "commands: run | continue | step [rank] | markers | where <rank> |\n\
                 probe <rank> <label> | stopline t <ns> | stopline markers <m...> |\n\
                 replay | undo | analyze | break <func|file:line> |\n\
                 watch <label> (change | == v | != v) | delete breaks | why <rank> |\n\
                 pending | view [width] | setdef <name> <spec> | sets |\n\
                 step <set-spec> | find <send to N|recv on N|tag T|fn F|probe L> |\n\
                 verify | restart | quit"
            ),
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

    let input = opts.positional.first().ok_or(
        "usage: tracedbg lint <trace.trc | trace.tbin | script:path | sdl:name> \
         [--procs N] [--json] [--rules SPEC] [--script SPEC]\n\
         SPEC: comma-separated rule IDs to run, or -ID entries to skip \
         (e.g. --rules TDL001,TDL005 or --rules -SDL105).\n\
         --script: the script the trace was recorded from, enabling the \
         analysis-divergence rule (TDL008).\n\
         `tracedbg lint rules` lists the catalog.",
    )?;
    if input == "rules" {
        for info in lint::rule_catalog() {
            println!(
                "{}  {:<7}  {:<6}  {:<70}  {}",
                info.id,
                info.severity.to_string(),
                info.front_end,
                info.description,
                info.id.docs_url()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let cfg = match opts.flag("rules") {
        Some(spec) => lint::LintConfig::from_spec(spec),
        None => lint::LintConfig::default(),
    };
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
    let (name, seed, workload) = workload_arg(
        opts,
        "usage: tracedbg explore <workload> [--runs N] [--seed N] [--procs N] \
         [--preemptions K] [--faults] [--strategy random|systematic|both] \
         [--dpor] [--jobs N] [--out DIR] [--json] [--metrics [FILE]] [--progress]",
    )?;
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
        strategy: opts.flag("strategy").unwrap_or("both").parse()?,
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
        std::fs::write(&metrics_path, m.to_json())
            .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
        if !opts.has("json") {
            println!("metrics written to {metrics_path}");
        }
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
            std::fs::write(&path, artifact.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !opts.has("json") {
                println!("schedule written to {path}");
            }
        }
    }
    Ok(success_if(!found))
}

/// `tracedbg profile` — critical-path profiling and wait-state analysis
/// over any trace plane: a workload (run once under the full recorder
/// with telemetry on), a recorded `.trc`/`.tbin` file or ingested store
/// directory, or a failing explorer artifact (`--schedule`, replaying its
/// recorded decisions and faults). Prints the wait/blame table, writes
/// the sealed [`ProfileReport`] with `--out`, and with `--perfetto FILE`
/// exports a Chrome/Perfetto trace-event timeline (load it in
/// `ui.perfetto.dev` or `chrome://tracing`: one track per rank, wait
/// slices with their causing rank, message-flow arrows, and a dedicated
/// critical-path track). The report is a pure function of the trace, so
/// it is byte-identical for every `--jobs N` and every input plane that
/// delivers the same records.
fn cmd_profile(opts: &Opts) -> Result<ExitCode, String> {
    const USAGE: &str = "usage: tracedbg profile (<workload> | <trace.trc|trace.tbin|store-dir> \
         | --schedule <file.sched.json>) [--seed N] [--procs N] [--jobs N] [--out FILE] \
         [--json] [--perfetto FILE]";
    // Accepted for CLI symmetry with explore/localize; the report never
    // depends on it.
    let _jobs = opts.num("jobs", 1usize)?;
    let (source, workload, procs, seed, flight_dropped, store) =
        if let Some(path) = opts.flag("schedule") {
            let (a, w) = load_artifact(path)?;
            let mut session = Session::launch(SessionConfig::for_artifact(&a), w.factory);
            quietly(|| session.run());
            let (lost, store) = (session.engine().flight_dropped(), session.trace());
            ("schedule", a.workload, a.procs, a.seed, lost, store)
        } else {
            let name = opts.positional.first().ok_or(USAGE)?;
            let seed = opts.num("seed", 42u64)?;
            match Input::resolve(name, seed, opts.num("procs", 8usize)?)? {
                Input::Trace(trace) => {
                    let plane = match trace {
                        TraceInput::Mem(_) => "trace",
                        TraceInput::Disk(_) => "store",
                    };
                    let store = trace.into_store()?;
                    (plane, name.clone(), store.n_ranks(), 0, 0, store)
                }
                Input::Workload(w) => {
                    let (mut engine, _) = run_metered(&w);
                    let (lost, store) = (engine.flight_dropped(), engine.trace_store());
                    ("workload", name.clone(), store.n_ranks(), seed, lost, store)
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
            flight_dropped,
        },
    );
    emit_report(opts, || report.to_json(), || report.render())?;
    if let Some(out) = opts.flag("perfetto") {
        let matching = MessageMatching::build(&store);
        let waits = WaitAnalysis::build(&store, &matching);
        let path = CriticalPath::build(&store, &matching);
        std::fs::write(out, perfetto_json(&store, &matching, &waits, &path))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        if !opts.has("json") {
            println!("perfetto trace written to {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `tracedbg stats` — run a workload once with engine telemetry on and
/// show the AIMS-statistics-style per-rank profile (message volume, wait
/// turns); `--metrics` additionally writes the machine-readable
/// [`MetricsReport`] JSON.
fn cmd_stats(opts: &Opts) -> Result<ExitCode, String> {
    let name = opts.positional.first().ok_or(
        "usage: tracedbg stats <workload | trace.trc | store-dir> \
         [--seed N] [--procs N] [--metrics [FILE]]",
    )?;
    let seed = opts.num("seed", 42u64)?;
    let workload = match Input::resolve(name, seed, opts.num("procs", 8usize)?)? {
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
    let (mut engine, outcome) = run_metered(&workload);
    let wall_ms = started.elapsed().as_millis() as u64;
    println!("outcome: {outcome:?}");
    let snapshot_ns = engine.snapshot_ns();
    let m = engine
        .take_metrics()
        .expect("engine was launched with metrics on");
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
                snapshot_ns,
                ..Default::default()
            },
        );
        let path = opts.flag("metrics").unwrap_or("metrics.json");
        std::fs::write(path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics written to {path}");
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
    const USAGE: &str = "usage: tracedbg localize (--schedule <file.sched.json> | <workload>) \
         [--runs N] [--seed N] [--jobs N] [--procs N] [--explore-runs N] \
         [--trace <trc|store-dir>] [--out FILE] [--json]";
    let (artifact, workload) = if let Some(path) = opts.flag("schedule") {
        load_artifact(path)?
    } else {
        // Workload mode: explore on the fly, localize the first finding.
        let (name, seed, workload) = workload_arg(opts, USAGE)?;
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
    Ok(success_if(
        report.verdict != tracedbg::localize::VERDICT_NO_REFERENCE,
    ))
}

/// `tracedbg ingest` — convert a recorded trace file into the indexed
/// on-disk store format `tracedbg query` (and every trace-consuming
/// command) reads.
fn cmd_ingest(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts.positional.first().ok_or(
        "usage: tracedbg ingest <trace.trc | trace.tbin> --out <dir> [--segment-events N]",
    )?;
    let out = opts.flag("out").ok_or("ingest needs --out <dir>")?;
    let store = Input::trace("ingest", path)?.into_store()?;
    let started = std::time::Instant::now();
    let summary = tracedbg::store::ingest_records(
        store.records(),
        store.sites(),
        store.n_ranks(),
        std::path::Path::new(out),
        StoreOptions {
            segment_events: opts.num("segment-events", 65536usize)?,
        },
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
    const USAGE: &str = "usage: tracedbg query <dir> \
         [--rank N | --tag T | --kind CODE | --window lo:hi] \
         [--limit N] [--count] [--stats]";
    let dir = opts.positional.first().ok_or(USAGE)?;
    let disk = Input::store("query", dir)?;
    if opts.has("stats") {
        // Streaming one-pass statistics through the TraceSource trait.
        let stats = tracedbg::trace::TraceStats::from_source(&disk).map_err(|e| e.to_string())?;
        print!("{stats}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut selectors = Vec::new();
    if let Some(r) = opts.flag("rank") {
        let r: u32 = r.parse().map_err(|_| format!("bad rank {r:?}"))?;
        selectors.push(Select::Rank(Rank(r)));
    }
    if let Some(t) = opts.flag("tag") {
        let t: i32 = t.parse().map_err(|_| format!("bad tag {t:?}"))?;
        selectors.push(Select::Tag(Tag(t)));
    }
    if let Some(code) = opts.flag("kind") {
        let kind = EventKind::all()
            .into_iter()
            .find(|k| k.code() == code)
            .ok_or_else(|| {
                let codes: Vec<&str> = EventKind::all().into_iter().map(|k| k.code()).collect();
                format!("unknown kind {code:?} (one of: {})", codes.join(" "))
            })?;
        selectors.push(Select::Kind(kind));
    }
    if let Some(win) = opts.flag("window") {
        let (lo, hi) = win
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or("bad --window, expected lo:hi")?;
        if lo > hi {
            return Err(format!("bad --window {win}: lo > hi"));
        }
        selectors.push(Select::TimeWindow(lo, hi));
    }
    if selectors.len() > 1 {
        return Err("give at most one of --rank/--tag/--kind/--window".into());
    }
    let sel = selectors.pop().unwrap_or(Select::All);
    let (t_lo, t_hi) = disk.time_bounds();
    println!(
        "{dir}: {} events, {} ranks, t=[{t_lo}, {t_hi}] — {sel}",
        disk.n_events(),
        disk.n_ranks(),
    );
    let limit = opts.num("limit", 20usize)?;
    let count_only = opts.has("count");
    let mut shown = 0usize;
    let mut total = 0usize;
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
        eprintln!(
            "usage: tracedbg <run|ingest|query|view|analyze|report|graph|debug|lint|explore|localize|replay|profile|stats|bench|workloads> ...\n\
             see `tracedbg workloads` for available targets"
        );
        return ExitCode::FAILURE;
    };
    let opts = Opts::parse(&args[1..]);
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "ingest" => cmd_ingest(&opts),
        "query" => cmd_query(&opts),
        "view" => cmd_view(&opts),
        "analyze" => cmd_analyze(&opts),
        "report" => cmd_report(&opts),
        "graph" => cmd_graph(&opts),
        "debug" => cmd_debug(&opts),
        "lint" => cmd_lint(&opts),
        "explore" => cmd_explore(&opts),
        "localize" => cmd_localize(&opts),
        "replay" => replay::cmd_replay(&opts),
        "profile" => cmd_profile(&opts),
        "stats" => cmd_stats(&opts),
        "bench" => cmd_bench(&opts),
        "workloads" => {
            print!("{}", catalog::listing());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parses_flags_values_and_positionals() {
        let args = ["ring", "--seed", "7", "--json", "--procs", "4", "-e", "run"];
        let o = Opts::parse(&args.map(String::from));
        assert_eq!(o.positional, vec!["ring"]);
        assert_eq!(o.flag("seed"), Some("7"));
        assert_eq!(o.num("procs", 0usize), Ok(4));
        assert!(o.has("json"));
        assert_eq!(o.flag("json"), None, "bare flag carries no value");
        assert_eq!(o.commands(), vec!["run"]);
        assert!(!o.has("faults"));
        assert_eq!(o.num("runs", 64usize), Ok(64), "missing flag falls back");
        let bad = Opts::parse(&["--runs", "lots"].map(String::from));
        let err = bad.num("runs", 64usize).unwrap_err();
        assert_eq!(err, "--runs: bad value \"lots\"", "never the default");
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
        let store = run_metered(&Input::workload("ring", 1, 2).unwrap())
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
