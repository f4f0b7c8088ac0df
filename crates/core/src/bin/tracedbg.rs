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
//! Workloads: `strassen`, `strassen-bug`, `lu`, `ring`, `pool`,
//! `racy-wildcard`, `racy-deadlock`, `fib:<n>`, `random:<transfers>`,
//! `script:<path>`, `sdl:<name>` (builtin scripts — `tracedbg workloads`
//! lists them; script-backed specs are the ones `analyze` and
//! `explore --dpor` can reason about statically).
//!
//! `debug` opens the p2d2-style command loop (`run`, `analyze`,
//! `stopline t <ns>`, `replay`, `step <rank>`, `probe <rank> <label>`,
//! `break <func|file:line>`, `watch <label> == <v>`, `undo`, ...); with
//! `-e` commands it runs non-interactively.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use tracedbg::prelude::*;
use tracedbg::profile::{perfetto_json, CriticalPath, ProfileInput, ProfileReport, WaitAnalysis};
use tracedbg::trace::file::{read_binary, write_binary};
use tracedbg::trace::file::{read_text, write_text, TraceFile};
use tracedbg::tracegraph::{ActionGraph, Profile};
use tracedbg::viz::{dot, vcg};
use tracedbg::viz::{render_wait_blame, ProfileSummary, WaitKindRow, WaitRankRow};
use tracedbg::viz::{ChannelRow, SuspectRow, SuspectSummary};
use tracedbg::workloads::{
    heat, lu, master_worker, planted, racy, random_comm, ring, script, scripts, strassen, wide,
};

struct Opts {
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

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Was the flag given at all (with or without a value)?
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn commands(&self) -> Vec<String> {
        self.flags
            .iter()
            .filter(|(n, _)| n == "e")
            .filter_map(|(_, v)| v.clone())
            .collect()
    }
}

fn workload_factory(
    name: &str,
    seed: u64,
    procs: usize,
) -> Result<(ProgramFactory, usize), String> {
    let f: (ProgramFactory, usize) = match name {
        "strassen" | "strassen-bug" => {
            let cfg = strassen::StrassenConfig {
                n: 32,
                nprocs: procs.max(2),
                variant: if name == "strassen-bug" {
                    strassen::Variant::JresBug
                } else {
                    strassen::Variant::Correct
                },
                seed,
                cutoff: 8,
            };
            let n = cfg.nprocs;
            (Box::new(strassen::factory(cfg)), n)
        }
        "lu" => {
            let cfg = lu::LuConfig {
                nprocs: procs.max(2),
                ..Default::default()
            };
            let n = cfg.nprocs;
            (Box::new(lu::factory(cfg)), n)
        }
        "ring" => {
            let cfg = ring::RingConfig {
                nprocs: procs.max(2),
                ..Default::default()
            };
            let n = cfg.nprocs;
            (Box::new(ring::factory(cfg)), n)
        }
        "heat" => {
            let cfg = heat::HeatConfig {
                nprocs: procs.max(2),
                ..Default::default()
            };
            let n = cfg.nprocs;
            (Box::new(heat::factory(cfg)), n)
        }
        "pool" => {
            let cfg = master_worker::PoolConfig {
                nprocs: procs.max(2),
                ..Default::default()
            };
            let n = cfg.nprocs;
            (Box::new(master_worker::factory(cfg)), n)
        }
        "planted-wildcard" | "planted-orphan" | "planted-pipeline" => {
            // The localization corpus: each workload carries a known
            // planted bug at `bug_rank` (see `workloads::planted`).
            let cfg = planted::PlantedConfig {
                nprocs: procs.clamp(4, 16),
                ..Default::default()
            };
            let n = cfg.nprocs;
            match name {
                "planted-wildcard" => (Box::new(planted::planted_wildcard_factory(cfg)), n),
                "planted-orphan" => (Box::new(planted::planted_orphan_factory(cfg)), n),
                _ => (Box::new(planted::planted_pipeline_factory(cfg)), n),
            }
        }
        "stencil" => {
            // --procs is the total rank count; the grid side is its
            // (floored) square root, so 1024 procs = the 32x32 grid.
            let p = (procs.max(4) as f64).sqrt().floor() as usize;
            let cfg = wide::StencilConfig {
                p: p.max(2),
                ..Default::default()
            };
            let n = cfg.p * cfg.p;
            (Box::new(wide::stencil_factory(cfg)), n)
        }
        "butterfly" => {
            let n = procs.max(2).next_power_of_two();
            let cfg = wide::ButterflyConfig { nprocs: n };
            (Box::new(wide::butterfly_factory(cfg)), n)
        }
        "racy-wildcard" | "racy-deadlock" => {
            let cfg = racy::RacyConfig {
                nprocs: procs.clamp(3, 16),
                ..Default::default()
            };
            let n = cfg.nprocs;
            if name == "racy-wildcard" {
                (Box::new(racy::wildcard_race_factory(cfg)), n)
            } else {
                (Box::new(racy::orphan_deadlock_factory(cfg)), n)
            }
        }
        other => {
            if let Some(n) = other.strip_prefix("fib:") {
                let n: u64 = n.parse().map_err(|_| format!("bad fib input {n:?}"))?;
                (
                    Box::new(move || vec![tracedbg::workloads::fib::program(n)]),
                    1,
                )
            } else if let Some(t) = other.strip_prefix("random:") {
                let t: usize = t.parse().map_err(|_| format!("bad transfer count {t:?}"))?;
                let nprocs = procs.max(2);
                let pat = random_comm::generate(seed, nprocs, t);
                (Box::new(move || random_comm::programs(&pat, seed)), nprocs)
            } else if other.starts_with("script:") || other.starts_with("sdl:") {
                let (parsed, file, nprocs) = script_workload(other, procs, false)?
                    .expect("prefixed specs always resolve to a script");
                (
                    Box::new(move || script::programs(&parsed, nprocs, &file)),
                    nprocs,
                )
            } else {
                return Err(format!(
                    "unknown workload {other:?} (try `tracedbg workloads`)"
                ));
            }
        }
    };
    Ok(f)
}

/// Resolve a script-backed workload spec — `script:<path>`, `sdl:<name>`,
/// or (with `allow_bare`) a bare builtin script name — to its parsed
/// script, the file label its trace sites carry, and the process count it
/// runs with. `Ok(None)` means the spec names a native workload instead.
fn script_workload(
    name: &str,
    procs: usize,
    allow_bare: bool,
) -> Result<Option<(script::Script, String, usize)>, String> {
    if let Some(path) = name.strip_prefix("script:") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parsed = script::parse(&src).map_err(|e| e.to_string())?;
        return Ok(Some((parsed, path.to_string(), procs.max(2))));
    }
    let explicit = name.starts_with("sdl:");
    if !explicit && !allow_bare {
        return Ok(None);
    }
    let bare = name.strip_prefix("sdl:").unwrap_or(name);
    match scripts::builtin(bare) {
        Some(b) => Ok(Some((b.parse(), b.file(), procs.max(b.min_procs)))),
        None if explicit => Err(format!(
            "unknown builtin script {bare:?} (try `tracedbg workloads`)"
        )),
        None => Ok(None),
    }
}

/// Read a recorded trace from any of its on-disk forms: text (`.trc`),
/// binary (`.tbin`), or an indexed store directory (`tracedbg ingest`),
/// which is materialized through the [`TraceSource`] trait.
fn load_store(path: &str) -> Result<TraceStore, String> {
    if std::path::Path::new(path).is_dir() {
        let disk = DiskStore::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        return materialize(&disk).map_err(|e| e.to_string());
    }
    let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let tf = if path.ends_with(".tbin") {
        read_binary(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?
    } else {
        read_text(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(tf.into_store())
}

/// [`load_store`] for the verbs that reason about causality (`analyze`,
/// `report`, `lint`). A trace file is external input: one whose receives
/// cannot all be ordered after their sends is not a recording of any run
/// and is refused here, before it is analyzed as if it were one.
fn load_causal_store(path: &str) -> Result<TraceStore, String> {
    let store = load_store(path)?;
    let matching = MessageMatching::build(&store);
    HbIndex::build(&store, &matching)
        .check_causal()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(store)
}

/// Read a trace file (text or binary) without building the in-memory
/// index — `ingest` only needs the raw records.
fn load_trace_file(path: &str) -> Result<TraceFile, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".tbin") {
        read_binary(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
    } else {
        read_text(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
    }
}

/// Write a run's trace to `path` (binary for `.tbin`, text otherwise).
/// The encoders emit one small write per field, so the file is buffered;
/// the explicit flush is what surfaces a write error.
fn write_trace_file(path: &str, store: &TraceStore) -> Result<(), String> {
    let file = TraceFile::new(
        store.records().to_vec(),
        store.sites().clone(),
        store.n_ranks(),
    );
    let write = || -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        if path.ends_with(".tbin") {
            write_binary(&mut w, &file)?;
        } else {
            write_text(&mut w, &file)?;
        }
        w.flush()
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let name = opts
        .positional
        .first()
        .ok_or("usage: tracedbg run <workload>")?;
    let seed = opts.num("seed", 42u64);
    let procs = opts.num("procs", 8usize);
    let (factory, _n) = workload_factory(name, seed, procs)?;
    let mut session = Session::launch(SessionConfig::default(), factory);
    // --store: stream records into an indexed on-disk store *while the
    // run executes* — the sink rides the monitor's flush path, nothing is
    // re-read from memory afterwards.
    let streaming = match opts.flag("store") {
        Some(dir) => {
            let w = StoreWriter::create(
                std::path::Path::new(dir),
                StoreOptions {
                    segment_events: opts.num("segment-events", 65536usize),
                },
            )
            .map_err(|e| e.to_string())?;
            let shared = SharedWriter::new(w);
            session.attach_trace_sink(Box::new(shared.clone()));
            Some((shared, dir.to_string()))
        }
        None => None,
    };
    let status = session.run();
    println!("outcome: {status:?}");
    let store = session.trace();
    if let Some((shared, dir)) = streaming {
        session.detach_trace_sink();
        let summary = shared
            .finish(store.sites(), store.n_ranks())
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
    Ok(())
}

fn cmd_view(opts: &Opts) -> Result<(), String> {
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg view <trace.trc>")?;
    let store = load_store(path)?;
    let matching = MessageMatching::build(&store);
    let mut model = TimelineModel::build(&store, &matching, false);
    if let Some(win) = opts.flag("window") {
        let (lo, hi) = win
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or("bad --window, expected lo:hi")?;
        model = model.window(lo, hi);
    }
    let width = opts.num("width", 120usize);
    println!("{}", render_ascii(&model, width));
    if let Some(svg_path) = opts.flag("svg") {
        std::fs::write(svg_path, render_svg(&model, 1100.0)).map_err(|e| e.to_string())?;
        println!("svg written to {svg_path}");
    }
    Ok(())
}

/// Human rendering of a static analysis: the communication graph with
/// lattice values, then the derived facts the other consumers use.
fn render_analysis(workload: &str, a: &tracedbg::analysis::Analysis) -> String {
    use tracedbg::analysis::SiteOp;
    let mut out = String::new();
    let g = &a.graph;
    out.push_str(&format!(
        "static analysis of {workload} ({} procs, graph {}, values {})\n",
        g.nprocs,
        if g.complete { "complete" } else { "partial" },
        if g.exact { "exact" } else { "approximate" },
    ));
    out.push_str("--- communication sites ---\n");
    for (i, s) in g.sites.iter().enumerate() {
        let desc = match &s.op {
            SiteOp::Send { dst, tag } => format!("send -> {{{}}} tag {tag}", dst.render()),
            SiteOp::Recv { src, tag, wildcard } => {
                let t = match tag {
                    Some(t) => format!(" tag {t}"),
                    None => " any tag".to_string(),
                };
                let w = if *wildcard { " (wildcard)" } else { "" };
                format!("recv <- {{{}}}{t}{w}", src.render())
            }
            SiteOp::Barrier => "barrier".to_string(),
        };
        out.push_str(&format!(
            "rank {} {}:{} ({})  {desc}  [{} partner(s)]\n",
            s.rank, g.file, s.line, s.func, a.may_match.partners[i]
        ));
    }
    out.push_str(&format!(
        "--- may-match: {} send/recv pair(s) ---\n",
        a.may_match.pairs.len()
    ));
    let indep = a.independence.pairs();
    out.push_str(&format!(
        "independent rank pairs: {}\n",
        if indep.is_empty() {
            "none".to_string()
        } else {
            indep
                .iter()
                .map(|(x, y)| format!("({x},{y})"))
                .collect::<Vec<_>>()
                .join(" ")
        }
    ));
    let dead = a.deadlocked_ranks();
    if dead.is_empty() {
        out.push_str("static deadlock: none\n");
    } else {
        let set: Vec<String> = dead.iter().map(|r| r.to_string()).collect();
        out.push_str(&format!("static deadlock: rank(s) {}\n", set.join(", ")));
    }
    out
}

fn cmd_analyze(opts: &Opts) -> Result<(), String> {
    let path = opts.positional.first().ok_or(
        "usage: tracedbg analyze <trace.trc | script:path | sdl:name> \
         [--procs N] [--json | --dot]",
    )?;
    // Script-backed specs get the static analysis; anything else is a
    // recorded trace and gets the history analyzer.
    if let Some((parsed, file, nprocs)) = script_workload(path, opts.num("procs", 8usize), true)? {
        let a = tracedbg::analysis::analyze(&parsed, nprocs, &file);
        if opts.has("json") {
            println!("{}", a.to_json(path));
        } else if opts.has("dot") {
            println!("{}", a.to_dot(path));
        } else {
            print!("{}", render_analysis(path, &a));
        }
        return Ok(());
    }
    let store = load_causal_store(path)?;
    let report = HistoryReport::analyze(&store);
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
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg report <trace.trc> [--o out.html]")?;
    let store = load_causal_store(path)?;
    let analysis = HistoryReport::analyze(&store).to_string();
    let html = tracedbg::viz::render_html_report(&store, &analysis, path);
    let out = opts.flag("o").unwrap_or("trace_report.html");
    std::fs::write(out, html).map_err(|e| e.to_string())?;
    println!("report written to {out}");
    Ok(())
}

fn cmd_graph(opts: &Opts) -> Result<(), String> {
    let path = opts
        .positional
        .first()
        .ok_or("usage: tracedbg graph <trace.trc> --kind comm|call|trace")?;
    let store = load_store(path)?;
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
            let rank = Rank(opts.num("rank", 0u32));
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
    Ok(())
}

fn cmd_debug(opts: &Opts) -> Result<(), String> {
    let name = opts
        .positional
        .first()
        .ok_or("usage: tracedbg debug <workload>")?;
    let seed = opts.num("seed", 42u64);
    let procs = opts.num("procs", 8usize);
    let (factory, _) = workload_factory(name, seed, procs)?;
    let cfg = SessionConfig {
        // Checkpoint every Nth stop for O(delta) undo/replay; 0 disables
        // the cache and every replay re-executes from scratch.
        checkpoint_every: opts.num("checkpoint-every", 1usize),
        ..SessionConfig::default()
    };
    let session = Session::launch(cfg, factory);
    let mut ci = CommandInterface::new(session);
    let scripted = opts.commands();
    if !scripted.is_empty() {
        for cmd in scripted {
            println!("{}", ci.execute(&cmd));
        }
        return Ok(());
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
    Ok(())
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
    let diags = if let Some((parsed, file, nprocs)) =
        script_workload(input, opts.num("procs", 8usize), false)?
    {
        lint::lint_script(&parsed, nprocs, &file, &cfg)
    } else {
        let store = load_causal_store(input)?;
        match opts.flag("script") {
            Some(spec) => {
                // Accept bare paths too: `--script foo.script` means
                // `--script script:foo.script`.
                let norm = if spec.starts_with("script:")
                    || spec.starts_with("sdl:")
                    || scripts::builtin(spec).is_some()
                {
                    spec.to_string()
                } else {
                    format!("script:{spec}")
                };
                let (parsed, file, _) = script_workload(&norm, store.n_ranks(), true)?
                    .expect("normalized spec always resolves");
                // The analysis must model exactly the traced execution:
                // its rank count, not the spec's default.
                lint::lint_trace_with_script(&store, &parsed, store.n_ranks(), &file, &cfg)
            }
            None => lint::lint_trace(&store, &cfg),
        }
    };
    if opts.has("json") {
        println!("{}", report::render_json(&diags));
    } else {
        print!("{}", report::render_human(&diags));
    }
    Ok(if report::has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `tracedbg explore` — search the schedule space (and optionally the
/// fault space) of a workload for deadlocks, panics, and lint violations.
/// Each finding is saved as a minimized `.sched.json` artifact that
/// `tracedbg replay --schedule` re-executes deterministically. Exits
/// non-zero when any violation was found, mirroring `lint`.
fn cmd_explore(opts: &Opts) -> Result<ExitCode, String> {
    let name = opts.positional.first().ok_or(
        "usage: tracedbg explore <workload> [--runs N] [--seed N] [--procs N] \
         [--preemptions K] [--faults] [--strategy random|systematic|both] \
         [--dpor] [--jobs N] [--out DIR] [--json] [--metrics [FILE]] [--progress]",
    )?;
    let seed = opts.num("seed", 42u64);
    let procs = opts.num("procs", 8usize);
    let runs = opts.num("runs", 64usize);
    let (factory, _n) = workload_factory(name, seed, procs)?;
    // --dpor: prove rank independence statically and let the systematic
    // search skip interleavings that only permute commuting decisions.
    // Only script-backed workloads have a source to analyze.
    let independence = if opts.has("dpor") {
        let (parsed, file, nprocs) = script_workload(name, procs, false)?.ok_or(
            "--dpor needs a script-backed workload (script:<path> or sdl:<name>) \
             so the static analysis has a source to prove independence from",
        )?;
        Some(tracedbg::analysis::analyze(&parsed, nprocs, &file).independence)
    } else {
        None
    };
    let cfg = ExploreConfig {
        workload: name.clone(),
        seed,
        runs,
        preemptions: opts.num("preemptions", 2usize),
        inject_faults: opts.has("faults"),
        strategy: opts.flag("strategy").unwrap_or("both").parse()?,
        // 0 = one worker per available core; findings are identical for
        // every job count at a fixed seed.
        jobs: opts.num("jobs", 0usize),
        metrics: opts.has("metrics"),
        progress: opts.has("progress"),
        independence,
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let (report, metrics) = Explorer::new(cfg, factory).explore_traced();
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
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
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
    Ok(if found {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Convert a [`ProfileReport`] into the viz crate's renderer rows.
fn profile_view(r: &ProfileReport) -> (ProfileSummary, Vec<WaitRankRow>, Vec<WaitKindRow>) {
    let summary = ProfileSummary {
        workload: r.workload.clone(),
        procs: r.procs,
        events: r.events,
        makespan: r.makespan,
        critical_path_len: r.critical_path_len,
        busy_total: r.busy_total,
        wait_total: r.wait_total,
        flight_dropped: r.flight_dropped,
    };
    let ranks = r
        .ranks
        .iter()
        .map(|p| WaitRankRow {
            rank: p.rank,
            busy: p.busy,
            wait: p.wait,
            blamed: p.blamed,
            path: p.path,
        })
        .collect();
    let kinds = r
        .wait_kinds
        .iter()
        .map(|k| WaitKindRow {
            kind: k.kind.clone(),
            count: k.count,
            cost: k.cost,
        })
        .collect();
    (summary, ranks, kinds)
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
fn cmd_profile(opts: &Opts) -> Result<(), String> {
    const USAGE: &str = "usage: tracedbg profile (<workload> | <trace.trc|trace.tbin|store-dir> \
         | --schedule <file.sched.json>) [--seed N] [--procs N] [--jobs N] [--out FILE] \
         [--json] [--perfetto FILE]";
    // Accepted for CLI symmetry with explore/localize; the report never
    // depends on it.
    let _jobs = opts.num("jobs", 1usize);
    let source: String;
    let workload: String;
    let procs: usize;
    let seed: u64;
    let flight_dropped: u64;
    let store: TraceStore;
    if let Some(path) = opts.flag("schedule") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let artifact = ScheduleArtifact::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        let (factory, _n) = workload_factory(&artifact.workload, artifact.seed, artifact.procs)?;
        // The artifact usually records a failure; its panics are expected.
        tracedbg::mpsim::set_quiet_panics(true);
        let mut session = Session::launch(
            SessionConfig {
                policy: SchedPolicy::Scripted(artifact.decisions.clone()),
                faults: tracedbg::mpsim::FaultPlan::new(artifact.faults.clone()),
                ..SessionConfig::default()
            },
            factory,
        );
        session.run();
        tracedbg::mpsim::set_quiet_panics(false);
        flight_dropped = session.engine().flight_dropped();
        store = session.trace();
        source = "schedule".into();
        workload = artifact.workload.clone();
        procs = artifact.procs;
        seed = artifact.seed;
    } else {
        let name = opts.positional.first().ok_or(USAGE)?;
        if std::path::Path::new(name).exists() {
            source = if std::path::Path::new(name).is_dir() {
                "store"
            } else {
                "trace"
            }
            .into();
            store = load_store(name)?;
            workload = name.clone();
            procs = store.n_ranks();
            seed = 0;
            flight_dropped = 0;
        } else {
            seed = opts.num("seed", 42u64);
            let procs_req = opts.num("procs", 8usize);
            let (factory, _n) = workload_factory(name, seed, procs_req)?;
            let mut engine = Engine::launch(
                EngineConfig {
                    recorder: RecorderConfig::full(),
                    metrics: true,
                    ..Default::default()
                },
                factory(),
            );
            engine.run();
            flight_dropped = engine.flight_dropped();
            store = engine.trace_store();
            source = "workload".into();
            workload = name.clone();
            procs = store.n_ranks();
        }
    }
    let report = ProfileReport::build(
        &store,
        ProfileInput {
            source: &source,
            workload: &workload,
            procs,
            seed,
            flight_dropped,
        },
    );
    if opts.has("json") {
        println!("{}", report.to_json());
    } else {
        let (summary, ranks, kinds) = profile_view(&report);
        print!("{}", render_wait_blame(&summary, &ranks, &kinds));
        if !report.path_sites.is_empty() {
            println!("critical path by site:");
            for s in report.path_sites.iter().take(4) {
                println!(
                    "  {:>4}.{}% {}",
                    s.share_millis / 10,
                    s.share_millis % 10,
                    s.site
                );
            }
        }
    }
    if let Some(out) = opts.flag("out") {
        std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        if !opts.has("json") {
            println!("report written to {out}");
        }
    }
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
    Ok(())
}

/// `tracedbg stats` — run a workload once with engine telemetry on and
/// show the AIMS-statistics-style per-rank profile (message volume, wait
/// turns); `--metrics` additionally writes the machine-readable
/// [`MetricsReport`] JSON.
fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let name = opts.positional.first().ok_or(
        "usage: tracedbg stats <workload | trace.trc | store-dir> \
         [--seed N] [--procs N] [--metrics [FILE]]",
    )?;
    // Recorded-trace mode: stream the statistics off any trace plane
    // through `TraceSource` — a store directory is never materialized.
    if std::path::Path::new(name).exists() {
        let stats = if std::path::Path::new(name).is_dir() {
            let disk = DiskStore::open(std::path::Path::new(name)).map_err(|e| e.to_string())?;
            TraceStats::from_source(&disk).map_err(|e| e.to_string())?
        } else {
            TraceStats::from_source(&load_store(name)?).map_err(|e| e.to_string())?
        };
        print!("{stats}");
        return Ok(());
    }
    let seed = opts.num("seed", 42u64);
    let procs = opts.num("procs", 8usize);
    let (factory, _n) = workload_factory(name, seed, procs)?;
    let started = std::time::Instant::now();
    let mut engine = Engine::launch(
        EngineConfig {
            recorder: RecorderConfig::full(),
            metrics: true,
            ..Default::default()
        },
        factory(),
    );
    let outcome = engine.run();
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
    Ok(())
}

/// `tracedbg replay --schedule` — re-execute an explorer artifact. The
/// artifact names its workload; every scheduling decision and injected
/// fault comes from the file, so the outcome is reproducible run-to-run.
/// Exits zero iff the replay reproduced the artifact's recorded outcome.
fn cmd_replay(opts: &Opts) -> Result<ExitCode, String> {
    let path = opts
        .flag("schedule")
        .ok_or("usage: tracedbg replay --schedule <file.sched.json> [--trace out.trc] [--json]")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact = ScheduleArtifact::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    let (factory, _n) = workload_factory(&artifact.workload, artifact.seed, artifact.procs)?;
    if let Some(report_path) = opts.flag("to-suspect") {
        return replay_to_suspect(&artifact, factory, report_path, opts);
    }
    if let Some(report_path) = opts.flag("to-critical-path") {
        return replay_to_critical_path(&artifact, factory, report_path, opts);
    }
    if opts.has("from-checkpoint") {
        // Checkpointed re-execution: snapshot mid-schedule, restore, and
        // check the continued run is byte-identical to the straight one —
        // the restore-determinism audit for a failure artifact.
        tracedbg::mpsim::set_quiet_panics(true);
        let ck = replay_schedule_from_checkpoint(&artifact, factory);
        tracedbg::mpsim::set_quiet_panics(false);
        if opts.has("json") {
            println!(
                "{{\"workload\":{},\"class\":{},\"restored_class\":{},\"snapshot_decisions\":{},\"reproduced\":{}}}",
                json_string(&artifact.workload),
                json_string(&ck.class),
                json_string(&ck.restored_class),
                ck.snapshot_decisions
                    .map_or("null".to_string(), |n| n.to_string()),
                ck.reproduced,
            );
        } else {
            println!("replaying {artifact} (from checkpoint)");
            println!("straight outcome: {} ({})", ck.class, ck.detail);
            match ck.snapshot_decisions {
                Some(n) => println!(
                    "restored outcome: {} (snapshot at {n} decision(s))",
                    ck.restored_class
                ),
                None => println!(
                    "restored outcome: {} (run ended before the snapshot point; \
                     compared against a straight re-execution)",
                    ck.restored_class
                ),
            }
            println!(
                "{}",
                if ck.reproduced {
                    "reproduced: restored run is byte-identical to the straight run"
                } else {
                    "did NOT reproduce: restored run diverged from the straight run"
                }
            );
        }
        return Ok(if ck.reproduced {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    // The replayed failure is the expected outcome; keep panic backtraces
    // of the simulated processes off stderr.
    tracedbg::mpsim::set_quiet_panics(true);
    let mut replay = replay_schedule(&artifact, factory);
    tracedbg::mpsim::set_quiet_panics(false);
    let expected = artifact.failure.as_deref().unwrap_or("completed");
    let reproduced = replay.class == expected && !replay.diverged;
    if opts.has("json") {
        println!(
            "{{\"workload\":{},\"class\":{},\"expected\":{},\"detail\":{},\"diverged\":{},\"reproduced\":{}}}",
            json_string(&artifact.workload),
            json_string(&replay.class),
            json_string(expected),
            json_string(&replay.detail),
            replay.diverged,
            reproduced,
        );
    } else {
        println!("replaying {artifact}");
        println!("outcome: {} ({})", replay.class, replay.detail);
        if replay.diverged {
            println!("WARNING: schedule diverged — this run does not reproduce the artifact");
        }
        println!(
            "{}",
            if reproduced {
                format!("reproduced recorded failure class '{expected}'")
            } else {
                format!("did NOT reproduce '{expected}'")
            }
        );
    }
    if let Some(out) = opts.flag("trace") {
        write_trace_file(out, &replay.trace())?;
        if !opts.has("json") {
            println!("trace written to {out}");
        }
    }
    Ok(if reproduced {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `tracedbg replay --to-suspect` — re-execute a failing schedule and
/// stop every process at the divergence frontier a `tracedbg localize`
/// report recorded: the point where the failing run first left the
/// passing envelope. The failing execution runs once to record its match
/// log (pinning wildcard choices) and seed the checkpoint cache, then the
/// stopline replay jumps to the frontier and prints where each top
/// suspect is stopped.
fn replay_to_suspect(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
    report_path: &str,
    opts: &Opts,
) -> Result<ExitCode, String> {
    let rjson = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read {report_path}: {e}"))?;
    let report = tracedbg::localize::LocalizeReport::from_json(&rjson)?;
    let d = report.divergence.as_ref().ok_or_else(|| {
        format!(
            "{report_path}: verdict {:?} has no divergence frontier to replay to",
            report.verdict
        )
    })?;
    let stopline = Stopline {
        markers: MarkerVector::from_counts(d.markers.clone()),
        origin: format!("localize divergence at decision {}", d.index),
    };
    tracedbg::mpsim::set_quiet_panics(true);
    let mut session = Session::launch(
        SessionConfig {
            policy: SchedPolicy::Scripted(artifact.decisions.clone()),
            faults: tracedbg::mpsim::FaultPlan::new(artifact.faults.clone()),
            ..SessionConfig::default()
        },
        factory,
    );
    session.run();
    let status = format!("{:?}", session.replay_to(&stopline));
    tracedbg::mpsim::set_quiet_panics(false);
    let markers = session.markers();
    let reached = markers.counts() == d.markers.as_slice();
    let join = |v: &[u64]| {
        v.iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    if opts.has("json") {
        println!(
            "{{\"origin\":{},\"target\":[{}],\"markers\":[{}],\"reached\":{},\"status\":{}}}",
            json_string(&stopline.origin),
            join(&d.markers),
            join(markers.counts()),
            reached,
            json_string(&status),
        );
    } else {
        println!("replaying {artifact}");
        println!("stopline: {} -> markers {:?}", stopline.origin, d.markers);
        println!("status: {status}");
        for s in report.suspects.iter().take(2) {
            println!("suspect P{} (score {}):", s.rank, s.score);
            for line in session.where_is(Rank(s.rank)) {
                println!("  {line}");
            }
        }
        println!(
            "{}",
            if reached {
                "stopped at the divergence frontier"
            } else {
                "did NOT reach the divergence frontier"
            }
        );
    }
    Ok(if reached {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `tracedbg replay --to-critical-path` — re-execute a failing schedule
/// and stop every process at the causal frontier of the critical path's
/// terminal event, as recorded by `tracedbg profile`. Every rank halts at
/// the last execution marker in the terminal's causal past, so the
/// stopped state shows exactly what the makespan-bounding chain was
/// waiting on.
fn replay_to_critical_path(
    artifact: &ScheduleArtifact,
    factory: ProgramFactory,
    report_path: &str,
    opts: &Opts,
) -> Result<ExitCode, String> {
    let rjson = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read {report_path}: {e}"))?;
    let report = ProfileReport::from_json(&rjson)?;
    if report.frontier_markers.is_empty() {
        return Err(format!(
            "{report_path}: profile of an empty trace has no critical-path frontier"
        ));
    }
    let stopline = Stopline {
        markers: MarkerVector::from_counts(report.frontier_markers.clone()),
        origin: format!(
            "critical-path terminal ({}ns path)",
            report.critical_path_len
        ),
    };
    tracedbg::mpsim::set_quiet_panics(true);
    let mut session = Session::launch(
        SessionConfig {
            policy: SchedPolicy::Scripted(artifact.decisions.clone()),
            faults: tracedbg::mpsim::FaultPlan::new(artifact.faults.clone()),
            ..SessionConfig::default()
        },
        factory,
    );
    session.run();
    let status = format!("{:?}", session.replay_to(&stopline));
    tracedbg::mpsim::set_quiet_panics(false);
    let markers = session.markers();
    let reached = markers.counts() == report.frontier_markers.as_slice();
    let join = |v: &[u64]| {
        v.iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    if opts.has("json") {
        println!(
            "{{\"origin\":{},\"target\":[{}],\"markers\":[{}],\"reached\":{},\"status\":{}}}",
            json_string(&stopline.origin),
            join(&report.frontier_markers),
            join(markers.counts()),
            reached,
            json_string(&status),
        );
    } else {
        println!("replaying {artifact}");
        println!(
            "stopline: {} -> markers {:?}",
            stopline.origin, report.frontier_markers
        );
        println!("status: {status}");
        if let Some(step) = report.path.last() {
            println!(
                "critical path ends at P{} marker {} ({})",
                step.rank, step.marker, step.site
            );
            for line in session.where_is(Rank(step.rank)) {
                println!("  {line}");
            }
        }
        println!(
            "{}",
            if reached {
                "stopped at the critical-path frontier"
            } else {
                "did NOT reach the critical-path frontier"
            }
        );
    }
    Ok(if reached {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Convert a [`tracedbg::localize::LocalizeReport`] into the viz crate's
/// renderer rows (viz stays a leaf crate and takes plain structs).
fn suspect_view(
    r: &tracedbg::localize::LocalizeReport,
) -> (SuspectSummary, Vec<SuspectRow>, Vec<ChannelRow>) {
    let summary = SuspectSummary {
        workload: r.workload.clone(),
        verdict: r.verdict.clone(),
        failure: r.failure.clone(),
        passing_runs: r.passing_runs,
        divergence: r
            .divergence
            .as_ref()
            .map(|d| (d.index, d.chosen.clone(), d.expected.clone())),
        markers: r
            .divergence
            .as_ref()
            .map(|d| d.markers.clone())
            .unwrap_or_default(),
    };
    let suspects = r
        .suspects
        .iter()
        .map(|s| SuspectRow {
            rank: s.rank,
            score: s.score,
            divergence: s.divergence,
            graph: s.graph,
            anomaly: s.anomaly,
            blame: s.blame,
            evidence: s.evidence.clone(),
        })
        .collect();
    let channels = r
        .channels
        .iter()
        .map(|c| ChannelRow {
            src: c.src,
            dst: c.dst,
            tag: c.tag,
            missing: c.missing,
            extra: c.extra,
            reordered: c.reordered,
        })
        .collect();
    (summary, suspects, channels)
}

/// `tracedbg localize` — differential fault localization: replay a
/// failing artifact (from `--schedule`, or the first finding of an
/// on-the-fly exploration of a workload), harvest passing reference
/// schedules, and rank suspect processes by decision-log divergence,
/// event-graph diff, and telemetry anomaly. `--trace` supplies the
/// failing trace from a recorded `.trc`/`.tbin` file or an ingested
/// store directory (read through `TraceSource`, never materialized).
/// Exits non-zero only when no passing reference could be found.
fn cmd_localize(opts: &Opts) -> Result<ExitCode, String> {
    const USAGE: &str = "usage: tracedbg localize (--schedule <file.sched.json> | <workload>) \
         [--runs N] [--seed N] [--jobs N] [--procs N] [--explore-runs N] \
         [--trace <trc|store-dir>] [--out FILE] [--json]";
    let artifact = if let Some(path) = opts.flag("schedule") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ScheduleArtifact::from_json(&json).map_err(|e| format!("{path}: {e}"))?
    } else {
        // Workload mode: explore on the fly, localize the first finding.
        let name = opts.positional.first().ok_or(USAGE)?;
        let seed = opts.num("seed", 42u64);
        let procs = opts.num("procs", 8usize);
        let (factory, _n) = workload_factory(name, seed, procs)?;
        let cfg = ExploreConfig {
            workload: name.clone(),
            seed,
            runs: opts.num("explore-runs", 64usize),
            ..Default::default()
        };
        let report = Explorer::new(cfg, factory).explore();
        let finding = report.findings.first().ok_or_else(|| {
            format!("exploration found no failures in {name} — nothing to localize")
        })?;
        finding.artifact.clone()
    };
    let (factory, _n) = workload_factory(&artifact.workload, artifact.seed, artifact.procs)?;
    let lcfg = tracedbg::localize::LocalizeConfig {
        runs: opts.num("runs", 8usize),
        seed: opts.num("seed", 0u64),
        jobs: opts.num("jobs", 1usize),
    };
    // Resolve the failing-trace override up front so IO errors surface
    // before any simulated processes run.
    let failing_trace: Option<Box<dyn TraceSource>> = match opts.flag("trace") {
        Some(p) if std::path::Path::new(p).is_dir() => Some(Box::new(
            DiskStore::open(std::path::Path::new(p)).map_err(|e| e.to_string())?,
        )),
        Some(p) => Some(Box::new(load_store(p)?)),
        None => None,
    };
    tracedbg::mpsim::set_quiet_panics(true);
    let report = tracedbg::localize::localize_with_trace(
        &factory,
        &artifact,
        &lcfg,
        failing_trace.as_deref(),
    );
    tracedbg::mpsim::set_quiet_panics(false);
    if opts.has("json") {
        println!("{}", report.to_json());
    } else {
        let (summary, suspects, channels) = suspect_view(&report);
        print!("{}", render_suspects(&summary, &suspects, &channels));
    }
    if let Some(out) = opts.flag("out") {
        std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        if !opts.has("json") {
            println!("report written to {out}");
        }
    }
    Ok(
        if report.verdict == tracedbg::localize::VERDICT_NO_REFERENCE {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        },
    )
}

/// `tracedbg ingest` — convert a recorded trace file into the indexed
/// on-disk store format `tracedbg query` (and every trace-consuming
/// command) reads.
fn cmd_ingest(opts: &Opts) -> Result<(), String> {
    let path = opts.positional.first().ok_or(
        "usage: tracedbg ingest <trace.trc | trace.tbin> --out <dir> [--segment-events N]",
    )?;
    let out = opts.flag("out").ok_or("ingest needs --out <dir>")?;
    let tf = load_trace_file(path)?;
    let started = std::time::Instant::now();
    let summary = tracedbg::store::ingest_records(
        &tf.records,
        &tf.sites,
        tf.n_ranks,
        std::path::Path::new(out),
        StoreOptions {
            segment_events: opts.num("segment-events", 65536usize),
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
    Ok(())
}

/// `tracedbg query` — indexed queries over an ingested store directory.
/// Events stream from the store's cursors; the trace is never
/// materialized, so multi-million-event stores answer in milliseconds.
fn cmd_query(opts: &Opts) -> Result<(), String> {
    const USAGE: &str = "usage: tracedbg query <dir> \
         [--rank N | --tag T | --kind CODE | --window lo:hi] \
         [--limit N] [--count] [--stats]";
    let dir = opts.positional.first().ok_or(USAGE)?;
    let disk = DiskStore::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    if opts.has("stats") {
        // Streaming one-pass statistics through the TraceSource trait.
        let stats = tracedbg::trace::TraceStats::from_source(&disk).map_err(|e| e.to_string())?;
        print!("{stats}");
        return Ok(());
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
    let limit = opts.num("limit", 20usize);
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
    Ok(())
}

/// `tracedbg bench` — the in-tree perf harness. Runs the fixed-iteration
/// suites from `tracedbg-bench` (trace parse, happens-before
/// construction, golden-trace replay, engine throughput, and explorer
/// runs/sec at jobs=1 vs jobs=N), prints a human table per suite, and
/// writes `BENCH_<suite>.json` files into `--out` (default the current
/// directory) for the perf trajectory.
fn cmd_bench(opts: &Opts) -> Result<(), String> {
    let suite_opts = tracedbg_bench::suites::SuiteOptions {
        quick: opts.has("quick"),
        filter: opts.flag("filter").map(|s| s.to_string()),
        // 0 = one worker per available core for the explore_jobsN point.
        jobs: opts.num("jobs", 0usize),
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
    Ok(())
}

/// Minimal JSON string encoder for the hand-rolled `replay --json` output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
        "lint" => {
            return match cmd_lint(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "explore" => {
            return match cmd_explore(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "localize" => {
            return match cmd_localize(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "replay" => {
            return match cmd_replay(&opts) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "profile" => cmd_profile(&opts),
        "stats" => cmd_stats(&opts),
        "bench" => cmd_bench(&opts),
        "workloads" => {
            println!(
                "strassen       distributed Strassen multiply (8 procs, correct)\n\
                 strassen-bug   the paper's jres bug: deadlocks ranks 0 and 7\n\
                 lu             LU/SSOR wavefront pipeline\n\
                 ring           token ring\n\
                 pool           master/worker with wildcard receives\n\
                 heat           1-D heat diffusion: halo exchange + allreduce\n\
                 stencil        2-D halo exchange on a sqrt(procs) x sqrt(procs) grid\n\
                 butterfly      log2-stage allreduce over next_power_of_two(procs) ranks\n\
                 racy-wildcard  wildcard-receive race (explore finds the panic)\n\
                 racy-deadlock  orphaned receive (explore finds the deadlock)\n\
                 planted-wildcard  localization corpus: racy wildcard, bug planted at rank 2\n\
                 planted-orphan    localization corpus: orphaned receive at rank 2\n\
                 planted-pipeline  localization corpus: delay-sensitive merge stage at rank 2\n\
                 fib:<n>        recursive Fibonacci (Table 1 driver)\n\
                 random:<n>     seeded random transfer pattern\n\
                 script:<path>  interpreted mini-language program (SPMD)\n\
                 sdl:<name>     builtin script (statically analyzable):"
            );
            for b in scripts::builtins() {
                println!(
                    "   sdl:{:<18} {} (min {} procs)",
                    b.name, b.description, b.min_procs
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opts_parses_flags_values_and_positionals() {
        let o = Opts::parse(&args(&[
            "ring", "--seed", "7", "--json", "--procs", "4", "-e", "run",
        ]));
        assert_eq!(o.positional, vec!["ring"]);
        assert_eq!(o.flag("seed"), Some("7"));
        assert_eq!(o.num("procs", 0usize), 4);
        assert!(o.has("json"));
        assert_eq!(o.flag("json"), None, "bare flag carries no value");
        assert_eq!(o.commands(), vec!["run"]);
        assert!(!o.has("faults"));
        assert_eq!(o.num("runs", 64usize), 64, "missing flag falls back");
    }

    #[test]
    fn workload_factory_resolves_known_names() {
        for name in [
            "strassen",
            "strassen-bug",
            "lu",
            "ring",
            "heat",
            "pool",
            "stencil",
            "butterfly",
            "racy-wildcard",
            "racy-deadlock",
            "planted-wildcard",
            "planted-orphan",
            "planted-pipeline",
            "fib:6",
            "random:4",
            "sdl:ring",
            "sdl:pairs",
            "sdl:racy-wildcard",
            "sdl:racy-deadlock",
        ] {
            let (factory, n) = workload_factory(name, 1, 4).expect(name);
            assert_eq!(factory().len(), n, "{name}: factory/proc-count agree");
        }
        assert!(workload_factory("no-such-workload", 1, 4).is_err());
        assert!(workload_factory("fib:x", 1, 4).is_err());
        assert!(workload_factory("sdl:no-such-script", 1, 4).is_err());
    }

    #[test]
    fn sdl_workloads_clamp_to_min_procs() {
        let (_, n) = workload_factory("sdl:racy-wildcard", 1, 1).unwrap();
        assert_eq!(n, 3, "racy builtin needs a master and two workers");
        let (_, n) = workload_factory("sdl:ring", 1, 1).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn script_workload_resolves_bare_names_only_when_allowed() {
        // `ring` is a native workload; only `analyze` treats the bare
        // name as the builtin script.
        assert!(script_workload("ring", 4, false).unwrap().is_none());
        let (_, file, n) = script_workload("ring", 4, true).unwrap().unwrap();
        assert_eq!(file, "sdl:ring");
        assert_eq!(n, 4);
        let (_, file, n) = script_workload("sdl:pairs", 1, false).unwrap().unwrap();
        assert_eq!(file, "sdl:pairs");
        assert_eq!(n, 2, "clamped to the builtin's minimum");
    }

    #[test]
    fn racy_workloads_enforce_a_minimum_of_three_procs() {
        let (_, n) = workload_factory("racy-wildcard", 1, 1).unwrap();
        assert_eq!(n, 3);
        let (_, n) = workload_factory("racy-deadlock", 1, 12).unwrap();
        assert_eq!(n, 12);
    }

    #[test]
    fn json_string_escapes_control_and_quote_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny\u{1}"), "\"x\\ny\\u0001\"");
    }
}
