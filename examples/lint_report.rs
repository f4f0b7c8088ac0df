//! Communication supervision as a lint pass: run the rule engine over a
//! clean trace, a buggy trace, and a buggy workload script.
//!
//! ```sh
//! cargo run --example lint_report
//! ```

use tracedbg::lint::{lint_script, lint_trace, report, rule_catalog, LintConfig};
use tracedbg::prelude::*;
use tracedbg::workloads::{ring, script};

fn trace_of(factory: ProgramFactory) -> TraceStore {
    let mut session = Session::launch(SessionConfig::default(), factory);
    session.run();
    session.trace()
}

fn main() {
    let cfg = LintConfig::default();

    // 1. A correct program lints clean.
    let clean = trace_of(Box::new(|| ring::programs(&ring::RingConfig::default())));
    let diags = lint_trace(&clean, &cfg);
    println!("ring workload: {}", report::summary_line(&diags));
    assert!(diags.is_empty(), "the ring must lint clean");

    // 2. A buggy program: P0 leaks a send nobody receives, and P1 posts a
    //    receive for a tag that is never sent.
    let buggy = trace_of(Box::new(|| {
        let send = |tag: i32, value: i64| {
            Prog::op(move |_: &mut (), v| TaskOp::Send {
                dst: Rank(1),
                tag: Tag(tag),
                payload: Payload::from_i64(value),
                site: v.site("buggy.rs", 4, "main"),
                mode: SendMode::Buffered,
            })
        };
        // Wrong tag on the second send: nobody ever receives that one.
        let p0 = Prog::seq(vec![send(7, 1), send(9, 2)]);
        let p1 = Prog::op(|_: &mut (), v| TaskOp::Recv {
            src: Some(Rank(0)),
            tag: Some(Tag(7)),
            site: v.site("buggy.rs", 11, "main"),
        });
        vec![RankProgram::task((), p0), RankProgram::task((), p1)]
    }));
    let diags = lint_trace(&buggy, &cfg);
    println!("\nbuggy trace:");
    print!("{}", report::render_human(&diags));
    assert!(diags.iter().any(|d| d.rule.0 == "TDL001"));

    // 3. The script front end catches bugs before anything runs.
    let src = "\
fn main
  if rank == 0
    send 99 tag 1 rank
    send 0 tag 3 rank
  else
    recv from 0 tag 2 into x
    call helper
  end
end
";
    let parsed = script::parse(src).expect("script parses");
    let diags = lint_script(&parsed, 4, "buggy.script", &cfg);
    println!("\nbuggy script (4 procs):");
    print!("{}", report::render_human(&diags));
    assert!(diags.iter().any(|d| d.rule.0 == "SDL101"));
    assert!(diags.iter().any(|d| d.rule.0 == "SDL102"));

    // 4. The rule catalog, as shown by `tracedbg lint rules`.
    println!("\nrule catalog:");
    for info in rule_catalog() {
        println!(
            "  {}  {:<7}  {}",
            info.id,
            info.severity.to_string(),
            info.description
        );
    }
}
