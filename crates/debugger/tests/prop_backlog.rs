//! The session's one backlog of stops against the semantics it replaced:
//! random debugging sessions (`step <r>`, `step`, `stopline markers …` +
//! `replay`, `undo`, `continue`) on two workloads, each long enough to
//! thin the backlog past its 64-entry bound, must undo to exactly the
//! stops a plain undo stack of markers names, and print the same
//! transcript whether the session checkpoints every stop, every third
//! stop or never.

use proptest::prelude::*;
use tracedbg_debugger::{CommandInterface, Session, SessionConfig};
use tracedbg_trace::MarkerVector;
use tracedbg_workloads::catalog;

/// Stops kept before thinning.
const BOUND: usize = 64;

/// The oracle: the undo stack of stop markers the backlog replaced.
#[derive(Default)]
struct UndoStack {
    stops: Vec<MarkerVector>,
    thinned: bool,
}

impl UndoStack {
    fn push(&mut self, markers: MarkerVector) {
        if self.stops.last() == Some(&markers) {
            return;
        }
        self.stops.push(markers);
        if self.stops.len() > BOUND {
            let recent = self.stops.split_off(self.stops.len() - BOUND / 2);
            let old = std::mem::take(&mut self.stops).into_iter().step_by(2);
            self.stops = old.chain(recent).collect();
            self.thinned = true;
        }
    }

    fn undo_target(&mut self) -> Option<MarkerVector> {
        if self.stops.len() < 2 {
            return None;
        }
        self.stops.pop();
        self.stops.pop()
    }
}

/// A session on `spec`, with the oracle it is checked against.
struct Checked {
    ci: CommandInterface,
    oracle: UndoStack,
}

impl Checked {
    fn launch(spec: &str, procs: usize, checkpoint_every: usize) -> Self {
        let workload = catalog::resolve(spec, 3, procs).unwrap().unwrap();
        let cfg = SessionConfig {
            checkpoint_every,
            ..Default::default()
        };
        Checked {
            ci: CommandInterface::new(Session::launch(cfg, workload.factory)),
            oracle: UndoStack::default(),
        }
    }

    /// Run `cmd`, keeping the oracle in step and checking an undo against it.
    fn execute(&mut self, cmd: &str) -> String {
        let undo = (cmd == "undo").then(|| self.oracle.undo_target());
        let reply = self.ci.execute(cmd);
        let markers = self.ci.session().markers();
        match &undo {
            Some(None) => assert_eq!(reply, "> undo\nnothing to undo"),
            Some(Some(target)) => assert_eq!(&markers, target, "undo landed off its target"),
            None => {}
        }
        if !cmd.starts_with("stopline") && undo != Some(None) {
            self.oracle.push(markers);
        }
        reply
    }
}

/// One random command (a stopline comes with its replay) for a session
/// whose recorded run ended at `end`.
fn command(rng: &mut TestRng, end: &MarkerVector) -> Vec<String> {
    let n = end.len() as u64;
    match rng.below(11) {
        0..=2 => vec![format!("step {}", rng.below(n))],
        3..=4 => vec!["step".into()],
        5..=7 => {
            let counts: Vec<String> = end
                .counts()
                .iter()
                .map(|&c| (1 + rng.below(c)).to_string())
                .collect();
            vec![
                format!("stopline markers {}", counts.join(" ")),
                "replay".into(),
            ]
        }
        8..=9 => vec!["undo".into()],
        _ => vec!["continue".into()],
    }
}

/// Drive a random session on `spec` at `checkpoint_every` 0 until it has
/// thinned its backlog, then for `body` more commands, then undo as far
/// as it goes; then run the same script at 1 and 3 and require the same
/// transcript, every undo landing on the oracle's target in all three.
fn check_session(spec: &str, procs: usize, seed: u64, body: usize) {
    let mut rng = TestRng::seeded(seed);
    let mut scratch = Checked::launch(spec, procs, 0);
    let mut script = vec!["run".to_string()];
    let mut transcript = vec![scratch.execute("run")];
    let end = scratch.ci.session().markers();
    let mut left = body;
    while left > 0 {
        for cmd in command(&mut rng, &end) {
            transcript.push(scratch.execute(&cmd));
            script.push(cmd);
        }
        if scratch.oracle.thinned {
            left -= 1;
        }
    }
    // Undo down to the oldest stop kept, through every thinned entry.
    while scratch.oracle.stops.len() > 1 {
        transcript.push(scratch.execute("undo"));
        script.push("undo".into());
    }
    for every in [1, 3] {
        let mut fast = Checked::launch(spec, procs, every);
        let replies: Vec<String> = script.iter().map(|cmd| fast.execute(cmd)).collect();
        for (i, (a, b)) in transcript.iter().zip(&replies).enumerate() {
            assert_eq!(
                a, b,
                "{spec} seed {seed}: command {i} at checkpoint_every {every}"
            );
        }
        assert!(fast.oracle.thinned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ring_sessions_undo_like_an_undo_stack(seed in any::<u64>(), body in 10usize..=150) {
        check_session("ring", 4, seed, body);
    }

    #[test]
    fn random_sessions_undo_like_an_undo_stack(seed in any::<u64>(), body in 10usize..=150) {
        check_session("random:400", 8, seed, body);
    }
}
