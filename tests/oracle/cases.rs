//! The one generator of cases. A case is a program, a process count, a
//! fault plan and a schedule seed. The program is a random SDL script over
//! 2–16 ranks (65–130 in one case of eight, so that a checkpoint spans two
//! blocks of ranks): phases of wildcard fan-ins, shifts and pair
//! exchanges, rank-dependent `if`s, `loop`s, `call`s, barriers and probes,
//! and in one program of ten a receive that waits forever. In one case of
//! four it is a corpus script instead.
//!
//! The determinism oracle (`tests/oracle.rs`) runs every case every way;
//! a property test of one crate takes its cases here too, through a
//! `#[path]` module, so that there is one generator to keep.
#![allow(dead_code)] // every test binary uses its own subset

#[path = "faults.rs"]
mod faults;

#[allow(unused_imports)] // the literals pinned cases are written in
pub use faults::{arb_faults, crash, delay, hang};

use proptest::prelude::TestRng;
use proptest::strategy::FnStrategy;
use tracedbg_mpsim::{EngineConfig, FaultPlan, RankProgram, RecorderConfig, SchedPolicy};
use tracedbg_trace::schedule::Fault;
use tracedbg_workloads::script;

/// The file name generated programs run under.
pub const GENERATED: &str = "oracle.sdl";

pub struct Case {
    /// [`GENERATED`], or the corpus file the source was read from.
    pub file: String,
    pub source: String,
    pub procs: usize,
    pub faults: Vec<Fault>,
    pub seed: u64,
}

impl Case {
    fn new(file: String, source: String, procs: usize, faults: Vec<Fault>, seed: u64) -> Case {
        Case {
            file,
            source,
            procs,
            faults,
            seed,
        }
    }

    pub fn sdl(source: &str, procs: usize, faults: Vec<Fault>, seed: u64) -> Case {
        Case::new(GENERATED.into(), source.into(), procs, faults, seed)
    }

    pub fn corpus(file: &str, procs: usize, faults: Vec<Fault>, seed: u64) -> Case {
        let mut corpus = corpus().into_iter();
        let (file, source) = corpus.find(|c| c.0 == file).expect("in the corpus");
        Case::new(file, source, procs, faults, seed)
    }

    /// The case's engine configuration: its seed and faults, every event
    /// recorded.
    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            policy: SchedPolicy::Seeded(self.seed),
            recorder: RecorderConfig::full(),
            faults: FaultPlan::new(self.faults.clone()),
            ..Default::default()
        }
    }

    /// The case's ranks, from a fresh parse of its source.
    pub fn programs(&self) -> Vec<RankProgram> {
        let parsed = script::parse(&self.source).expect("the case parses");
        script::programs(&parsed, self.procs, &self.file)
    }
}

/// The case as the literal a pinned test passes to the oracle's `check`.
impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut faults = format!("{:?}", self.faults);
        for (from, to) in [
            ("Crash { rank: P", "crash("),
            ("Hang { rank: P", "hang("),
            ("Delay { src: P", "delay("),
            (" }", ")"),
        ] {
            faults = faults.replace(from, to);
        }
        for field in [", after_ops: ", ", dst: P", ", nth: ", ", extra_ns: "] {
            faults = faults.replace(field, ", ");
        }
        let rest = format!("{}, vec!{faults}, {}", self.procs, self.seed);
        match self.file.as_str() {
            GENERATED => write!(f, "Case::sdl(r#\"\n{}\"#, {rest})", self.source),
            file => write!(f, "Case::corpus({file:?}, {rest})"),
        }
    }
}

/// Every built-in SDL script, the example script and the runnable golden
/// scripts, as `(file name, source)`.
pub fn corpus() -> Vec<(String, String)> {
    use tracedbg_workloads::scripts::builtins;
    let mut out: Vec<_> = builtins()
        .iter()
        .map(|b| (b.file(), b.source.into()))
        .collect();
    // Every crate's manifest directory is two levels below the root.
    let root = env!("CARGO_MANIFEST_DIR");
    for dir in ["/../../tests/golden/scripts", "/../../examples/scripts"] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}{dir}"))
            .expect("script directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "script"))
            // Its loop does not fit in 64 bits; its header says never to run it.
            .filter(|p| p.file_stem().is_some_and(|s| s != "wide-loop"))
            .collect();
        paths.sort();
        for p in paths {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&p).expect("script source")));
        }
    }
    out
}

/// A case at a time, for a `proptest!` argument.
pub fn arb_case() -> FnStrategy<impl Fn(&mut TestRng) -> Case> {
    let corpus = corpus();
    FnStrategy::new(move |rng: &mut TestRng| gen_case(rng, &corpus))
}

/// A wide program has two or three phases, a narrow one two to five.
pub fn gen_case(rng: &mut TestRng, corpus: &[(String, String)]) -> Case {
    let kind = rng.below(8) as usize;
    let (least, span) = [(3, 4), (3, 4), (65, 66)].get(kind).unwrap_or(&(2, 15));
    let procs = least + rng.below(*span);
    let faults = arb_faults(rng, procs as u32);
    let seed = rng.below(10_000);
    if kind < 2 {
        let file = &corpus[rng.below(corpus.len() as u64) as usize].0;
        return Case::corpus(file, procs as usize, faults, seed);
    }
    let phases = 2 + rng.below(if kind == 2 { 2 } else { 4 });
    Case::sdl(&gen_program(rng, phases), procs as usize, faults, seed)
}

/// A `main` of `phases` phases, each on its own tag; a phase may be
/// repeated by a `loop` or moved into a function `main` calls, and in one
/// program of ten a phase is a trap.
pub fn gen_program(rng: &mut TestRng, phases: u64) -> String {
    let (mut funcs, mut main) = (String::new(), String::from("let acc = rank\n"));
    let trap = (rng.below(10) == 0).then(|| rng.below(phases));
    for p in 0..phases {
        let mut body = gen_phase(rng, p + 1, trap == Some(p));
        if rng.below(4) == 0 {
            body = format!("loop j{p} 0 {}\n{}end\n", 1 + rng.below(3), indent(&body));
        }
        if rng.below(3) == 0 {
            funcs += &format!("fn phase{p}\n{}end\n", indent(&body));
            main += &format!("call phase{p}\n");
        } else {
            main += &body;
        }
    }
    format!(
        "{funcs}fn main\n{}  trace \"acc\" acc\nend\n",
        indent(&main)
    )
}

fn indent(block: &str) -> String {
    block.lines().map(|l| format!("  {l}\n")).collect()
}

/// The shapes of a phase, one per paragraph: a fan-in, a shift taken by
/// wildcard or from the sender, a pair exchange, probes and a barrier, a
/// fan-in whose root branches on who came first; then two traps, a
/// receive nobody sends to and a ring of receives before their sends.
/// `ROOT`, `STEP`, `SRC`, `TAG` and `ANY_TAG` are filled in per phase: a
/// wildcard on the tag too may take a later phase's message.
const PHASES: &str = "\
if rank == ROOT
  loop i 1 nprocs
    recv from anyANY_TAG into x
    let acc = ( acc + x ) % 1000
  end
  trace \"v\" x_src
else
  compute ( ( rank * 37 ) % 101 )
  send ROOT tag TAG ( acc + rank )
end

send ( ( rank + STEP ) % nprocs ) tag TAG acc
recv from SRC tag TAG into y
let acc = ( ( acc * 3 ) + y ) % 1000

if ( rank % 2 ) == 0
  if ( rank + 1 ) < nprocs
    send ( rank + 1 ) tag TAG acc
    recv from ( rank + 1 ) tag TAG into z
  end
else
  recv from any tag TAG into z
  send ( rank - 1 ) tag TAG ( z + 1 )
end

if rank < ROOT
  compute ( rank * 10 )
  trace \"v\" acc
end
barrier

if rank == 0
  recv from any tag TAG into x
  let first = x_src
  loop i 2 nprocs
    recv from any tag TAG into x
  end
  if first == 1
    compute 5
  else
    trace \"v\" first
  end
else
  send 0 tag TAG rank
end

if rank == ROOT
  recv from any tag 99 into w
end

recv from ( ( rank + 1 ) % nprocs ) tag TAG into w
send ( ( rank + nprocs - 1 ) % nprocs ) tag TAG acc";

fn gen_phase(rng: &mut TestRng, tag: u64, trap: bool) -> String {
    let shape = match trap {
        true => 5 + rng.below(2) as usize,
        false => [0, 0, 1, 1, 2, 3, 4][rng.below(7) as usize],
    };
    let root = ["0", "( nprocs - 1 )"][rng.below(2) as usize];
    let step = ["1", "( nprocs - 1 )"][rng.below(2) as usize];
    let src = ["any", "( ( rank + nprocs - STEP ) % nprocs )"][rng.below(2) as usize];
    let any_tag = match rng.below(8) {
        0 => String::new(),
        _ => format!(" tag {tag}"),
    };
    let block = PHASES.split("\n\n").nth(shape).unwrap().to_string() + "\n";
    // `SRC` holds a `STEP`, and `ANY_TAG` a `TAG`.
    block
        .replace("SRC", src)
        .replace("ROOT", root)
        .replace("STEP", step)
        .replace("ANY_TAG", &any_tag)
        .replace("TAG", &tag.to_string())
}
