//! The workload name table: every run target `tracedbg` knows by name.
//!
//! One table answers both "what does this spec run" ([`resolve`], behind
//! every verb that takes a workload) and "what can I run" ([`listing`],
//! the `tracedbg workloads` verb), so a name is listed exactly when it
//! resolves.

use crate::script::{self, Script};
use crate::{
    fib, heat, lu, master_worker, planted, racy, random_comm, ring, scripts, strassen, wide,
};
use tracedbg_mpsim::{ProgramFactory, RankProgram};

/// A resolved run target.
pub struct Workload {
    pub factory: ProgramFactory,
    /// The process count the factory builds (`--procs` after clamping).
    pub nprocs: usize,
    /// For a script-backed target (`script:<path>`, `sdl:<name>`): the
    /// parsed source and the file label its trace sites carry — what
    /// `analyze`, `lint` and `explore --dpor` reason about statically.
    pub script: Option<(Script, String)>,
}

/// Builds a row's workload from the text after the colon of a prefix form
/// (the whole spec for a fixed name), `--seed` and `--procs`.
type Build = fn(&str, u64, usize) -> Result<Workload, String>;

/// The builder of a row whose config takes `--procs` raised to the row's
/// minimum, refused above its maximum, and its defaults otherwise.
macro_rules! sized {
    ($($config:ident)::+, $lo:expr, $hi:expr, $factory:path) => {
        |name, _, procs| {
            let cfg = $($config)::+ {
                nprocs: at_most(name, procs, $hi)?.max($lo),
                ..Default::default()
            };
            native(cfg.nprocs, $factory(cfg))
        }
    };
}

/// `procs`, or the refusal of a count above what the workload `name` runs.
fn at_most(name: &str, procs: usize, hi: usize) -> Result<usize, String> {
    if procs > hi {
        return Err(format!("{name} runs at most {hi} ranks, not {procs}"));
    }
    Ok(procs)
}

/// `(the row's line in `tracedbg workloads`, builder)`. The line's first
/// word is the name a spec must equal; a name of the form `prefix:<arg>`
/// matches any spec starting with `prefix:`.
const TABLE: &[(&str, Build)] = &[
    (
        "strassen       distributed Strassen multiply (8 procs, correct)",
        |_, seed, procs| strassen_workload(strassen::Variant::Correct, seed, procs),
    ),
    (
        "strassen-bug   the paper's jres bug: deadlocks ranks 0 and 7",
        |_, seed, procs| strassen_workload(strassen::Variant::JresBug, seed, procs),
    ),
    (
        "lu             LU/SSOR wavefront pipeline",
        sized!(lu::LuConfig, 2, usize::MAX, lu::factory),
    ),
    (
        "ring           token ring",
        sized!(ring::RingConfig, 2, usize::MAX, ring::factory),
    ),
    (
        "pool           master/worker with wildcard receives",
        sized!(
            master_worker::PoolConfig,
            2,
            usize::MAX,
            master_worker::factory
        ),
    ),
    (
        "heat           1-D heat diffusion: halo exchange + allreduce",
        sized!(heat::HeatConfig, 2, usize::MAX, heat::factory),
    ),
    (
        "stencil        2-D halo exchange on a sqrt(procs) x sqrt(procs) grid",
        |_, _, procs| {
            // --procs is the total rank count; the grid side is its (floored)
            // square root, so 1024 procs = the 32x32 grid.
            let p = ((procs.max(4) as f64).sqrt().floor() as usize).max(2);
            native(
                p * p,
                wide::stencil_factory(wide::StencilConfig {
                    p,
                    ..Default::default()
                }),
            )
        },
    ),
    (
        "butterfly      log2-stage allreduce over next_power_of_two(procs) ranks",
        |_, _, procs| {
            let nprocs = procs.max(2).next_power_of_two();
            native(
                nprocs,
                wide::butterfly_factory(wide::ButterflyConfig { nprocs }),
            )
        },
    ),
    (
        "racy-wildcard  wildcard-receive race (explore finds the panic)",
        sized!(racy::RacyConfig, 3, 16, racy::wildcard_race_factory),
    ),
    (
        "racy-deadlock  orphaned receive (explore finds the deadlock)",
        sized!(racy::RacyConfig, 3, 16, racy::orphan_deadlock_factory),
    ),
    // The localization corpus: each workload carries a known planted bug
    // at `bug_rank` (see `planted`).
    (
        "planted-wildcard  localization corpus: racy wildcard, bug planted at rank 2",
        sized!(
            planted::PlantedConfig,
            4,
            16,
            planted::planted_wildcard_factory
        ),
    ),
    (
        "planted-orphan    localization corpus: orphaned receive at rank 2",
        sized!(
            planted::PlantedConfig,
            4,
            16,
            planted::planted_orphan_factory
        ),
    ),
    (
        "planted-pipeline  localization corpus: delay-sensitive merge stage at rank 2",
        sized!(
            planted::PlantedConfig,
            4,
            16,
            planted::planted_pipeline_factory
        ),
    ),
    (
        "fib:<n>        recursive Fibonacci (Table 1 driver)",
        |n, _, _| {
            let n: u64 = n.parse().map_err(|_| format!("bad fib input {n:?}"))?;
            native(1, move || vec![fib::program(n)])
        },
    ),
    (
        "random:<n>     seeded random transfer pattern",
        |t, seed, procs| {
            let t: usize = t.parse().map_err(|_| format!("bad transfer count {t:?}"))?;
            let nprocs = procs.max(2);
            let pat = random_comm::generate(seed, nprocs, t);
            native(nprocs, move || random_comm::programs(&pat, seed))
        },
    ),
    (
        "script:<path>  interpreted mini-language program (SPMD)",
        |path, _, procs| {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let parsed = script::parse(&src).map_err(|e| e.to_string())?;
            Ok(scripted(parsed, path.to_string(), procs.max(2)))
        },
    ),
    (
        "sdl:<name>     builtin script (statically analyzable):",
        |name, _, procs| {
            let b = scripts::builtin(name).ok_or_else(|| {
                format!("unknown builtin script {name:?} (try `tracedbg workloads`)")
            })?;
            Ok(scripted(b.parse(), b.file(), procs.max(b.min_procs)))
        },
    ),
];

fn native(
    nprocs: usize,
    factory: impl Fn() -> Vec<RankProgram> + Send + Sync + 'static,
) -> Result<Workload, String> {
    Ok(Workload {
        factory: Box::new(factory),
        nprocs,
        script: None,
    })
}

fn scripted(parsed: Script, file: String, nprocs: usize) -> Workload {
    let script = Some((parsed.clone(), file.clone()));
    Workload {
        factory: Box::new(move || script::programs(&parsed, nprocs, &file)),
        nprocs,
        script,
    }
}

fn strassen_workload(
    variant: strassen::Variant,
    seed: u64,
    procs: usize,
) -> Result<Workload, String> {
    // The figures' matrix and cutoff, at the requested width and seed.
    let cfg = strassen::StrassenConfig {
        nprocs: procs.max(2),
        seed,
        ..strassen::StrassenConfig::figures(variant)
    };
    native(cfg.nprocs, strassen::factory(cfg))
}

/// The row a spec names, with the text its builder takes.
fn find(spec: &str) -> Option<(Build, &str)> {
    TABLE.iter().find_map(|(line, build)| {
        let name = line.split_whitespace().next()?;
        let arg = match name.split_once(":<") {
            Some((prefix, _)) => spec.strip_prefix(prefix)?.strip_prefix(':')?,
            None => (spec == name).then_some(spec)?,
        };
        Some((*build, arg))
    })
}

/// Does `spec` name a workload — a fixed name of the table or one of its
/// `fib:`/`random:`/`script:`/`sdl:` prefix forms? Nothing is built.
pub fn is_workload(spec: &str) -> bool {
    find(spec).is_some()
}

/// Resolve a spec to its workload. `None` means the spec names no
/// workload (callers read it as a path); `Some(Err)` means it names one
/// that cannot be built (`fib:x`, `sdl:no-such-script`, an unreadable
/// `script:` file).
pub fn resolve(spec: &str, seed: u64, procs: usize) -> Option<Result<Workload, String>> {
    find(spec).map(|(build, arg)| build(arg, seed, procs))
}

/// What `tracedbg workloads` prints: the table's rows, then the builtin
/// scripts the `sdl:` row stands for.
pub fn listing() -> String {
    let mut out: String = TABLE.iter().map(|(line, _)| format!("{line}\n")).collect();
    for b in scripts::builtins() {
        out.push_str(&format!(
            "   sdl:{:<18} {} (min {} procs)\n",
            b.name, b.description, b.min_procs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::resolve;

    #[test]
    fn a_capped_workload_refuses_more_ranks_than_it_runs() {
        for name in [
            "racy-wildcard",
            "racy-deadlock",
            "planted-wildcard",
            "planted-orphan",
            "planted-pipeline",
        ] {
            let at = |procs| resolve(name, 1, procs).expect(name);
            assert_eq!(at(16).map(|w| w.nprocs).ok(), Some(16), "{name}");
            assert_eq!(
                at(64).err().as_deref(),
                Some(format!("{name} runs at most 16 ranks, not 64").as_str())
            );
        }
        // An uncapped row takes any count.
        assert_eq!(
            resolve("ring", 1, 4096).unwrap().map(|w| w.nprocs).ok(),
            Some(4096)
        );
    }
}
