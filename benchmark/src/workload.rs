//! The four debuggee shapes.
//!
//! A workload is one debuggee program plus the fixed verb sequence (a
//! *pass*) run against it. `--seed` is the only source of variation: it
//! becomes `--seed` of `random:<n>`, `explore` and `localize`; the program
//! under test sees nothing but the generated arguments.

use tracedbg_debugger::ProgramFactory;
use tracedbg_workloads::script::Script;
use tracedbg_workloads::{planted, random_comm, script, scripts, wide};

/// Side of the stencil grid: 20x20 = 400 ranks (see README for why not 1024).
const WIDE_SIDE: usize = 20;
const DEEP_TRANSFERS: usize = 16_000;
const DEEP_PROCS: usize = 8;
const PLANTED_PROCS: usize = 16;
const SCRIPT_PROCS: usize = 8;
const SCRIPT_NAME: &str = "racy-wildcard";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WideStencil,
    DeepRandom,
    HuntPlanted,
    HuntScript,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
}

impl Workload {
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "wide_stencil" => Kind::WideStencil,
            "deep_random" => Kind::DeepRandom,
            "hunt_planted" => Kind::HuntPlanted,
            "hunt_script" => Kind::HuntScript,
            _ => return None,
        };
        Some(Workload { kind, seed })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::WideStencil => "wide_stencil",
            Kind::DeepRandom => "deep_random",
            Kind::HuntPlanted => "hunt_planted",
            Kind::HuntScript => "hunt_script",
        }
    }

    /// Hunt workloads run `explore`/`localize`/`replay`; the others run
    /// the record/ingest/query/analyze/debug pipeline.
    pub fn is_hunt(&self) -> bool {
        matches!(self.kind, Kind::HuntPlanted | Kind::HuntScript)
    }

    /// The CLI's name for the debuggee.
    pub fn target(&self) -> String {
        match self.kind {
            Kind::WideStencil => "stencil".into(),
            Kind::DeepRandom => format!("random:{DEEP_TRANSFERS}"),
            Kind::HuntPlanted => "planted-wildcard".into(),
            Kind::HuntScript => format!("sdl:{SCRIPT_NAME}"),
        }
    }

    pub fn procs(&self) -> usize {
        match self.kind {
            Kind::WideStencil => WIDE_SIDE * WIDE_SIDE,
            Kind::DeepRandom => DEEP_PROCS,
            Kind::HuntPlanted => PLANTED_PROCS,
            Kind::HuntScript => SCRIPT_PROCS,
        }
    }

    /// `<target> --procs P --seed S`, as every verb taking a workload wants it.
    pub fn target_args(&self) -> Vec<String> {
        vec![
            self.target(),
            "--procs".into(),
            self.procs().to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }

    /// `explore` run budget and `localize` reference-run budget.
    pub fn hunt_budgets(&self) -> (usize, usize) {
        match self.kind {
            Kind::HuntPlanted => (4000, 2000),
            Kind::HuntScript => (6000, 3000),
            _ => (0, 0),
        }
    }

    pub fn dpor(&self) -> bool {
        self.kind == Kind::HuntScript
    }

    /// The rank the planted bug lives in, where the workload has one.
    pub fn planted_rank(&self) -> Option<u32> {
        (self.kind == Kind::HuntPlanted).then(|| planted::PlantedConfig::default().bug_rank)
    }

    /// Source text of a script-backed debuggee.
    pub fn script_source(&self) -> Option<&'static str> {
        (self.kind == Kind::HuntScript).then(|| {
            scripts::builtin(SCRIPT_NAME)
                .expect("builtin script exists")
                .source
        })
    }

    /// The parsed script behind a script-backed debuggee, and the file
    /// label its trace sites carry.
    pub fn script(&self) -> Option<(Script, String)> {
        (self.kind == Kind::HuntScript).then(|| {
            let b = scripts::builtin(SCRIPT_NAME).expect("builtin script exists");
            (b.parse(), b.file())
        })
    }

    /// The in-process twin of the CLI's `workload_factory` for this
    /// debuggee: same configs, same seeds, so traces are byte-identical to
    /// what the CLI child records.
    pub fn factory(&self) -> ProgramFactory {
        let seed = self.seed;
        match self.kind {
            Kind::WideStencil => Box::new(wide::stencil_factory(wide::StencilConfig {
                p: WIDE_SIDE,
                ..Default::default()
            })),
            Kind::DeepRandom => {
                let pat = random_comm::generate(seed, DEEP_PROCS, DEEP_TRANSFERS);
                Box::new(move || random_comm::programs(&pat, seed))
            }
            Kind::HuntPlanted => {
                Box::new(planted::planted_wildcard_factory(planted::PlantedConfig {
                    nprocs: PLANTED_PROCS,
                    ..Default::default()
                }))
            }
            Kind::HuntScript => {
                let (parsed, file) = self.script().expect("script-backed");
                Box::new(move || script::programs(&parsed, SCRIPT_PROCS, &file))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn every_manifest_workload_resolves_and_builds_its_ranks() {
        for name in spec::workload_names() {
            let w = Workload::by_name(name, 7).expect(name);
            assert_eq!(w.name(), name);
            assert_eq!(
                w.factory()().len(),
                w.procs(),
                "{name}: factory/procs agree"
            );
            assert_eq!(
                w.target_args()[1..],
                ["--procs", &w.procs().to_string(), "--seed", "7"]
            );
        }
        assert!(Workload::by_name("no_such", 0).is_none());
    }

    #[test]
    fn only_the_script_hunt_uses_static_analysis() {
        let s = Workload::by_name("hunt_script", 1).unwrap();
        assert!(s.dpor() && s.script().is_some() && s.is_hunt());
        let p = Workload::by_name("hunt_planted", 1).unwrap();
        assert!(!p.dpor() && p.script().is_none() && p.is_hunt());
        assert_eq!(p.planted_rank(), Some(2));
        assert!(!Workload::by_name("wide_stencil", 1).unwrap().is_hunt());
    }
}
