//! The front door: what a positional argument means.
//!
//! One rule, for every verb: a name `tracedbg workloads` lists, or one of
//! its `fib:`/`random:`/`script:`/`sdl:` prefix forms, is a **workload**;
//! anything else is a **path** to a recorded trace (`.trc` text, `.tbin`
//! binary, or an ingested store directory). The name wins — a file called
//! `ring` in the current directory is `./ring`. Verbs then say which of
//! the two they take; nothing else in the CLI looks at the filesystem to
//! decide what its input is.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use tracedbg::prelude::*;
use tracedbg::trace::file::{read_binary, read_text, TraceRef};
use tracedbg::workloads::{catalog, Workload};

/// A resolved positional argument.
pub enum Input {
    Workload(Workload),
    Trace(TraceInput),
}

/// A recorded trace on one of its planes. Both answer through
/// [`TraceSource`]; a store directory is materialized only by the verbs
/// that need the in-memory index ([`TraceInput::into_store`]).
pub enum TraceInput {
    Mem(TraceStore),
    Disk(Box<DiskStore>),
}

impl Input {
    /// Resolve `spec` for a verb that takes either kind.
    pub fn resolve(spec: &str, seed: u64, procs: usize) -> Result<Input, String> {
        match catalog::resolve(spec, seed, procs) {
            Some(w) => Ok(Input::Workload(w?)),
            None => TraceInput::open(spec).map(Input::Trace),
        }
    }

    /// Resolve `spec` for a verb that runs a workload.
    pub fn workload(spec: &str, seed: u64, procs: usize) -> Result<Workload, String> {
        catalog::resolve(spec, seed, procs)
            .ok_or_else(|| format!("unknown workload {spec:?} (try `tracedbg workloads`)"))?
    }

    /// Resolve `spec` for a verb that reads a recorded trace.
    pub fn trace(verb: &str, spec: &str) -> Result<TraceInput, String> {
        TraceInput::open(path_only(verb, spec, "trace.trc | trace.tbin | store-dir")?)
    }

    /// Resolve `spec` for a verb that reads an ingested store directory.
    pub fn store(verb: &str, spec: &str) -> Result<DiskStore, String> {
        let dir = path_only(verb, spec, "store-dir")?;
        DiskStore::open(Path::new(dir)).map_err(|e| e.to_string())
    }
}

/// `spec` as a path, for a verb that runs no workloads.
fn path_only<'a>(verb: &str, spec: &'a str, forms: &str) -> Result<&'a str, String> {
    if catalog::is_workload(spec) {
        return Err(format!(
            "{verb} takes {forms}, not the workload {spec:?} (a file of that name is ./{spec})"
        ));
    }
    Ok(spec)
}

impl TraceInput {
    /// Read a recorded trace from any of its on-disk forms: an indexed
    /// store directory (`tracedbg ingest`), binary (`.tbin`) or text.
    fn open(path: &str) -> Result<TraceInput, String> {
        if Path::new(path).is_dir() {
            let disk = DiskStore::open(Path::new(path)).map_err(|e| e.to_string())?;
            return Ok(TraceInput::Disk(Box::new(disk)));
        }
        let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let tf = if path.ends_with(".tbin") {
            read_binary(BufReader::new(f))
        } else {
            read_text(BufReader::new(f))
        };
        Ok(TraceInput::Mem(
            tf.map_err(|e| format!("{path}: {e}"))?.into_store(),
        ))
    }

    pub fn source(&self) -> &dyn TraceSource {
        match self {
            TraceInput::Mem(store) => store,
            TraceInput::Disk(disk) => disk.as_ref(),
        }
    }

    /// The in-memory index; a store directory is materialized.
    pub fn into_store(self) -> Result<TraceStore, String> {
        match self {
            TraceInput::Mem(store) => Ok(store),
            TraceInput::Disk(disk) => materialize(disk.as_ref()).map_err(|e| e.to_string()),
        }
    }
}

/// The matching and happens-before index of a recorded trace, for the
/// verbs that reason about causality (`analyze`, `report`, `lint`): built
/// once here, checked, and handed on to the analysis. A trace file is
/// external input: one whose receives cannot all be ordered after their
/// sends is not a recording of any run and is refused here, before it is
/// analyzed as if it were one.
pub fn causal_indexes<'a>(
    store: &'a TraceStore,
    path: &str,
) -> Result<(MessageMatching, HbIndex<'a>), String> {
    let matching = MessageMatching::build(store);
    let hb = HbIndex::build(store, &matching);
    hb.check_causal().map_err(|e| format!("{path}: {e}"))?;
    Ok((matching, hb))
}

/// Read a JSON file the command line names (an artifact or a report).
pub fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Read an explorer artifact (`--schedule <file.sched.json>`) and resolve
/// the workload it names, with the seed and process count it records.
pub fn load_artifact(path: &str) -> Result<(ScheduleArtifact, Workload), String> {
    let artifact =
        ScheduleArtifact::from_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
    let workload = Input::workload(&artifact.workload, artifact.seed, artifact.procs)?;
    Ok((artifact, workload))
}

/// Write a run's trace to `path` (binary for `.tbin`, text otherwise),
/// straight from the store's records. The encoders emit one small write
/// per field, so the file is buffered; the explicit flush is what surfaces
/// a write error.
pub fn write_trace_file(path: &str, store: &TraceStore) -> Result<(), String> {
    let trace = TraceRef::of_store(store);
    let write = || -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        if path.ends_with(".tbin") {
            trace.write_binary(&mut w)?;
        } else {
            trace.write_text(&mut w)?;
        }
        w.flush()
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}
