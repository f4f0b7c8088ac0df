//! Source locations and the site interner.
//!
//! Both trace visualizers in the paper "provide a way to relate constructs
//! back to the source program" (§3.1): clicking a bar identifies the send or
//! receive in the source. A `file:line function` triple is interned once
//! per process as a [`SiteKey`]; a run's [`SiteTable`] numbers the keys it
//! uses in first-use order, and records carry only the compact [`SiteId`].

use crate::ids::SiteId;
use crate::intern::Interner;
use crate::Label;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::num::NonZeroU32;
use std::sync::{Arc, Mutex, OnceLock};

/// A source location of an instrumented construct.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceLoc {
    pub file: String,
    pub line: u32,
    /// Enclosing function name, e.g. `MatrSend`.
    pub func: String,
}

impl SourceLoc {
    pub fn new(file: impl Into<String>, line: u32, func: impl Into<String>) -> Self {
        SourceLoc {
            file: file.into(),
            line,
            func: func.into(),
        }
    }
}

impl fmt::Debug for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} ({})", self.file, self.line, self.func)
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.func)
    }
}

/// The parts of an interned location: its file (`None` in a script's
/// key, see [`SiteKey::scripted`]), line and function. Equal parts are
/// equal texts, so the table hashes three integers.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Parts(Option<Label>, u32, Label);

fn interner() -> &'static Interner<Parts> {
    static INTERNER: OnceLock<Interner<Parts>> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

/// A `(file, line, func)` interned once per process: a 4-byte key into
/// one append-only table, like [`Label`] (the file and the function are
/// labels).
///
/// A location is interned where a program is built or a trace is decoded
/// (the only place a string is hashed or allocated); a run's
/// [`SiteTable`] then maps keys to the run's [`SiteId`]s. A key means
/// nothing outside the process that made it: traces carry `SiteId`s and
/// their tables' locations, never keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteKey(NonZeroU32);

impl SiteKey {
    /// The key of `(file, line, func)`, interning it on first use.
    pub fn new(file: &str, line: u32, func: &str) -> SiteKey {
        SiteKey::intern(Some(file), line, func)
    }

    /// The key of `line` in `func` of a script, whose file is the one the
    /// run's script was built under ([`SiteTable::script_id`]). A script
    /// is parsed, and its sites interned, before anyone names its file;
    /// one parse of a text interns what any other parse of it does.
    pub fn scripted(line: u32, func: &str) -> SiteKey {
        SiteKey::intern(None, line, func)
    }

    fn intern(file: Option<&str>, line: u32, func: &str) -> SiteKey {
        let parts = Parts(file.map(Label::new), line, Label::new(func));
        SiteKey(interner().id(&parts, |&parts| parts))
    }

    fn parts(self) -> Parts {
        interner().get(self.0)
    }
}

impl fmt::Debug for SiteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Parts(file, line, func) = self.parts();
        let file = file.map_or("<script>", Label::as_str);
        write!(f, "{file}:{line} ({func})")
    }
}

/// Hashes a [`SiteKey`] by one multiply: keys are dense small integers.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct Inner {
    /// Each id's key: the sites in first-use order.
    keys: Vec<SiteKey>,
    ids: HashMap<SiteKey, SiteId, BuildHasherDefault<KeyHasher>>,
    /// The file of the script the run's ranks run: the file of every
    /// script key (see [`SiteKey::scripted`]).
    script: Option<Arc<str>>,
}

impl Inner {
    /// The id of `key`, the next one if the table has none for it yet.
    fn id(&mut self, key: SiteKey) -> SiteId {
        let next = SiteId(self.keys.len() as u32);
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    /// The `(file, line, func)` of the key at `id`.
    fn parts(&self, id: SiteId) -> Option<(&str, u32, &'static str)> {
        let Parts(file, line, func) = self.keys.get(id.ix())?.parts();
        let file = match file {
            Some(file) => file.as_str(),
            None => self.script.as_deref().unwrap_or("?"),
        };
        Some((file, line, func.as_str()))
    }

    /// The ids whose location passes `keep`.
    fn find(&self, keep: impl Fn((&str, u32, &str)) -> bool) -> Vec<SiteId> {
        (0..self.keys.len() as u32)
            .map(SiteId)
            .filter(|&id| self.parts(id).is_some_and(&keep))
            .collect()
    }
}

/// Thread-safe table mapping [`SiteKey`]s to dense [`SiteId`]s in the
/// order a run first uses them.
///
/// Shared (via `Arc`) between the engine and every simulated process so a
/// construct keeps one id across record, replay and analysis.
#[derive(Clone, Default)]
pub struct SiteTable {
    inner: Arc<Mutex<Inner>>,
}

impl SiteTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        (self.inner.lock()).expect("no thread panics while it holds a site table")
    }

    /// The id of an interned location: what a running program asks.
    /// Hashes no string; allocates only when the table grows.
    pub fn id(&self, key: SiteKey) -> SiteId {
        self.lock().id(key)
    }

    /// The id of a script's site ([`SiteKey::scripted`]), the script
    /// built under `file`. A run runs one script: the first rank to ask
    /// names the file of every script key in the table, and a rank
    /// naming another file panics. Compares the name, allocates nothing
    /// but the table's growth.
    pub fn script_id(&self, file: &Arc<str>, key: SiteKey) -> SiteId {
        let mut inner = self.lock();
        match &inner.script {
            Some(named) => assert!(
                Arc::ptr_eq(named, file) || named == file,
                "one run runs one script: {named} and {file}"
            ),
            None => inner.script = Some(Arc::clone(file)),
        }
        inner.id(key)
    }

    /// Intern a location, returning its stable id.
    pub fn intern(&self, loc: SourceLoc) -> SiteId {
        self.site(&loc.file, loc.line, &loc.func)
    }

    /// Intern a `(file, line, func)` triple: [`SiteKey::new`], then
    /// [`SiteTable::id`].
    pub fn site(&self, file: &str, line: u32, func: &str) -> SiteId {
        self.id(SiteKey::new(file, line, func))
    }

    /// Resolve an id back to its location (None for [`SiteId::UNKNOWN`] or
    /// ids from another table).
    pub fn resolve(&self, id: SiteId) -> Option<SourceLoc> {
        let inner = self.lock();
        let (file, line, func) = inner.parts(id)?;
        Some(SourceLoc::new(file, line, func))
    }

    /// Name of the function at `id`, or `"?"`.
    pub fn func_name(&self, id: SiteId) -> String {
        let inner = self.lock();
        inner.parts(id).map_or("?", |(_, _, func)| func).to_string()
    }

    /// Number of interned sites.
    pub fn len(&self) -> usize {
        self.lock().keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned locations, indexed by `SiteId`.
    pub fn snapshot(&self) -> Vec<SourceLoc> {
        let inner = self.lock();
        let ids = (0..inner.keys.len() as u32).map(SiteId);
        ids.filter_map(|id| inner.parts(id))
            .map(|(file, line, func)| SourceLoc::new(file, line, func))
            .collect()
    }

    /// All sites belonging to a function name (breakpoint-by-function).
    pub fn find_function(&self, func: &str) -> Vec<SiteId> {
        self.lock().find(|(_, _, f)| f == func)
    }

    /// All sites at a file:line (breakpoint-by-location).
    pub fn find_line(&self, file: &str, line: u32) -> Vec<SiteId> {
        self.lock().find(|(f, l, _)| f == file && l == line)
    }

    /// A table of its own holding this one's first `n` sites under the
    /// same ids (all of them if it has fewer), and its script's file: the
    /// table as it stood when it held `n` sites. A table only grows, so
    /// this is what a run that shares a checkpoint's past starts from
    /// while the run the checkpoint was taken of goes on interning.
    pub fn prefix(&self, n: usize) -> SiteTable {
        let inner = self.lock();
        let keys = inner.keys[..n.min(inner.keys.len())].to_vec();
        let ids = (keys.iter().enumerate())
            .map(|(i, &key)| (key, SiteId(i as u32)))
            .collect();
        let script = inner.script.clone();
        SiteTable {
            inner: Arc::new(Mutex::new(Inner { keys, ids, script })),
        }
    }

    /// Rebuild a table from a snapshot (used when reading trace files):
    /// each location is interned here. A location listed twice keeps both
    /// ids, and interning it again gives the later one.
    pub fn from_snapshot(sites: Vec<SourceLoc>) -> Self {
        let mut inner = Inner::default();
        for s in &sites {
            let key = SiteKey::new(&s.file, s.line, &s.func);
            inner.ids.insert(key, SiteId(inner.keys.len() as u32));
            inner.keys.push(key);
        }
        SiteTable {
            inner: Arc::new(Mutex::new(inner)),
        }
    }
}

impl fmt::Debug for SiteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SiteTable({} sites)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let t = SiteTable::new();
        let a = t.site("strassen.c", 161, "MatrSend");
        let b = t.site("strassen.c", 161, "MatrSend");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_lines_get_distinct_ids() {
        let t = SiteTable::new();
        let a = t.site("strassen.c", 161, "MatrSend");
        let b = t.site("strassen.c", 162, "MatrSend");
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let t = SiteTable::new();
        let id = t.site("lu.f", 10, "ssor");
        let loc = t.resolve(id).unwrap();
        assert_eq!(loc.file, "lu.f");
        assert_eq!(loc.line, 10);
        assert_eq!(loc.func, "ssor");
        assert!(t.resolve(SiteId::UNKNOWN).is_none());
        assert_eq!(t.func_name(SiteId::UNKNOWN), "?");
    }

    #[test]
    fn snapshot_roundtrip() {
        let t = SiteTable::new();
        t.site("a.c", 1, "f");
        t.site("b.c", 2, "g");
        let t2 = SiteTable::from_snapshot(t.snapshot());
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.site("a.c", 1, "f"), SiteId(0));
        assert_eq!(t2.site("c.c", 3, "h"), SiteId(2));
    }

    #[test]
    fn script_keys_take_the_runs_script_file() {
        let (a, b) = (
            SiteKey::scripted(3, "unit_f"),
            SiteKey::scripted(3, "unit_f"),
        );
        assert_eq!(a, b);
        assert_ne!(a, SiteKey::new("unit.script", 3, "unit_f"));
        let t = SiteTable::new();
        let file: Arc<str> = Arc::from("unit.script");
        assert_eq!(t.script_id(&file, a), SiteId(0));
        assert_eq!(t.script_id(&Arc::from("unit.script"), b), SiteId(0));
        assert_eq!(
            t.snapshot(),
            vec![SourceLoc::new("unit.script", 3, "unit_f")]
        );
        assert_eq!(t.find_line("unit.script", 3), vec![SiteId(0)]);
        assert_eq!(t.func_name(SiteId(0)), "unit_f");
    }

    #[test]
    #[should_panic(expected = "one run runs one script")]
    fn a_run_has_one_script_file() {
        let t = SiteTable::new();
        t.script_id(&Arc::from("a.script"), SiteKey::scripted(1, "main"));
        t.script_id(&Arc::from("b.script"), SiteKey::scripted(2, "main"));
    }

    #[test]
    fn shared_across_clones() {
        let t = SiteTable::new();
        let t2 = t.clone();
        let id = t.site("x.c", 9, "main");
        assert_eq!(t2.resolve(id).unwrap().func, "main");
    }
}
