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

/// Sites numbered from some first id on: each one's key, and the id of
/// each key.
#[derive(Clone, Default)]
struct Keys {
    keys: Vec<SiteKey>,
    ids: HashMap<SiteKey, SiteId, BuildHasherDefault<KeyHasher>>,
}

impl Keys {
    fn push(&mut self, key: SiteKey, id: SiteId) {
        self.ids.insert(key, id);
        self.keys.push(key);
    }
}

#[derive(Default)]
struct Inner {
    /// The table's first sites, frozen by [`SiteTable::freeze`]: shared,
    /// never written again, with the tables of runs forked from it.
    frozen: Option<Arc<Keys>>,
    /// The sites interned since, numbered on from `frozen`'s. A key is in
    /// one of the two.
    own: Keys,
    /// The file of the script the run's ranks run: the file of every
    /// script key (see [`SiteKey::scripted`]).
    script: Option<Arc<str>>,
}

impl Inner {
    fn frozen(&self) -> &[SiteKey] {
        self.frozen.as_deref().map_or(&[], |f| &f.keys)
    }

    fn len(&self) -> usize {
        self.frozen().len() + self.own.keys.len()
    }

    /// The id of `key`, the next one if the table has none for it yet.
    fn id(&mut self, key: SiteKey) -> SiteId {
        if let Some(&id) = self.frozen.as_ref().and_then(|f| f.ids.get(&key)) {
            return id;
        }
        let next = SiteId(self.len() as u32);
        let id = *self.own.ids.entry(key).or_insert(next);
        if id == next {
            self.own.keys.push(key);
        }
        id
    }

    /// The key at `id`.
    fn key(&self, id: SiteId) -> Option<SiteKey> {
        let frozen = self.frozen();
        match id.ix().checked_sub(frozen.len()) {
            None => Some(frozen[id.ix()]),
            Some(own) => self.own.keys.get(own).copied(),
        }
    }

    /// The `(file, line, func)` of the key at `id`.
    fn parts(&self, id: SiteId) -> Option<(&str, u32, &'static str)> {
        let Parts(file, line, func) = self.key(id)?.parts();
        let file = match file {
            Some(file) => file.as_str(),
            None => self.script.as_deref().unwrap_or("?"),
        };
        Some((file, line, func.as_str()))
    }

    /// The ids whose location passes `keep`.
    fn find(&self, keep: impl Fn((&str, u32, &str)) -> bool) -> Vec<SiteId> {
        (0..self.len() as u32)
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
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned locations, indexed by `SiteId`.
    pub fn snapshot(&self) -> Vec<SourceLoc> {
        let inner = self.lock();
        let ids = (0..inner.len() as u32).map(SiteId);
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

    /// The table as it stands, to start tables of its own from
    /// ([`SitePrefix::table`]) while this one goes on interning. The sites
    /// interned since the last freeze join the frozen ones: in place when
    /// no prefix still holds them, else in a copy. Freezing a table that
    /// interned nothing since allocates nothing.
    pub fn freeze(&self) -> SitePrefix {
        let mut inner = self.lock();
        let Inner { frozen, own, .. } = &mut *inner;
        if !own.keys.is_empty() {
            let frozen = Arc::make_mut(frozen.get_or_insert_with(Default::default));
            for key in own.keys.drain(..) {
                frozen.push(key, SiteId(frozen.keys.len() as u32));
            }
            own.ids.clear();
        }
        SitePrefix {
            keys: inner.frozen.clone(),
            script: inner.script.clone(),
        }
    }

    /// Rebuild a table from a snapshot (used when reading trace files):
    /// each location is interned here. A location listed twice keeps both
    /// ids, and interning it again gives the later one.
    pub fn from_snapshot(sites: Vec<SourceLoc>) -> Self {
        let mut inner = Inner::default();
        for s in &sites {
            let key = SiteKey::new(&s.file, s.line, &s.func);
            inner.own.push(key, SiteId(inner.own.keys.len() as u32));
        }
        SiteTable {
            inner: Arc::new(Mutex::new(inner)),
        }
    }
}

/// A [`SiteTable`]'s sites as they stood when it was frozen
/// ([`SiteTable::freeze`]), and its script's file: shared, not copied.
#[derive(Clone, Default)]
pub struct SitePrefix {
    keys: Option<Arc<Keys>>,
    script: Option<Arc<str>>,
}

impl SitePrefix {
    /// A table of its own holding the prefix's sites under the same ids,
    /// which numbers the sites it interns next on from them: what a run
    /// that shares a checkpoint's past starts from. Shares the sites
    /// instead of copying them; allocates the table's one cell.
    pub fn table(&self) -> SiteTable {
        SiteTable {
            inner: Arc::new(Mutex::new(Inner {
                frozen: self.keys.clone(),
                own: Keys::default(),
                script: self.script.clone(),
            })),
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

    /// A table started from a frozen prefix numbers sites as the table it
    /// was frozen from did, and its own on from there; the frozen table
    /// goes on interning without moving what an earlier prefix holds.
    #[test]
    fn a_prefix_numbers_sites_as_its_table_did() {
        let t = SiteTable::new();
        let file: Arc<str> = Arc::from("unit.script");
        let a = t.script_id(&file, SiteKey::scripted(1, "main"));
        let prefix = t.freeze();
        let b = t.site("b.c", 2, "g");
        let fork = prefix.table();
        assert_eq!(fork.len(), 1);
        assert_eq!(fork.script_id(&file, SiteKey::scripted(1, "main")), a);
        assert_eq!(fork.site("c.c", 3, "h"), b, "numbered on from the prefix");
        assert_eq!(
            fork.resolve(a),
            Some(SourceLoc::new("unit.script", 1, "main"))
        );
        assert_eq!(fork.func_name(b), "h");
        assert_eq!(t.func_name(b), "g");
        let again = t.freeze();
        assert_eq!(prefix.table().len(), 1, "an earlier prefix is unchanged");
        assert_eq!(again.table().site("b.c", 2, "g"), b);
        assert_eq!(t.site("d.c", 4, "k"), SiteId(2));
        assert_eq!(t.find_line("b.c", 2), vec![b]);
    }

    #[test]
    fn shared_across_clones() {
        let t = SiteTable::new();
        let t2 = t.clone();
        let id = t.site("x.c", 9, "main");
        assert_eq!(t2.resolve(id).unwrap().func, "main");
    }
}
