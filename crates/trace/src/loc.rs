//! Source locations and the site interner.
//!
//! Both trace visualizers in the paper "provide a way to relate constructs
//! back to the source program" (§3.1): clicking a bar identifies the send or
//! receive in the source. We keep that mapping as an interned table of
//! `file:line function` triples; records carry only the compact [`SiteId`].

use crate::ids::SiteId;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A source location of an instrumented construct.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// A location as borrowed parts: what the index hashes and compares, so
/// looking one up builds no `SourceLoc`.
trait LocKey {
    fn parts(&self) -> (&str, u32, &str);
}

impl LocKey for SourceLoc {
    fn parts(&self) -> (&str, u32, &str) {
        (&self.file, self.line, &self.func)
    }
}

impl LocKey for (&str, u32, &str) {
    fn parts(&self) -> (&str, u32, &str) {
        *self
    }
}

impl<'a> Borrow<dyn LocKey + 'a> for SourceLoc {
    fn borrow(&self) -> &(dyn LocKey + 'a) {
        self
    }
}

impl Hash for dyn LocKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state)
    }
}

impl PartialEq for dyn LocKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn LocKey + '_ {}

// The same hash as the borrowed form, as `Borrow` requires.
impl Hash for SourceLoc {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state)
    }
}

#[derive(Default)]
struct Inner {
    sites: Vec<SourceLoc>,
    index: HashMap<SourceLoc, SiteId>,
}

impl Inner {
    /// The id `(file, line, func)` was interned under, if it was.
    fn get(&self, file: &str, line: u32, func: &str) -> Option<SiteId> {
        self.index.get(&(file, line, func) as &dyn LocKey).copied()
    }

    /// Give a location not yet in the table the next id.
    fn insert(&mut self, loc: SourceLoc) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(loc.clone());
        self.index.insert(loc, id);
        id
    }
}

/// Thread-safe interner mapping [`SourceLoc`]s to dense [`SiteId`]s.
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

    /// Intern a location, returning its stable id.
    pub fn intern(&self, loc: SourceLoc) -> SiteId {
        let mut g = self.inner.lock().unwrap();
        g.get(&loc.file, loc.line, &loc.func)
            .unwrap_or_else(|| g.insert(loc))
    }

    /// Intern a `(file, line, func)` triple. Allocates only the first
    /// time the triple is seen.
    pub fn site(&self, file: &str, line: u32, func: &str) -> SiteId {
        let mut g = self.inner.lock().unwrap();
        g.get(file, line, func)
            .unwrap_or_else(|| g.insert(SourceLoc::new(file, line, func)))
    }

    /// Resolve an id back to its location (None for [`SiteId::UNKNOWN`] or
    /// ids from another table).
    pub fn resolve(&self, id: SiteId) -> Option<SourceLoc> {
        self.inner.lock().unwrap().sites.get(id.ix()).cloned()
    }

    /// Name of the function at `id`, or `"?"`.
    pub fn func_name(&self, id: SiteId) -> String {
        self.resolve(id)
            .map(|l| l.func)
            .unwrap_or_else(|| "?".into())
    }

    /// Number of interned sites.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().sites.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned locations, indexed by `SiteId`.
    pub fn snapshot(&self) -> Vec<SourceLoc> {
        self.inner.lock().unwrap().sites.clone()
    }

    /// All sites belonging to a function name (breakpoint-by-function).
    pub fn find_function(&self, func: &str) -> Vec<SiteId> {
        self.inner
            .lock()
            .unwrap()
            .sites
            .iter()
            .enumerate()
            .filter(|(_, l)| l.func == func)
            .map(|(i, _)| SiteId(i as u32))
            .collect()
    }

    /// All sites at a file:line (breakpoint-by-location).
    pub fn find_line(&self, file: &str, line: u32) -> Vec<SiteId> {
        self.inner
            .lock()
            .unwrap()
            .sites
            .iter()
            .enumerate()
            .filter(|(_, l)| l.file == file && l.line == line)
            .map(|(i, _)| SiteId(i as u32))
            .collect()
    }

    /// Rebuild a table from a snapshot (used when reading trace files).
    pub fn from_snapshot(sites: Vec<SourceLoc>) -> Self {
        let mut inner = Inner::default();
        for (i, s) in sites.iter().enumerate() {
            inner.index.insert(s.clone(), SiteId(i as u32));
        }
        inner.sites = sites;
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
    fn shared_across_clones() {
        let t = SiteTable::new();
        let t2 = t.clone();
        let id = t.site("x.c", 9, "main");
        assert_eq!(t2.resolve(id).unwrap().func, "main");
    }
}
