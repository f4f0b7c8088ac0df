//! Event search — §4.3's "fast location of events of interest".
//!
//! A small composable filter over a [`TraceStore`]: combine constraints on
//! kind, rank, function, tag, endpoints, label and time window, then
//! iterate matches in canonical order. The debugger's `find` command and
//! the visualizers' click-to-locate both sit on this.

use crate::event::{EventKind, TraceRecord};
use crate::history::{EventId, TraceStore};
use crate::ids::{Rank, SiteId, Tag};
use crate::label::Label;
use crate::source::{Select, SourceError, TraceSource};
use std::collections::HashSet;

/// A conjunctive event filter. All set constraints must hold.
#[derive(Clone, Debug, Default)]
pub struct EventQuery {
    kind: Option<EventKind>,
    rank: Option<Rank>,
    func: Option<String>,
    tag: Option<Tag>,
    msg_src: Option<Rank>,
    msg_dst: Option<Rank>,
    label: Option<Label>,
    t_min: Option<u64>,
    t_max: Option<u64>,
}

impl EventQuery {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn kind(mut self, k: EventKind) -> Self {
        self.kind = Some(k);
        self
    }

    pub fn rank(mut self, r: impl Into<Rank>) -> Self {
        self.rank = Some(r.into());
        self
    }

    /// Events whose site belongs to this function.
    pub fn in_function(mut self, func: impl Into<String>) -> Self {
        self.func = Some(func.into());
        self
    }

    pub fn tag(mut self, t: Tag) -> Self {
        self.tag = Some(t);
        self
    }

    pub fn msg_from(mut self, src: impl Into<Rank>) -> Self {
        self.msg_src = Some(src.into());
        self
    }

    pub fn msg_to(mut self, dst: impl Into<Rank>) -> Self {
        self.msg_dst = Some(dst.into());
        self
    }

    pub fn label(mut self, l: &str) -> Self {
        self.label = Some(Label::new(l));
        self
    }

    /// Restrict to events completing in `[lo, hi]`.
    pub fn in_window(mut self, lo: u64, hi: u64) -> Self {
        self.t_min = Some(lo);
        self.t_max = Some(hi);
        self
    }

    /// Pre-resolve the function constraint to site ids — one table scan
    /// per `find`, not one string materialization per event. `None` means
    /// no function constraint; an empty set means the function never
    /// executed (nothing can match).
    fn resolve_func(&self, store: &TraceStore) -> Option<HashSet<SiteId>> {
        self.func
            .as_deref()
            .map(|f| store.sites().find_function(f).into_iter().collect())
    }

    fn matches(
        &self,
        store: &TraceStore,
        id: EventId,
        func_sites: Option<&HashSet<SiteId>>,
    ) -> bool {
        self.matches_record(store.record(id), func_sites)
    }

    fn matches_record(&self, rec: &TraceRecord, func_sites: Option<&HashSet<SiteId>>) -> bool {
        if let Some(k) = self.kind {
            if rec.kind != k {
                return false;
            }
        }
        if let Some(r) = self.rank {
            if rec.rank != r {
                return false;
            }
        }
        if let Some(lo) = self.t_min {
            if rec.t_end < lo {
                return false;
            }
        }
        if let Some(hi) = self.t_max {
            if rec.t_start > hi {
                return false;
            }
        }
        if let Some(sites) = func_sites {
            if !sites.contains(&rec.site) {
                return false;
            }
        }
        if self.tag.is_some() || self.msg_src.is_some() || self.msg_dst.is_some() {
            let Some(msg) = &rec.msg else { return false };
            if let Some(t) = self.tag {
                if msg.tag != t {
                    return false;
                }
            }
            if let Some(s) = self.msg_src {
                if msg.src != s {
                    return false;
                }
            }
            if let Some(d) = self.msg_dst {
                if msg.dst != d {
                    return false;
                }
            }
        }
        if self.label.is_some() && rec.label != self.label {
            return false;
        }
        true
    }

    /// The narrowest index selection this query can ride. Rank lanes are
    /// deliberately never chosen: lane order is per-rank program order, and
    /// `find` promises canonical order across ranks.
    fn selection(&self) -> Select {
        if let Some(k) = self.kind {
            Select::Kind(k)
        } else if let Some(t) = self.tag {
            Select::Tag(t)
        } else if let (Some(lo), Some(hi)) = (self.t_min, self.t_max) {
            Select::TimeWindow(lo, hi)
        } else {
            Select::All
        }
    }

    /// All matching records from any [`TraceSource`], in canonical order.
    ///
    /// Index-aware: the most selective constraint (kind, then tag, then
    /// time window) is pushed down to the source as a [`Select`], so an
    /// on-disk store answers from its zone indexes without a full scan;
    /// remaining constraints are applied per record.
    pub fn find_records(&self, src: &dyn TraceSource) -> Result<Vec<TraceRecord>, SourceError> {
        let fs: Option<HashSet<SiteId>> = self
            .func
            .as_deref()
            .map(|f| src.source_sites().find_function(f).into_iter().collect());
        let mut out = Vec::new();
        for rec in src.select(self.selection())? {
            let rec = rec?;
            if self.matches_record(&rec, fs.as_ref()) {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// All matches in canonical order.
    pub fn find_all(&self, store: &TraceStore) -> Vec<EventId> {
        let fs = self.resolve_func(store);
        store
            .ids()
            .filter(|id| self.matches(store, *id, fs.as_ref()))
            .collect()
    }

    /// The first match.
    pub fn find_first(&self, store: &TraceStore) -> Option<EventId> {
        let fs = self.resolve_func(store);
        store.ids().find(|id| self.matches(store, *id, fs.as_ref()))
    }

    /// Number of matches.
    pub fn count(&self, store: &TraceStore) -> usize {
        let fs = self.resolve_func(store);
        store
            .ids()
            .filter(|id| self.matches(store, *id, fs.as_ref()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MsgInfo, TraceRecord};
    use crate::loc::SiteTable;

    fn store() -> TraceStore {
        let sites = SiteTable::new();
        let f = sites.site("a.c", 1, "MatrSend");
        let g = sites.site("a.c", 2, "MatrRecv");
        let m = MsgInfo {
            src: Rank(0),
            dst: Rank(7),
            tag: Tag(11),
            bytes: 8,
            seq: 0,
        };
        let recs = vec![
            TraceRecord::basic(0u32, EventKind::FnEnter, 1, 0).with_site(f),
            TraceRecord::basic(0u32, EventKind::Send, 2, 10)
                .with_span(10, 12)
                .with_site(f)
                .with_msg(m),
            TraceRecord::basic(0u32, EventKind::Probe, 3, 15)
                .with_site(g)
                .with_args(6, 0)
                .with_label(Label::new("jres")),
            TraceRecord::basic(7u32, EventKind::RecvDone, 1, 20)
                .with_span(20, 25)
                .with_msg(m),
        ];
        TraceStore::build(recs, sites, 8)
    }

    #[test]
    fn find_send_to_rank() {
        let s = store();
        let q = EventQuery::new().kind(EventKind::Send).msg_to(7u32);
        assert_eq!(q.count(&s), 1);
        let id = q.find_first(&s).unwrap();
        assert_eq!(s.record(id).marker, 2);
    }

    #[test]
    fn find_by_function() {
        let s = store();
        let q = EventQuery::new().in_function("MatrSend");
        assert_eq!(q.count(&s), 2);
        assert_eq!(EventQuery::new().in_function("nope").count(&s), 0);
    }

    #[test]
    fn find_probe_by_label() {
        let s = store();
        let id = EventQuery::new().label("jres").find_first(&s).unwrap();
        assert_eq!(s.record(id).args[0], 6);
    }

    #[test]
    fn window_and_rank_compose() {
        let s = store();
        let q = EventQuery::new().rank(0u32).in_window(9, 16);
        // send (10..12) and probe (15) on rank 0
        assert_eq!(q.count(&s), 2);
        let none = EventQuery::new().rank(7u32).in_window(0, 5);
        assert_eq!(none.count(&s), 0);
    }

    #[test]
    fn tag_constraint_requires_message() {
        let s = store();
        let q = EventQuery::new().tag(Tag(11));
        assert_eq!(q.count(&s), 2, "send + recv of the tagged message");
        assert_eq!(EventQuery::new().tag(Tag(99)).count(&s), 0);
    }

    #[test]
    fn find_records_matches_find_all() {
        let s = store();
        let queries = [
            EventQuery::new(),
            EventQuery::new().kind(EventKind::Send).msg_to(7u32),
            EventQuery::new().tag(Tag(11)),
            EventQuery::new().rank(0u32).in_window(9, 16),
            EventQuery::new().in_function("MatrSend"),
            EventQuery::new().label("jres"),
        ];
        for q in queries {
            let by_id: Vec<_> = q.find_all(&s).iter().map(|id| *s.record(*id)).collect();
            assert_eq!(q.find_records(&s).unwrap(), by_id);
        }
    }
}
