//! ASCII rendering of a profiling result — the wait/blame table.
//!
//! `tracedbg profile` classifies every blocked interval and extracts the
//! critical path; [`ProfileReport::render`] draws the answer as a terminal
//! summary: the makespan / critical-path headline, per-kind wait totals,
//! one row per rank with its busy/wait split, the cost *blamed on* it and
//! its critical-path share, then the sites the critical path runs through.

use crate::report::{ProfileReport, RankProfile};

/// Width of the blame bar for the most-blamed rank.
const BAR_WIDTH: usize = 24;

/// Rank rows shown; the rest are summarized in one line (the table must
/// stay readable at 1024 ranks).
const RANK_ROWS: usize = 16;

/// Critical-path sites shown.
const SITE_ROWS: usize = 4;

fn ns(v: u64) -> String {
    match v {
        0..=9_999 => format!("{v}ns"),
        10_000..=9_999_999 => format!("{:.1}us", v as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", v as f64 / 1e6),
        _ => format!("{:.2}s", v as f64 / 1e9),
    }
}

impl ProfileReport {
    /// Render the wait/blame table. Pure function of the report —
    /// byte-stable, like its JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile {} — {} ranks, {} events\n",
            self.workload, self.procs, self.events
        ));
        let share = (self.critical_path_len * 100)
            .checked_div(self.makespan)
            .unwrap_or(0);
        out.push_str(&format!(
            "makespan {}  critical path {} ({share}% of makespan)\n",
            ns(self.makespan),
            ns(self.critical_path_len)
        ));
        out.push_str(&format!(
            "busy {}  wait {}\n",
            ns(self.busy_total),
            ns(self.wait_total)
        ));
        if !self.wait_kinds.is_empty() {
            out.push_str("wait states:\n");
            for k in &self.wait_kinds {
                out.push_str(&format!(
                    "  {:<18} {:>6}x {:>10}\n",
                    k.kind,
                    k.count,
                    ns(k.cost)
                ));
            }
        }
        self.render_ranks(&mut out);
        if !self.path_sites.is_empty() {
            out.push_str("critical path by site:\n");
            for s in self.path_sites.iter().take(SITE_ROWS) {
                out.push_str(&format!(
                    "  {:>4}.{}% {}\n",
                    s.share_millis / 10,
                    s.share_millis % 10,
                    s.site
                ));
            }
        }
        out
    }

    fn render_ranks(&self, out: &mut String) {
        if self.ranks.is_empty() {
            return;
        }
        // Most interesting ranks first: by blamed cost, then wait, then rank.
        let mut order: Vec<&RankProfile> = self.ranks.iter().collect();
        order.sort_by(|a, b| {
            (b.blamed, b.wait)
                .cmp(&(a.blamed, a.wait))
                .then(a.rank.cmp(&b.rank))
        });
        let max_blame = order.iter().map(|r| r.blamed).max().unwrap_or(0).max(1);
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}  blame\n",
            "rank", "busy", "wait", "blamed", "path"
        ));
        for r in order.iter().take(RANK_ROWS) {
            let bar = (r.blamed as u128 * BAR_WIDTH as u128 / max_blame as u128) as usize;
            out.push_str(&format!(
                "P{:<5} {:>10} {:>10} {:>10} {:>10}  {}\n",
                r.rank,
                ns(r.busy),
                ns(r.wait),
                ns(r.blamed),
                ns(r.path),
                "#".repeat(bar)
            ));
        }
        if order.len() > RANK_ROWS {
            out.push_str(&format!("... {} more ranks\n", order.len() - RANK_ROWS));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{SiteShare, WaitKindTotal};

    fn rank_row(rank: u32, busy: u64, wait: u64, blamed: u64, path: u64) -> RankProfile {
        RankProfile {
            rank,
            busy,
            wait,
            blamed,
            span: busy + wait,
            path,
        }
    }

    fn sample() -> ProfileReport {
        ProfileReport {
            workload: "ring:4".into(),
            procs: 4,
            events: 40,
            makespan: 100_000,
            critical_path_len: 80_000,
            busy_total: 220_000,
            wait_total: 60_000,
            ranks: vec![
                rank_row(0, 70_000, 10_000, 40_000, 50_000),
                rank_row(1, 50_000, 50_000, 0, 30_000),
            ],
            wait_kinds: vec![WaitKindTotal {
                kind: "late-sender".into(),
                count: 3,
                cost: 60_000,
            }],
            path_sites: vec![SiteShare {
                site: "ring.c:12 ring".into(),
                contribution: 50_000,
                share_millis: 625,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn render_shows_headline_kinds_and_rows() {
        let s = sample().render();
        assert!(s.contains("profile ring:4 — 4 ranks, 40 events"), "{s}");
        assert!(s.contains("critical path 80.0us (80% of makespan)"), "{s}");
        assert!(s.contains("late-sender"), "{s}");
        // Rank 0 is most blamed: first row, full bar.
        let row0 = s.lines().find(|l| l.starts_with("P0")).unwrap();
        assert_eq!(row0.chars().filter(|&c| c == '#').count(), BAR_WIDTH);
        let p0 = s.find("P0").unwrap();
        let p1 = s.find("P1").unwrap();
        assert!(p0 < p1, "blame-descending order");
        assert!(
            s.ends_with("critical path by site:\n    62.5% ring.c:12 ring\n"),
            "{s}"
        );
    }

    #[test]
    fn long_rank_lists_are_summarized() {
        let mut r = sample();
        r.wait_kinds.clear();
        r.ranks = (0..40)
            .map(|r| rank_row(r, 1, 0, (40 - r) as u64, 0))
            .collect();
        let s = r.render();
        assert!(s.contains("... 24 more ranks"), "{s}");
        assert!(!s.contains("P39 "), "tail ranks are folded: {s}");
    }
}
