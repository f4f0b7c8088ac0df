//! ASCII rendering of a fault-localization result.
//!
//! `tracedbg localize` ranks suspect processes by four comparative
//! signals (decision-log divergence, event-graph diff, telemetry
//! anomaly, wait-state blame); [`LocalizeReport::render`] draws that
//! ranking as a terminal table — one row per suspect with its component
//! scores and a proportional bar, evidence lines indented underneath,
//! then the per-channel edge diffs.

use crate::report::LocalizeReport;

/// Width of the score bar for a 1000-milli suspect.
const BAR_WIDTH: usize = 24;

impl LocalizeReport {
    /// Render the suspect ranking. Pure function of the report —
    /// byte-stable, like its JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Panic details can span lines; the header stays one line.
        let failure: Vec<&str> = self.failure.lines().map(str::trim).collect();
        out.push_str(&format!(
            "localize {} — {} ({})\n",
            self.workload,
            self.verdict,
            failure.join(" ")
        ));
        out.push_str(&format!(
            "references: {} passing run(s)\n",
            self.passing_runs
        ));
        if let Some(d) = &self.divergence {
            out.push_str(&format!(
                "first divergence at decision {}: chose {}, passing runs {}\n",
                d.index, d.chosen, d.expected
            ));
            if !d.markers.is_empty() {
                let m: Vec<String> = d.markers.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!("stopline markers: [{}]\n", m.join(", ")));
            }
        }
        if self.suspects.is_empty() {
            out.push_str("no suspects.\n");
            return out;
        }
        out.push_str(&format!(
            "{:<6} {:>6} {:>5} {:>6} {:>4} {:>6}  suspicion\n",
            "rank", "score", "div", "graph", "mad", "blame"
        ));
        for s in &self.suspects {
            let bar = (s.score as usize * BAR_WIDTH) / 1000;
            out.push_str(&format!(
                "P{:<5} {:>6} {:>5} {:>6} {:>4} {:>6}  {}\n",
                s.rank,
                s.score,
                s.divergence,
                s.graph,
                s.anomaly,
                s.blame,
                "#".repeat(bar)
            ));
            for e in &s.evidence {
                out.push_str(&format!("       - {e}\n"));
            }
        }
        if !self.channels.is_empty() {
            out.push_str("channel diffs vs nearest passing trace:\n");
            for c in &self.channels {
                out.push_str(&format!(
                    "  P{} -> P{} tag {}: {} missing, {} extra, {} reordered\n",
                    c.src, c.dst, c.tag, c.missing, c.extra, c.reordered
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample;

    #[test]
    fn render_shows_header_rows_evidence_and_channels() {
        let s = sample().render();
        assert!(s.contains("localize planted-wildcard — localized"), "{s}");
        assert!(s.contains("first divergence at decision 2"), "{s}");
        assert!(s.contains("stopline markers: [4, 1, 1, 0]"), "{s}");
        assert!(s.contains("P2 "), "{s}");
        assert!(s.contains("- diverging decision names P2"), "{s}");
        assert!(s.contains("P2 -> P0 tag 40"), "{s}");
    }

    #[test]
    fn bar_is_proportional_to_the_combined_score() {
        let mut r = sample();
        let mut full = r.suspects[0].clone();
        (full.rank, full.score) = (0, 1000);
        r.suspects.insert(0, full);
        r.suspects[1].score = 500;
        let s = r.render();
        let bar_of = |rank: &str| {
            s.lines()
                .find(|l| l.starts_with(rank))
                .unwrap()
                .chars()
                .filter(|&c| c == '#')
                .count()
        };
        assert_eq!(
            bar_of("P0"),
            BAR_WIDTH,
            "a 1000-milli suspect fills the bar"
        );
        assert_eq!(bar_of("P2"), BAR_WIDTH / 2);
    }

    #[test]
    fn empty_ranking_says_so() {
        let mut r = sample();
        r.divergence = None;
        r.suspects.clear();
        let s = r.render();
        assert!(s.contains("no suspects."), "{s}");
        assert!(!s.contains("stopline"), "{s}");
    }
}
