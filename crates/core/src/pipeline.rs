//! Minor-cycle schedules: the grids of the paper's §IV and Figures 2–4.
//!
//! ReSim processes the simulated processor's N ways *serially*: one
//! **major cycle** (simulated cycle) is split into **minor cycles**, each
//! handling one stage step for one way. The paper develops three
//! organizations, each a built-in [`PipelineDescription`]:
//!
//! | Organization | Minor cycles per major | Key idea |
//! |---|---|---|
//! | [`simple`] (Fig. 2) | `2N + 3` | Writeback → Lsq_refresh → Issue strictly ordered |
//! | [`improved`] (Fig. 3) | `N + 4` | Writeback pipelined one cycle behind Issue (pipelined control); cache access before writeback |
//! | [`optimized`] (Fig. 4) | `N + 3` | Lsq_refresh in parallel with the first Issue slot; no load may issue in slot 0; requires ≤ N−1 memory ports |
//!
//! The organizations are *semantically equivalent*: the simulated
//! processor's timing is identical under all three (the optimized form
//! needs its port precondition). What changes is the engine's own
//! throughput — fewer minor cycles per major cycle means more simulated
//! MIPS at the same FPGA clock.
//!
//! A [`Schedule`] is one description's grid at one width
//! ([`PipelineDescription::schedule`]), rendered as the paper draws it.
//!
//! [`PipelineDescription`]: crate::PipelineDescription
//! [`PipelineDescription::schedule`]: crate::PipelineDescription::schedule
//! [`simple`]: crate::PipelineDescription::simple
//! [`improved`]: crate::PipelineDescription::improved
//! [`optimized`]: crate::PipelineDescription::optimized

/// One stage row of a minor-cycle schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRow {
    /// Stage name.
    pub stage: String,
    /// Activity label per minor cycle (`None` = idle).
    pub cells: Vec<Option<String>>,
}

/// A rendered minor-cycle schedule for one major cycle — a paper figure
/// for the built-ins, the same grid shape for custom descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    name: String,
    figure: Option<u32>,
    width: usize,
    rows: Vec<ScheduleRow>,
}

impl Schedule {
    pub(crate) fn from_parts(
        name: String,
        figure: Option<u32>,
        width: usize,
        rows: Vec<ScheduleRow>,
    ) -> Self {
        Self {
            name,
            figure,
            width,
            rows,
        }
    }

    /// Name of the organization this schedule belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The paper figure the organization reproduces, if it is a
    /// built-in.
    pub fn figure(&self) -> Option<u32> {
        self.figure
    }

    /// Processor width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Minor cycles in the major cycle.
    pub fn minor_cycles(&self) -> usize {
        self.rows.first().map_or(0, |r| r.cells.len())
    }

    /// The stage rows.
    pub fn rows(&self) -> &[ScheduleRow] {
        &self.rows
    }

    /// The minor cycle at which `stage` performs step `label`, if any.
    pub fn slot_of(&self, stage: &str, label: &str) -> Option<usize> {
        self.rows
            .iter()
            .find(|r| r.stage == stage)?
            .cells
            .iter()
            .position(|c| c.as_deref() == Some(label))
    }

    /// Renders an ASCII grid in the style of the paper's figures.
    pub fn render(&self) -> String {
        let mcs = self.minor_cycles();
        let cell_w = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter_map(|c| c.as_ref().map(|s| s.len()))
            .max()
            .unwrap_or(2)
            .max(4);
        let stage_w = self
            .rows
            .iter()
            .map(|r| r.stage.len())
            .max()
            .unwrap_or(8)
            .max(11);
        let origin = match self.figure {
            Some(fig) => format!("Figure {fig}"),
            None => "custom".to_string(),
        };
        let mut out = String::new();
        out.push_str(&format!(
            "{} pipeline ({}), {}-wide: {} minor cycles per major cycle\n",
            self.name, origin, self.width, mcs
        ));
        out.push_str(&format!("{:stage_w$} |", "minor cycle"));
        for mc in 0..mcs {
            out.push_str(&format!(" {mc:>cell_w$} |"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(stage_w + 2 + mcs * (cell_w + 3)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:stage_w$} |", r.stage));
            for c in &r.cells {
                match c {
                    Some(s) => out.push_str(&format!(" {s:>cell_w$} |")),
                    None => out.push_str(&format!(" {:>cell_w$} |", "")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::description::PipelineDescription;

    #[test]
    fn schedule_rows_span_the_major_cycle() {
        for d in PipelineDescription::builtins() {
            for w in 1..=8 {
                let s = d.schedule(w).unwrap();
                for r in s.rows() {
                    assert_eq!(r.cells.len(), s.minor_cycles());
                }
            }
        }
    }

    #[test]
    fn simple_orders_wb_before_lsqr_before_issue() {
        // §IV.A: "first Writeback is performed ... Then Lsq_refresh ...
        // Then Issue can proceed".
        let s = PipelineDescription::simple().schedule(4).unwrap();
        let last_wb = s.slot_of("Writeback", "W3").unwrap();
        let lr = s.slot_of("Lsq_refresh", "LR").unwrap();
        let first_issue = s.slot_of("Issue-1", "I0").unwrap();
        assert!(last_wb < lr);
        assert!(lr < first_issue);
    }

    #[test]
    fn improved_issues_before_writeback() {
        // §IV.B: "the Issue minor-cycle is performed before the Writeback
        // minor-cycle during a major-cycle", and CA precedes WB.
        let s = PipelineDescription::improved().schedule(4).unwrap();
        for i in 0..4 {
            let issue = s.slot_of("Issue", &format!("I{i}")).unwrap();
            let ca = s.slot_of("CacheAccess", &format!("CA{i}")).unwrap();
            let wb = s.slot_of("Writeback", &format!("W{i}")).unwrap();
            assert!(issue < ca, "issue slot {i} must precede its cache access");
            assert!(ca < wb, "cache access {i} must precede its writeback");
        }
        // Bookkeeping is the last minor cycle.
        assert_eq!(s.slot_of("Bookkeeping", "BK"), Some(s.minor_cycles() - 1));
    }

    #[test]
    fn optimized_runs_lsqr_with_first_issue_and_bars_slot0_loads() {
        // §IV.B: "we allow the execution of Lsq_refresh and of the first
        // Issue to be performed in parallel" and "we disallow the issue
        // and execution of a load instruction in the first slot".
        let optimized = PipelineDescription::optimized();
        let s = optimized.schedule(4).unwrap();
        assert_eq!(
            s.slot_of("Lsq_refresh", "LR"),
            s.slot_of("Issue", "I0"),
            "LSQR and first issue share a minor cycle"
        );
        assert_eq!(
            s.slot_of("CacheAccess", "CA0"),
            None,
            "slot 0 has no cache access because it cannot carry a load"
        );
        assert!(optimized.restricts_first_slot_loads());
        assert!(!PipelineDescription::improved().restricts_first_slot_loads());
    }

    #[test]
    fn render_contains_all_labels() {
        let s = PipelineDescription::optimized().schedule(4).unwrap();
        let text = s.render();
        for label in ["LR", "I0", "I3", "W0", "CA1", "F0", "C3"] {
            assert!(text.contains(label), "render must include {label}:\n{text}");
        }
        assert!(text.contains("7 minor cycles"));
        assert!(text.contains("optimized pipeline (Figure 4)"));
    }
}
