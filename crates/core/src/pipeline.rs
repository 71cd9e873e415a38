//! ReSim's internal (minor-cycle) pipeline organizations — the paper's
//! §IV and Figures 2–4.
//!
//! ReSim processes the simulated processor's N ways *serially*: one
//! **major cycle** (simulated cycle) is split into **minor cycles**, each
//! handling one stage step for one way. The paper develops three
//! organizations:
//!
//! | Organization | Minor cycles per major | Key idea |
//! |---|---|---|
//! | [`SimpleSerial`] (Fig. 2) | `2N + 3` | Writeback → Lsq_refresh → Issue strictly ordered |
//! | [`ImprovedSerial`] (Fig. 3) | `N + 4` | Writeback pipelined one cycle behind Issue (pipelined control); cache access before writeback |
//! | [`OptimizedSerial`] (Fig. 4) | `N + 3` | Lsq_refresh in parallel with the first Issue slot; no load may issue in slot 0; requires ≤ N−1 memory ports |
//!
//! The organizations are *semantically equivalent*: the simulated
//! processor's timing is identical under all three (the optimized form
//! needs its port precondition). What changes is the engine's own
//! throughput — fewer minor cycles per major cycle means more simulated
//! MIPS at the same FPGA clock.
//!
//! Since the declarative-pipeline refactor, these three are no longer
//! special: each is a built-in [`PipelineDescription`] (obtained via
//! [`PipelineOrganization::description`]), and the grids below are
//! *derived* from those descriptions, bit-identical to the original
//! hand-coded tables. The enum survives as the convenient closed-world
//! handle for the paper's organizations; anything richer goes through
//! [`PipelineDescription`] directly.
//!
//! [`SimpleSerial`]: PipelineOrganization::SimpleSerial
//! [`ImprovedSerial`]: PipelineOrganization::ImprovedSerial
//! [`OptimizedSerial`]: PipelineOrganization::OptimizedSerial

use crate::description::PipelineDescription;
use std::fmt;

/// The three internal pipeline organizations of §IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineOrganization {
    /// Figure 2: strict WB → Lsq_refresh → Issue chain, `2N+3`.
    SimpleSerial,
    /// Figure 3: Issue/Writeback overlapped via pipelined control, `N+4`.
    ImprovedSerial,
    /// Figure 4: Lsq_refresh ∥ first Issue, no load in slot 0, `N+3`.
    OptimizedSerial,
}

impl PipelineOrganization {
    /// All organizations, in presentation order.
    pub const ALL: [PipelineOrganization; 3] = [
        PipelineOrganization::SimpleSerial,
        PipelineOrganization::ImprovedSerial,
        PipelineOrganization::OptimizedSerial,
    ];

    /// The declarative description of this organization — the data the
    /// scheduler, grid renderer, and area model actually consume.
    pub fn description(self) -> PipelineDescription {
        match self {
            PipelineOrganization::SimpleSerial => PipelineDescription::simple(),
            PipelineOrganization::ImprovedSerial => PipelineDescription::improved(),
            PipelineOrganization::OptimizedSerial => PipelineDescription::optimized(),
        }
    }

    /// Minor cycles consumed per major (simulated) cycle for an `N`-wide
    /// processor.
    pub fn minor_cycles_per_major(self, width: usize) -> u64 {
        let n = width as u64;
        match self {
            PipelineOrganization::SimpleSerial => 2 * n + 3,
            PipelineOrganization::ImprovedSerial => n + 4,
            PipelineOrganization::OptimizedSerial => n + 3,
        }
    }

    /// Whether loads are barred from the first issue slot (§IV.B's
    /// optimization).
    pub fn restricts_first_slot_loads(self) -> bool {
        matches!(self, PipelineOrganization::OptimizedSerial)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PipelineOrganization::SimpleSerial => "simple",
            PipelineOrganization::ImprovedSerial => "improved",
            PipelineOrganization::OptimizedSerial => "optimized",
        }
    }

    /// The paper figure this organization is drawn in.
    pub fn figure(self) -> u32 {
        match self {
            PipelineOrganization::SimpleSerial => 2,
            PipelineOrganization::ImprovedSerial => 3,
            PipelineOrganization::OptimizedSerial => 4,
        }
    }

    /// Builds the minor-cycle schedule of one major cycle for an
    /// `N`-wide processor (the content of Figures 2–4), derived from
    /// [`PipelineOrganization::description`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn schedule(self, width: usize) -> Schedule {
        assert!(width >= 1, "schedule needs width >= 1");
        self.description()
            .schedule(width)
            .expect("builtin descriptions are valid at any width >= 1")
    }
}

impl fmt::Display for PipelineOrganization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

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
    use super::*;

    #[test]
    fn latencies_match_paper_formulas() {
        // The paper's worked example is the 4-wide machine: 11 / 8 / 7.
        assert_eq!(
            PipelineOrganization::SimpleSerial.minor_cycles_per_major(4),
            11
        );
        assert_eq!(
            PipelineOrganization::ImprovedSerial.minor_cycles_per_major(4),
            8
        );
        assert_eq!(
            PipelineOrganization::OptimizedSerial.minor_cycles_per_major(4),
            7
        );
        // And the 2-wide cached configuration of Table 1 right: N+4 = 6.
        assert_eq!(
            PipelineOrganization::ImprovedSerial.minor_cycles_per_major(2),
            6
        );
        for w in 1..=16 {
            let n = w as u64;
            assert_eq!(
                PipelineOrganization::SimpleSerial.minor_cycles_per_major(w),
                2 * n + 3
            );
            assert_eq!(
                PipelineOrganization::ImprovedSerial.minor_cycles_per_major(w),
                n + 4
            );
            assert_eq!(
                PipelineOrganization::OptimizedSerial.minor_cycles_per_major(w),
                n + 3
            );
        }
    }

    #[test]
    fn schedules_fit_their_budget() {
        for org in PipelineOrganization::ALL {
            for w in 1..=8 {
                let s = org.schedule(w);
                assert_eq!(s.minor_cycles() as u64, org.minor_cycles_per_major(w));
                for r in s.rows() {
                    assert_eq!(r.cells.len(), s.minor_cycles());
                }
            }
        }
    }

    #[test]
    fn enum_schedule_matches_description_schedule() {
        // The enum path is a thin veneer over the description path.
        for org in PipelineOrganization::ALL {
            for w in 1..=8 {
                assert_eq!(org.schedule(w), org.description().schedule(w).unwrap());
            }
        }
    }

    #[test]
    fn simple_orders_wb_before_lsqr_before_issue() {
        // §IV.A: "first Writeback is performed ... Then Lsq_refresh ...
        // Then Issue can proceed".
        let s = PipelineOrganization::SimpleSerial.schedule(4);
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
        let s = PipelineOrganization::ImprovedSerial.schedule(4);
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
        let s = PipelineOrganization::OptimizedSerial.schedule(4);
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
        assert!(PipelineOrganization::OptimizedSerial.restricts_first_slot_loads());
        assert!(!PipelineOrganization::ImprovedSerial.restricts_first_slot_loads());
    }

    #[test]
    fn render_contains_all_labels() {
        let s = PipelineOrganization::OptimizedSerial.schedule(4);
        let text = s.render();
        for label in ["LR", "I0", "I3", "W0", "CA1", "F0", "C3"] {
            assert!(text.contains(label), "render must include {label}:\n{text}");
        }
        assert!(text.contains("7 minor cycles"));
        assert!(text.contains("optimized pipeline (Figure 4)"));
    }

    #[test]
    fn names_and_figures() {
        assert_eq!(PipelineOrganization::SimpleSerial.figure(), 2);
        assert_eq!(PipelineOrganization::ImprovedSerial.figure(), 3);
        assert_eq!(PipelineOrganization::OptimizedSerial.figure(), 4);
        assert_eq!(
            PipelineOrganization::OptimizedSerial.to_string(),
            "optimized"
        );
    }
}
