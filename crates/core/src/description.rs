//! Declarative pipeline descriptions: the §IV organizations as *data*.
//!
//! The paper presents three hand-drawn minor-cycle organizations
//! (Figures 2–4). [`PipelineDescription`] turns that closed set into an
//! open one: a description is a named roster of stage rows, each placing
//! its activity on the minor-cycle grid through a small slot formula
//! over the way index `i` and the processor width `n` (for example
//! `"2*i+1"` or `"n+3"`), plus the two semantic switches the engine
//! actually consults — whether control is pipelined across the
//! issue/writeback chain and whether loads are barred from the first
//! issue slot (§IV.B).
//!
//! The three paper organizations are built-in constructors
//! ([`PipelineDescription::simple`], [`PipelineDescription::improved`],
//! [`PipelineDescription::optimized`], all three in
//! [`PipelineDescription::builtins`]), the only names a scenario can
//! use without declaring a `[pipeline]`. Anything else — a 5-stage
//! organization, a double-pumped writeback, a fetch row that spans two
//! slots per way — is just another value of the same type, built in
//! code or parsed from a scenario file's `[pipeline]` section
//! (`PipelineDescription::from_table` in `from_table.rs`).
//!
//! The description is the *only* source of minor-cycle geometry: a
//! configuration derives its engine-cycle cost from
//! [`PipelineDescription::schedule`] (highest occupied slot + 1, see
//! [`EngineConfig::minor_cycles_per_major`](crate::EngineConfig::minor_cycles_per_major)),
//! `resim describe` renders the same grid, and the FPGA area model
//! includes a stage-logic row only when some description row maps onto
//! it ([`PipelineDescription::area_keys`]).

use crate::pipeline::{Schedule, ScheduleRow};
use std::error::Error;
use std::fmt;

/// Slots may not exceed this bound — a guard against runaway formulas
/// (`1000000*n`) allocating absurd grids, far above any real design.
pub const MAX_SLOT: usize = 1024;

/// The FPGA stage-logic area keys a description row may map onto —
/// exactly the per-stage rows of the paper's Table 4 (the storage
/// structures RT/RB/LSQ/BP and the caches are configuration-driven and
/// always present).
pub const STAGE_AREA_KEYS: [&str; 6] = ["fetch", "disp", "issue", "lsq", "wb", "cmt"];

/// A linear expression `way*i + width*n + offset` over the way index
/// `i` and the processor width `n`.
///
/// This is the formula language of schedule rows: rich enough for every
/// organization in the paper (`i`, `i+2`, `n+1+i`, `0`, `n+3`) and for
/// skewed custom grids (`2*i+1`), while staying trivially analyzable —
/// validation can reason about collisions and negativity without
/// evaluating arbitrary code.
///
/// ```
/// use resim_core::SlotExpr;
///
/// let e: SlotExpr = "2*i+1".parse().unwrap();
/// assert_eq!(e.eval(3, 4), Some(7));
/// assert_eq!("n-1".parse::<SlotExpr>().unwrap().eval(0, 4), Some(3));
/// assert!("i*i".parse::<SlotExpr>().is_err(), "only linear terms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotExpr {
    /// Coefficient of the way index `i`.
    pub way: i64,
    /// Coefficient of the width `n`.
    pub width: i64,
    /// Constant offset.
    pub offset: i64,
}

impl SlotExpr {
    /// The constant expression `c`.
    pub const fn constant(c: i64) -> Self {
        Self {
            way: 0,
            width: 0,
            offset: c,
        }
    }

    /// Builds `way*i + width*n + offset`.
    pub const fn new(way: i64, width: i64, offset: i64) -> Self {
        Self { way, width, offset }
    }

    /// Evaluates at way `i`, width `n`; `None` when negative.
    pub fn eval(&self, i: usize, n: usize) -> Option<usize> {
        let v = self.way * i as i64 + self.width * n as i64 + self.offset;
        usize::try_from(v).ok()
    }

    /// Renders the canonical formula text (`"2*i+n+1"`, `"0"`).
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let term = |coeff: i64, var: &str| -> Option<String> {
            match coeff {
                0 => None,
                1 => Some(var.to_string()),
                -1 => Some(format!("-{var}")),
                c => Some(format!("{c}*{var}")),
            }
        };
        if let Some(t) = term(self.way, "i") {
            parts.push(t);
        }
        if let Some(t) = term(self.width, "n") {
            parts.push(t);
        }
        if self.offset != 0 || parts.is_empty() {
            parts.push(self.offset.to_string());
        }
        let mut out = String::new();
        for (k, p) in parts.iter().enumerate() {
            if k > 0 && !p.starts_with('-') {
                out.push('+');
            }
            out.push_str(p);
        }
        out
    }
}

impl std::str::FromStr for SlotExpr {
    type Err = FormulaError;

    /// Parses a sum of linear terms: `INT`, `i`, `n`, `INT*i`, `i*INT`,
    /// `INT*n`, `n*INT`, joined by `+` / `-`, whitespace-insensitive.
    fn from_str(s: &str) -> Result<Self, FormulaError> {
        let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.is_empty() {
            return Err(FormulaError::empty());
        }
        let mut expr = SlotExpr::constant(0);
        // Split into signed terms at top-level +/-.
        let mut terms: Vec<(i64, &str)> = Vec::new();
        let bytes = compact.as_bytes();
        let mut start = 0usize;
        let mut sign = 1i64;
        let mut k = 0usize;
        while k <= bytes.len() {
            let boundary = k == bytes.len() || bytes[k] == b'+' || bytes[k] == b'-';
            if boundary {
                if k > start {
                    terms.push((sign, &compact[start..k]));
                } else if k != 0 || k == bytes.len() {
                    // Consecutive operators or trailing operator.
                    return Err(FormulaError::bad(s));
                }
                if k < bytes.len() {
                    sign = if bytes[k] == b'-' { -1 } else { 1 };
                    start = k + 1;
                }
            }
            k += 1;
        }
        if terms.is_empty() {
            return Err(FormulaError::bad(s));
        }
        for (sign, term) in terms {
            let (coeff, var) = match term.split_once('*') {
                Some((a, b)) => {
                    let (num, var) = if a == "i" || a == "n" { (b, a) } else { (a, b) };
                    let c: i64 = num.parse().map_err(|_| FormulaError::bad(s))?;
                    (c, var)
                }
                None => {
                    if term == "i" || term == "n" {
                        (1, term)
                    } else {
                        let c: i64 = term.parse().map_err(|_| FormulaError::bad(s))?;
                        (c, "")
                    }
                }
            };
            let c = sign * coeff;
            match var {
                "i" => expr.way += c,
                "n" => expr.width += c,
                "" => expr.offset += c,
                _ => return Err(FormulaError::bad(s)),
            }
        }
        Ok(expr)
    }
}

/// A rejected slot/ways formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormulaError {
    text: String,
}

impl FormulaError {
    fn empty() -> Self {
        Self {
            text: "<empty>".to_string(),
        }
    }

    fn bad(s: &str) -> Self {
        Self {
            text: s.to_string(),
        }
    }
}

impl fmt::Display for FormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse formula {:?}: expected a sum of linear terms over \
             the way index `i` and width `n`, e.g. \"2*i+1\" or \"n+3\"",
            self.text
        )
    }
}

impl Error for FormulaError {}

/// Where one stage row places its cells on the minor-cycle grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SlotSpec {
    /// One cell per way `i` in `[first_way, first_way + count(n))`, at
    /// slot `expr(i, n)`; labels are `{label}{i}` (or the bare label
    /// when the count is the constant 1).
    PerWay {
        /// Slot of way `i` at width `n`.
        expr: SlotExpr,
        /// Number of covered ways as a formula over `n` (`i` illegal).
        count: SlotExpr,
        /// First covered way (the optimized CacheAccess row starts
        /// at 1: slot 0 carries no load, §IV.B).
        first_way: usize,
    },
    /// Explicit width-independent slot list; labels are `{label}{k}`
    /// by list position (bare label for a single slot).
    Explicit(Vec<usize>),
}

impl SlotSpec {
    /// One cell per way `0..n` at `expr(i, n)` — the common case.
    pub fn per_way(expr: SlotExpr) -> Self {
        SlotSpec::PerWay {
            expr,
            count: SlotExpr::new(0, 1, 0),
            first_way: 0,
        }
    }

    /// A single cell at `expr(0, n)`, labelled verbatim.
    pub fn single(expr: SlotExpr) -> Self {
        SlotSpec::PerWay {
            expr,
            count: SlotExpr::constant(1),
            first_way: 0,
        }
    }
}

/// One named row of a pipeline description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageRow {
    /// Stage name as shown in the schedule grid (`"Fetch"`,
    /// `"Lsq_refresh"`).
    pub stage: String,
    /// Cell label prefix (`"F"` → `F0..`), or the verbatim label for
    /// single-cell rows (`"LR"`).
    pub label: String,
    /// Cell placement.
    pub slots: SlotSpec,
    /// The Table 4 stage-logic area this row maps onto, if any (one of
    /// [`STAGE_AREA_KEYS`]); `None` rows cost no stage-logic area.
    pub area: Option<String>,
}

impl StageRow {
    /// A row with one cell per way `0..n` and an inferred area key.
    pub fn per_way(stage: &str, label: &str, expr: SlotExpr) -> Self {
        Self {
            stage: stage.to_string(),
            label: label.to_string(),
            slots: SlotSpec::per_way(expr),
            area: infer_area_key(stage).map(str::to_string),
        }
    }

    /// A single-cell row (`count = 1`) with an inferred area key.
    pub fn single(stage: &str, label: &str, expr: SlotExpr) -> Self {
        Self {
            stage: stage.to_string(),
            label: label.to_string(),
            slots: SlotSpec::single(expr),
            area: infer_area_key(stage).map(str::to_string),
        }
    }

    /// Replaces the area mapping.
    pub fn with_area(mut self, area: Option<&str>) -> Self {
        self.area = area.map(str::to_string);
        self
    }

    /// The concrete `(way/index, slot)` cells at width `n`.
    ///
    /// # Errors
    ///
    /// [`DescriptionError`] when a cell lands on a negative slot or
    /// beyond [`MAX_SLOT`].
    fn cells(&self, n: usize) -> Result<Vec<(CellLabel, usize)>, DescriptionError> {
        let mut out = Vec::new();
        match &self.slots {
            SlotSpec::PerWay {
                expr,
                count,
                first_way,
            } => {
                let count_val =
                    count
                        .eval(0, n)
                        .ok_or_else(|| DescriptionError::NegativeCount {
                            stage: self.stage.clone(),
                            width: n,
                        })?;
                let verbatim = *count == SlotExpr::constant(1);
                for k in 0..count_val {
                    let i = first_way + k;
                    let slot = expr
                        .eval(i, n)
                        .ok_or_else(|| DescriptionError::NegativeSlot {
                            stage: self.stage.clone(),
                            way: i,
                            width: n,
                        })?;
                    if slot > MAX_SLOT {
                        return Err(DescriptionError::SlotTooLarge {
                            stage: self.stage.clone(),
                            slot,
                        });
                    }
                    let label = if verbatim {
                        CellLabel::Verbatim
                    } else {
                        CellLabel::Indexed(i)
                    };
                    out.push((label, slot));
                }
            }
            SlotSpec::Explicit(slots) => {
                let verbatim = slots.len() == 1;
                for (k, &slot) in slots.iter().enumerate() {
                    if slot > MAX_SLOT {
                        return Err(DescriptionError::SlotTooLarge {
                            stage: self.stage.clone(),
                            slot,
                        });
                    }
                    let label = if verbatim {
                        CellLabel::Verbatim
                    } else {
                        CellLabel::Indexed(k)
                    };
                    out.push((label, slot));
                }
            }
        }
        Ok(out)
    }
}

enum CellLabel {
    Verbatim,
    Indexed(usize),
}

/// Infers the Table 4 stage-logic key from a conventional stage name —
/// the mapping the paper's own rows use (the decouple buffer is counted
/// under dispatch in Table 4; cache access is covered by the D-C/I-C
/// structure rows; bookkeeping costs no dedicated logic).
pub fn infer_area_key(stage: &str) -> Option<&'static str> {
    let lower = stage.to_ascii_lowercase();
    if lower.starts_with("fetch") {
        Some("fetch")
    } else if lower.starts_with("decouple") || lower.starts_with("dispatch") {
        Some("disp")
    } else if lower.starts_with("issue") {
        Some("issue")
    } else if lower.starts_with("lsq") {
        Some("lsq")
    } else if lower.starts_with("writeback") {
        Some("wb")
    } else if lower.starts_with("commit") {
        Some("cmt")
    } else {
        None
    }
}

/// A complete, named pipeline organization: the stage roster with its
/// minor-cycle placement, plus the two semantic switches the engine
/// consults.
///
/// ```
/// use resim_core::PipelineDescription;
///
/// let opt = PipelineDescription::optimized();
/// assert_eq!(opt.name(), "optimized");
/// assert_eq!(opt.minor_cycles_per_major(4).unwrap(), 7); // N+3
/// assert!(opt.restricts_first_slot_loads());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipelineDescription {
    name: String,
    /// The paper figure this organization reproduces, if any.
    figure: Option<u32>,
    /// Whether control is pipelined across the issue/writeback chain
    /// (§IV.B). When `false` — the simple organization — every issue
    /// cell must come strictly after the last writeback cell, and the
    /// validator enforces exactly that grid ordering.
    pipelined: bool,
    /// §IV.B: loads barred from the first issue slot, which is what
    /// lets Lsq_refresh share that slot; requires ≤ N−1 memory ports.
    restrict_first_slot_loads: bool,
    rows: Vec<StageRow>,
}

impl PipelineDescription {
    /// Builds a custom description. Prefer the built-ins for the paper
    /// organizations; shape problems surface via
    /// [`PipelineDescription::validate_shape`] (run by
    /// [`EngineConfig::validate`](crate::EngineConfig::validate)).
    pub fn new(
        name: impl Into<String>,
        pipelined: bool,
        restrict_first_slot_loads: bool,
        rows: Vec<StageRow>,
    ) -> Self {
        Self {
            name: name.into(),
            figure: None,
            pipelined,
            restrict_first_slot_loads,
            rows,
        }
    }

    /// Figure 2, `2N+3`: strict Writeback → Lsq_refresh → Issue chain
    /// (control not pipelined), with the two-step issue and the cache
    /// access serialized behind it.
    pub fn simple() -> Self {
        let e = |s: &str| s.parse::<SlotExpr>().expect("builtin formula");
        Self {
            name: "simple".to_string(),
            figure: Some(2),
            pipelined: false,
            restrict_first_slot_loads: false,
            rows: vec![
                StageRow::per_way("Fetch", "F", e("i")),
                StageRow::per_way("Decouple", "DPL", e("i+1")),
                StageRow::per_way("Dispatch", "D", e("i+2")),
                StageRow::per_way("Writeback", "W", e("i")),
                StageRow::single("Lsq_refresh", "LR", e("n")),
                StageRow::per_way("Issue-1", "I", e("n+1+i")),
                StageRow::per_way("Issue-2", "E", e("n+2+i")),
                StageRow::per_way("CacheAccess", "CA", e("n+3+i")),
                StageRow::per_way("Commit", "C", e("i+2")),
            ],
        }
    }

    /// Figure 3, `N+4`: Issue before Writeback via pipelined control,
    /// cache access between them, bookkeeping in the last slot.
    pub fn improved() -> Self {
        let e = |s: &str| s.parse::<SlotExpr>().expect("builtin formula");
        Self {
            name: "improved".to_string(),
            figure: Some(3),
            pipelined: true,
            restrict_first_slot_loads: false,
            rows: vec![
                StageRow::per_way("Fetch", "F", e("i")),
                StageRow::per_way("Decouple", "DPL", e("i+1")),
                StageRow::per_way("Dispatch", "D", e("i+2")),
                StageRow::single("Lsq_refresh", "LR", e("0")),
                StageRow::per_way("Issue", "I", e("1+i")),
                StageRow::per_way("CacheAccess", "CA", e("2+i")),
                StageRow::per_way("Writeback", "W", e("3+i")),
                StageRow::per_way("Commit", "C", e("i+1")),
                StageRow::single("Bookkeeping", "BK", e("n+3")),
            ],
        }
    }

    /// Figure 4, `N+3`: Lsq_refresh in parallel with the first issue
    /// slot; no load may issue in slot 0; requires ≤ N−1 memory ports.
    pub fn optimized() -> Self {
        let e = |s: &str| s.parse::<SlotExpr>().expect("builtin formula");
        Self {
            name: "optimized".to_string(),
            figure: Some(4),
            pipelined: true,
            restrict_first_slot_loads: true,
            rows: vec![
                StageRow::per_way("Fetch", "F", e("i")),
                StageRow::per_way("Decouple", "DPL", e("i+1")),
                StageRow::per_way("Dispatch", "D", e("i+2")),
                StageRow::single("Lsq_refresh", "LR", e("0")),
                StageRow::per_way("Issue", "I", e("i")),
                StageRow {
                    stage: "CacheAccess".to_string(),
                    label: "CA".to_string(),
                    slots: SlotSpec::PerWay {
                        expr: e("i+2"),
                        count: e("n-1"),
                        first_way: 1,
                    },
                    area: None,
                },
                StageRow::per_way("Writeback", "W", e("i+3")),
                StageRow::per_way("Commit", "C", e("i+1")),
            ],
        }
    }

    /// The paper's three organizations, Figures 2–4 in order:
    /// [`simple`](Self::simple), [`improved`](Self::improved) and
    /// [`optimized`](Self::optimized).
    pub fn builtins() -> [Self; 3] {
        BUILTINS.map(|(_, build)| build())
    }

    /// The built-in description named `name`, if one of
    /// [`PipelineDescription::builtins`] carries it. Only that one is
    /// built.
    pub fn builtin(name: &str) -> Option<Self> {
        BUILTINS
            .iter()
            .find(|&&(builtin, _)| builtin == name)
            .map(|(_, build)| build())
    }

    /// Display name (unique within a scenario).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The paper figure this organization reproduces, if it is one of
    /// the built-ins.
    pub fn figure(&self) -> Option<u32> {
        self.figure
    }

    /// Whether control is pipelined across the issue/writeback chain.
    pub fn pipelined(&self) -> bool {
        self.pipelined
    }

    /// Whether loads are barred from the first issue slot (§IV.B).
    pub fn restricts_first_slot_loads(&self) -> bool {
        self.restrict_first_slot_loads
    }

    /// The stage rows, in declaration (rendering) order.
    pub fn rows(&self) -> &[StageRow] {
        &self.rows
    }

    /// The set of Table 4 stage-logic area keys this description's rows
    /// map onto, in [`STAGE_AREA_KEYS`] order without duplicates — what
    /// the FPGA area model includes for this organization.
    pub fn area_keys(&self) -> Vec<&str> {
        STAGE_AREA_KEYS
            .iter()
            .copied()
            .filter(|key| self.rows.iter().any(|r| r.area.as_deref() == Some(*key)))
            .collect()
    }

    /// Width-independent shape validation: non-empty roster, unique
    /// stage names, known area keys, way counts independent of `i`.
    ///
    /// # Errors
    ///
    /// The first [`DescriptionError`] found.
    pub fn validate_shape(&self) -> Result<(), DescriptionError> {
        if self.rows.is_empty() {
            return Err(DescriptionError::EmptyRoster);
        }
        for (k, row) in self.rows.iter().enumerate() {
            if row.stage.is_empty() {
                return Err(DescriptionError::EmptyStageName);
            }
            if self.rows[..k].iter().any(|r| r.stage == row.stage) {
                return Err(DescriptionError::DuplicateStage(row.stage.clone()));
            }
            if let Some(area) = &row.area {
                if !STAGE_AREA_KEYS.contains(&area.as_str()) {
                    return Err(DescriptionError::UnknownAreaKey {
                        stage: row.stage.clone(),
                        key: area.clone(),
                    });
                }
            }
            if let SlotSpec::PerWay { count, .. } = &row.slots {
                if count.way != 0 {
                    return Err(DescriptionError::WaysDependOnWay {
                        stage: row.stage.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Full validation at a concrete width: shape, a buildable grid
    /// (non-negative slots, at least one occupied cell, no two cells of
    /// one row — one hardware port — in the same minor cycle), and the
    /// §IV.A ordering for non-pipelined control (every issue cell after
    /// the last writeback cell).
    ///
    /// # Errors
    ///
    /// The first [`DescriptionError`] found.
    pub fn validate_at(&self, width: usize) -> Result<(), DescriptionError> {
        self.validate_shape()?;
        if width == 0 {
            return Err(DescriptionError::ZeroWidth);
        }
        let mut last_wb: Option<usize> = None;
        let mut first_issue: Option<usize> = None;
        for row in &self.rows {
            let cells = row.cells(width)?;
            let mut slots: Vec<usize> = cells.iter().map(|&(_, s)| s).collect();
            slots.sort_unstable();
            if let Some(w) = slots.windows(2).find(|w| w[0] == w[1]) {
                return Err(DescriptionError::SlotCollision {
                    stage: row.stage.clone(),
                    slot: w[0],
                    width,
                });
            }
            match row.area.as_deref() {
                Some("wb") => {
                    last_wb = last_wb.max(slots.last().copied());
                }
                Some("issue") => {
                    let first = slots.first().copied();
                    first_issue = match (first_issue, first) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                _ => {}
            }
        }
        if self.occupied_slots(width)? == 0 {
            return Err(DescriptionError::EmptyGrid { width });
        }
        if !self.pipelined {
            if let (Some(wb), Some(issue)) = (last_wb, first_issue) {
                if issue <= wb {
                    return Err(DescriptionError::NonPipelinedOrder {
                        issue_slot: issue,
                        writeback_slot: wb,
                        width,
                    });
                }
            }
        }
        Ok(())
    }

    /// §IV.B's memory-port precondition, as an explicit rule: barring
    /// loads from the first issue slot only leaves the overall timing
    /// unaffected when the `N−1` remaining slots can carry every
    /// memory access — i.e. at most `N−1` memory ports.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::PortLimit`] when the rule is violated (at
    /// width 1 it is unsatisfiable: zero ports are allowed but the
    /// engine needs at least one — see
    /// [`PipelineDescription::width1_fallback`]).
    pub fn check_port_limit(&self, width: usize, ports: usize) -> Result<(), DescriptionError> {
        if self.restrict_first_slot_loads && ports > width.saturating_sub(1) {
            return Err(DescriptionError::PortLimit {
                name: self.name.clone(),
                ports,
                width,
            });
        }
        Ok(())
    }

    /// The documented width-1 rewrite: the optimized organization's
    /// port precondition (`≤ N−1` ports) is unsatisfiable at width 1,
    /// so design-space sweeps substitute the improved `N+4`
    /// organization there. Returns the substitute and the reason, or
    /// `None` when no rewrite applies (the combination is either fine
    /// or must be rejected outright).
    pub fn width1_fallback(&self, width: usize) -> Option<(PipelineDescription, String)> {
        if width == 1 && self.restrict_first_slot_loads && *self == Self::optimized() {
            Some((
                Self::improved(),
                format!(
                    "pipeline \"{}\" bars loads from the first issue slot, which \
                     requires at most N-1 = 0 memory ports at width 1 — \
                     unsatisfiable, so the improved N+4 organization is used instead",
                    self.name
                ),
            ))
        } else {
            None
        }
    }

    /// All minor-cycle slots occupied by at least one cell at `width`.
    fn occupied_slots(&self, width: usize) -> Result<usize, DescriptionError> {
        let mut count = 0usize;
        for row in &self.rows {
            count += row.cells(width)?.len();
        }
        Ok(count)
    }

    /// Minor cycles one major cycle costs at `width` — the highest
    /// occupied slot across all rows, plus one. This is THE engine-cycle
    /// cost: the scheduler charges it per simulated cycle, and for the
    /// built-ins it equals the paper's closed-form `2N+3` / `N+4` /
    /// `N+3` (pinned by tests).
    ///
    /// # Errors
    ///
    /// Whatever [`PipelineDescription::schedule`] rejects.
    pub fn minor_cycles_per_major(&self, width: usize) -> Result<u64, DescriptionError> {
        Ok(self.schedule(width)?.minor_cycles() as u64)
    }

    /// Builds the minor-cycle schedule grid of one major cycle at
    /// `width` — the generalized content of Figures 2–4.
    ///
    /// # Errors
    ///
    /// The first [`DescriptionError`] from [`validate_at`]
    /// (zero width, negative slots, collisions, empty grid…).
    ///
    /// [`validate_at`]: PipelineDescription::validate_at
    pub fn schedule(&self, width: usize) -> Result<Schedule, DescriptionError> {
        self.validate_at(width)?;
        let mut placed: Vec<(String, Vec<(String, usize)>)> = Vec::new();
        let mut max_slot = 0usize;
        for row in &self.rows {
            let mut cells = Vec::new();
            for (label, slot) in row.cells(width)? {
                max_slot = max_slot.max(slot);
                let text = match label {
                    CellLabel::Verbatim => row.label.clone(),
                    CellLabel::Indexed(i) => format!("{}{i}", row.label),
                };
                cells.push((text, slot));
            }
            placed.push((row.stage.clone(), cells));
        }
        let total = max_slot + 1;
        let rows = placed
            .into_iter()
            .map(|(stage, cells)| {
                let mut r = ScheduleRow {
                    stage,
                    cells: vec![None; total],
                };
                for (label, slot) in cells {
                    r.cells[slot] = Some(label);
                }
                r
            })
            .collect();
        Ok(Schedule::from_parts(
            self.name.clone(),
            self.figure,
            width,
            rows,
        ))
    }

    /// Feeds a canonical byte serialization of the description into
    /// `eat` — the platform-stable basis of
    /// [`EngineConfig::fingerprint`](crate::EngineConfig::fingerprint),
    /// so a result cache keyed on the fingerprint distinguishes every
    /// distinct organization.
    pub(crate) fn feed_fingerprint(&self, eat: &mut impl FnMut(&[u8])) {
        eat(self.name.as_bytes());
        eat(&[
            0xff,
            u8::from(self.pipelined),
            u8::from(self.restrict_first_slot_loads),
        ]);
        for row in &self.rows {
            eat(row.stage.as_bytes());
            eat(&[0xfe]);
            eat(row.label.as_bytes());
            eat(&[0xfd]);
            match &row.slots {
                SlotSpec::PerWay {
                    expr,
                    count,
                    first_way,
                } => {
                    eat(&[1]);
                    for v in [
                        expr.way,
                        expr.width,
                        expr.offset,
                        count.way,
                        count.width,
                        count.offset,
                    ] {
                        eat(&v.to_le_bytes());
                    }
                    eat(&(*first_way as u64).to_le_bytes());
                }
                SlotSpec::Explicit(slots) => {
                    eat(&[2]);
                    eat(&(slots.len() as u64).to_le_bytes());
                    for &s in slots {
                        eat(&(s as u64).to_le_bytes());
                    }
                }
            }
            match &row.area {
                Some(a) => {
                    eat(&[3]);
                    eat(a.as_bytes());
                }
                None => eat(&[4]),
            }
        }
    }
}

/// A built-in organization: its name and its constructor.
type Builtin = (&'static str, fn() -> PipelineDescription);

/// The built-in organizations by name, in [`PipelineDescription::builtins`]
/// order; each name is the one its constructor gives.
const BUILTINS: [Builtin; 3] = [
    ("simple", PipelineDescription::simple),
    ("improved", PipelineDescription::improved),
    ("optimized", PipelineDescription::optimized),
];

impl fmt::Display for PipelineDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Problems with a pipeline description, at parse or validation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescriptionError {
    /// The description declares no stage rows.
    EmptyRoster,
    /// A stage row has an empty name.
    EmptyStageName,
    /// Two rows share a stage name — one hardware unit, one row.
    DuplicateStage(String),
    /// A row names an area key outside [`STAGE_AREA_KEYS`].
    UnknownAreaKey {
        /// Offending stage.
        stage: String,
        /// The unknown key.
        key: String,
    },
    /// A row's way count depends on the way index `i`.
    WaysDependOnWay {
        /// Offending stage.
        stage: String,
    },
    /// Width must be at least 1 to build a grid.
    ZeroWidth,
    /// A ways formula evaluated negative at this width.
    NegativeCount {
        /// Offending stage.
        stage: String,
        /// Width at which the count went negative.
        width: usize,
    },
    /// A slot formula evaluated negative.
    NegativeSlot {
        /// Offending stage.
        stage: String,
        /// Way index at which the slot went negative.
        way: usize,
        /// Width at which it happened.
        width: usize,
    },
    /// A slot exceeds [`MAX_SLOT`].
    SlotTooLarge {
        /// Offending stage.
        stage: String,
        /// The oversized slot.
        slot: usize,
    },
    /// Two cells of one row — one shared port — landed on the same
    /// minor cycle.
    SlotCollision {
        /// Offending stage.
        stage: String,
        /// The contested slot.
        slot: usize,
        /// Width at which the collision occurs.
        width: usize,
    },
    /// No row occupies any slot at this width.
    EmptyGrid {
        /// The offending width.
        width: usize,
    },
    /// Non-pipelined control (§IV.A) requires every issue cell after
    /// the last writeback cell, and this grid breaks that order.
    NonPipelinedOrder {
        /// First issue slot.
        issue_slot: usize,
        /// Last writeback slot.
        writeback_slot: usize,
        /// Width at which the order breaks.
        width: usize,
    },
    /// §IV.B: the first-slot load restriction allows at most `N−1`
    /// memory ports.
    PortLimit {
        /// Offending description name.
        name: String,
        /// Offending port count.
        ports: usize,
        /// Configured width.
        width: usize,
    },
}

impl fmt::Display for DescriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptionError::EmptyRoster => {
                write!(f, "pipeline description declares no stage rows")
            }
            DescriptionError::EmptyStageName => write!(f, "stage rows need non-empty names"),
            DescriptionError::DuplicateStage(stage) => {
                write!(f, "duplicate stage row {stage:?} (one hardware unit, one row)")
            }
            DescriptionError::UnknownAreaKey { stage, key } => write!(
                f,
                "stage {stage:?} maps to unknown area key {key:?} (expected one of {})",
                STAGE_AREA_KEYS.join(", ")
            ),
            DescriptionError::WaysDependOnWay { stage } => write!(
                f,
                "stage {stage:?}: the ways count may depend on the width n only, not the way index i"
            ),
            DescriptionError::ZeroWidth => write!(f, "processor width must be at least 1"),
            DescriptionError::NegativeCount { stage, width } => write!(
                f,
                "stage {stage:?}: ways count is negative at width {width}"
            ),
            DescriptionError::NegativeSlot { stage, way, width } => write!(
                f,
                "stage {stage:?}: slot of way {way} is negative at width {width}"
            ),
            DescriptionError::SlotTooLarge { stage, slot } => write!(
                f,
                "stage {stage:?}: slot {slot} exceeds the maximum of {MAX_SLOT}"
            ),
            DescriptionError::SlotCollision { stage, slot, width } => write!(
                f,
                "stage {stage:?}: two cells collide in minor cycle {slot} at width {width} \
                 (a stage row is one port — one activity per minor cycle)"
            ),
            DescriptionError::EmptyGrid { width } => {
                write!(f, "no stage row occupies any minor-cycle slot at width {width}")
            }
            DescriptionError::NonPipelinedOrder {
                issue_slot,
                writeback_slot,
                width,
            } => write!(
                f,
                "non-pipelined control requires issue strictly after writeback, but the first \
                 issue cell is at minor cycle {issue_slot} and the last writeback cell at \
                 {writeback_slot} (width {width}); set pipelined = true or move the rows"
            ),
            DescriptionError::PortLimit { name, ports, width } => write!(
                f,
                "pipeline {name:?} bars loads from the first issue slot, so at most \
                 {} memory ports are usable at width {width}, got {ports}",
                width.saturating_sub(1)
            ),
        }
    }
}

impl Error for DescriptionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_parse_and_render() {
        let cases = [
            ("i", SlotExpr::new(1, 0, 0)),
            ("n", SlotExpr::new(0, 1, 0)),
            ("2*i+1", SlotExpr::new(2, 0, 1)),
            ("n+1+i", SlotExpr::new(1, 1, 1)),
            ("i + 2", SlotExpr::new(1, 0, 2)),
            ("n - 1", SlotExpr::new(0, 1, -1)),
            ("0", SlotExpr::constant(0)),
            ("n+3", SlotExpr::new(0, 1, 3)),
            ("i*3", SlotExpr::new(3, 0, 0)),
            ("-i+2*n", SlotExpr::new(-1, 2, 0)),
        ];
        for (text, expect) in cases {
            assert_eq!(text.parse::<SlotExpr>().unwrap(), expect, "{text}");
        }
        for bad in ["", "i*n", "x+1", "2**i", "i+", "+", "1.5"] {
            assert!(bad.parse::<SlotExpr>().is_err(), "{bad:?} must not parse");
        }
        // render round-trips through the parser.
        for (text, _) in cases {
            let e: SlotExpr = text.parse().unwrap();
            assert_eq!(e.render().parse::<SlotExpr>().unwrap(), e, "{text}");
        }
    }

    #[test]
    fn builtins_validate_at_all_widths() {
        for d in PipelineDescription::builtins() {
            d.validate_shape().unwrap();
            for w in 1..=16 {
                d.validate_at(w)
                    .unwrap_or_else(|e| panic!("{} at {w}: {e}", d.name()));
            }
        }
    }

    #[test]
    fn builtin_costs_match_paper_formulas() {
        for w in 1..=16usize {
            let n = w as u64;
            assert_eq!(
                PipelineDescription::simple()
                    .minor_cycles_per_major(w)
                    .unwrap(),
                2 * n + 3
            );
            assert_eq!(
                PipelineDescription::improved()
                    .minor_cycles_per_major(w)
                    .unwrap(),
                n + 4
            );
            assert_eq!(
                PipelineDescription::optimized()
                    .minor_cycles_per_major(w)
                    .unwrap(),
                n + 3
            );
        }
    }

    #[test]
    fn builtin_flags_and_names() {
        assert!(!PipelineDescription::simple().pipelined());
        assert!(PipelineDescription::improved().pipelined());
        assert!(PipelineDescription::optimized().restricts_first_slot_loads());
        assert!(!PipelineDescription::improved().restricts_first_slot_loads());
        // The built-ins are Figures 2–4 in order, each findable by name.
        let figures = [("simple", 2), ("improved", 3), ("optimized", 4)];
        for (d, (name, figure)) in PipelineDescription::builtins().iter().zip(figures) {
            assert_eq!((d.name(), d.figure()), (name, Some(figure)));
            assert_eq!(PipelineDescription::builtin(name).as_ref(), Some(d));
        }
        assert!(PipelineDescription::builtin("turbo").is_none());
        assert_eq!(PipelineDescription::optimized().to_string(), "optimized");
    }

    #[test]
    fn builtin_area_keys_cover_all_stage_logic() {
        for d in PipelineDescription::builtins() {
            assert_eq!(d.area_keys(), STAGE_AREA_KEYS.to_vec(), "{}", d.name());
        }
    }

    #[test]
    fn shape_validation_catches_problems() {
        let empty = PipelineDescription::new("e", true, false, vec![]);
        assert_eq!(empty.validate_shape(), Err(DescriptionError::EmptyRoster));

        let dup = PipelineDescription::new(
            "d",
            true,
            false,
            vec![
                StageRow::per_way("Fetch", "F", SlotExpr::new(1, 0, 0)),
                StageRow::per_way("Fetch", "G", SlotExpr::new(1, 0, 1)),
            ],
        );
        assert!(matches!(
            dup.validate_shape(),
            Err(DescriptionError::DuplicateStage(_))
        ));

        let bad_area = PipelineDescription::new(
            "a",
            true,
            false,
            vec![StageRow::per_way("Fetch", "F", SlotExpr::new(1, 0, 0)).with_area(Some("alu"))],
        );
        assert!(matches!(
            bad_area.validate_shape(),
            Err(DescriptionError::UnknownAreaKey { .. })
        ));
    }

    #[test]
    fn width_validation_catches_problems() {
        let d = PipelineDescription::new(
            "neg",
            true,
            false,
            vec![StageRow::per_way("Fetch", "F", SlotExpr::new(1, 0, -1))],
        );
        // Way 0 at slot -1.
        assert!(matches!(
            d.validate_at(4),
            Err(DescriptionError::NegativeSlot { way: 0, .. })
        ));

        let collide = PipelineDescription::new(
            "c",
            true,
            false,
            vec![StageRow::per_way("Fetch", "F", SlotExpr::constant(3))],
        );
        assert!(matches!(
            collide.validate_at(2),
            Err(DescriptionError::SlotCollision { slot: 3, .. })
        ));
        // Width 1: a single way, no collision.
        collide.validate_at(1).unwrap();

        assert_eq!(
            PipelineDescription::simple().validate_at(0),
            Err(DescriptionError::ZeroWidth)
        );

        let huge = PipelineDescription::new(
            "h",
            true,
            false,
            vec![StageRow::per_way("Fetch", "F", SlotExpr::new(0, 1000, 0))],
        );
        assert!(matches!(
            huge.validate_at(4),
            Err(DescriptionError::SlotTooLarge { .. })
        ));
    }

    #[test]
    fn non_pipelined_order_is_enforced() {
        // Issue at slot i, writeback at i+3: fine when pipelined...
        let rows = |pipelined| {
            PipelineDescription::new(
                "t",
                pipelined,
                false,
                vec![
                    StageRow::per_way("Issue", "I", SlotExpr::new(1, 0, 0)),
                    StageRow::per_way("Writeback", "W", SlotExpr::new(1, 0, 3)),
                ],
            )
        };
        rows(true).validate_at(4).unwrap();
        // ...but illegal under non-pipelined control.
        assert!(matches!(
            rows(false).validate_at(4),
            Err(DescriptionError::NonPipelinedOrder { .. })
        ));
        // The simple organization is the legal non-pipelined order.
        PipelineDescription::simple().validate_at(4).unwrap();
    }

    #[test]
    fn port_limit_rule_explains_itself() {
        let opt = PipelineDescription::optimized();
        opt.check_port_limit(4, 3).unwrap();
        let err = opt.check_port_limit(4, 4).unwrap_err();
        assert!(err.to_string().contains("at most 3"), "{err}");
        assert!(err.to_string().contains("first issue slot"), "{err}");
        // Unrestricted organizations have no limit.
        PipelineDescription::improved()
            .check_port_limit(1, 8)
            .unwrap();
    }

    #[test]
    fn width1_fallback_applies_to_builtin_optimized_only() {
        let (sub, why) = PipelineDescription::optimized().width1_fallback(1).unwrap();
        assert_eq!(sub, PipelineDescription::improved());
        assert!(why.contains("unsatisfiable"), "{why}");
        assert!(PipelineDescription::optimized()
            .width1_fallback(2)
            .is_none());
        assert!(PipelineDescription::improved().width1_fallback(1).is_none());
        // A custom restricted description is rejected, not rewritten.
        let custom = PipelineDescription::new(
            "custom",
            true,
            true,
            vec![StageRow::per_way("Issue", "I", SlotExpr::new(1, 0, 0))],
        );
        assert!(custom.width1_fallback(1).is_none());
        assert!(custom.check_port_limit(1, 1).is_err());
    }

    #[test]
    fn schedule_render_names_custom_descriptions() {
        let d = PipelineDescription::new(
            "dual",
            true,
            false,
            vec![
                StageRow::per_way("Fetch", "F", "i".parse().unwrap()),
                StageRow::per_way("Exec", "X", "i+1".parse().unwrap()),
            ],
        );
        let s = d.schedule(2).unwrap();
        assert_eq!(s.minor_cycles(), 3);
        let text = s.render();
        assert!(text.contains("dual pipeline (custom)"), "{text}");
        assert!(text.contains("X1"), "{text}");
    }

    #[test]
    fn fingerprint_feed_distinguishes_descriptions() {
        let digest = |d: &PipelineDescription| {
            let mut bytes = Vec::new();
            d.feed_fingerprint(&mut |b: &[u8]| bytes.extend_from_slice(b));
            bytes
        };
        let a = digest(&PipelineDescription::simple());
        let b = digest(&PipelineDescription::improved());
        let c = digest(&PipelineDescription::optimized());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, digest(&PipelineDescription::simple()), "deterministic");
    }
}
