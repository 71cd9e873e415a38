//! The six pipeline stages of the ReSim engine as fixed units.
//!
//! The paper's engine is a set of hardware stages — Fetch, Dispatch,
//! Issue, `Lsq_refresh`, Writeback, Commit — wired around shared
//! structures (IFQ, rename table, RB, LSQ; Figure 1), and its three
//! internal pipeline organizations (Figures 2–4) re-arrange *the same
//! stages* onto different minor-cycle grids. This module mirrors that
//! structure in software: each stage is a unit type in its own file with
//! an inherent `evaluate` over the shared
//! [`CoreState`](crate::CoreState) that returns the operations it
//! performed, and the [`MinorCycleScheduler`](crate::MinorCycleScheduler)
//! holds one of each and calls them directly, in evaluation order.
//!
//! ## Evaluation order vs. minor-cycle timeline
//!
//! Within a major cycle the stages are always *evaluated* as
//! **Commit → Writeback → Lsq_refresh → Issue → Dispatch → Fetch**,
//! which realises the paper's architectural contract directly:
//!
//! * Commit runs before Writeback, so an instruction can never commit in
//!   the cycle it completes — the behaviour the hardware enforces with a
//!   flag (§IV.B);
//! * Writeback precedes Lsq_refresh and Issue, so instructions woken by
//!   a producer "may be issued during the same simulated cycle" (§IV).
//!   Nothing between the two completes a producer, which is why Issue
//!   may compute the `Lsq_refresh` check on demand, per load it reaches
//!   ([`LoadStoreQueue::load_ready`](crate::LoadStoreQueue::load_ready)),
//!   and the `Lsq_refresh` unit itself does no host work;
//! * Dispatch precedes Fetch, so it consumes IFQ contents fetched in
//!   earlier cycles.
//!
//! What the three organizations change is the **minor-cycle timeline**
//! — how the hardware time-multiplexes these stage evaluations onto
//! engine clock cycles (`2N+3`, `N+4` or `N+3` of them). The paper
//! proves the organizations semantically equivalent (§IV); the scheduler
//! keeps that equivalence by construction: one architectural evaluation
//! order, three minor-cycle cost grids.

mod commit;
mod dispatch;
mod fetch;
mod issue;
mod lsq_refresh;
mod writeback;

pub(crate) use commit::CommitStage;
pub(crate) use dispatch::DispatchStage;
pub(crate) use fetch::FetchStage;
pub(crate) use issue::IssueStage;
pub(crate) use lsq_refresh::LsqRefreshStage;
pub(crate) use writeback::WritebackStage;
