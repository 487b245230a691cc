//! Batched multi-lane execution: many simulations over one decoded event
//! window.
//!
//! A sweep evaluates the same workload against K organization × budget ×
//! FDIP points. Run separately, each point re-decodes the trace and ticks
//! through the same inert front-end cycles; batched, the org-independent
//! work is paid once per group:
//!
//! * **Trace decode / generation** — the event window (`warmup + measure`
//!   plus a bounded look-ahead slack) is materialized once into an
//!   `Arc<PackedBuf>` ([`BatchStream::materialize`]); every lane streams
//!   it through a zero-copy [`SharedSource`] clone.
//! * **Engine construction** — each lane builds its BTB from its spec
//!   through the same session back half a solo run uses; an invalid spec
//!   fails that lane with [`SessionError::Spec`].
//! * **Inert cycles** — every lane runs with
//!   [`Simulator::set_fast_forward`](crate::sim::Simulator::set_fast_forward)
//!   enabled, jumping spans of cycles in which no pipeline stage can act.
//!   Sharded runs ([`crate::parallel`]) fast-forward too; only the
//!   per-point [`crate::session::SimSession`] ticks every cycle, so part
//!   of a batched group's edge over its per-point twins is this jump,
//!   not the shared trace.
//!
//! # Lane divergence rules
//!
//! Everything *behind* the decoded event stream is per-lane and must stay
//! so: BTB contents, perceptron weights, RAS, FTQ occupancy, FDIP cursor,
//! and — less obviously — the cache hierarchy. The FTQ only ever holds
//! correct-path instructions, so the *order* of L1-I accesses is
//! org-independent, but their **timeliness** is not: MSHR coalescing
//! depends on the wall-cycle gap between accesses, which depends on how
//! often the lane's BTB stalls prediction. No microarchitectural state is
//! therefore shared between lanes; only the immutable decoded events are.
//! That is exactly why batched results are bit-identical to solo runs —
//! each lane is a complete, independent simulator fed the same bytes.
//!
//! # Look-ahead slack
//!
//! A lane stops on its committed-instruction target but has already
//! pulled events for everything in flight: up to `rob_entries` waiting to
//! commit, up to `ftq_entries` predicted-but-unfetched, plus staging-
//! block refill granularity. [`lookahead_slack`] over-approximates that
//! bound, so a lane never exhausts the materialized window before its
//! serial twin would have stopped — if the window comes up short, the
//! underlying trace itself ended, and the serial run sees the same end at
//! the same event.

use crate::config::SimConfig;
use crate::session::{self, SessionError};
use crate::sim::EVENT_BLOCK_EVENTS;
use crate::stats::SimResult;
use btbx_core::spec::BtbSpec;
use btbx_trace::packed::{PackedBuf, SharedSource};
use btbx_trace::TraceSource;
use std::sync::Arc;

/// One simulation lane of a batched group: a BTB point plus the full
/// simulator configuration it runs under (the per-lane FDIP flag lives in
/// `config.fdip`, same as a solo run).
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// BTB organization, budget and architecture.
    pub spec: BtbSpec,
    /// Full simulator configuration for this lane.
    pub config: SimConfig,
    /// Organization label recorded in the lane's result.
    pub label: String,
}

/// Upper bound on events a lane can consume beyond its committed target:
/// in-flight ROB entries + FTQ occupancy + two staging-block refills,
/// plus margin for the commit-width overshoot. Deliberately generous —
/// slack costs 16 bytes per event once per group.
pub fn lookahead_slack(config: &SimConfig) -> u64 {
    (config.rob_entries + config.ftq_entries) as u64 + 2 * EVENT_BLOCK_EVENTS as u64 + 64
}

/// A decoded, immutable event window shared by every lane of a batched
/// group: the "one trace traversal" the group amortizes.
#[derive(Debug, Clone)]
pub struct BatchStream {
    name: String,
    buf: Arc<PackedBuf>,
    warmup: u64,
    measure: u64,
}

impl BatchStream {
    /// Decode `warmup + measure + slack` events of `trace` into a shared
    /// buffer. `slack` must be at least [`lookahead_slack`] of the widest
    /// lane configuration that will run over the stream.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnboundedMeasure`]: a batched group needs a finite
    /// window to know how much to materialize.
    pub fn materialize<S: TraceSource>(
        mut trace: S,
        warmup: u64,
        measure: u64,
        slack: u64,
    ) -> Result<Self, SessionError> {
        if measure == u64::MAX {
            return Err(SessionError::UnboundedMeasure);
        }
        let window = warmup
            .saturating_add(measure)
            .saturating_add(slack)
            .min(usize::MAX as u64) as usize;
        let name = trace.source_name().to_string();
        let mut buf = PackedBuf::with_capacity(window.min(1 << 24));
        trace.fill_block(&mut buf, window);
        Ok(BatchStream {
            name,
            buf: Arc::new(buf),
            warmup,
            measure,
        })
    }

    /// Events materialized (less than requested only when the trace
    /// itself ended).
    pub fn events(&self) -> usize {
        self.buf.len()
    }

    /// A zero-copy per-lane view of the window (an `Arc` clone).
    pub fn source(&self) -> SharedSource {
        SharedSource::new(self.name.clone(), Arc::clone(&self.buf))
    }

    /// Run one lane over the shared window, building its engine from the
    /// lane spec. The construction path is the same
    /// [`SimSession`](crate::SimSession) back half a solo run uses —
    /// bit-identity with unbatched runs holds by construction — with
    /// fast-forward enabled.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] when the lane's spec does not validate and
    /// [`SessionError::Config`] when its configuration does not.
    pub fn run_lane(&self, lane: &BatchLane) -> Result<SimResult, SessionError> {
        lane.config.validate()?;
        Ok(session::run_with(
            lane.spec.build_engine()?,
            lane.label.clone(),
            lane.spec.bits(),
            lane.config.clone(),
            self.source(),
            self.warmup,
            self.measure,
            None,
            None,
            true,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSession;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::OrgKind;
    use btbx_trace::suite;

    fn lanes() -> Vec<BatchLane> {
        let mut lanes = Vec::new();
        for org in [OrgKind::Conv, OrgKind::BtbX, OrgKind::Pdede] {
            for fdip in [false, true] {
                let config = SimConfig {
                    fdip,
                    ..SimConfig::default()
                };
                lanes.push(BatchLane {
                    spec: BtbSpec::of(org).at(BudgetPoint::Kb1_8),
                    config,
                    label: org.id().to_string(),
                });
            }
        }
        lanes
    }

    fn slack(lanes: &[BatchLane]) -> u64 {
        lanes
            .iter()
            .map(|l| lookahead_slack(&l.config))
            .max()
            .unwrap()
    }

    #[test]
    fn batched_lanes_match_solo_sessions() {
        let spec = &suite::ipc1_client()[0];
        let stream =
            BatchStream::materialize(spec.build_trace(), 4_000, 8_000, slack(&lanes())).unwrap();
        for lane in lanes() {
            let got = stream.run_lane(&lane).unwrap();
            let solo = SimSession::new(spec.build_trace())
                .btb_spec(lane.spec)
                .config(lane.config.clone())
                .label(lane.label.clone())
                .warmup(4_000)
                .measure(8_000)
                .run()
                .unwrap();
            assert_eq!(got.stats, solo.stats, "lane {}", lane.label);
            assert_eq!(got.org, solo.org);
            assert_eq!(got.btb_budget_bits, solo.btb_budget_bits);
        }
    }

    #[test]
    fn unbounded_measure_is_rejected() {
        let spec = &suite::ipc1_client()[0];
        let err = BatchStream::materialize(spec.build_trace(), 1_000, u64::MAX, slack(&lanes()))
            .unwrap_err();
        assert_eq!(err, SessionError::UnboundedMeasure);
    }

    #[test]
    fn invalid_lane_spec_is_rejected() {
        let spec = &suite::ipc1_client()[0];
        let stream =
            BatchStream::materialize(spec.build_trace(), 1_000, 2_000, slack(&lanes())).unwrap();
        let bad = BatchLane {
            spec: BtbSpec::of(OrgKind::BtbX).budget_bits(3),
            config: SimConfig::default(),
            label: "bad".into(),
        };
        let err = stream.run_lane(&bad).unwrap_err();
        assert!(matches!(err, SessionError::Spec(_)), "{err}");
    }

    #[test]
    fn short_trace_ends_lanes_like_solo_runs() {
        // A window far beyond the trace's length: lanes and solo runs
        // must agree on where the stream ends.
        use btbx_trace::source::VecSource;
        use btbx_trace::TraceInstr;
        let instrs: Vec<TraceInstr> = (0..3_000u64)
            .map(|i| TraceInstr::other(0x1000 + (i % 64) * 4, 4))
            .collect();
        let lane = BatchLane {
            spec: BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8),
            config: SimConfig::without_fdip(),
            label: "conv".into(),
        };
        let stream = BatchStream::materialize(
            VecSource::new("short", instrs.clone()),
            1_000,
            50_000,
            lookahead_slack(&lane.config),
        )
        .unwrap();
        assert_eq!(
            stream.events(),
            3_000,
            "the window stops where the trace ends"
        );
        let batched = stream.run_lane(&lane).unwrap();
        let solo = SimSession::new(VecSource::new("short", instrs))
            .btb_spec(lane.spec)
            .config(lane.config)
            .warmup(1_000)
            .measure(50_000)
            .run()
            .unwrap();
        assert_eq!(batched.stats, solo.stats);
    }
}
