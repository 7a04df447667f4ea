//! Phase schedules: which rounds belong to which phase of which stage.

use crate::params::Params;

/// Which of the two stages a phase belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Stage I — layered spreading of the rumor ("breathe").
    Spreading,
    /// Stage II — repeated majority-sampling boosts ("speak").
    Boosting,
}

/// One phase of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpec {
    /// The stage this phase belongs to.
    pub kind: StageKind,
    /// Zero-based index of the phase within its stage.
    pub index_in_stage: usize,
    /// First round of the phase (in protocol time, before any clock shifting).
    pub start: u64,
    /// Number of rounds in the phase.
    pub len: u64,
    /// For boosting phases: how many samples a successful agent draws at the
    /// end of the phase (always odd).  `None` for spreading phases.
    pub samples: Option<u64>,
}

impl PhaseSpec {
    /// The round just past the end of this phase.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Where a given round falls within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// The round lies inside the phase with the given index (into [`Schedule::phases`]).
    Active {
        /// Index into [`Schedule::phases`].
        phase: usize,
        /// Offset of the round within the phase (`0`-based).
        round_in_phase: u64,
        /// Whether this is the last round of the phase.
        is_last_round: bool,
    },
    /// The round lies in the idle gap before the phase with the given index
    /// (only possible in clock-shifted schedules, paper §3.1).
    Waiting {
        /// Index of the next phase (into [`Schedule::phases`]).
        next_phase: usize,
    },
    /// The round lies after the last phase; the protocol has terminated.
    Done,
}

/// The full phase schedule of a protocol execution.
///
/// A schedule is a contiguous list of [`PhaseSpec`]s: Stage I phases followed
/// by Stage II phases.  [`Schedule::broadcast`] builds the schedule of the
/// noisy broadcast protocol (paper §2); [`Schedule::majority_consensus`]
/// builds the truncated schedule of Corollary 2.18, which enters Stage I at
/// phase `i_A`.
///
/// # Example
///
/// ```
/// use breathe::{Params, Schedule, StageKind};
///
/// let params = Params::practical(1_000, 0.25).unwrap();
/// let schedule = Schedule::broadcast(&params);
/// assert_eq!(schedule.phases()[0].kind, StageKind::Spreading);
/// assert_eq!(schedule.total_rounds(), params.total_rounds());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    phases: Vec<PhaseSpec>,
    spreading_phase_count: usize,
}

impl Schedule {
    /// Builds the schedule of the noisy broadcast protocol (all of Stage I and II).
    #[must_use]
    pub fn broadcast(params: &Params) -> Self {
        let t = params.stage1_intermediate_phases();
        let mut spreading_lens = Vec::with_capacity(t + 2);
        spreading_lens.push(params.beta_s());
        for _ in 0..t {
            spreading_lens.push(params.beta());
        }
        spreading_lens.push(params.beta_f());
        Self::from_lens(params, &spreading_lens)
    }

    /// Builds the schedule of the noisy majority-consensus protocol for an
    /// initial opinionated set of the given size (Corollary 2.18): Stage I is
    /// entered at phase `i_A`, so the earlier (shorter) growth phases are skipped.
    #[must_use]
    pub fn majority_consensus(params: &Params, initial_set: usize) -> Self {
        let t = params.stage1_intermediate_phases();
        let ia = params.majority_start_phase(initial_set);
        let mut spreading_lens = Vec::new();
        for i in ia..=t {
            spreading_lens.push(if i == 0 {
                params.beta_s()
            } else {
                params.beta()
            });
        }
        spreading_lens.push(params.beta_f());
        Self::from_lens(params, &spreading_lens)
    }

    fn from_lens(params: &Params, spreading_lens: &[u64]) -> Self {
        let mut phases = Vec::new();
        let mut start = 0u64;
        for (i, &len) in spreading_lens.iter().enumerate() {
            phases.push(PhaseSpec {
                kind: StageKind::Spreading,
                index_in_stage: i,
                start,
                len,
                samples: None,
            });
            start += len;
        }
        let k = params.boost_phases();
        for i in 0..k {
            phases.push(PhaseSpec {
                kind: StageKind::Boosting,
                index_in_stage: i,
                start,
                len: params.boost_phase_len(),
                samples: Some(params.gamma()),
            });
            start += params.boost_phase_len();
        }
        phases.push(PhaseSpec {
            kind: StageKind::Boosting,
            index_in_stage: k,
            start,
            len: params.final_phase_len(),
            samples: Some(params.final_samples()),
        });
        Self {
            phases,
            spreading_phase_count: spreading_lens.len(),
        }
    }

    /// All phases, in execution order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Number of phases (Stage I + Stage II).
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Number of Stage I (spreading) phases.
    #[must_use]
    pub fn spreading_phase_count(&self) -> usize {
        self.spreading_phase_count
    }

    /// Index (into [`Schedule::phases`]) of the last Stage I phase.
    #[must_use]
    pub fn last_spreading_phase(&self) -> usize {
        self.spreading_phase_count - 1
    }

    /// Total rounds of Stage I.
    #[must_use]
    pub fn spreading_rounds(&self) -> u64 {
        self.phases[..self.spreading_phase_count]
            .iter()
            .map(|p| p.len)
            .sum()
    }

    /// Total rounds of the whole protocol (no clock shifting).
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.phases.last().map_or(0, PhaseSpec::end)
    }

    /// Total global rounds needed to complete a clock-shifted execution in
    /// which every phase `i` is delayed by `i·d` on each agent's local clock
    /// and local clocks lag the global clock by at most `d` rounds.
    #[must_use]
    pub fn shifted_total_rounds(&self, d: u64) -> u64 {
        let shift = (self.phases.len() as u64).saturating_sub(1) * d;
        self.total_rounds() + shift + d
    }

    /// Locates `round` in the unshifted (fully-synchronous) schedule.
    #[must_use]
    pub fn position(&self, round: u64) -> Position {
        self.position_with_shift(round, 0)
    }

    /// Locates a *local-clock* time in the clock-shifted schedule of paper
    /// §3.1, where phase `i` occupies local times
    /// `[startᵢ + i·d, startᵢ + i·d + lenᵢ)` and the gaps in between are idle.
    ///
    /// Times falling in the gap before phase `i`'s window are reported as
    /// [`Position::Waiting`]; messages received while waiting are attributed
    /// to the upcoming phase.
    #[must_use]
    pub fn shifted_position(&self, local_time: u64, d: u64) -> Position {
        self.position_with_shift(local_time, d)
    }

    /// The local time just past phase `idx`'s window in the schedule
    /// shifted by `d` (see [`Schedule::shifted_position`]).
    #[inline]
    pub(crate) fn window_end(&self, idx: usize, d: u64) -> u64 {
        self.phases[idx].end() + idx as u64 * d
    }

    fn position_with_shift(&self, time: u64, d: u64) -> Position {
        // Binary search for the first phase whose shifted window has not ended.
        let mut lo = 0usize;
        let mut hi = self.phases.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.window_end(mid, d) <= time {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.position_in(lo, time, d)
    }

    /// The position of `time`, given that phase `idx` is the first whose
    /// shifted window has not ended by then.
    #[inline]
    fn position_in(&self, idx: usize, time: u64, d: u64) -> Position {
        let Some(phase) = self.phases.get(idx) else {
            return Position::Done;
        };
        let window_start = phase.start + idx as u64 * d;
        if time < window_start {
            Position::Waiting { next_phase: idx }
        } else {
            let round_in_phase = time - window_start;
            Position::Active {
                phase: idx,
                round_in_phase,
                is_last_round: round_in_phase + 1 == phase.len,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use flip_model::{Opinion, SimRng};

    use super::*;
    use crate::agent_core::ProtocolCore;
    use crate::stage1::Stage1State;

    fn params() -> Params {
        Params::practical(2_000, 0.25).unwrap()
    }

    /// Walks two [`ProtocolCore`] cursors over `times` in the given order
    /// and checks every lookup against the binary search: the position, the
    /// window's last time, what the cached path sends and the stage kind
    /// and index in stage it gives a delivery.  One core acts on phase ends
    /// the way an agent would, which moves its cursor ahead; the other only
    /// looks up, so its cursor lags behind each phase boundary.  The order
    /// of the cached lookups rotates, so each is sometimes the one that
    /// misses and refills the window.
    fn assert_cursor_matches_binary_search(
        schedule: &Schedule,
        d: u64,
        times: impl IntoIterator<Item = u64>,
    ) {
        let schedule = Arc::new(schedule.clone());
        let core = ProtocolCore::shifted(schedule.clone(), Stage1State::informed(Opinion::One), d);
        let (mut acting, mut passive) = (core.clone(), core);
        let mut rng = SimRng::from_seed(3);
        for (step, t) in times.into_iter().enumerate() {
            let expected = schedule.shifted_position(t, d);
            let (last, heard_in) = match expected {
                Position::Active { phase, .. } | Position::Waiting { next_phase: phase } => {
                    let spec = schedule.phases()[phase];
                    (
                        Some(spec.end() + phase as u64 * d - 1),
                        Some((spec.kind, spec.index_in_stage)),
                    )
                }
                Position::Done => (None, None),
            };
            for core in [&mut acting, &mut passive] {
                let sent = match expected {
                    Position::Active { phase, .. } => core.send_in_phase(phase),
                    Position::Waiting { .. } | Position::Done => None,
                };
                assert_eq!(core.window_last(t), last, "window at time {t}, d = {d}");
                for lookup in (step..step + 3).map(|k| k % 3) {
                    match lookup {
                        0 => assert_eq!(core.locate(t), expected, "time {t}, d = {d}"),
                        1 => assert_eq!(core.send(t), sent, "send at time {t}, d = {d}"),
                        _ => assert_eq!(
                            core.delivery_phase(t),
                            heard_in,
                            "delivery at time {t}, d = {d}"
                        ),
                    }
                }
            }
            if let Position::Active {
                phase,
                is_last_round: true,
                ..
            } = expected
            {
                acting.end_phase(phase, &mut rng);
            }
        }
    }

    /// Every time up to a few past the end, forwards, backwards and in
    /// strides that skip whole phases.
    fn assert_cursor_walks(schedule: &Schedule, d: u64) {
        let horizon = schedule.shifted_total_rounds(d) + 3;
        assert_cursor_matches_binary_search(schedule, d, 0..horizon);
        assert_cursor_matches_binary_search(schedule, d, (0..horizon).rev());
        let stride = schedule.phases()[0].len + d + 1;
        assert_cursor_matches_binary_search(schedule, d, (0..horizon).step_by(stride as usize));
        assert_cursor_matches_binary_search(
            schedule,
            d,
            (0..horizon).map(|t| (t * 7_919) % horizon),
        );
    }

    #[test]
    fn broadcast_schedule_is_contiguous_and_complete() {
        let p = params();
        let schedule = Schedule::broadcast(&p);
        let mut expected_start = 0;
        for phase in schedule.phases() {
            assert_eq!(phase.start, expected_start);
            assert!(phase.len > 0);
            expected_start = phase.end();
        }
        assert_eq!(schedule.total_rounds(), expected_start);
        assert_eq!(schedule.total_rounds(), p.total_rounds());
        assert_eq!(
            schedule.spreading_phase_count(),
            p.stage1_intermediate_phases() + 2
        );
        assert_eq!(schedule.spreading_rounds(), p.stage1_rounds());
    }

    #[test]
    fn boosting_phases_carry_odd_sample_counts() {
        let schedule = Schedule::broadcast(&params());
        for phase in schedule.phases() {
            match phase.kind {
                StageKind::Spreading => assert!(phase.samples.is_none()),
                StageKind::Boosting => {
                    let samples = phase.samples.unwrap();
                    assert_eq!(samples % 2, 1);
                    assert!(2 * samples == phase.len);
                }
            }
        }
    }

    #[test]
    fn position_walks_every_round_exactly_once() {
        let schedule = Schedule::broadcast(&Params::practical(500, 0.3).unwrap());
        let mut last_phase = 0usize;
        for round in 0..schedule.total_rounds() {
            match schedule.position(round) {
                Position::Active {
                    phase,
                    round_in_phase,
                    is_last_round,
                } => {
                    assert!(phase >= last_phase);
                    last_phase = phase;
                    let spec = schedule.phases()[phase];
                    assert_eq!(spec.start + round_in_phase, round);
                    assert_eq!(is_last_round, round + 1 == spec.end());
                }
                other => panic!("round {round} unexpectedly {other:?}"),
            }
        }
        assert_eq!(schedule.position(schedule.total_rounds()), Position::Done);
        assert_eq!(last_phase, schedule.phase_count() - 1);
    }

    #[test]
    fn shifted_position_has_gaps_of_exactly_d() {
        let schedule = Schedule::broadcast(&Params::practical(500, 0.3).unwrap());
        let d = 7;
        let mut active = 0u64;
        let mut waiting = 0u64;
        let horizon = schedule.shifted_total_rounds(d);
        for t in 0..horizon {
            match schedule.shifted_position(t, d) {
                Position::Active { .. } => active += 1,
                Position::Waiting { .. } => waiting += 1,
                Position::Done => {}
            }
        }
        assert_eq!(active, schedule.total_rounds());
        // One gap of length d before every phase except phase 0.
        assert_eq!(waiting, d * (schedule.phase_count() as u64 - 1));
        assert_cursor_walks(&schedule, d);
    }

    #[test]
    fn shifted_position_attributes_gap_to_next_phase() {
        let schedule = Schedule::broadcast(&Params::practical(500, 0.3).unwrap());
        let d = 5;
        let first = schedule.phases()[0];
        // Right after phase 0 ends, with a shift the agent waits for phase 1.
        match schedule.shifted_position(first.end(), d) {
            Position::Waiting { next_phase } => assert_eq!(next_phase, 1),
            other => panic!("expected waiting, got {other:?}"),
        }
        match schedule.shifted_position(first.end() + d, d) {
            Position::Active { phase, .. } => assert_eq!(phase, 1),
            other => panic!("expected active in phase 1, got {other:?}"),
        }
    }

    #[test]
    fn zero_shift_matches_plain_position() {
        let schedule = Schedule::broadcast(&Params::practical(300, 0.3).unwrap());
        for round in 0..schedule.total_rounds() {
            assert_eq!(
                schedule.position(round),
                schedule.shifted_position(round, 0)
            );
        }
        assert_cursor_walks(&schedule, 0);
    }

    #[test]
    fn cursor_matches_binary_search_on_broadcast_and_majority_schedules() {
        let p = Params::practical(5_000, 0.3).unwrap();
        let schedules = [
            Schedule::broadcast(&p),
            Schedule::majority_consensus(&p, 10),
            Schedule::majority_consensus(&p, 3_000),
        ];
        for schedule in &schedules {
            for d in [0, 1, 6] {
                assert_cursor_walks(schedule, d);
            }
        }
    }

    #[test]
    fn majority_schedule_skips_early_phases_for_large_sets() {
        let p = Params::practical(50_000, 0.2).unwrap();
        let broadcast = Schedule::broadcast(&p);
        let small_set = Schedule::majority_consensus(&p, 10);
        let large_set = Schedule::majority_consensus(&p, 20_000);
        assert!(small_set.spreading_rounds() <= broadcast.spreading_rounds());
        assert!(large_set.spreading_rounds() <= small_set.spreading_rounds());
        // Stage II is identical in all variants.
        assert_eq!(
            broadcast.total_rounds() - broadcast.spreading_rounds(),
            large_set.total_rounds() - large_set.spreading_rounds()
        );
    }

    #[test]
    fn majority_schedule_always_has_a_final_spreading_phase() {
        let p = Params::practical(1_000, 0.3).unwrap();
        let schedule = Schedule::majority_consensus(&p, 900);
        assert!(schedule.spreading_phase_count() >= 1);
        let last = schedule.phases()[schedule.last_spreading_phase()];
        assert_eq!(last.kind, StageKind::Spreading);
        assert_eq!(last.len, p.beta_f());
    }

    #[test]
    fn shifted_total_rounds_covers_the_last_window() {
        let schedule = Schedule::broadcast(&Params::practical(500, 0.3).unwrap());
        let d = 11;
        let horizon = schedule.shifted_total_rounds(d);
        // At the horizon, every local time <= horizon - d has passed all phases.
        assert_eq!(schedule.shifted_position(horizon - 1, d), Position::Done);
        // Just before the last window ends (local view of the slowest agent),
        // the position is still within the final phase.
        let last_idx = schedule.phase_count() - 1;
        let last = schedule.phases()[last_idx];
        let last_window_end = last.start + last_idx as u64 * d + last.len;
        assert!(matches!(
            schedule.shifted_position(last_window_end - 1, d),
            Position::Active { phase, .. } if phase == last_idx
        ));
    }
}
