//! The phase-driven protocol core shared by the synchronous and
//! clock-shifted agents.

use std::sync::Arc;

use flip_model::{Opinion, SimRng};

use crate::schedule::{Position, Schedule, StageKind};
use crate::stage1::Stage1State;
use crate::stage2::Stage2State;

/// The protocol logic of one agent, indexed by phase rather than by round.
///
/// Both the fully-synchronous agent ([`BreatheAgent`](crate::BreatheAgent))
/// and the local-clock agents of §3 ([`OffsetAgent`](crate::OffsetAgent),
/// [`ResyncAgent`](crate::ResyncAgent)) drive this same core; they differ only
/// in how they map engine rounds to phases.  This mirrors the paper's
/// correctness argument for the clock-shifted variant: the decisions of an
/// agent depend only on the *multiset* of messages it receives in each phase,
/// never on global time.
///
/// Every hook of every agent must find the phase its round falls in.  Time
/// only moves forward, so the core keeps a cursor on the phase window its
/// last lookup landed in and checks that window first; only a miss (once
/// per phase) pays for [`Schedule::shifted_position`]'s binary search.  The
/// cursor is a hint: any value gives the same answers.
#[derive(Debug, Clone)]
pub struct ProtocolCore {
    schedule: Arc<Schedule>,
    stage1: Stage1State,
    stage2: Stage2State,
    /// Phase index of the last lookup's answer (`phase_count()` once done).
    cursor: usize,
}

impl ProtocolCore {
    /// Creates the core for one agent.
    #[must_use]
    pub fn new(schedule: Arc<Schedule>, stage1: Stage1State) -> Self {
        Self {
            schedule,
            stage1,
            stage2: Stage2State::new(),
            cursor: 0,
        }
    }

    /// Where local time `time` falls in the schedule shifted by `d`: exactly
    /// [`Schedule::shifted_position`], with the cursor's window tried first.
    #[inline]
    pub(crate) fn locate(&mut self, time: u64, d: u64) -> Position {
        match self.schedule.shifted_position_near(self.cursor, time, d) {
            Some(position) => position,
            None => self.relocate(time, d),
        }
    }

    /// The cursor's miss path: a binary search, kept out of line so the
    /// hit path inlines into the engine's loops.
    #[cold]
    fn relocate(&mut self, time: u64, d: u64) -> Position {
        let position = self.schedule.shifted_position(time, d);
        self.cursor = match position {
            Position::Active { phase, .. } | Position::Waiting { next_phase: phase } => phase,
            Position::Done => self.schedule.phase_count(),
        };
        position
    }

    /// The last local time of the phase window that `time` falls in, or
    /// waits for, in the schedule shifted by `d`; `None` once the schedule
    /// is done.  A phase acts at end of round only at this time.
    #[must_use]
    #[inline]
    pub(crate) fn window_last(&self, time: u64, d: u64) -> Option<u64> {
        let position = match self.schedule.shifted_position_near(self.cursor, time, d) {
            Some(position) => position,
            None => self.schedule.shifted_position(time, d),
        };
        match position {
            Position::Active { phase, .. } | Position::Waiting { next_phase: phase } => {
                Some(self.schedule.window_end(phase, d) - 1)
            }
            Position::Done => None,
        }
    }

    /// The schedule this core follows.
    #[must_use]
    pub fn schedule(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The Stage I state (activation level, initial opinion).
    #[must_use]
    pub fn stage1(&self) -> &Stage1State {
        &self.stage1
    }

    /// The agent's current opinion: the Stage II opinion once Stage II has
    /// begun, otherwise the Stage I initial opinion.
    #[must_use]
    #[inline]
    pub fn opinion(&self) -> Option<Opinion> {
        self.stage2
            .opinion()
            .or_else(|| self.stage1.initial_opinion())
    }

    /// What to push during the phase with the given index (into the schedule).
    #[must_use]
    #[inline]
    pub fn send_in_phase(&self, phase: usize) -> Option<Opinion> {
        let spec = &self.schedule.phases()[phase];
        match spec.kind {
            StageKind::Spreading => self.stage1.send(spec.index_in_stage),
            StageKind::Boosting => self.stage2.send(),
        }
    }

    /// Handles a message attributed to the phase with the given index.
    #[inline]
    pub fn deliver_in_phase(&mut self, phase: usize, message: Opinion, rng: &mut SimRng) {
        let spec = &self.schedule.phases()[phase];
        match spec.kind {
            StageKind::Spreading => self.stage1.deliver(spec.index_in_stage, message, rng),
            StageKind::Boosting => self.stage2.deliver(message),
        }
    }

    /// Handles the end of the phase with the given index.
    pub fn end_phase(&mut self, phase: usize, rng: &mut SimRng) {
        let spec = self.schedule.phases()[phase];
        // The next lookup falls in the following window (or the gap before it).
        self.cursor = phase + 1;
        match spec.kind {
            StageKind::Spreading => {
                self.stage1.end_phase(spec.index_in_stage);
                if phase == self.schedule.last_spreading_phase() {
                    // Hand the Stage I initial opinion over to Stage II.
                    self.stage2.adopt(self.stage1.initial_opinion());
                }
            }
            StageKind::Boosting => {
                let samples = spec.samples.expect("boosting phases carry sample counts");
                self.stage2.end_phase(spec.len, samples, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn core(informed: bool) -> ProtocolCore {
        let params = Params::practical(500, 0.3).unwrap();
        let schedule = Arc::new(Schedule::broadcast(&params));
        let stage1 = if informed {
            Stage1State::informed(Opinion::One)
        } else {
            Stage1State::uninformed()
        };
        ProtocolCore::new(schedule, stage1)
    }

    #[test]
    fn informed_core_sends_in_every_spreading_phase() {
        let core = core(true);
        for (idx, phase) in core.schedule().phases().iter().enumerate() {
            if phase.kind == StageKind::Spreading {
                assert_eq!(core.send_in_phase(idx), Some(Opinion::One));
            }
        }
    }

    #[test]
    fn uninformed_core_is_silent_until_activated_and_handover_reaches_stage2() {
        let mut core = core(false);
        let mut rng = SimRng::from_seed(1);
        let last_spreading = core.schedule().last_spreading_phase();
        assert_eq!(core.send_in_phase(0), None);
        assert_eq!(core.opinion(), None);

        // Activate in spreading phase 0.
        core.deliver_in_phase(0, Opinion::Zero, &mut rng);
        core.end_phase(0, &mut rng);
        assert_eq!(core.opinion(), Some(Opinion::Zero));
        assert_eq!(core.send_in_phase(1), Some(Opinion::Zero));

        // Walk through the remaining spreading phases; opinion is handed over.
        for idx in 1..=last_spreading {
            core.end_phase(idx, &mut rng);
        }
        let first_boost = last_spreading + 1;
        assert_eq!(core.send_in_phase(first_boost), Some(Opinion::Zero));
    }

    #[test]
    fn boosting_phase_updates_opinion_from_samples() {
        let mut core = core(true);
        let mut rng = SimRng::from_seed(2);
        let last_spreading = core.schedule().last_spreading_phase();
        for idx in 0..=last_spreading {
            core.end_phase(idx, &mut rng);
        }
        let boost = last_spreading + 1;
        let spec = core.schedule().phases()[boost];
        // Flood the boosting phase with the opposite opinion.
        for _ in 0..spec.len {
            core.deliver_in_phase(boost, Opinion::Zero, &mut rng);
        }
        core.end_phase(boost, &mut rng);
        assert_eq!(core.opinion(), Some(Opinion::Zero));
    }

    #[test]
    fn spreading_messages_never_touch_stage2_counters() {
        let mut core = core(false);
        let mut rng = SimRng::from_seed(3);
        core.deliver_in_phase(0, Opinion::One, &mut rng);
        // Ending a boosting phase without having received anything there leaves
        // the (absent) opinion untouched.
        let boost = core.schedule().last_spreading_phase() + 1;
        core.end_phase(boost, &mut rng);
        assert_eq!(core.opinion(), None);
    }
}
