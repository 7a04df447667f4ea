//! The phase-driven protocol core shared by the synchronous and
//! clock-shifted agents.

use std::sync::Arc;

use flip_model::{Opinion, OpinionDelta, SimRng};

use crate::schedule::{Position, Schedule, StageKind};
use crate::stage1::Stage1State;
use crate::stage2::Stage2State;

/// The protocol logic of one agent, indexed by phase rather than by round.
///
/// Both the fully-synchronous agent ([`BreatheAgent`](crate::BreatheAgent))
/// and the local-clock agents of §3 ([`OffsetAgent`](crate::OffsetAgent),
/// [`ResyncAgent`](crate::ResyncAgent)) drive this same core; they differ only
/// in how they map engine rounds to local times of the schedule shifted by
/// their `d`.  This mirrors the paper's correctness argument for the
/// clock-shifted variant: the decisions of an agent depend only on the
/// *multiset* of messages it receives in each phase, never on global time.
///
/// Every hook of every agent must find the phase its time falls in.  Time
/// only moves forward, so the core keeps a cursor on the phase window its
/// last lookup landed in, together with a copy of that window's bounds,
/// stage kind and index in stage: a lookup in the window, or in the gap
/// before it, reads the agent's own fields and no schedule memory.  A miss
/// pays for [`Schedule::shifted_position`]'s binary search and refills the
/// copy; an acted-on phase end moves the cursor to the next window, so an
/// agent that walks time forward misses only when it skips a phase end.
/// The cursor is a hint: any phase gives the same answers.
///
/// A delivery never changes [`opinion`](Self::opinion): Stage I fixes the
/// initial opinion at the end of the activation phase, and Stage II changes
/// its opinion only at the end of a boosting phase, both in
/// [`end_phase`](Self::end_phase).  The agents built on this core therefore
/// report [`OpinionDelta::NONE`] from every delivery.
#[derive(Debug, Clone)]
pub struct ProtocolCore {
    schedule: Arc<Schedule>,
    stage1: Stage1State,
    stage2: Stage2State,
    /// The shift `d` of the schedule this core follows (0: synchronous).
    d: u64,
    /// First local time of the cursor phase's shifted window.
    start: u64,
    /// Local time just past that window (`u64::MAX` once done).
    end: u64,
    /// The cursor: index of the cached phase (`phase_count()` once done).
    phase: u32,
    /// The cached phase's index within its stage.
    index_in_stage: u32,
    /// The cached phase's stage; `None` once done.
    kind: Option<StageKind>,
}

impl ProtocolCore {
    /// Creates the core for one agent on the unshifted schedule.
    #[must_use]
    pub fn new(schedule: Arc<Schedule>, stage1: Stage1State) -> Self {
        Self::shifted(schedule, stage1, 0)
    }

    /// Creates the core for one agent on the schedule shifted by `d` (see
    /// [`Schedule::shifted_position`]).
    #[must_use]
    pub fn shifted(schedule: Arc<Schedule>, stage1: Stage1State, d: u64) -> Self {
        let mut core = Self {
            schedule,
            stage1,
            stage2: Stage2State::new(),
            d,
            start: 0,
            end: 0,
            phase: 0,
            index_in_stage: 0,
            kind: None,
        };
        core.point_at(0);
        core
    }

    /// Whether local time `time` lies in the cursor phase's window or in
    /// the gap before it.  Every gap is `d` long; phase 0's window starts
    /// at time 0, so no time lies before it.
    #[inline]
    fn holds(&self, time: u64) -> bool {
        self.start <= time.saturating_add(self.d) && time < self.end
    }

    /// Moves the cursor to the window `time` falls in, or waits for.
    #[inline]
    fn seek(&mut self, time: u64) {
        if !self.holds(time) {
            self.relocate(time);
        }
    }

    /// The cursor's miss path: a binary search, kept out of line so the
    /// hit path inlines into the engine's loops.
    #[cold]
    #[inline(never)]
    fn relocate(&mut self, time: u64) {
        let phase = match self.schedule.shifted_position(time, self.d) {
            Position::Active { phase, .. } | Position::Waiting { next_phase: phase } => phase,
            Position::Done => self.schedule.phase_count(),
        };
        self.point_at(phase);
    }

    /// Points the cursor at `phase` (`phase_count()` for the time after the
    /// last window) and copies that window out of the schedule.
    fn point_at(&mut self, phase: usize) {
        self.phase = u32::try_from(phase).expect("phase indices fit in 32 bits");
        match self.schedule.phases().get(phase) {
            Some(spec) => {
                self.start = spec.start + phase as u64 * self.d;
                self.end = self.start + spec.len;
                self.index_in_stage =
                    u32::try_from(spec.index_in_stage).expect("phase indices fit in 32 bits");
                self.kind = Some(spec.kind);
            }
            None => {
                // After the last window: with `start` set `d` past its
                // end, `holds` accepts exactly the times from that end on.
                self.start = self.schedule.window_end(phase - 1, self.d) + self.d;
                self.end = u64::MAX;
                self.index_in_stage = 0;
                self.kind = None;
            }
        }
    }

    /// Where local time `time` falls in the shifted schedule: exactly
    /// [`Schedule::shifted_position`], read from the cursor's window.
    #[inline]
    pub(crate) fn locate(&mut self, time: u64) -> Position {
        self.seek(time);
        let phase = self.phase as usize;
        match self.kind {
            None => Position::Done,
            Some(_) if time < self.start => Position::Waiting { next_phase: phase },
            Some(_) => Position::Active {
                phase,
                round_in_phase: time - self.start,
                is_last_round: time + 1 == self.end,
            },
        }
    }

    /// What to push at local time `time`: the message of the phase whose
    /// window holds it; nothing in a gap or once done.
    #[inline]
    pub(crate) fn send(&mut self, time: u64) -> Option<Opinion> {
        self.seek(time);
        if time < self.start {
            return None;
        }
        match self.kind {
            Some(StageKind::Spreading) => self.stage1.send(self.index_in_stage as usize),
            Some(StageKind::Boosting) => self.stage2.send(),
            None => None,
        }
    }

    /// The stage kind and index in stage of the phase a message heard at
    /// local time `time` counts for: the phase whose window holds `time`,
    /// or the one a gap waits for; `None` once done.
    #[inline]
    pub(crate) fn delivery_phase(&mut self, time: u64) -> Option<(StageKind, usize)> {
        self.seek(time);
        Some((self.kind?, self.index_in_stage as usize))
    }

    /// Handles a message heard at local time `time`.  It never changes the
    /// opinion (see the type's documentation).
    #[inline]
    pub(crate) fn deliver(&mut self, time: u64, message: Opinion, rng: &mut SimRng) {
        match self.delivery_phase(time) {
            Some((StageKind::Spreading, index)) => self.stage1.deliver(index, message, rng),
            Some((StageKind::Boosting, _)) => self.stage2.deliver(message),
            None => {}
        }
    }

    /// Ends the round at local time `time`, which ends a phase when it is
    /// the last time of the phase's window.
    #[inline]
    pub(crate) fn end_round(&mut self, time: u64, rng: &mut SimRng) -> OpinionDelta {
        if let Position::Active {
            phase,
            is_last_round: true,
            ..
        } = self.locate(time)
        {
            let before = self.opinion();
            self.end_phase(phase, rng);
            OpinionDelta::between(before, self.opinion())
        } else {
            OpinionDelta::NONE
        }
    }

    /// The last local time of the phase window that `time` falls in, or
    /// waits for; `None` once the schedule is done.  A phase acts at end of
    /// round only at this time.
    #[must_use]
    #[inline]
    pub(crate) fn window_last(&self, time: u64) -> Option<u64> {
        if self.holds(time) {
            return self.kind.map(|_| self.end - 1);
        }
        match self.schedule.shifted_position(time, self.d) {
            Position::Active { phase, .. } | Position::Waiting { next_phase: phase } => {
                Some(self.schedule.window_end(phase, self.d) - 1)
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
        self.point_at(phase + 1);
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
