//! Proof that the per-agent engine's round loop is allocation-free after
//! warm-up.
//!
//! A counting global allocator wraps the system allocator; the test runs a
//! simulation for a warm-up period (growing the send buffer, the routing
//! build buffer and the scheduler's internal word/recipient buffers to their
//! steady-state sizes), snapshots the allocation counter, runs hundreds more
//! rounds and asserts the counter did not move.
//!
//! The counter is *per-thread* (const-initialised TLS, so reading it never
//! allocates): the libtest harness's own threads allocate sporadically while
//! a test runs, and a process-global counter would make the assertion flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use breathe::{BroadcastProtocol, Params};
use breathe_paper as _;
use flip_model::{
    Agent, BinarySymmetricChannel, Channel, FlipEngine, Opinion, OpinionDelta, Round, RumorAgent,
    SimRng, Simulation, SimulationConfig,
};

thread_local! {
    /// Allocations made by this thread (const-init: no lazy allocation, no
    /// destructor, so it is safe to touch from inside the allocator).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a const-initialised thread-local with no effect on allocation
// behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// An agent whose population keeps churning forever (so the round loop does
/// real routing, noise and delivery work every round): it always pushes and
/// adopts whatever it hears.
struct Churner(Opinion);

impl Agent for Churner {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        Some(self.0)
    }
    fn deliver(&mut self, _round: Round, message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        let before = self.0;
        self.0 = message;
        OpinionDelta::between(Some(before), Some(self.0))
    }
    fn opinion(&self) -> Option<Opinion> {
        Some(self.0)
    }
}

#[test]
fn simulation_round_loop_is_allocation_free_after_warm_up() {
    let n = 2_000usize;

    // A churning all-send population over a noisy channel: every phase of
    // the round loop (send collection, routing, fused noise, delivery,
    // census upkeep) does maximal work each round.
    let agents: Vec<Churner> = (0..n)
        .map(|i| Churner(Opinion::from_bit(u8::from(i % 2 == 0))))
        .collect();
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let config = SimulationConfig::new(n).with_seed(77);
    let mut sim = Simulation::new(agents, channel, config).unwrap();

    // Warm-up: buffers grow to steady state.
    sim.run(50);

    let before = thread_allocations();
    sim.run(300);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "the round loop allocated {} time(s) after warm-up",
        after - before
    );

    // The same holds for a sparse-sender protocol whose accepted counts
    // fluctuate round to round (the routing buffer is pre-sized to the
    // population, so fluctuation can never force a reallocation).
    let agents = RumorAgent::population(n, 0, 5);
    let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
    let config = SimulationConfig::new(n).with_seed(78);
    let mut sim = Simulation::new(agents, channel, config).unwrap();
    sim.run(50);

    let before = thread_allocations();
    sim.run(300);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "the rumor round loop allocated {} time(s) after warm-up",
        after - before
    );
}

/// A fixed-crossover channel that flips all but a 2⁻⁴⁰ share of messages:
/// the fused noise path's worst case, one flip position per message.
struct AlmostAlwaysFlips;

impl Channel for AlmostAlwaysFlips {
    fn transmit(&self, message: Opinion, _rng: &mut SimRng) -> Opinion {
        message.flipped()
    }

    fn crossover(&self) -> f64 {
        1.0 - 2f64.powi(-40)
    }

    fn fixed_crossover(&self) -> Option<f64> {
        Some(self.crossover())
    }
}

/// Stays silent for `quiet` rounds, then pushes its opinion every round.
struct LateSender {
    opinion: Opinion,
    quiet: Round,
}

impl Agent for LateSender {
    const RNG_FREE_HOOKS: bool = true;

    fn next_end_round(&self, _round: Round) -> Round {
        Round::MAX
    }

    fn send(&mut self, round: Round, _rng: &mut SimRng) -> Option<Opinion> {
        (round >= self.quiet).then_some(self.opinion)
    }
    fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
        OpinionDelta::NONE
    }
    fn opinion(&self) -> Option<Opinion> {
        Some(self.opinion)
    }
}

#[test]
fn rounds_in_which_every_message_flips_are_allocation_free() {
    // Two agents are each other's only peer, so once they both push, every
    // round accepts all n messages; with this channel all of them flip, and
    // the flip buffer holds n positions plus its end sentinel.  The warm-up
    // rounds are silent, so the first such round falls in the measured
    // window.
    let quiet = 5;
    let agents: Vec<LateSender> = Opinion::ALL
        .into_iter()
        .map(|opinion| LateSender { opinion, quiet })
        .collect();
    let n = agents.len();
    let config = SimulationConfig::new(n).with_seed(81);
    let mut sim = Simulation::new(agents, AlmostAlwaysFlips, config).unwrap();
    sim.run(quiet);
    assert_eq!(sim.metrics().messages_sent, 0);

    let rounds = 20;
    let before = thread_allocations();
    sim.run(rounds);
    let after = thread_allocations();
    assert_eq!(
        sim.metrics().bits_flipped,
        rounds * n as u64,
        "every accepted message must flip"
    );
    assert_eq!(
        after - before,
        0,
        "rounds in which every message flips allocated {} time(s)",
        after - before
    );
}

#[test]
fn breathe_rounds_are_allocation_free_across_phase_ends() {
    // The paper's protocol: phase cursors, end-of-round loops at phase
    // ends, the Stage I to Stage II handover and Stage II's sample draws
    // all run on the agents' fixed-size state.
    let params = Params::practical(2_000, 0.3).unwrap();
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let schedule = protocol.schedule();
    let mut sim = protocol.build_simulation(80).unwrap();
    // Warm-up runs into phase 1, whose senders (the agents activated in
    // phase 0) take the sparse routing buffer to its high-water mark.
    let warm_up = schedule.phases()[0].end() + 1;
    sim.run(warm_up);

    // Measure up to the end of the second Stage II phase.
    let second_boost = schedule.phases()[schedule.spreading_phase_count() + 1];
    let measured = second_boost.end() - warm_up;
    let phase_ends = schedule
        .phases()
        .iter()
        .filter(|phase| (warm_up..second_boost.end()).contains(&(phase.end() - 1)))
        .count();
    assert!(
        phase_ends >= 2,
        "the window crosses {phase_ends} phase end(s)"
    );

    let before = thread_allocations();
    sim.run(measured);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "the breathe round loop allocated {} time(s) over {phase_ends} phase ends",
        after - before
    );
}

#[test]
fn parallel_radix_rounds_are_allocation_free_after_warm_up() {
    // The same crossover population with four worker lanes: the parallel
    // scatter/resolve/emit path stages into per-lane regions owned by
    // `RoundRouting`/`GossipScheduler` (pre-sized at construction), and a
    // `RoundPool` dispatch is a futex wake, not an allocation.  `Churner`
    // declares RNG-free hooks, so the send pass and the delivery walk run
    // on the lanes too, writing into the send buffer sized on the first
    // round.  The counter is per-thread, so this asserts the caller lane —
    // which runs the full dispatch machinery plus its share of every phase
    // — allocates nothing; the worker lanes execute the identical phase
    // code on their own pre-sized regions.
    let n = flip_model::RADIX_MIN_N;
    let agents: Vec<Churner> = (0..n)
        .map(|i| Churner(Opinion::from_bit(u8::from(i % 2 == 0))))
        .collect();
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let config = SimulationConfig::new(n).with_seed(79).with_threads(4);
    let mut sim = Simulation::new(agents, channel, config).unwrap();

    sim.run(5);

    let before = thread_allocations();
    sim.run(20);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "the parallel radix round loop allocated {} time(s) after warm-up",
        after - before
    );
}

#[test]
fn radix_routed_rounds_are_allocation_free_after_warm_up() {
    // A population at the radix crossover: dense all-send rounds run
    // through the cache-bucketed staging path (fixed-capacity bucket areas
    // + spill list inside `RoundRouting`/`GossipScheduler`), which must be
    // just as allocation-free as the single-pass path once warmed up.
    let n = flip_model::RADIX_MIN_N;
    let agents: Vec<Churner> = (0..n)
        .map(|i| Churner(Opinion::from_bit(u8::from(i % 2 == 0))))
        .collect();
    let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
    let config = SimulationConfig::new(n).with_seed(79);
    let mut sim = Simulation::new(agents, channel, config).unwrap();

    sim.run(5);

    let before = thread_allocations();
    sim.run(20);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "the radix round loop allocated {} time(s) after warm-up",
        after - before
    );
}
