//! Property-based tests (proptest) of the core data structures and invariants:
//! the gossip scheduler, the noise channel, the phase schedule, the Stage I/II
//! state machines, the population census and the dense counts population
//! representation.

use breathe::{Params, Position, Schedule, Stage1State, Stage2State};
use flip_model::{
    majority_bias, BinarySymmetricChannel, Census, Channel, GossipScheduler, Opinion,
    RumorProtocol, SimRng,
};
use proptest::prelude::*;

fn arb_opinion() -> impl Strategy<Value = Opinion> {
    prop_oneof![Just(Opinion::Zero), Just(Opinion::One)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------------------------------------------------------- scheduler

    /// Every sent message is either accepted or counted as a collision, no
    /// recipient accepts more than one message, and nobody delivers to itself.
    #[test]
    fn scheduler_conserves_messages(
        n in 2usize..40,
        senders in proptest::collection::vec((0usize..40, arb_opinion()), 0..60),
        seed in 0u64..1_000,
    ) {
        let senders: Vec<(u32, Opinion)> = senders
            .into_iter()
            .map(|(s, op)| ((s % n) as u32, op))
            .collect();
        let mut scheduler = GossipScheduler::new(n).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let routing = scheduler.route(&senders, &mut rng);

        prop_assert_eq!(routing.sent as usize, senders.len());
        prop_assert_eq!(
            routing.sent,
            routing.accepted().len() as u64 + routing.collided
        );
        let mut seen = vec![0u32; n];
        for delivery in routing.accepted() {
            prop_assert_ne!(delivery.sender.index(), delivery.recipient.index());
            seen[delivery.recipient.index()] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c <= 1));
    }

    // ------------------------------------------------------------------ channel

    /// A channel never invents new symbols and flips at a rate consistent with
    /// its crossover probability (within generous statistical slack).
    #[test]
    fn channel_flip_rate_is_consistent(crossover in 0.0f64..=0.5, seed in 0u64..500) {
        let channel = BinarySymmetricChannel::new(crossover).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let trials = 2_000u32;
        let flips = (0..trials)
            .filter(|_| channel.transmit(Opinion::One, &mut rng) == Opinion::Zero)
            .count() as f64;
        let rate = flips / f64::from(trials);
        prop_assert!((rate - crossover).abs() < 0.06);
        prop_assert!((channel.epsilon() - (0.5 - crossover)).abs() < 1e-12);
    }

    // ----------------------------------------------------------------- schedule

    /// Every round of a broadcast schedule belongs to exactly one phase, phases
    /// are visited in order, and the shifted schedule covers the same rounds
    /// plus gaps of exactly `d` between consecutive phase windows.
    #[test]
    fn schedule_positions_partition_time(
        n in 64usize..2_000,
        eps_milli in 120u32..450,
        d in 0u64..20,
    ) {
        let epsilon = f64::from(eps_milli) / 1_000.0;
        prop_assume!(epsilon >= 1.0 / (n as f64).sqrt());
        let params = Params::practical(n, epsilon).unwrap();
        let schedule = Schedule::broadcast(&params);

        let mut active = 0u64;
        let mut waiting = 0u64;
        let mut last_phase = 0usize;
        for t in 0..schedule.shifted_total_rounds(d) {
            match schedule.shifted_position(t, d) {
                Position::Active { phase, .. } => {
                    prop_assert!(phase >= last_phase);
                    last_phase = phase;
                    active += 1;
                }
                Position::Waiting { .. } => waiting += 1,
                Position::Done => {}
            }
        }
        prop_assert_eq!(active, schedule.total_rounds());
        prop_assert_eq!(waiting, d * (schedule.phase_count() as u64 - 1));
    }

    /// Parameter derivations respect the paper's structural constraints.
    #[test]
    fn params_derived_quantities_are_well_formed(
        n in 64usize..50_000,
        eps_milli in 60u32..500,
    ) {
        let epsilon = f64::from(eps_milli) / 1_000.0;
        prop_assume!(epsilon >= 1.0 / (n as f64).sqrt());
        let params = Params::practical(n, epsilon).unwrap();
        prop_assert_eq!(params.gamma() % 2, 1);
        prop_assert_eq!(params.final_samples() % 2, 1);
        prop_assert_eq!(params.boost_phase_len(), 2 * params.gamma());
        prop_assert_eq!(params.final_phase_len(), 2 * params.final_samples());
        prop_assert_eq!(
            params.total_rounds(),
            params.stage1_rounds() + params.stage2_rounds()
        );
        let schedule = Schedule::broadcast(&params);
        prop_assert_eq!(schedule.total_rounds(), params.total_rounds());
        prop_assert_eq!(
            schedule.spreading_phase_count(),
            params.stage1_intermediate_phases() + 2
        );
        // The majority-consensus entry phase is always within the schedule.
        for &set in &[1usize, 10, n / 2 + 1, n] {
            prop_assert!(params.majority_start_phase(set) <= params.stage1_intermediate_phases() + 1);
        }
    }

    // ------------------------------------------------------------------ stage I

    /// A Stage I agent adopts an opinion it actually heard during its
    /// activation phase, never speaks before its activation phase ends, and
    /// never changes its mind afterwards.
    #[test]
    fn stage1_adopts_only_heard_opinions(
        deliveries in proptest::collection::vec((0usize..6, arb_opinion()), 1..40),
        seed in 0u64..1_000,
    ) {
        let mut rng = SimRng::from_seed(seed);
        let mut state = Stage1State::uninformed();
        let mut sorted = deliveries.clone();
        sorted.sort_by_key(|(phase, _)| *phase);
        let activation_phase = sorted[0].0;
        let heard_in_activation: Vec<Opinion> = sorted
            .iter()
            .filter(|(phase, _)| *phase == activation_phase)
            .map(|(_, op)| *op)
            .collect();

        for phase in 0..=6usize {
            for (p, op) in &sorted {
                if *p == phase {
                    state.deliver(phase, *op, &mut rng);
                }
            }
            state.end_phase(phase);
        }

        prop_assert_eq!(state.level(), Some(activation_phase));
        let adopted = state.initial_opinion().unwrap();
        prop_assert!(heard_in_activation.contains(&adopted));
        // Never speaks during or before its activation phase.
        for phase in 0..=activation_phase {
            prop_assert_eq!(state.send(phase), None);
        }
        prop_assert_eq!(state.send(activation_phase + 1), Some(adopted));
    }

    // ----------------------------------------------------------------- stage II

    /// A successful Stage II agent adopts the majority of a subset of what it
    /// received: if the received messages are unanimous the new opinion matches
    /// them, and an unsuccessful agent never changes its opinion.
    #[test]
    fn stage2_end_phase_respects_received_messages(
        prior in proptest::option::of(arb_opinion()),
        unanimous in arb_opinion(),
        received in 0u64..60,
        seed in 0u64..1_000,
    ) {
        let mut rng = SimRng::from_seed(seed);
        let mut state = Stage2State::new();
        state.adopt(prior);
        for _ in 0..received {
            state.deliver(unanimous);
        }
        let phase_len = 40;
        let samples = 11;
        let successful = state.end_phase(phase_len, samples, &mut rng);
        if successful {
            prop_assert!(received >= phase_len / 2);
            prop_assert_eq!(state.opinion(), Some(unanimous));
        } else {
            prop_assert_eq!(state.opinion(), prior);
        }
        // Counters always reset.
        prop_assert_eq!(state.received_in_phase(), 0);
    }

    // ------------------------------------------------------------------- census

    /// Census counts are consistent with the majority-bias definition.
    #[test]
    fn census_and_majority_bias_are_consistent(zeros in 0usize..500, ones in 0usize..500) {
        let n = zeros + ones + 3;
        let census = Census::from_counts(zeros, ones, n);
        prop_assert_eq!(census.active(), zeros + ones);
        prop_assert_eq!(census.holding(Opinion::Zero), zeros);
        prop_assert_eq!(census.holding(Opinion::One), ones);
        let frac = census.fraction_correct(Opinion::One);
        prop_assert!((0.0..=1.0).contains(&frac));
        match census.majority() {
            Some(Opinion::One) => prop_assert!(ones > zeros),
            Some(Opinion::Zero) => prop_assert!(zeros > ones),
            None => prop_assert_eq!(zeros, ones),
        }
        let bias = majority_bias(ones.max(zeros), ones.min(zeros));
        prop_assert!((0.0..=0.5).contains(&bias));
    }

    // ------------------------------------------------------ dense population

    /// The dense counts representation agrees with `Census::from_counts` for
    /// every split of a population into zeros, ones and undecided agents
    /// (`zeros + ones <= n`).
    #[test]
    fn dense_population_and_bitmap_census_match_counts(
        zeros in 0u64..300,
        ones in 0u64..300,
        undecided in 0u64..300,
    ) {
        let n = zeros + ones + undecided;
        prop_assume!(n >= 2);
        let expected = Census::from_counts(zeros as usize, ones as usize, n as usize);

        // Counts path: state layout [undecided, zeros, ones] (RumorProtocol).
        let population = RumorProtocol::population(n, zeros, ones);
        prop_assert_eq!(population.n(), n);
        prop_assert_eq!(population.counts().iter().sum::<u64>(), n);
        let census = population.census(&RumorProtocol);
        prop_assert_eq!(census, expected);
        prop_assert!(census.active() <= census.population());
        prop_assert_eq!(census.active() as u64, zeros + ones);

    }

}
