//! Push-gossip routing with per-recipient collision resolution.

use crate::agent::AgentId;
use crate::error::FlipError;
use crate::opinion::Opinion;
use crate::pool::{RoundPool, MAX_WORKERS};
use crate::rng::SimRng;
use telemetry::{Event, Phase, Telemetry};

/// A message accepted by its recipient in one round, before channel noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The agent that pushed the message.
    pub sender: AgentId,
    /// The agent that accepted the message.
    pub recipient: AgentId,
    /// The transmitted opinion as it left the sender (noise is applied later).
    pub payload: Opinion,
}

const PLACEHOLDER: Delivery = Delivery {
    sender: AgentId::new(0),
    recipient: AgentId::new(0),
    payload: Opinion::Zero,
};

/// Population size at and above which [`GossipScheduler::route_into`] routes
/// dense rounds through the radix-bucketed path.
///
/// Chosen by benchmark (the `substrate/route_radix` vs
/// `substrate/route_single_pass` pairs): the single-scatter path wins while
/// the packed reservoir slots stay close enough to the core that the
/// out-of-order window hides their random-access latency, and the radix
/// path's streaming passes win once the slot array falls out of the private
/// caches and each scatter write turns into a far-cache round trip.  On the
/// reference machine a dense all-send break-even scan put the cross between
/// `n ≈ 1.3×10⁵` and `n = 2×10⁵`, with the radix win growing to ~1.3× at
/// `n = 10⁶` and ~2.2× at `n = 2×10⁶`.  `2¹⁷` sits at the measured parity
/// point, so the dispatch is never worse than single-pass and captures the
/// full large-`n` win.
pub const RADIX_MIN_N: usize = 1 << 17;

/// Recipients per radix bucket, as a shift: buckets of `2¹³` agents make an
/// 8-byte-per-slot reservoir window of 64 KiB — small enough to stay
/// resident in any L2 together with the bucket's staging area, large enough
/// that per-bucket bookkeeping is negligible.
pub const RADIX_BUCKET_BITS: u32 = 13;

/// Dense/sparse round threshold, as a shift: a round is *dense* when
/// `m ≥ n >> DENSE_SEND_SHIFT` (at least one message per eight agents).
/// Dense rounds emit by sweeping the reservoir slots in recipient order
/// (O(n) sequential); sparse rounds walk the messages in first-arrival
/// order (O(m) random, but `m` is small).  Benchmark-chosen: the sweep's
/// ~1 ns/slot sequential cost breaks even with the ~6 ns/message random
/// gather around one message per 6–10 agents.
const DENSE_SEND_SHIFT: u32 = 3;

/// The outcome of routing one round of push gossip.
///
/// Designed for reuse: [`GossipScheduler::route_into`] refills an existing
/// instance, so a long-running simulation routes every round into one buffer
/// with zero per-round allocation.  The accepted messages live in a
/// population-sized build buffer (whose tail doubles as the routing loop's
/// discard slot) and are exposed as the [`accepted`](RoundRouting::accepted)
/// prefix slice.
///
/// The instance also owns the message-sized staging array of the radix
/// path ([`GossipScheduler::route_into_radix`]): the packed reservoir
/// words, grouped into their recipients' cache buckets.
/// [`with_capacity`](RoundRouting::with_capacity) sizes it eagerly for
/// populations at or above the radix crossover — ~8.6 MB at `n = 10⁶`,
/// deliberately traded for a hard never-allocates-after-construction
/// guarantee on the hot path — while instances built through
/// [`Default`] grow it on the first radix round and reuse it afterwards.
/// Either way the round loop is allocation-free at steady state on both
/// routing paths.
#[derive(Debug, Clone, Default)]
pub struct RoundRouting {
    /// Build buffer: `accepted_len` live entries, then scratch (the very
    /// last entry is the discard slot for losing reservoir writes).
    buffer: Vec<Delivery>,
    accepted_len: usize,
    /// Number of messages pushed this round.
    pub sent: u64,
    /// Number of messages dropped because their recipient accepted another one.
    pub collided: u64,
    /// Radix staging: packed reservoir words (each carrying its in-bucket
    /// recipient offset), grouped by recipient bucket.
    staged: Vec<u64>,
}

impl RoundRouting {
    /// An empty routing pre-sized for a population of `capacity` agents (at
    /// most one accepted message per recipient, so routing into it can never
    /// allocate).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        // Pre-size the radix staging too when the population is large
        // enough to route through it, so `route_into` never allocates.
        let staged = if capacity >= RADIX_MIN_N {
            GossipScheduler::radix_staged_len(capacity, capacity)
        } else {
            0
        };
        Self {
            buffer: vec![PLACEHOLDER; capacity + 1],
            accepted_len: 0,
            sent: 0,
            collided: 0,
            staged: vec![0; staged],
        }
    }

    /// Pre-grows the radix staging for parallel rounds of up to `lanes`
    /// lanes over a population of `n` (sized for the worst-case all-send
    /// round), so a warmed-up engine's parallel rounds never allocate.
    pub(crate) fn reserve_parallel(&mut self, n: usize, lanes: usize) {
        let staged = GossipScheduler::radix_parallel_staged_len(n, n, lanes);
        if self.staged.len() < staged {
            self.staged.resize(staged, 0);
        }
    }

    /// Messages accepted by their recipients (one per receiving agent at most).
    #[must_use]
    pub fn accepted(&self) -> &[Delivery] {
        &self.buffer[..self.accepted_len]
    }
}

impl PartialEq for RoundRouting {
    fn eq(&self, other: &Self) -> bool {
        // Only the live prefix is meaningful; the scratch tail is garbage.
        self.sent == other.sent
            && self.collided == other.collided
            && self.accepted() == other.accepted()
    }
}

impl Eq for RoundRouting {}

/// Routes pushed messages to uniformly random recipients and resolves collisions.
///
/// The scheduler implements exactly the interaction pattern of the paper
/// (§1.3.2): each pushed message is addressed to an agent chosen uniformly at
/// random among the *other* `n − 1` agents, and an agent that receives several
/// messages in the same round accepts one of them chosen uniformly at random.
///
/// # Hot-path design
///
/// Message `i`'s random word is re-mixed on demand from a counter base
/// reserved with [`SimRng::reserve_block`] (no word buffer exists); the low
/// half maps to the recipient with a cached-threshold 32-bit Lemire
/// multiply-shift (exact — the rare rejection redraws re-mix the message's
/// own word, so every recipient is a pure function of its block word and
/// the whole stream is partition-invariant across workers)
/// and the whole message collapses into one *packed reservoir word*
///
/// ```text
/// priority(18 bits, low bit forced 1) ┃ sender(31) ┃ payload(1) ┃ bucket offset(14)
///          bits 63..46                ┃ bits 45..15┃   bit 14   ┃    bits 13..0
/// ```
///
/// so per-recipient collision resolution is a single branch-free
/// `slot = max(slot, word)`: the highest priority wins, which picks a
/// uniformly random arrival up to ties.  Exact priority ties — probability
/// `2⁻¹⁷` per colliding pair, versus `2⁻³¹` for the previous 31-bit
/// priority, so ~16000× more frequent than before — fall through to the
/// sender bits and deterministically favour the higher sender index
/// (roughly four sender-biased deliveries per million-message round,
/// where the old design had effectively none).  That deviation from exact
/// uniformity is the price of fitting the whole message in one staging
/// word, and remains orders of magnitude below anything the statistical
/// suite — or any experiment at feasible trial counts — can resolve.  A
/// zero slot means "no arrivals" (drawn priorities
/// have their low bit forced), the winning slot *is* the delivery — no
/// lookup back into the send list — and the word carries its recipient's
/// in-bucket offset so the radix path stages whole messages as single
/// `u64`s: one write stream per bucket, write-combining-friendly.
///
/// Emission order is a deterministic function of `(n, m)`, identical on
/// every routing path: **dense** rounds (`m ≥ n/8`) sweep the slots in
/// recipient order (sequential, and recipients arrive pre-sorted for the
/// engine's delivery loop), **sparse** rounds walk messages in
/// first-arrival order (O(m) instead of an O(n) sweep).
///
/// Two routing paths implement these semantics bit-identically, selected by
/// population size (see [`RADIX_MIN_N`]):
///
/// * [`route_into_single_pass`](GossipScheduler::route_into_single_pass) —
///   scatter straight into the population-wide slot array.  Optimal while
///   random slot accesses stay within reach of the cache hierarchy's
///   latency-hiding.
/// * [`route_into_radix`](GossipScheduler::route_into_radix) — stage each
///   message into its recipient's cache bucket (`bucket = recipient >>`
///   [`RADIX_BUCKET_BITS`]) in one streaming pass, then max-resolve bucket
///   by bucket inside one 64 KiB window.  Because `max` is commutative, the
///   buckets use fixed-capacity staging areas with a tiny spill list
///   instead of an exact-histogram pre-pass — one streaming write per
///   message, no second scan of the send list.
///
/// The scheduler reuses internal buffers across rounds, so a single instance
/// should be kept for the lifetime of a simulation.
#[derive(Debug, Clone)]
pub struct GossipScheduler {
    n: usize,
    /// `n − 1` (the recipient span), as the 32-bit Lemire multiplier.
    span: u32,
    /// `2^32 mod span`: the cached Lemire rejection threshold.
    threshold: u32,
    /// Packed per-recipient reservoir words (see the struct docs); the
    /// radix path uses only the first `2^RADIX_BUCKET_BITS` entries as its
    /// bucket window.
    slots: Vec<u64>,
    /// Recipient of each message this round (sparse rounds only, for the
    /// first-arrival emission walk).
    recipients: Vec<u32>,
    /// Per-bucket staging write cursors for the radix scatter pass.
    bucket_cursors: Vec<u32>,
    /// Radix staging overflow: `(recipient, packed word)` for the rare
    /// messages whose bucket filled its fixed-capacity staging area.
    spill: Vec<(u32, u64)>,
    /// Per-worker spill lists for the parallel scatter (worker `w` owns
    /// `spills[w]`; the resolve phase reads all of them, in any order —
    /// `max` is commutative).
    spills: Vec<Vec<(u32, u64)>>,
    /// Accepted-delivery count per bucket, filled by the parallel resolve
    /// phase so emission offsets can be prefix-summed.
    bucket_accepted: Vec<u32>,
    /// Exclusive prefix sums of `bucket_accepted` (`bucket_count + 1`
    /// entries): bucket `b` emits into `buffer[offsets[b]..offsets[b + 1]]`.
    bucket_offsets: Vec<u32>,
    /// Test-only override of the per-bucket staging capacity, so the spill
    /// path can be forced deterministically (a correctly sized capacity
    /// makes natural spills ~6σ events no test could wait for).
    #[cfg(test)]
    forced_bucket_capacity: Option<usize>,
}

impl GossipScheduler {
    /// Creates a scheduler for a population of `n` agents.
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if `n < 2`, or
    /// [`FlipError::InvalidParameter`] if `n` exceeds the 31-bit routing
    /// index range (sender indices share a 32-bit lane with the payload bit
    /// in the packed reservoir word; `2³¹` agents is also far past any
    /// population the per-agent engine could hold in memory).
    pub fn new(n: usize) -> Result<Self, FlipError> {
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n });
        }
        if n > 1 << 31 {
            return Err(FlipError::InvalidParameter {
                name: "population",
                message: format!("population {n} exceeds the 31-bit routing-index range"),
            });
        }
        let span = (n - 1) as u32;
        Ok(Self {
            n,
            span,
            threshold: span.wrapping_neg() % span,
            slots: vec![0; n],
            recipients: Vec::new(),
            bucket_cursors: Vec::new(),
            // Pre-sized so that the (≈ never taken) spill path does not
            // allocate mid-round; 1024 entries is > 6σ beyond any real
            // overflow mass.
            spill: Vec::with_capacity(1024),
            spills: Vec::new(),
            bucket_accepted: Vec::new(),
            bucket_offsets: Vec::new(),
            #[cfg(test)]
            forced_bucket_capacity: None,
        })
    }

    /// The population size this scheduler routes for.
    #[must_use]
    pub fn population(&self) -> usize {
        self.n
    }

    /// Whether a round of `m` sends emits in recipient order (dense) or
    /// first-arrival message order (sparse); see the struct docs.
    #[inline]
    pub(crate) fn is_dense(&self, m: usize) -> bool {
        m >= self.n >> DENSE_SEND_SHIFT
    }

    /// Per-bucket staging capacity for a round of `m` sends over a
    /// population of `n`: the expected bucket load plus `6σ` slack, so the
    /// spill list stays empty for all practical purposes.
    fn radix_bucket_capacity(n: usize, m: usize) -> usize {
        // The mean must be a *full* bucket's expected share of the
        // messages, `m · 2^bits / n` — dividing by the bucket count would
        // understate it whenever the trailing bucket is partial (or, for
        // exact multiples, permanently empty), eroding the 6σ slack to a
        // fraction of a σ and pushing steady traffic into the spill list.
        // No overflow: `m ≤ n ≤ 2³¹`, so `m << 13 < 2⁴⁴`.
        let mean = (m << RADIX_BUCKET_BITS).div_ceil(n);
        mean + 6 * ((mean as f64).sqrt() as usize) + 16
    }

    /// Total staging length the radix path needs for `m` sends over `n`
    /// agents (monotone in `m`, so sizing for `m = n` covers every round).
    fn radix_staged_len(n: usize, m: usize) -> usize {
        ((n >> RADIX_BUCKET_BITS) + 1) * Self::radix_bucket_capacity(n, m)
    }

    /// Total staging length the *parallel* radix path needs for `m` sends
    /// over `n` agents split across `lanes` lanes: each lane gets its own
    /// fixed-capacity area per bucket, sized for its message chunk.
    fn radix_parallel_staged_len(n: usize, m: usize, lanes: usize) -> usize {
        let lanes = lanes.clamp(1, m.max(1));
        let chunk_len = m.max(1).div_ceil(lanes);
        let lanes = m.max(1).div_ceil(chunk_len);
        let bucket_count = n.div_ceil(1 << RADIX_BUCKET_BITS);
        lanes * bucket_count * Self::radix_bucket_capacity(n, chunk_len)
    }

    /// Pre-grows the parallel path's per-lane bookkeeping (staging cursors,
    /// spill lists, per-bucket accepted counts and emission offsets) for
    /// rounds of up to `lanes` lanes, so a warmed-up engine's parallel
    /// rounds never allocate.
    pub(crate) fn reserve_parallel(&mut self, lanes: usize) {
        let lanes = lanes.max(1);
        let bucket_count = self.n.div_ceil(1 << RADIX_BUCKET_BITS);
        if self.bucket_cursors.len() < lanes * bucket_count {
            self.bucket_cursors.resize(lanes * bucket_count, 0);
        }
        while self.spills.len() < lanes {
            self.spills.push(Vec::with_capacity(1024));
        }
        if self.bucket_accepted.len() < bucket_count {
            self.bucket_accepted.resize(bucket_count, 0);
        }
        if self.bucket_offsets.len() < bucket_count + 1 {
            self.bucket_offsets.resize(bucket_count + 1, 0);
        }
    }

    /// Routes one round of sends into a fresh [`RoundRouting`].
    ///
    /// Equivalent to [`route_into`](GossipScheduler::route_into) with a new
    /// output buffer, no pool and telemetry off; hot loops should hold one
    /// `RoundRouting` and call `route_into` instead to avoid the per-round
    /// allocation.
    pub fn route(&mut self, sends: &[(u32, Opinion)], rng: &mut SimRng) -> RoundRouting {
        let mut out = RoundRouting::with_capacity(self.n);
        self.route_into(sends, rng, &mut out, None, &mut Telemetry::off());
        out
    }

    /// Routes one round of sends, reusing `out`'s buffers.
    ///
    /// `sends` lists `(sender index, opinion)` pairs for every agent that chose
    /// to push a message this round.  Each message is assigned a uniformly
    /// random recipient different from its sender; each recipient keeps one
    /// arriving message uniformly at random (highest reservoir priority).
    ///
    /// Dispatches dense rounds of populations of at least [`RADIX_MIN_N`]
    /// agents to the cache-bucketed radix path, fanned across `pool`'s lanes
    /// when a pool is given, and everything else to the single-pass path.
    /// Every path consumes the same RNG stream and produces bit-identical
    /// routings, so neither the crossover nor the lane count is visible to
    /// callers (`tests/radix_routing.rs` pins this across lanes, population
    /// and density).
    ///
    /// `tel` receives phase timings and event counts.  Telemetry is
    /// observational only: it never touches `rng`, so the routing (and the
    /// post-round RNG state) is bit-identical whether it is enabled or not.
    ///
    /// After the first call with this scheduler's population, `out` never
    /// allocates again.
    pub fn route_into(
        &mut self,
        sends: &[(u32, Opinion)],
        rng: &mut SimRng,
        out: &mut RoundRouting,
        pool: Option<&RoundPool>,
        tel: &mut Telemetry,
    ) {
        if self.n >= RADIX_MIN_N && self.is_dense(sends.len()) {
            match pool {
                Some(pool) => self.route_into_radix_parallel(sends, rng, out, pool, tel),
                None => self.route_into_radix(sends, rng, out, tel),
            }
        } else {
            self.route_into_single_pass(sends, rng, out, tel);
        }
    }

    /// Grows the output buffer; a no-op after the first round.
    fn grow_buffer(&self, out: &mut RoundRouting) {
        if out.buffer.len() < self.n + 1 {
            out.buffer.resize(self.n + 1, PLACEHOLDER);
        }
    }

    /// Draws a message's uniform recipient among the other `n − 1` agents
    /// from its pre-drawn `word` (32-bit Lemire multiply-shift with the
    /// cached rejection `threshold`; exact — the cold rejection path redraws
    /// by re-mixing the message's *own* word instead of pulling from the
    /// live stream).
    ///
    /// The redraw chain — attempt `t` uses
    /// [`SimRng::block_word`]`(word, t)`, each output an independent
    /// SplitMix64 mix of the original draw — is a pure function of `word`,
    /// so a message's recipient depends only on its reserved block word and
    /// never on which other messages were routed before it.  That makes the
    /// whole recipient stream *partition-invariant*: the parallel scatter
    /// can hand any message range to any worker and still produce the exact
    /// recipients of the sequential walk, and the post-round RNG state is
    /// always precisely `reserve_block(m)` past the pre-round state.
    ///
    /// An associated function (not a method) so the parallel scatter workers
    /// can call it with copied `span`/`threshold` without borrowing the
    /// scheduler.
    /// Returns the recipient plus the number of rejection redraws the draw
    /// cost (almost always 0; surfaced as [`Event::LemireRedraws`]).
    #[inline(always)]
    fn draw_recipient(word: u64, sender: usize, span: u32, threshold: u32) -> (usize, u64) {
        let mut product = u64::from(word as u32) * u64::from(span);
        let mut attempt = 0usize;
        while (product as u32) < threshold {
            let redraw = SimRng::block_word(word, attempt);
            attempt += 1;
            product = u64::from(redraw as u32) * u64::from(span);
        }
        let recipient = (product >> 32) as usize;
        (recipient + usize::from(recipient >= sender), attempt as u64)
    }

    /// [`Self::draw_recipient`] with this scheduler's cached span/threshold.
    #[inline(always)]
    fn recipient_of(&self, word: u64, sender: usize) -> (usize, u64) {
        Self::draw_recipient(word, sender, self.span, self.threshold)
    }

    /// The packed reservoir word of a message (see the struct docs): the
    /// priority drawn from the top of `word`, the sender, the payload bit
    /// and the recipient's offset within its radix bucket.
    #[inline(always)]
    fn packed_word(word: u64, sender: u32, payload: Opinion, recipient: usize) -> u64 {
        let offset = (recipient as u64) & ((1 << RADIX_BUCKET_BITS) - 1);
        (((word >> 46) | 1) << 46)
            | (u64::from(sender) << 15)
            | (u64::from(payload.as_bit()) << 14)
            | offset
    }

    /// Unpacks a winning reservoir word into its delivery.
    #[inline(always)]
    fn delivery_of(pword: u64, recipient: usize) -> Delivery {
        Delivery {
            sender: AgentId::new(((pword >> 15) & 0x7FFF_FFFF) as usize),
            recipient: AgentId::new(recipient),
            payload: Opinion::from_bit((pword >> 14) as u8 & 1),
        }
    }

    /// Emits deliveries by sweeping `slots[0..n]` in recipient order,
    /// zeroing each slot for the next round.  Branch-free: empty slots
    /// write to the current position without advancing it.
    fn emit_dense(&mut self, m: usize, out: &mut RoundRouting) {
        let mut accepted_len = 0usize;
        for (recipient, slot) in self.slots.iter_mut().enumerate() {
            let pword = *slot;
            *slot = 0;
            out.buffer[accepted_len] = Self::delivery_of(pword, recipient);
            accepted_len += usize::from(pword != 0);
        }
        out.accepted_len = accepted_len;
        out.sent = m as u64;
        out.collided = m as u64 - accepted_len as u64;
    }

    /// The single-pass routing path: scatter each message's packed word
    /// straight into its recipient's reservoir slot, then emit.
    ///
    /// This is [`route_into`](GossipScheduler::route_into)'s default path
    /// (public so benchmarks and the equivalence tests can pin it against
    /// the radix path at any size): the random slot accesses carry no
    /// loop-borne dependency, so the out-of-order core keeps many cache
    /// misses in flight at once.
    pub fn route_into_single_pass(
        &mut self,
        sends: &[(u32, Opinion)],
        rng: &mut SimRng,
        out: &mut RoundRouting,
        tel: &mut Telemetry,
    ) {
        let m = sends.len();
        self.grow_buffer(out);
        let span = tel.begin();
        let base = rng.reserve_block(m);
        tel.end(Phase::RngReserve, span);
        let mut redraws = 0u64;

        if self.is_dense(m) {
            let span = tel.begin();
            for (i, &(sender, payload)) in sends.iter().enumerate() {
                debug_assert!((sender as usize) < self.n, "sender index out of range");
                let word = SimRng::block_word(base, i);
                let (recipient, attempts) = self.recipient_of(word, sender as usize);
                redraws += attempts;
                let slot = &mut self.slots[recipient];
                *slot = (*slot).max(Self::packed_word(word, sender, payload, recipient));
            }
            tel.end(Phase::Scatter, span);
            tel.add(Event::LemireRedraws, redraws);
            let span = tel.begin();
            self.emit_dense(m, out);
            tel.end(Phase::SweepEmit, span);
            return;
        }

        // Sparse: remember each message's recipient so emission can walk
        // the (few) messages in first-arrival order instead of sweeping
        // all n slots.
        if self.recipients.len() < m {
            self.recipients.resize(m, 0);
        }
        let span = tel.begin();
        for (i, &(sender, payload)) in sends.iter().enumerate() {
            debug_assert!((sender as usize) < self.n, "sender index out of range");
            let word = SimRng::block_word(base, i);
            let (recipient, attempts) = self.recipient_of(word, sender as usize);
            redraws += attempts;
            self.recipients[i] = recipient as u32;
            let slot = &mut self.slots[recipient];
            *slot = (*slot).max(Self::packed_word(word, sender, payload, recipient));
        }
        tel.end(Phase::Scatter, span);
        tel.add(Event::LemireRedraws, redraws);

        // First-arrival emission: the first walk past a recipient finds its
        // winning word and zeroes the slot, so duplicates emit nothing.
        let span = tel.begin();
        let mut accepted_len = 0usize;
        for &recipient in &self.recipients[..m] {
            let slot = &mut self.slots[recipient as usize];
            let pword = *slot;
            *slot = 0;
            out.buffer[accepted_len] = Self::delivery_of(pword, recipient as usize);
            accepted_len += usize::from(pword != 0);
        }
        out.accepted_len = accepted_len;
        out.sent = m as u64;
        out.collided = m as u64 - accepted_len as u64;
        tel.end(Phase::SweepEmit, span);
    }

    /// The cache-bucketed radix routing path: stage each message into its
    /// recipient's bucket, then max-resolve and emit bucket by bucket
    /// inside one cache-resident window.
    ///
    /// Bit-identical to
    /// [`route_into_single_pass`](GossipScheduler::route_into_single_pass)
    /// from an equal RNG state — same word stream, same rejection redraws,
    /// same winners, same emission order — the routing equivalence tests
    /// pin this at `n ∈ {10³, 10⁵, 10⁶}`.  Dense rounds run three
    /// streaming phases:
    ///
    /// 1. **Scatter** — draw each recipient from its block word (a pure
    ///    per-message function, so the draws match the single-pass path
    ///    word for word) and append the packed word to its bucket's staging
    ///    area.
    ///    Buckets have fixed capacity (expected load + 6σ); the rare
    ///    overflow goes to a spill list.  `max` is commutative, so staging
    ///    order — and spill — cannot affect the result.
    /// 2. **Resolve** — per bucket: max-fold the staged words (and any of
    ///    the bucket's spilled words) into a 64 KiB slot window that stays
    ///    cache-resident throughout.
    /// 3. **Emit** — sweep the window in recipient order, zeroing as it
    ///    goes; buckets are visited in order, so the global emission order
    ///    is exactly the dense recipient order of the single-pass path.
    ///
    /// Sparse rounds (`m < n/8`) delegate to the single-pass path: with few
    /// messages the scatter misses are few, and the bucket machinery would
    /// cost more than it saves.  In `tel`, the fused resolve + emit pass is
    /// attributed to [`Phase::WindowResolve`].
    pub fn route_into_radix(
        &mut self,
        sends: &[(u32, Opinion)],
        rng: &mut SimRng,
        out: &mut RoundRouting,
        tel: &mut Telemetry,
    ) {
        let m = sends.len();
        if !self.is_dense(m) {
            self.route_into_single_pass(sends, rng, out, tel);
            return;
        }
        self.grow_buffer(out);
        let bucket_count = (self.n >> RADIX_BUCKET_BITS) + 1;
        let capacity = Self::radix_bucket_capacity(self.n, m);
        #[cfg(test)]
        let capacity = self.forced_bucket_capacity.unwrap_or(capacity);
        let staged_len = bucket_count * capacity;
        if out.staged.len() < staged_len {
            out.staged.resize(staged_len, 0);
        }
        if self.bucket_cursors.len() < bucket_count {
            self.bucket_cursors.resize(bucket_count, 0);
        }
        let span = tel.begin();
        let base = rng.reserve_block(m);
        tel.end(Phase::RngReserve, span);

        // Phase 1 — scatter into the fixed-capacity staging areas: one
        // sequential write stream per bucket (the staged word carries the
        // in-bucket offset, so a message is a single 8-byte append) instead
        // of a population-wide random scatter.
        let span = tel.begin();
        for b in 0..bucket_count {
            self.bucket_cursors[b] = (b * capacity) as u32;
        }
        self.spill.clear();
        let bucket_mask = (1u32 << RADIX_BUCKET_BITS) - 1;
        let mut redraws = 0u64;
        for (i, &(sender, payload)) in sends.iter().enumerate() {
            debug_assert!((sender as usize) < self.n, "sender index out of range");
            let word = SimRng::block_word(base, i);
            let (recipient, attempts) = self.recipient_of(word, sender as usize);
            redraws += attempts;
            let pword = Self::packed_word(word, sender, payload, recipient);
            let bucket = recipient >> RADIX_BUCKET_BITS;
            let at = self.bucket_cursors[bucket] as usize;
            if at < (bucket + 1) * capacity {
                out.staged[at] = pword;
                self.bucket_cursors[bucket] = at as u32 + 1;
            } else {
                self.spill.push((recipient as u32, pword));
            }
        }
        tel.end(Phase::Scatter, span);
        tel.add(Event::LemireRedraws, redraws);
        tel.add(Event::RadixSpills, self.spill.len() as u64);
        if tel.is_enabled() {
            let high_water = (0..bucket_count)
                .map(|b| u64::from(self.bucket_cursors[b]) - (b * capacity) as u64)
                .max()
                .unwrap_or(0);
            tel.observe_max(Event::StagingHighWater, high_water);
        }

        // Phases 2 + 3 — per bucket: max-resolve staged (+ spilled) words
        // in the resident window, then sweep-emit in recipient order.
        let span = tel.begin();
        let window_len = 1usize << RADIX_BUCKET_BITS;
        let offset_mask = (1u64 << RADIX_BUCKET_BITS) - 1;
        let mut accepted_len = 0usize;
        for b in 0..bucket_count {
            let start = b * capacity;
            let end = self.bucket_cursors[b] as usize;
            let bucket_base = b << RADIX_BUCKET_BITS;
            let span = window_len.min(self.n - bucket_base);
            for at in start..end {
                let pword = out.staged[at];
                let slot = &mut self.slots[(pword & offset_mask) as usize];
                *slot = (*slot).max(pword);
            }
            if !self.spill.is_empty() {
                for &(recipient, pword) in &self.spill {
                    if (recipient >> RADIX_BUCKET_BITS) as usize == b {
                        let slot = &mut self.slots[(recipient & bucket_mask) as usize];
                        *slot = (*slot).max(pword);
                    }
                }
            }
            for off in 0..span {
                let pword = self.slots[off];
                self.slots[off] = 0;
                out.buffer[accepted_len] = Self::delivery_of(pword, bucket_base + off);
                accepted_len += usize::from(pword != 0);
            }
        }

        out.accepted_len = accepted_len;
        out.sent = m as u64;
        out.collided = m as u64 - accepted_len as u64;
        tel.end(Phase::WindowResolve, span);
    }

    /// The parallel radix routing path: the same three phases as
    /// [`route_into_radix`](GossipScheduler::route_into_radix), each fanned
    /// out across the pool's lanes, bit-identical to both sequential paths
    /// from an equal RNG state for every lane count.
    ///
    /// Determinism is by construction, not by scheduling discipline:
    ///
    /// * **Scatter** — lane `w` draws the words for its message range
    ///   straight from the round's reserved counter base
    ///   ([`SimRng::reserve_block`]/[`SimRng::block_word`]), so message
    ///   `i`'s word — and, through the per-message redraw chain, its
    ///   recipient — is identical no matter which lane processes it.  Each
    ///   lane stages packed words into its own fixed-capacity bucket areas
    ///   (a private slice of the staging array), overflow going to its
    ///   private spill list.
    /// * **Resolve** — lanes own disjoint contiguous bucket ranges of the
    ///   population-wide slot array and `max`-fold every lane's staging
    ///   areas (plus every spill list) for their buckets.  `max` is
    ///   commutative and associative, so the merged slot values cannot
    ///   depend on lane count or interleaving; the per-bucket accepted
    ///   counts fall out of the fold for free (a slot's first arrival
    ///   counts it).
    /// * **Emit** — a sequential prefix sum over the per-bucket counts
    ///   (micro-work: one add per 2¹³ agents) fixes every bucket's emission
    ///   offset, then lanes sweep their bucket ranges into disjoint regions
    ///   of the output buffer, zeroing slots as they go.  Global emission
    ///   order is exactly the sequential sweep's recipient order.
    ///
    /// Sparse rounds delegate to the single-pass path (as the sequential
    /// radix path does), empty and single-lane rounds to the sequential
    /// radix path.  Public so the invariance tests and benches can force
    /// this path below [`RADIX_MIN_N`]; like `route_into_radix` it accepts
    /// any population the scheduler accepts.  In `tel`, the three pool
    /// dispatches map onto [`Phase::Scatter`], [`Phase::WindowResolve`] and
    /// [`Phase::SweepEmit`].
    pub fn route_into_radix_parallel(
        &mut self,
        sends: &[(u32, Opinion)],
        rng: &mut SimRng,
        out: &mut RoundRouting,
        pool: &RoundPool,
        tel: &mut Telemetry,
    ) {
        let m = sends.len();
        if !self.is_dense(m) {
            self.route_into_single_pass(sends, rng, out, tel);
            return;
        }
        if m == 0 || pool.workers() == 1 {
            self.route_into_radix(sends, rng, out, tel);
            return;
        }
        self.grow_buffer(out);
        let n = self.n;
        let window = 1usize << RADIX_BUCKET_BITS;
        let bucket_count = n.div_ceil(window);
        let lanes = pool.workers().min(m);
        let chunk_len = m.div_ceil(lanes);
        let lanes = m.div_ceil(chunk_len);
        let capacity = Self::radix_bucket_capacity(n, chunk_len);
        #[cfg(test)]
        let capacity = self.forced_bucket_capacity.unwrap_or(capacity);
        let region_len = bucket_count * capacity;
        let staged_len = lanes * region_len;
        if out.staged.len() < staged_len {
            out.staged.resize(staged_len, 0);
        }
        self.reserve_parallel(lanes);
        let tspan = tel.begin();
        let base = rng.reserve_block(m);
        tel.end(Phase::RngReserve, tspan);
        let (span, threshold) = (self.span, self.threshold);

        // Phase 1 — parallel scatter: lane `w` stages messages
        // `[w·chunk_len, (w+1)·chunk_len)` into its private bucket areas.
        // Each lane counts its own rejection redraws into a private slot
        // (stack array — no allocation, no sharing).
        let mut lane_redraws = [0u64; MAX_WORKERS];
        let tspan = tel.begin();
        {
            let staged = &mut out.staged[..staged_len];
            let cursors = &mut self.bucket_cursors[..lanes * bucket_count];
            let spills = &mut self.spills[..lanes];
            let tasks = staged
                .chunks_mut(region_len)
                .zip(cursors.chunks_mut(bucket_count))
                .zip(spills.iter_mut())
                .zip(sends.chunks(chunk_len))
                .zip(lane_redraws.iter_mut())
                .enumerate()
                .map(|(lane, ((((staged, cursors), spill), sends), redraws))| {
                    (lane * chunk_len, staged, cursors, spill, sends, redraws)
                });
            pool.run(
                tasks,
                |_, (first, staged, cursors, spill, sends, redraws)| {
                    for (b, cursor) in cursors.iter_mut().enumerate() {
                        *cursor = (b * capacity) as u32;
                    }
                    spill.clear();
                    let mut lane_attempts = 0u64;
                    for (i, &(sender, payload)) in sends.iter().enumerate() {
                        debug_assert!((sender as usize) < n, "sender index out of range");
                        let word = SimRng::block_word(base, first + i);
                        let (recipient, attempts) =
                            Self::draw_recipient(word, sender as usize, span, threshold);
                        lane_attempts += attempts;
                        let pword = Self::packed_word(word, sender, payload, recipient);
                        let bucket = recipient >> RADIX_BUCKET_BITS;
                        let at = cursors[bucket] as usize;
                        if at < (bucket + 1) * capacity {
                            staged[at] = pword;
                            cursors[bucket] = at as u32 + 1;
                        } else {
                            spill.push((recipient as u32, pword));
                        }
                    }
                    *redraws = lane_attempts;
                },
            );
        }
        tel.end(Phase::Scatter, tspan);
        tel.add(Event::LemireRedraws, lane_redraws[..lanes].iter().sum());
        tel.add(
            Event::RadixSpills,
            self.spills[..lanes].iter().map(|s| s.len() as u64).sum(),
        );
        if tel.is_enabled() {
            let cursors = &self.bucket_cursors[..lanes * bucket_count];
            let high_water = (0..lanes * bucket_count)
                .map(|at| u64::from(cursors[at]) - ((at % bucket_count) * capacity) as u64)
                .max()
                .unwrap_or(0);
            tel.observe_max(Event::StagingHighWater, high_water);
        }

        // Phase 2 — parallel resolve: lanes own disjoint contiguous bucket
        // ranges and max-fold every lane's staging (and spills) for their
        // buckets, counting each slot's first arrival.
        let tspan = tel.begin();
        let bucket_chunk = bucket_count.div_ceil(lanes);
        {
            let staged = &out.staged[..staged_len];
            let cursors = &self.bucket_cursors[..lanes * bucket_count];
            let spills = &self.spills[..lanes];
            let slots = &mut self.slots[..n];
            let accepted = &mut self.bucket_accepted[..bucket_count];
            let tasks = slots
                .chunks_mut(bucket_chunk << RADIX_BUCKET_BITS)
                .zip(accepted.chunks_mut(bucket_chunk))
                .enumerate()
                .map(|(range, (slots, accepted))| (range * bucket_chunk, slots, accepted));
            pool.run(tasks, |_, (bucket_lo, slots, accepted)| {
                let offset_mask = (1u64 << RADIX_BUCKET_BITS) - 1;
                for ((b_rel, wslots), count_slot) in slots
                    .chunks_mut(window)
                    .enumerate()
                    .zip(accepted.iter_mut())
                {
                    let b = bucket_lo + b_rel;
                    let mut count = 0u32;
                    for lane in 0..lanes {
                        let start = lane * region_len + b * capacity;
                        let end = lane * region_len + cursors[lane * bucket_count + b] as usize;
                        for &pword in &staged[start..end] {
                            let slot = &mut wslots[(pword & offset_mask) as usize];
                            let was = *slot;
                            *slot = was.max(pword);
                            count += u32::from(was == 0);
                        }
                    }
                    for spill in spills {
                        if spill.is_empty() {
                            continue;
                        }
                        for &(recipient, pword) in spill {
                            if (recipient as usize) >> RADIX_BUCKET_BITS == b {
                                let slot = &mut wslots[(recipient as usize) & (window - 1)];
                                let was = *slot;
                                *slot = was.max(pword);
                                count += u32::from(was == 0);
                            }
                        }
                    }
                    *count_slot = count;
                }
            });
        }

        // Sequential prefix sum over the per-bucket counts: one add per
        // bucket (2¹³ agents), negligible against the parallel phases.
        let mut total = 0u32;
        for b in 0..bucket_count {
            self.bucket_offsets[b] = total;
            total += self.bucket_accepted[b];
        }
        self.bucket_offsets[bucket_count] = total;
        let accepted_total = total as usize;
        tel.end(Phase::WindowResolve, tspan);

        // Phase 3 — parallel emit: each bucket range sweeps its windows in
        // recipient order into its exact (disjoint) region of the output
        // buffer, zeroing slots for the next round.  The write is
        // branch-free — an empty slot writes a placeholder at the current
        // position without advancing it, which the next winner overwrites —
        // and once a range has emitted its full count the remaining slots
        // are provably zero, so the sweep stops.
        let tspan = tel.begin();
        {
            let offsets = &self.bucket_offsets[..bucket_count + 1];
            let slots = &mut self.slots[..n];
            let buffer = &mut out.buffer[..accepted_total];
            let range_count = bucket_count.div_ceil(bucket_chunk);
            let region_lens = (0..range_count).map(|range| {
                let lo = range * bucket_chunk;
                let hi = (lo + bucket_chunk).min(bucket_count);
                (offsets[hi] - offsets[lo]) as usize
            });
            let tasks = slots
                .chunks_mut(bucket_chunk << RADIX_BUCKET_BITS)
                .zip(SplitMutByLens::new(buffer, region_lens))
                .enumerate()
                .map(|(range, (slots, region))| (range * bucket_chunk, slots, region));
            pool.run(tasks, |_, (bucket_lo, slots, region)| {
                let len = region.len();
                let mut at = 0usize;
                'sweep: for (b_rel, wslots) in slots.chunks_mut(window).enumerate() {
                    let bucket_base = (bucket_lo + b_rel) << RADIX_BUCKET_BITS;
                    for (off, slot) in wslots.iter_mut().enumerate() {
                        if at == len {
                            break 'sweep;
                        }
                        let pword = *slot;
                        *slot = 0;
                        region[at] = Self::delivery_of(pword, bucket_base + off);
                        at += usize::from(pword != 0);
                    }
                }
                debug_assert_eq!(at, len, "emitted deliveries diverged from resolve counts");
            });
        }

        out.accepted_len = accepted_total;
        out.sent = m as u64;
        out.collided = m as u64 - accepted_total as u64;
        tel.end(Phase::SweepEmit, tspan);
    }
}

/// Splits one mutable slice into consecutive disjoint sub-slices of the
/// given lengths — the safe-code way to hand each parallel emit range its
/// exact region of the output buffer.
struct SplitMutByLens<'a, T, I> {
    rest: &'a mut [T],
    lens: I,
}

impl<'a, T, I: Iterator<Item = usize>> SplitMutByLens<'a, T, I> {
    fn new(slice: &'a mut [T], lens: impl IntoIterator<Item = usize, IntoIter = I>) -> Self {
        Self {
            rest: slice,
            lens: lens.into_iter(),
        }
    }
}

impl<'a, T, I: Iterator<Item = usize>> Iterator for SplitMutByLens<'a, T, I> {
    type Item = &'a mut [T];

    fn next(&mut self) -> Option<&'a mut [T]> {
        let len = self.lens.next()?;
        let rest = std::mem::take(&mut self.rest);
        let (head, tail) = rest.split_at_mut(len);
        self.rest = tail;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn rejects_tiny_populations() {
        assert!(GossipScheduler::new(0).is_err());
        assert!(GossipScheduler::new(1).is_err());
        assert!(GossipScheduler::new(2).is_ok());
    }

    #[test]
    fn rejects_populations_beyond_the_31_bit_index_range() {
        // The bound is checked before any allocation, so this test does not
        // try to reserve a 2³¹-slot buffer.
        let err = GossipScheduler::new((1usize << 31) + 1).unwrap_err();
        assert!(matches!(err, FlipError::InvalidParameter { .. }), "{err}");
        assert!(err.to_string().contains("31-bit"), "{err}");
    }

    #[test]
    fn no_sends_no_deliveries() {
        let mut s = GossipScheduler::new(10).unwrap();
        let mut rng = SimRng::from_seed(0);
        let routing = s.route(&[], &mut rng);
        assert!(routing.accepted().is_empty());
        assert_eq!(routing.sent, 0);
        assert_eq!(routing.collided, 0);
    }

    #[test]
    fn never_delivers_to_sender() {
        let mut s = GossipScheduler::new(5).unwrap();
        let mut rng = SimRng::from_seed(1);
        for _ in 0..500 {
            let routing = s.route(&[(2, Opinion::One)], &mut rng);
            assert_eq!(routing.accepted().len(), 1);
            assert_ne!(routing.accepted()[0].recipient.index(), 2);
            assert_eq!(routing.accepted()[0].sender.index(), 2);
        }
    }

    #[test]
    fn each_recipient_accepts_at_most_one_message() {
        let mut s = GossipScheduler::new(4).unwrap();
        let mut rng = SimRng::from_seed(2);
        // All four agents push, so collisions are very likely.
        let sends: Vec<(u32, Opinion)> = (0..4).map(|i| (i, Opinion::Zero)).collect();
        for _ in 0..200 {
            let routing = s.route(&sends, &mut rng);
            let mut seen = [0u32; 4];
            for d in routing.accepted() {
                seen[d.recipient.index()] += 1;
            }
            assert!(seen.iter().all(|&c| c <= 1));
            assert_eq!(
                routing.sent,
                routing.accepted().len() as u64 + routing.collided
            );
        }
    }

    #[test]
    fn recipients_are_roughly_uniform() {
        let mut s = GossipScheduler::new(6).unwrap();
        let mut rng = SimRng::from_seed(3);
        let mut counts = [0u32; 6];
        let trials = 30_000;
        for _ in 0..trials {
            let routing = s.route(&[(0, Opinion::One)], &mut rng);
            counts[routing.accepted()[0].recipient.index()] += 1;
        }
        assert_eq!(counts[0], 0);
        let expected = trials as f64 / 5.0;
        for &c in &counts[1..] {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.1,
                "counts = {counts:?}"
            );
        }
    }

    #[test]
    fn collision_winner_is_roughly_uniform() {
        // Two senders pushing into a 3-agent population collide at agent 2
        // whenever both messages land there; the reservoir priority must pick
        // each sender's message about half the time.
        let mut s = GossipScheduler::new(3).unwrap();
        let mut rng = SimRng::from_seed(4);
        let mut winner_counts = [0u32; 3];
        let mut total = 0u32;
        for _ in 0..30_000 {
            let routing = s.route(&[(0, Opinion::Zero), (1, Opinion::One)], &mut rng);
            for d in routing.accepted() {
                if d.recipient.index() == 2 && routing.collided == 1 {
                    // Both messages landed on agent 2; record who won.
                    winner_counts[d.sender.index()] += 1;
                    total += 1;
                }
            }
        }
        assert!(total > 5_000, "collisions should be frequent, got {total}");
        let share0 = f64::from(winner_counts[0]) / f64::from(total);
        assert!((share0 - 0.5).abs() < 0.05, "share0 = {share0}");
    }

    #[test]
    fn three_way_collision_winner_is_roughly_uniform() {
        // Three senders in a 4-agent population: conditioned on all three
        // messages landing on agent 3, each must win 1/3 of the time.
        let mut s = GossipScheduler::new(4).unwrap();
        let mut rng = SimRng::from_seed(5);
        let sends = [(0u32, Opinion::Zero), (1, Opinion::One), (2, Opinion::Zero)];
        let mut winner_counts = [0u32; 4];
        let mut total = 0u32;
        for _ in 0..60_000 {
            let routing = s.route(&sends, &mut rng);
            if routing.collided == 2 && routing.accepted()[0].recipient.index() == 3 {
                winner_counts[routing.accepted()[0].sender.index()] += 1;
                total += 1;
            }
        }
        assert!(total > 1_000, "three-way collisions observed: {total}");
        for (sender, &count) in winner_counts.iter().take(3).enumerate() {
            let share = f64::from(count) / f64::from(total);
            assert!(
                (share - 1.0 / 3.0).abs() < 0.05,
                "sender {sender} share = {share}"
            );
        }
    }

    #[test]
    fn route_into_reuses_the_output_buffer() {
        let mut s = GossipScheduler::new(16).unwrap();
        let mut rng = SimRng::from_seed(7);
        let sends: Vec<(u32, Opinion)> = (0..16).map(|i| (i, Opinion::One)).collect();
        let mut out = RoundRouting::with_capacity(16);
        let capacity = out.buffer.capacity();
        for _ in 0..100 {
            s.route_into(&sends, &mut rng, &mut out, None, &mut Telemetry::off());
            assert_eq!(out.sent, 16);
            assert_eq!(out.sent, out.accepted().len() as u64 + out.collided);
            assert_eq!(
                out.buffer.capacity(),
                capacity,
                "routing buffer must never reallocate at capacity n"
            );
        }
    }

    #[test]
    fn route_and_route_into_agree_from_equal_rng_states() {
        let mut s1 = GossipScheduler::new(8).unwrap();
        let mut s2 = GossipScheduler::new(8).unwrap();
        let mut rng1 = SimRng::from_seed(9);
        let mut rng2 = SimRng::from_seed(9);
        let sends: Vec<(u32, Opinion)> = (0..8).map(|i| (i, Opinion::Zero)).collect();
        let mut out = RoundRouting::default();
        for _ in 0..20 {
            let fresh = s1.route(&sends, &mut rng1);
            s2.route_into(&sends, &mut rng2, &mut out, None, &mut Telemetry::off());
            assert_eq!(fresh, out);
        }
    }

    /// Routes `sends` through both paths from equal RNG states and asserts
    /// routing and stream agree bit for bit.
    fn assert_paths_agree(n: usize, sends: &[(u32, Opinion)], seed: u64, rounds: usize) {
        let mut single = GossipScheduler::new(n).unwrap();
        let mut radix = GossipScheduler::new(n).unwrap();
        let mut rng_single = SimRng::from_seed(seed);
        let mut rng_radix = SimRng::from_seed(seed);
        let mut out_single = RoundRouting::with_capacity(n);
        let mut out_radix = RoundRouting::with_capacity(n);
        for round in 0..rounds {
            single.route_into_single_pass(
                sends,
                &mut rng_single,
                &mut out_single,
                &mut Telemetry::off(),
            );
            radix.route_into_radix(sends, &mut rng_radix, &mut out_radix, &mut Telemetry::off());
            assert_eq!(
                out_single, out_radix,
                "n = {n}, round {round}: routings diverged"
            );
            assert_eq!(
                rng_single.next_u64(),
                rng_radix.next_u64(),
                "n = {n}, round {round}: RNG streams diverged"
            );
        }
    }

    #[test]
    fn parallel_radix_agrees_with_both_sequential_paths() {
        // Unit-level smoke for the parallel path (the full thread-count ×
        // population × density matrix lives in `tests/radix_routing.rs`):
        // 3 lanes over a small population must match the sequential radix
        // path bit for bit, dense and sparse.
        let pool = RoundPool::new(3);
        for n in [100usize, 1_000, 8_192 + 7] {
            let all: Vec<(u32, Opinion)> = (0..n as u32)
                .map(|i| (i, Opinion::from_bit(u8::from(i % 3 == 0))))
                .collect();
            let sparse: Vec<(u32, Opinion)> = (0..n as u32)
                .step_by(17)
                .map(|i| (i, Opinion::One))
                .collect();
            for sends in [&all[..], &sparse[..], &[], &all[..1]] {
                let mut sequential = GossipScheduler::new(n).unwrap();
                let mut parallel = GossipScheduler::new(n).unwrap();
                let mut rng_seq = SimRng::from_seed(0x9A7 ^ n as u64);
                let mut rng_par = SimRng::from_seed(0x9A7 ^ n as u64);
                let mut out_seq = RoundRouting::with_capacity(n);
                let mut out_par = RoundRouting::with_capacity(n);
                for round in 0..3 {
                    sequential.route_into_radix(
                        sends,
                        &mut rng_seq,
                        &mut out_seq,
                        &mut Telemetry::off(),
                    );
                    parallel.route_into_radix_parallel(
                        sends,
                        &mut rng_par,
                        &mut out_par,
                        &pool,
                        &mut Telemetry::off(),
                    );
                    assert_eq!(out_seq, out_par, "n = {n}, round {round}");
                    assert_eq!(rng_seq.next_u64(), rng_par.next_u64(), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn parallel_radix_resolves_forced_spills_identically() {
        // Starve the per-lane bucket capacity so every lane's spill list
        // carries real traffic, and require the merged result to stay
        // bit-identical to the sequential single-pass path.
        let n = (1usize << RADIX_BUCKET_BITS) + 7;
        let sends: Vec<(u32, Opinion)> = (0..n as u32)
            .map(|i| (i, Opinion::from_bit(u8::from(i % 2 == 0))))
            .collect();
        let pool = RoundPool::new(4);
        let mut single = GossipScheduler::new(n).unwrap();
        let mut parallel = GossipScheduler::new(n).unwrap();
        parallel.forced_bucket_capacity = Some(8);
        let mut rng_single = SimRng::from_seed(0x5F13);
        let mut rng_par = SimRng::from_seed(0x5F13);
        let mut out_single = RoundRouting::with_capacity(n);
        let mut out_par = RoundRouting::with_capacity(n);
        for round in 0..4 {
            single.route_into_single_pass(
                &sends,
                &mut rng_single,
                &mut out_single,
                &mut Telemetry::off(),
            );
            parallel.route_into_radix_parallel(
                &sends,
                &mut rng_par,
                &mut out_par,
                &pool,
                &mut Telemetry::off(),
            );
            let spilled: usize = parallel.spills.iter().map(Vec::len).sum();
            assert!(
                spilled > 1_000,
                "round {round}: the starved capacity must actually spill, got {spilled}"
            );
            assert_eq!(out_single, out_par, "round {round}");
            assert_eq!(rng_single.next_u64(), rng_par.next_u64());
        }
    }

    #[test]
    fn radix_and_single_pass_agree_from_equal_rng_states() {
        for n in [100usize, 1_000, 8_192, 10_000] {
            let all: Vec<(u32, Opinion)> = (0..n as u32)
                .map(|i| (i, Opinion::from_bit(u8::from(i % 3 == 0))))
                .collect();
            let sparse: Vec<(u32, Opinion)> = (0..n as u32)
                .step_by(7)
                .map(|i| (i, Opinion::One))
                .collect();
            assert_paths_agree(n, &all, 0xABCD ^ n as u64, 5);
            assert_paths_agree(n, &sparse, 0x1234 ^ n as u64, 5);
            assert_paths_agree(n, &[], 7, 2);
            assert_paths_agree(n, &[(n as u32 / 2, Opinion::One)], 8, 20);
        }
    }

    #[test]
    fn route_into_dispatches_by_population_without_changing_results() {
        // Below the crossover `route_into` is the single-pass path, at or
        // above it the radix path; both facts are observable only through
        // bit-identity with the explicitly invoked path.
        let n = 4_096;
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::Zero)).collect();
        let mut dispatched = GossipScheduler::new(n).unwrap();
        let mut explicit = GossipScheduler::new(n).unwrap();
        let mut rng1 = SimRng::from_seed(3);
        let mut rng2 = SimRng::from_seed(3);
        let mut out1 = RoundRouting::with_capacity(n);
        let mut out2 = RoundRouting::with_capacity(n);
        for _ in 0..3 {
            dispatched.route_into(&sends, &mut rng1, &mut out1, None, &mut Telemetry::off());
            explicit.route_into_single_pass(&sends, &mut rng2, &mut out2, &mut Telemetry::off());
            assert_eq!(out1, out2);
        }
    }

    #[test]
    fn radix_collision_winner_is_roughly_uniform() {
        // The radix path must implement the same exact-uniform reservoir:
        // two senders colliding at agent 2 split the wins about evenly.
        let mut s = GossipScheduler::new(3).unwrap();
        let mut rng = SimRng::from_seed(4);
        let mut out = RoundRouting::with_capacity(3);
        let mut winner_counts = [0u32; 3];
        let mut total = 0u32;
        for _ in 0..30_000 {
            s.route_into_radix(
                &[(0, Opinion::Zero), (1, Opinion::One)],
                &mut rng,
                &mut out,
                &mut Telemetry::off(),
            );
            for d in out.accepted() {
                if d.recipient.index() == 2 && out.collided == 1 {
                    winner_counts[d.sender.index()] += 1;
                    total += 1;
                }
            }
        }
        assert!(total > 5_000, "collisions should be frequent, got {total}");
        let share0 = f64::from(winner_counts[0]) / f64::from(total);
        assert!((share0 - 0.5).abs() < 0.05, "share0 = {share0}");
    }

    #[test]
    fn dense_rounds_emit_in_recipient_order_sparse_in_arrival_order() {
        let n = 64;
        let mut s = GossipScheduler::new(n).unwrap();
        let mut rng = SimRng::from_seed(11);
        // Dense: everyone sends; accepted recipients must come out sorted.
        let sends: Vec<(u32, Opinion)> = (0..n as u32).map(|i| (i, Opinion::One)).collect();
        let routing = s.route(&sends, &mut rng);
        let recipients: Vec<usize> = routing
            .accepted()
            .iter()
            .map(|d| d.recipient.index())
            .collect();
        let mut sorted = recipients.clone();
        sorted.sort_unstable();
        assert_eq!(recipients, sorted, "dense emission is recipient-ordered");

        // Sparse: a handful of senders; every send is its own first arrival
        // with high probability, and sparse rounds emit one delivery per
        // distinct recipient in arrival order.
        let sparse = [(0u32, Opinion::One), (1, Opinion::Zero)];
        let routing = s.route(&sparse, &mut rng);
        assert!(routing.accepted().len() <= 2);
        assert_eq!(
            routing.sent,
            routing.accepted().len() as u64 + routing.collided
        );
    }

    #[test]
    fn spilled_radix_messages_still_resolve_exactly() {
        // A correctly sized capacity makes natural spills ~6σ events, so
        // force the spill path: shrink every bucket's staging area to a
        // handful of entries and require the radix result (now resolved
        // almost entirely through the spill list, across two buckets) to
        // stay bit-identical to the single-pass path.
        let n = (1usize << RADIX_BUCKET_BITS) + 7;
        let sends: Vec<(u32, Opinion)> = (0..n as u32)
            .map(|i| (i, Opinion::from_bit(u8::from(i % 2 == 0))))
            .collect();
        // Sanity: the honest capacity never spills on this workload ...
        assert_paths_agree(n, &sends, 0x5F11, 4);

        // ... and a starved capacity spills thousands of messages per
        // round yet still resolves identically.
        let mut single = GossipScheduler::new(n).unwrap();
        let mut radix = GossipScheduler::new(n).unwrap();
        radix.forced_bucket_capacity = Some(8);
        let mut rng_single = SimRng::from_seed(0x5F12);
        let mut rng_radix = SimRng::from_seed(0x5F12);
        let mut out_single = RoundRouting::with_capacity(n);
        let mut out_radix = RoundRouting::with_capacity(n);
        for round in 0..4 {
            single.route_into_single_pass(
                &sends,
                &mut rng_single,
                &mut out_single,
                &mut Telemetry::off(),
            );
            radix.route_into_radix(
                &sends,
                &mut rng_radix,
                &mut out_radix,
                &mut Telemetry::off(),
            );
            assert!(
                radix.spill.len() > 1_000,
                "round {round}: the starved capacity must actually spill, got {}",
                radix.spill.len()
            );
            assert_eq!(out_single, out_radix, "round {round}");
            assert_eq!(rng_single.next_u64(), rng_radix.next_u64());
        }
    }

    #[test]
    fn telemetry_counts_forced_spills_without_perturbing_deliveries() {
        // Same starved-capacity workload as above, but routed through the
        // instrumented entry point: the spill counter must see every
        // overflowed message, the staging high-water must pin at the forced
        // capacity, and — the load-bearing half — deliveries and the RNG
        // stream must stay bit-identical to the uninstrumented scheduler.
        let n = (1usize << RADIX_BUCKET_BITS) + 7;
        let sends: Vec<(u32, Opinion)> = (0..n as u32)
            .map(|i| (i, Opinion::from_bit(u8::from(i % 2 == 0))))
            .collect();
        let mut plain = GossipScheduler::new(n).unwrap();
        let mut instrumented = GossipScheduler::new(n).unwrap();
        plain.forced_bucket_capacity = Some(8);
        instrumented.forced_bucket_capacity = Some(8);
        let mut tel = Telemetry::enabled();
        let mut rng_plain = SimRng::from_seed(0x5F14);
        let mut rng_inst = SimRng::from_seed(0x5F14);
        let mut out_plain = RoundRouting::with_capacity(n);
        let mut out_inst = RoundRouting::with_capacity(n);
        let rounds = 3u64;
        for round in 0..rounds {
            plain.route_into_radix(
                &sends,
                &mut rng_plain,
                &mut out_plain,
                &mut Telemetry::off(),
            );
            instrumented.route_into_radix(&sends, &mut rng_inst, &mut out_inst, &mut tel);
            assert_eq!(out_plain, out_inst, "round {round}");
            assert_eq!(rng_plain.next_u64(), rng_inst.next_u64(), "round {round}");
        }
        let recorder = tel.recorder().expect("telemetry is enabled");
        assert!(
            recorder.event(Event::RadixSpills) > 1_000 * rounds,
            "starved capacity must spill thousands per round, counted {}",
            recorder.event(Event::RadixSpills)
        );
        assert_eq!(
            recorder.event(Event::StagingHighWater),
            8,
            "high water saturates at the forced capacity"
        );
        for phase in [Phase::RngReserve, Phase::Scatter, Phase::WindowResolve] {
            assert_eq!(
                recorder.phases().get(phase).count,
                rounds,
                "{phase} must be timed once per round"
            );
        }
    }

    #[test]
    fn buffers_reset_between_rounds() {
        let mut s = GossipScheduler::new(4).unwrap();
        let mut rng = SimRng::from_seed(5);
        let r1 = s.route(&[(0, Opinion::One), (1, Opinion::One)], &mut rng);
        assert!(r1.sent == 2);
        let r2 = s.route(&[], &mut rng);
        assert!(r2.accepted().is_empty());
        assert_eq!(r2.sent, 0);
        assert_eq!(r2.collided, 0);
    }

    /// Property coverage of the packed reservoir word, the unit the whole
    /// routing design (and its parallel merge) rests on: encoding must
    /// round-trip every field, and `max`-resolution must be a commutative,
    /// associative fold with `0` as identity — that algebra is exactly what
    /// lets worker lanes stage and merge words in any order bit-identically.
    mod packed_word_properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_opinion() -> impl Strategy<Value = Opinion> {
            prop_oneof![Just(Opinion::Zero), Just(Opinion::One)]
        }

        /// Packs an arbitrary `(priority word, sender, payload, recipient)`
        /// tuple the way the routing paths do.
        fn pack(word: u64, sender: u32, payload: Opinion, recipient: usize) -> u64 {
            GossipScheduler::packed_word(word, sender, payload, recipient)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Encode → decode reproduces the sender, the payload and the
            /// in-bucket offset for the full 31-bit sender/recipient range,
            /// and a packed word is never the `0` "no arrival" sentinel.
            #[test]
            fn packed_words_round_trip(
                word in 0u64..u64::MAX,
                sender in 0u32..0x8000_0000,
                payload in arb_opinion(),
                recipient in 0usize..(1 << 31),
            ) {
                let pword = pack(word, sender, payload, recipient);
                // The low priority bit is forced on, so a packed word can
                // never alias the sentinel.
                prop_assert_ne!(pword, 0);
                let delivery = GossipScheduler::delivery_of(pword, recipient);
                prop_assert_eq!(delivery.sender.index(), sender as usize);
                prop_assert_eq!(delivery.recipient.index(), recipient);
                prop_assert_eq!(delivery.payload, payload);
                // The low 14 bits carry the recipient's offset inside its
                // radix bucket, and the top 18 the (low-bit-forced) priority.
                let mask = (1u64 << RADIX_BUCKET_BITS) - 1;
                prop_assert_eq!(pword & mask, recipient as u64 & mask);
                prop_assert_eq!(pword >> 46, (word >> 46) | 1);
            }

            /// `max` resolution is order-independent: folding the same
            /// messages shuffled, sorted, reversed, or split at any pivot
            /// (two lanes merged afterwards — the parallel path's shape)
            /// always yields the same winner, and `0` slots are an identity.
            #[test]
            fn max_resolution_is_commutative_and_associative(
                messages in proptest::collection::vec(
                    (0u64..u64::MAX, 0u32..0x8000_0000, arb_opinion(), 0usize..(1 << 31)),
                    0..40,
                ),
                rotation in 0usize..40,
                pivot in 0usize..40,
            ) {
                let packed: Vec<u64> = messages
                    .iter()
                    .map(|&(w, s, p, r)| pack(w, s, p, r))
                    .collect();
                let fold = |words: &[u64]| words.iter().fold(0u64, |slot, &w| slot.max(w));

                let reference = fold(&packed);
                // Commutativity: any reordering folds to the same winner.
                let mut rotated = packed.clone();
                if !rotated.is_empty() {
                    let mid = rotation % rotated.len();
                    rotated.rotate_left(mid);
                }
                prop_assert_eq!(fold(&rotated), reference);
                let mut sorted = packed.clone();
                sorted.sort_unstable();
                prop_assert_eq!(fold(&sorted), reference);
                sorted.reverse();
                prop_assert_eq!(fold(&sorted), reference);
                // Associativity: fold two disjoint lanes, then merge —
                // exactly how the parallel resolve combines staging areas.
                let cut = pivot.min(packed.len());
                let (lane_a, lane_b) = packed.split_at(cut);
                prop_assert_eq!(fold(lane_a).max(fold(lane_b)), reference);
                // Zero is the identity the empty slots provide: folding
                // extra sentinel words in cannot move the winner.
                let mut with_sentinels = vec![0u64];
                with_sentinels.extend_from_slice(&packed);
                with_sentinels.push(0);
                prop_assert_eq!(fold(&with_sentinels), reference);
                if !packed.is_empty() {
                    // Real arrivals never fold back down to the sentinel.
                    prop_assert_ne!(reference, 0);
                }
            }
        }
    }
}
