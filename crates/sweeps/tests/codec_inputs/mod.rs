//! Random inputs for the cell-record codec tests: records with arbitrary
//! names and floats, second spellings of a record's JSON, and the damage a
//! record line can take (a torn tail, a flipped bit).
//!
//! `codec_properties.rs` declares this module, and the record readers' unit
//! test (`src/aggregate/keyed_reference.rs`) includes it by path, so both
//! draw the same inputs.  The includer brings `CellRecord`, `Json`,
//! `MetricAggregate` and `TRACKED_QUANTILES` into scope.

use analysis::streaming::{P2Quantile, P2State, StreamingMoments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{CellRecord, Json, MetricAggregate, TRACKED_QUANTILES};

/// Floats a shortest-round-trip codec can get wrong.
const EDGE_FLOATS: [f64; 22] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308, // largest subnormal
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    1e16,
    -1e16,
    1e16 + 2.0,
    9_007_199_254_740_992.0, // 2^53
    9_007_199_254_740_994.0,
    9_999_999_999_999_998.0,
    1.844_674_407_370_955_2e19,
    1e22,
    1e-4,
    9.999_999_999_999_999e-5,
    0.1,
    -7.25,
];

/// Characters that exercise string escaping: quotes, backslashes, control
/// characters, `/`, multi-byte UTF-8.
const NAME_CHARS: &str = "az0_ \"\\/\n\t\u{1}\u{1f}é\u{1F980}";

fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => EDGE_FLOATS[rng.gen_range(0..EDGE_FLOATS.len())],
        1 => loop {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                break v;
            }
        },
        2 => rng.gen_range(1e16..1e21f64).trunc(),
        3 => f64::from(rng.gen_range(-1000..1000i32)),
        _ => rng.gen_range(-10.0..10.0f64),
    }
}

pub fn name(rng: &mut StdRng) -> String {
    let chars: Vec<char> = NAME_CHARS.chars().collect();
    (0..rng.gen_range(1..9usize))
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

fn markers(rng: &mut StdRng) -> [f64; 5] {
    [(); 5].map(|()| float(rng))
}

/// An aggregate with arbitrary (finite) state for `trials` observations;
/// its sketches hold raw observations below five trials and markers from
/// five on, as the real sketches do.
fn aggregate(rng: &mut StdRng, trials: u32) -> MetricAggregate {
    let count = u64::from(trials);
    let quantiles = TRACKED_QUANTILES.map(|q| {
        let buffered = if count < 5 { count as usize } else { 0 };
        let mut buffer = [0.0; 5];
        for slot in &mut buffer[..buffered] {
            *slot = float(rng);
        }
        P2Quantile::restore(P2State {
            q,
            count,
            heights: markers(rng),
            positions: markers(rng),
            desired: markers(rng),
            buffer,
            buffered,
        })
        .expect("consistent sketch state")
    });
    MetricAggregate {
        moments: StreamingMoments {
            count,
            sum: float(rng),
            welford_mean: float(rng),
            m2: float(rng),
            min: float(rng),
            max: float(rng),
        },
        quantiles,
    }
}

pub fn record(seed: u64, trials: u32) -> CellRecord {
    let mut rng = StdRng::seed_from_u64(seed);
    let metrics = (0..rng.gen_range(1..4usize))
        .map(|_| (name(&mut rng), aggregate(&mut rng, trials)))
        .collect();
    CellRecord {
        hash: name(&mut rng),
        point: rng.gen::<u64>(),
        trials,
        metrics,
    }
}

/// A second spelling of the same JSON value: object keys shuffled, random
/// whitespace between tokens, some string characters escaped, floats in
/// exponent form and unsigned integers as integral floats where exact.
pub fn respell(value: &Json, rng: &mut StdRng, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        for _ in 0..rng.gen_range(0..3u32) {
            out.push([' ', '\t', '\n', '\r'][rng.gen_range(0..4usize)]);
        }
    };
    ws(rng, out);
    match value {
        Json::Object(pairs) => {
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            out.push('{');
            for (i, &index) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (key, item) = &pairs[index];
                ws(rng, out);
                respell_str(key, rng, out);
                ws(rng, out);
                out.push(':');
                respell(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Str(s) => respell_str(s, rng, out),
        Json::Float(v) if rng.gen_bool(0.5) => out.push_str(&format!("{v:e}")),
        Json::UInt(v) if *v < (1 << 53) && rng.gen_bool(0.3) => out.push_str(&format!("{v}.0")),
        other => out.push_str(&other.to_string()),
    }
    ws(rng, out);
}

fn respell_str(s: &str, rng: &mut StdRng, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.gen_bool(0.5) => out.push_str("\\/"),
            c if (c as u32) < 0x20 || rng.gen_bool(0.3) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Duplicates one member of the `target`-th object (pre-order) in place.
pub fn duplicate_member(value: &mut Json, target: &mut usize, rng: &mut StdRng) -> bool {
    match value {
        Json::Object(pairs) => {
            if *target == 0 && !pairs.is_empty() {
                let copy = pairs[rng.gen_range(0..pairs.len())].clone();
                let at = rng.gen_range(0..=pairs.len());
                pairs.insert(at, copy);
                return true;
            }
            *target = target.saturating_sub(1);
            pairs
                .iter_mut()
                .any(|(_, item)| duplicate_member(item, target, rng))
        }
        Json::Array(items) => items
            .iter_mut()
            .any(|item| duplicate_member(item, target, rng)),
        _ => false,
    }
}

pub fn count_objects(value: &Json) -> usize {
    match value {
        Json::Object(pairs) => 1 + pairs.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Json::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// A non-empty proper prefix of `text`, cut at any byte (a split character
/// becomes U+FFFD): what a writer killed mid-line leaves.
pub fn torn(text: &str, rng: &mut StdRng) -> String {
    let cut = rng.gen_range(1..text.len());
    String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned()
}

/// One bit flipped, read back as text (invalid UTF-8 replaced).
pub fn flip_bit(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] ^= 1 << rng.gen_range(0..8u32);
    String::from_utf8_lossy(&bytes).into_owned()
}
