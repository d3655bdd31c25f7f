//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of `(workload, seed, size)`; the program sees only the
//! generated traces, specs and requests.

use replay_rng::SmallRng;
use replay_trace::{workloads, Workload};

/// The seed whose simulated-statistics digests are recorded in
/// `digests.json`.
pub const DEFAULT_SEED: u64 = 0;

/// Golden-ratio stride between perturbed generator seeds.
const STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is for the
/// package's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few milliseconds of work per workload.
    Tiny,
}

/// Per-workload input dimensions for one [`Size`].
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    /// fig6-grid: x86 instructions per trace segment.
    pub grid_scale: usize,
    /// short-distinct: number of variant traces.
    pub variants: usize,
    /// short-distinct: x86 instructions per variant trace.
    pub variant_scale: usize,
    /// serve-mixed: requests in the seeded sequence (the run stops early
    /// if the clients exhaust it before the measuring time ends).
    pub requests: usize,
    /// serve-mixed: hot workload names.
    pub hot_set: usize,
    /// serve-mixed: x86 instructions per request trace.
    pub request_scale: usize,
    /// serve-mixed: chance that an inline request carries a trace never
    /// sent before (otherwise it repeats an earlier inline trace).
    pub fresh_inline: f64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Size {
    /// The dimensions this size uses.
    pub fn dims(self) -> Dims {
        match self {
            Size::Full => Dims {
                grid_scale: 100_000,
                variants: 300,
                variant_scale: 3_000,
                requests: 12_000,
                hot_set: 4,
                request_scale: 4_000,
                fresh_inline: 0.12,
                setup_reps: 5,
            },
            Size::Tiny => Dims {
                grid_scale: 1_500,
                variants: 6,
                variant_scale: 600,
                requests: 24,
                hot_set: 2,
                request_scale: 600,
                fresh_inline: 0.5,
                setup_reps: 2,
            },
        }
    }
}

/// `base` under another generator seed, keeping every other generation
/// parameter, and so the workload's character, unchanged.
fn perturbed(base: &Workload, name: String, segments: usize, gen_seed: u64) -> Workload {
    let mut params = *base.params();
    params.seed = gen_seed;
    Workload::custom(name, base.suite, segments, base.default_segment_len, params)
}

/// fig6-grid: the fourteen Table 1 workloads, all segments, with each
/// generator seed moved by the benchmark seed. Seed 0 is exactly Table 1.
pub fn grid_workloads(seed: u64) -> Vec<Workload> {
    workloads::all()
        .iter()
        .map(|w| {
            let gen = w.params().seed.wrapping_add(seed.wrapping_mul(STRIDE));
            perturbed(w, w.name.clone(), w.segments, gen)
        })
        .collect()
}

/// One fresh single-segment variant of a randomly drawn Table 1 workload.
fn variant(rng: &mut SmallRng, suite: &[Workload], tag: &str, i: usize) -> Workload {
    let base = rng.choose(suite);
    let gen = rng.next_u64();
    perturbed(base, format!("{}-{tag}{i}", base.name), 1, gen)
}

/// short-distinct: `n` single-segment variants, each a Table 1
/// workload's parameters under a fresh generator seed.
pub fn distinct_variants(seed: u64, n: usize) -> Vec<Workload> {
    let suite = workloads::all();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7368_6f72_745f_6469); // "short_di"
    (0..n).map(|i| variant(&mut rng, &suite, "v", i)).collect()
}

/// What one serve-mixed request names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ask {
    /// A Table 1 workload by name, from the hot set.
    Hot(String),
    /// Inline trace bytes of the `n`-th unique request variant.
    Inline(usize),
}

/// serve-mixed: the seeded request sequence and the distinct inline-trace
/// workloads it references (in first-use order).
#[derive(Debug, Clone)]
pub struct RequestMix {
    /// The request sequence, in send order.
    pub asks: Vec<Ask>,
    /// Workloads whose traces travel inline, one per [`Ask::Inline`].
    pub inline: Vec<Workload>,
}

/// Builds the serve-mixed sequence: about half hot-set names, half inline
/// traces. A `dims.fresh_inline` share of the inline requests, evenly
/// spaced, carry a trace never sent before (inline decode, the cold
/// optimizer and a store write); the rest repeat a random earlier inline
/// trace (the inline-trace cache and warm frame bundles). The even
/// spacing keeps the cold/warm split, and the payload memory, from
/// drifting with run length or seed.
pub fn request_mix(seed: u64, dims: &Dims) -> RequestMix {
    let suite = workloads::all();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7365_7276_655f_6d69); // "serve_mi"
    let mut names: Vec<&Workload> = suite.iter().collect();
    rng.shuffle(&mut names);
    let hot: Vec<String> = names[..dims.hot_set]
        .iter()
        .map(|w| w.name.clone())
        .collect();
    let mut asks = Vec::with_capacity(dims.requests);
    let mut inline = Vec::new();
    let mut inline_asks = 0.0;
    for _ in 0..dims.requests {
        if rng.random_bool(0.5) {
            asks.push(Ask::Hot(rng.choose(&hot).clone()));
            continue;
        }
        inline_asks += 1.0;
        let fresh = (inline_asks * dims.fresh_inline).ceil() > inline.len() as f64;
        if fresh {
            let n = inline.len();
            inline.push(variant(&mut rng, &suite, "r", n));
            asks.push(Ask::Inline(n));
        } else {
            asks.push(Ask::Inline(rng.random_range(0..inline.len())));
        }
    }
    RequestMix { asks, inline }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_grid_is_table_one() {
        for (w, t) in grid_workloads(0).iter().zip(workloads::all()) {
            assert_eq!(w.spec_digest(), t.spec_digest(), "{}", w.name);
        }
        assert_ne!(
            grid_workloads(1)[0].spec_digest(),
            workloads::all()[0].spec_digest()
        );
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let d = Size::Tiny.dims();
        let a = request_mix(5, &d);
        let b = request_mix(5, &d);
        assert_eq!(a.asks, b.asks);
        assert_eq!(a.inline.len(), b.inline.len());
        assert_ne!(request_mix(6, &d).asks, a.asks);
    }
}
