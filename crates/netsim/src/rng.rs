//! Keyed counter-based RNG: the determinism contract v2.
//!
//! The simulator's stochastic choices (adaptive tie-breaks, injection
//! tie-breaks) historically came from one serial ChaCha8 stream advanced
//! once per visited ready non-ejecting VC head in arena order — the
//! *draw-stream contract* (DESIGN.md §7). That contract makes results
//! deterministic but couples every draw to the global visit schedule:
//! parked heads must still consume a draw, which caps the wake
//! scheduler's win.
//!
//! [`RngMode::Keyed`] replaces the stream with a pure function: each
//! draw is [`mix`]`(seed, cycle, site, id)`, where `site` names the draw
//! class ([`DrawSite`]) and `id` is the draw's dense identity within the
//! site (arena slot index for Phase A, (node, class) queue index for
//! injection). Draws are then order- and position-independent:
//!
//! * parked heads draw **nothing** — skipping a head skips its draw,
//! * the sample a head receives depends only on its identity and the
//!   cycle, never on the order in which heads are visited.
//!
//! `Stream` stays the default: every paper figure and every existing
//! golden pin was recorded under the serial stream, and keyed mode —
//! while equally well-distributed — produces a *different* (equally
//! valid) random sequence, so the two modes are separate pin families.
//!
//! The mixer is a dependency-free splitmix64-style permutation chain
//! (Steele et al., "Fast splittable pseudorandom number generators",
//! OOPSLA 2014): each key word is absorbed through one round of the
//! 64-bit finalizer, giving full avalanche between any two distinct
//! `(seed, cycle, site, id)` tuples. It is a statistical-quality mixer,
//! not a cryptographic one — exactly the bar ChaCha8 was clearing.

/// Which serial draw stream / keyed draw family a sample belongs to.
///
/// In `Stream` mode all sites share the single serial stream (the site
/// only labels the draw-volume counters); in `Keyed` mode the site is
/// part of the key, so e.g. Phase A slot 7 and injection queue 7 can
/// never receive the same sample by accident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum DrawSite {
    /// Phase A routing tie-break for an in-network VC head
    /// (`id` = link-major arena slot index).
    PhaseA = 0,
    /// Injection routing tie-break for a source-queue head
    /// (`id` = (node, class) queue index).
    Injection = 1,
    /// Deadlock-freedom mechanism draws (`id` chosen by the mechanism,
    /// e.g. a router or epoch number). Reserved: no built-in mechanism
    /// draws randomness today — the paper's drain directions come from
    /// the precomputed Eulerian circuit — but the site keeps mechanism
    /// randomness off the routing streams the day one does.
    Mechanism = 2,
}

/// Number of [`DrawSite`] variants (sizes the per-site draw counters).
pub const NUM_DRAW_SITES: usize = 3;

impl DrawSite {
    /// Stable label used by the `drain_rng_draws_total{site}` metrics.
    pub fn label(self) -> &'static str {
        match self {
            DrawSite::PhaseA => "phase_a",
            DrawSite::Injection => "injection",
            DrawSite::Mechanism => "mechanism",
        }
    }

    /// Counter-array index of this site.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All sites, in counter-array order.
    pub const ALL: [DrawSite; NUM_DRAW_SITES] =
        [DrawSite::PhaseA, DrawSite::Injection, DrawSite::Mechanism];
}

/// How the simulator core produces its stochastic tie-break samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RngMode {
    /// Determinism contract v1: one serial ChaCha8 stream, advanced once
    /// per visited ready non-ejecting head in arena order (parked heads
    /// included) and once per non-empty injection queue head. The
    /// default — all paper figures and pre-existing golden pins were
    /// recorded under it.
    #[default]
    Stream,
    /// Determinism contract v2: each draw is the pure function
    /// [`mix`]`(seed, cycle, site, id)`. Parked heads draw nothing; wake
    /// on/off and fast-forward invariance hold by construction. Its own
    /// golden-pin family (digests differ from `Stream` — a different,
    /// equally valid random sequence).
    Keyed,
}

impl RngMode {
    /// Stable label used by the `drain_rng_draws_total{mode}` metrics
    /// and the `DRAIN_RNG` environment knob.
    pub fn label(self) -> &'static str {
        match self {
            RngMode::Stream => "stream",
            RngMode::Keyed => "keyed",
        }
    }

    /// Parses the `DRAIN_RNG` spelling (`"stream"` / `"keyed"`).
    pub fn parse(s: &str) -> Option<RngMode> {
        match s {
            "stream" => Some(RngMode::Stream),
            "keyed" => Some(RngMode::Keyed),
            _ => None,
        }
    }
}

/// One round of the splitmix64 output permutation: a bijection on `u64`
/// with full avalanche (every input bit flips each output bit with
/// probability ~1/2).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keyed draw: a pure function of `(seed, cycle, site, id)`.
///
/// Each key word is absorbed through one `splitmix64` round, so the
/// chain is a composition of bijections seeded by the full key — two
/// tuples differing in any word produce unrelated outputs. Cost: four
/// rounds of shift/xor/multiply, comparable to one ChaCha8 block
/// amortised word, with no stream state to carry, clone or replay.
///
/// # Examples
///
/// ```
/// use drain_netsim::rng::{mix, DrawSite};
///
/// // Pure: same key, same sample — in any order, on any thread.
/// let a = mix(17, 1000, DrawSite::PhaseA, 42);
/// assert_eq!(a, mix(17, 1000, DrawSite::PhaseA, 42));
/// // Any key-word change decorrelates the sample.
/// assert_ne!(a, mix(17, 1000, DrawSite::PhaseA, 43));
/// assert_ne!(a, mix(17, 1001, DrawSite::PhaseA, 42));
/// assert_ne!(a, mix(17, 1000, DrawSite::Injection, 42));
/// ```
#[inline]
pub fn mix(seed: u64, cycle: u64, site: DrawSite, id: u64) -> u64 {
    let h = splitmix64(seed);
    let h = splitmix64(h ^ cycle);
    let h = splitmix64(h ^ ((site as u64) << 56) ^ id);
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip() {
        for mode in [RngMode::Stream, RngMode::Keyed] {
            assert_eq!(RngMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(RngMode::parse("chacha"), None);
        assert_eq!(RngMode::default(), RngMode::Stream);
    }

    #[test]
    fn site_indices_are_dense() {
        for (i, site) in DrawSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }

    #[test]
    fn mix_is_pure_and_key_sensitive() {
        let base = mix(0xD4A1, 7, DrawSite::PhaseA, 3);
        assert_eq!(base, mix(0xD4A1, 7, DrawSite::PhaseA, 3));
        assert_ne!(base, mix(0xD4A2, 7, DrawSite::PhaseA, 3));
        assert_ne!(base, mix(0xD4A1, 8, DrawSite::PhaseA, 3));
        assert_ne!(base, mix(0xD4A1, 7, DrawSite::Injection, 3));
        assert_ne!(base, mix(0xD4A1, 7, DrawSite::Mechanism, 3));
        assert_ne!(base, mix(0xD4A1, 7, DrawSite::PhaseA, 4));
    }

    #[test]
    fn mix_has_no_obvious_bias() {
        // Not a statistical test battery — a smoke check that the low
        // bits (used by `sample % n` rotations) are balanced and that
        // nearby keys do not produce nearby outputs.
        let mut ones = [0u32; 64];
        let n = 4096u64;
        for id in 0..n {
            let s = mix(1, 1, DrawSite::PhaseA, id);
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((s >> b) & 1) as u32;
            }
        }
        for &count in &ones {
            // Each bit should be set roughly half the time (±10%).
            assert!(
                (count as f64) > 0.4 * n as f64 && (count as f64) < 0.6 * n as f64,
                "biased bit: {count}/{n}"
            );
        }
    }

    #[test]
    fn mix_low_bits_distinct_across_ids() {
        // `sample % n` rotations read the low bits; consecutive ids must
        // not collide there.
        let mut seen = std::collections::HashSet::new();
        for id in 0..1024u64 {
            seen.insert(mix(9, 123, DrawSite::PhaseA, id) & 0xFFFF);
        }
        // With 1024 draws over 65536 buckets, expect ~1016 distinct
        // (birthday bound); demand well above a degenerate mixer.
        assert!(seen.len() > 950, "low-bit collisions: {}", seen.len());
    }
}
