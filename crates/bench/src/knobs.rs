//! Validated `DRAIN_*` environment knobs.
//!
//! Every value knob the harness reads is one [`Knob`] constant here. An
//! unset knob means "use the default"; a set knob whose value is outside
//! its accepted set panics with the knob's name and the accepted values,
//! so a typo stops the run instead of silently selecting a default.

use drain_netsim::RngMode;

use crate::scale::Scale;

/// One environment knob: its name, a human-readable description of the
/// accepted values, and the parser that enforces them.
#[derive(Clone, Copy, Debug)]
pub struct Knob<T> {
    /// Environment variable name.
    name: &'static str,
    /// The accepted values, as quoted in the rejection message.
    accepted: &'static str,
    parse: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    /// The knob's value, or `None` when it is unset.
    ///
    /// # Panics
    ///
    /// Panics with `"{name} must be {accepted}, got {raw:?}"` when the
    /// knob is set to a value it does not accept.
    pub fn get(&self) -> Option<T> {
        std::env::var(self.name).ok().map(|raw| self.parse(&raw))
    }

    /// Parses `raw`, ignoring surrounding whitespace.
    fn parse(&self, raw: &str) -> T {
        (self.parse)(raw.trim())
            .unwrap_or_else(|| panic!("{} must be {}, got {raw:?}", self.name, self.accepted))
    }
}

/// `DRAIN_THREADS`: sweep-engine worker threads (default: the machine's
/// available parallelism).
pub const THREADS: Knob<usize> = Knob {
    name: "DRAIN_THREADS",
    accepted: "an integer >= 1",
    parse: positive,
};

/// `DRAIN_SCALE`: run length and seeds per point (default `quick`).
pub const SCALE: Knob<Scale> = Knob {
    name: "DRAIN_SCALE",
    accepted: "'quick' or 'full'",
    parse: scale,
};

/// `DRAIN_PROFILE`: phase-profiler sampling period in cycles (default 0,
/// off).
pub const PROFILE: Knob<u64> = Knob {
    name: "DRAIN_PROFILE",
    accepted: "a cycle count (0 = off)",
    parse: cycles,
};

/// `DRAIN_PHASE_A`: `wake` (the default) or `dense` Phase A scheduling;
/// the value is whether the wake scheduler is on.
pub const PHASE_A: Knob<bool> = Knob {
    name: "DRAIN_PHASE_A",
    accepted: "'wake' or 'dense'",
    parse: phase_a,
};

/// `DRAIN_RNG`: the tie-break determinism contract (default `stream`).
pub const RNG: Knob<RngMode> = Knob {
    name: "DRAIN_RNG",
    accepted: "'stream' or 'keyed'",
    parse: RngMode::parse,
};

/// `DRAIN_PROGRESS`: live stderr progress line on (`1`) or off (`0`);
/// unset follows whether stderr is a terminal.
pub const PROGRESS: Knob<bool> = Knob {
    name: "DRAIN_PROGRESS",
    accepted: "0 or 1",
    parse: flag,
};

/// `DRAIN_NO_CACHE`: `1` bypasses the result cache for one run.
pub const NO_CACHE: Knob<bool> = Knob {
    name: "DRAIN_NO_CACHE",
    accepted: "0 or 1",
    parse: flag,
};

fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

fn cycles(v: &str) -> Option<u64> {
    v.parse().ok()
}

fn flag(v: &str) -> Option<bool> {
    match v {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
}

fn scale(v: &str) -> Option<Scale> {
    match v {
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

fn phase_a(v: &str) -> Option<bool> {
    match v {
        "wake" => Some(true),
        "dense" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_values_parse_with_whitespace_trimmed() {
        assert_eq!(THREADS.parse(" 3\n"), 3);
        assert_eq!(SCALE.parse("full"), Scale::Full);
        assert_eq!(SCALE.parse("quick"), Scale::Quick);
        assert_eq!(PROFILE.parse("0"), 0);
        assert!(!PHASE_A.parse("dense"));
        assert_eq!(RNG.parse("keyed"), RngMode::Keyed);
        assert!(PROGRESS.parse("1"));
        assert!(!NO_CACHE.parse("0"));
    }

    #[test]
    #[should_panic(expected = "DRAIN_THREADS must be an integer >= 1, got \"garbage\"")]
    fn threads_rejects_garbage() {
        THREADS.parse("garbage");
    }

    #[test]
    #[should_panic(expected = "DRAIN_THREADS must be an integer >= 1, got \"0\"")]
    fn threads_rejects_zero() {
        THREADS.parse("0");
    }

    #[test]
    #[should_panic(expected = "DRAIN_SCALE must be 'quick' or 'full', got \"garbage\"")]
    fn scale_rejects_garbage() {
        SCALE.parse("garbage");
    }

    #[test]
    #[should_panic(expected = "DRAIN_PROFILE must be a cycle count (0 = off), got \"-1\"")]
    fn profile_rejects_negative() {
        PROFILE.parse("-1");
    }

    #[test]
    #[should_panic(expected = "DRAIN_PHASE_A must be 'wake' or 'dense', got \"sparse\"")]
    fn phase_a_rejects_unknown_mode() {
        PHASE_A.parse("sparse");
    }

    #[test]
    #[should_panic(expected = "DRAIN_RNG must be 'stream' or 'keyed', got \"chacha\"")]
    fn rng_rejects_unknown_mode() {
        RNG.parse("chacha");
    }

    #[test]
    #[should_panic(expected = "DRAIN_PROGRESS must be 0 or 1, got \"yes\"")]
    fn progress_rejects_non_flag() {
        PROGRESS.parse("yes");
    }

    #[test]
    #[should_panic(expected = "DRAIN_NO_CACHE must be 0 or 1, got \"true\"")]
    fn no_cache_rejects_non_flag() {
        NO_CACHE.parse("true");
    }
}
