//! Content-addressed on-disk result cache for sweep points.
//!
//! Every [`PointSpec`] hashes its [canonical key
//! string](PointSpec::key_material) — scheme, topology, pattern, rate,
//! seed, epoch, hops, scale — plus [`HARNESS_VERSION`] into a 64-bit
//! FNV-1a digest; the measured [`Point`] is stored as
//! `results/cache/<hex-digest>.json`. Re-running a figure only simulates
//! points whose digests are absent, so a warm rerun executes **zero** new
//! simulations.
//!
//! Invalidation:
//! * changing any spec field changes the digest (unit-tested in
//!   [`crate::sweep::plan`]);
//! * bumping [`HARNESS_VERSION`] (do this whenever simulator behaviour
//!   changes!) orphans every old entry;
//! * `DRAIN_NO_CACHE=1` disables the cache for one run (force-cold);
//! * deleting `results/cache/` is always safe.
//!
//! Stored entries embed the full key string, which is compared on load —
//! a hash collision or a stale schema therefore degrades to a cache miss,
//! never to a wrong result.

use std::fs;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::sweep::plan::PointSpec;
use crate::sweep::Point;

/// Version tag mixed into every cache key. **Bump on any change that
/// alters simulation results** (simulator behaviour, scheme assembly,
/// RNG streams, scale parameters).
pub const HARNESS_VERSION: u32 = 1;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The full key string for a spec (harness version + spec fields).
pub fn key_string(spec: &PointSpec) -> String {
    format!("v{HARNESS_VERSION}|{}", spec.key_material())
}

/// The on-disk digest (filename stem) for a spec.
pub fn digest(spec: &PointSpec) -> String {
    format!("{:016x}", fnv1a64(key_string(spec).as_bytes()))
}

/// Handle to the cache directory (or to a disabled cache).
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// Default directory: `results/cache` under the working directory.
    pub const DEFAULT_DIR: &'static str = "results/cache";

    /// Cache honouring the environment: `DRAIN_NO_CACHE=1` disables it,
    /// `DRAIN_CACHE_DIR` overrides the location.
    pub fn from_env() -> ResultCache {
        if crate::knobs::NO_CACHE.get() == Some(true) {
            return ResultCache::disabled();
        }
        let dir = std::env::var("DRAIN_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(Self::DEFAULT_DIR));
        ResultCache::at(dir)
    }

    /// Cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: Some(dir.into()),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> ResultCache {
        ResultCache { dir: None }
    }

    /// Whether lookups/stores can ever succeed.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn entry_path(&self, spec: &PointSpec) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", digest(spec))))
    }

    /// Returns the cached point for `spec`, or `None` on miss (including
    /// unreadable/mismatched entries, which degrade to misses).
    pub fn lookup(&self, spec: &PointSpec) -> Option<Point> {
        let path = self.entry_path(spec)?;
        let text = fs::read_to_string(path).ok()?;
        read_entry(&text, &key_string(spec))
    }

    /// Persists `point` under `spec`'s digest. IO errors are reported to
    /// stderr but never fail the run (the cache is an accelerator, not a
    /// dependency).
    pub fn store(&self, spec: &PointSpec, point: &Point) {
        let Some(path) = self.entry_path(spec) else {
            return;
        };
        if let Some(parent) = path.parent() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!("warning: cannot create cache dir {parent:?}: {e}");
                return;
            }
        }
        let text = write_entry(&key_string(spec), point);
        if let Err(e) = write_atomically(&path, &text) {
            eprintln!("warning: cannot write cache entry {path:?}: {e}");
        }
    }
}

/// Writes via a temp file + rename so concurrent runs never observe a
/// truncated entry.
fn write_atomically(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

fn write_entry(key: &str, point: &Point) -> String {
    Json::obj([
        ("harness_version", Json::Num(HARNESS_VERSION as f64)),
        ("key", Json::Str(key.to_string())),
        (
            "point",
            Json::obj([
                ("offered", json::num(point.offered)),
                ("throughput", json::num(point.throughput)),
                ("latency", json::num(point.latency)),
                ("p99", Json::Num(point.p99 as f64)),
            ]),
        ),
    ])
    .to_string()
}

fn read_entry(text: &str, expected_key: &str) -> Option<Point> {
    let v = json::parse(text).ok()?;
    if v.get("key")?.as_str()? != expected_key {
        return None;
    }
    let p = v.get("point")?;
    Some(Point {
        offered: json::float_or_nan(p.get("offered"))?,
        throughput: json::float_or_nan(p.get("throughput"))?,
        latency: json::float_or_nan(p.get("latency"))?,
        p99: p.get("p99")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::scheme::Scheme;
    use crate::sweep::plan::TopoSpec;
    use drain_netsim::traffic::SyntheticPattern;

    fn spec() -> PointSpec {
        PointSpec::new(
            Scheme::Spin,
            TopoSpec::Mesh { w: 4, h: 4 },
            SyntheticPattern::UniformRandom,
            0.05,
            1,
            Scale::Quick,
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "drain-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::at(&dir);
        let point = Point {
            offered: 0.05,
            throughput: 0.048,
            latency: 11.25,
            p99: 31,
        };
        assert!(cache.lookup(&spec()).is_none(), "cold cache must miss");
        cache.store(&spec(), &point);
        assert_eq!(cache.lookup(&spec()), Some(point));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nan_latency_survives_the_roundtrip() {
        let dir = tmp_dir("nan");
        let cache = ResultCache::at(&dir);
        let point = Point {
            offered: 0.02,
            throughput: 0.0,
            latency: f64::NAN,
            p99: 0,
        };
        cache.store(&spec(), &point);
        let back = cache.lookup(&spec()).unwrap();
        assert!(back.latency.is_nan());
        assert_eq!(back.throughput, 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_degrades_to_miss() {
        let dir = tmp_dir("mismatch");
        let cache = ResultCache::at(&dir);
        let point = Point {
            offered: 0.05,
            throughput: 0.04,
            latency: 9.0,
            p99: 20,
        };
        cache.store(&spec(), &point);
        // Overwrite the entry with one whose embedded key differs
        // (simulating a hash collision / harness-version change).
        let path = cache.entry_path(&spec()).unwrap();
        fs::write(&path, write_entry("v0|other", &point)).unwrap();
        assert!(cache.lookup(&spec()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_degrade_to_miss() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::at(&dir);
        cache.store(
            &spec(),
            &Point {
                offered: 0.05,
                throughput: 0.04,
                latency: 9.0,
                p99: 20,
            },
        );
        let path = cache.entry_path(&spec()).unwrap();
        fs::write(&path, "{not json").unwrap();
        assert!(cache.lookup(&spec()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = ResultCache::disabled();
        assert!(!cache.is_enabled());
        let point = Point {
            offered: 0.1,
            throughput: 0.1,
            latency: 8.0,
            p99: 12,
        };
        cache.store(&spec(), &point);
        assert!(cache.lookup(&spec()).is_none());
    }

    #[test]
    fn digest_is_hex_of_key() {
        let s = spec();
        assert_eq!(
            digest(&s),
            format!("{:016x}", fnv1a64(key_string(&s).as_bytes()))
        );
        assert!(key_string(&s).starts_with(&format!("v{HARNESS_VERSION}|")));
    }
}
