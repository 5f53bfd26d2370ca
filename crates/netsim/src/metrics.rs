//! Unified metrics registry, kernel phase profiler, and exposition
//! encoders.
//!
//! Before this module the simulator's numbers were scattered:
//! [`crate::Stats`] counts packets and latency, [`crate::WakeCounters`]
//! counts scheduler events, fast-forward accounting lives on
//! [`crate::Sim`], check-tier sweeps nowhere at all. [`MetricsSnapshot`] unifies every family under
//! one stable `drain_` namespace as named counters / gauges / histograms
//! that can be merged across sweep workers and exported as Prometheus
//! text exposition or flat JSONL (the same hand-written, dependency-free
//! discipline as [`crate::trace`]).
//!
//! Two cost regimes, mirroring [`crate::telemetry`]:
//!
//! * **Collection is pull-based.** A snapshot reads counters the kernel
//!   maintains anyway; nothing new runs in the hot path, so building one
//!   is O(families) at scrape time and free the rest of the time.
//! * **The phase profiler is push-based but sampled.** When
//!   [`MetricsConfig::profile_period`] is non-zero, every `period`-th
//!   cycle is wall-clock-attributed per phase ([`Phase`]).
//!   Disabled (`period == 0`, the default) it costs one predictable
//!   branch per call site, the same `active()` discipline the telemetry
//!   sampler uses.
//!
//! # Determinism contract
//!
//! Nothing here feeds back into simulation state: the profiler reads
//! [`std::time::Instant`] and writes only its own accumulators, and a
//! snapshot borrows the core immutably. Enabling metrics or the profiler
//! therefore cannot shift an RNG draw, a visit order, or a `Stats`
//! counter — golden pins and golden traces hold byte-identically with
//! profiling on (the differential tests in the bench crate prove it).

use std::fmt::Write as _;
use std::time::Instant;

/// Metrics configuration, part of [`crate::SimConfig`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Kernel phase-profiler sampling cadence in cycles: every
    /// `profile_period`-th stepped cycle gets per-phase wall-time
    /// attribution. `0` (the default) disables the profiler entirely.
    pub profile_period: u64,
}

impl MetricsConfig {
    /// The cadence used when a harness asks for "profiling on" without
    /// picking a number: dense enough for stable shares, sparse enough
    /// that `Instant` reads stay invisible next to a cycle's work.
    pub const DEFAULT_PROFILE_PERIOD: u64 = 64;

    /// Profiler enabled at the given cadence.
    pub fn profiled(period: u64) -> Self {
        MetricsConfig {
            profile_period: period,
        }
    }
}

// ---------------------------------------------------------------------
// Histogram snapshots
// ---------------------------------------------------------------------

/// Number of cumulative `le` buckets in a [`HistogramSnapshot`]: bounds
/// `2^k - 1` for `k ∈ 0..=31`, plus `+Inf`.
pub const HIST_BUCKETS: usize = 33;

/// A fixed-size, heap-free digest of a [`crate::stats::LatencyHistogram`] (or
/// any other sample distribution): total count and sum, observed max,
/// and cumulative counts at power-of-two bounds.
///
/// This is the cheap scrape representation: building one is a single
/// pass over the source histogram's buckets into a stack array — no
/// clone of the 2048-entry exact array per scrape — and merging two is
/// elementwise addition, so sweep workers can aggregate snapshots
/// without touching the originals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest observed sample (not exported in Prometheus text format,
    /// which has no standard slot for it; JSONL exposition carries it).
    pub max: u64,
    /// Cumulative counts: `le[k]` is the number of samples `<= 2^k - 1`
    /// for `k < 32`; `le[32]` is the `+Inf` bucket and equals `count`.
    pub le: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            le: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// The upper bound of bucket `k` (`u64::MAX` encodes `+Inf`).
    pub fn bound(k: usize) -> u64 {
        if k >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Records one sample (used when a distribution is accumulated
    /// directly in snapshot form, e.g. per-job queue-wait times).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        // `v <= 2^k - 1` iff `bit_length(v) <= k`.
        let first = (u64::BITS - v.leading_zeros()) as usize;
        for b in self.le.iter_mut().skip(first.min(HIST_BUCKETS - 1)) {
            *b += 1;
        }
    }

    /// Merges another snapshot's samples into this one. Elementwise
    /// addition plus a max — exactly associative (the proptest in the
    /// bench crate pins this), so sweep workers may combine partial
    /// snapshots in any grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.le.iter_mut().zip(&other.le) {
            *a += b;
        }
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-quantile from the cumulative buckets: the upper
    /// bound of the first bucket reaching the target rank, clamped to
    /// the observed max. Coarser than
    /// [`crate::stats::LatencyHistogram::quantile`] (which keeps exact counts
    /// below 2048) — use the source histogram when precision matters.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((self.count as f64) * p).ceil() as u64).max(1);
        for (k, &c) in self.le.iter().enumerate() {
            if c >= target {
                return Self::bound(k).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// Metric family kind, mirroring the Prometheus data model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonically increasing integer count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Sample distribution ([`HistogramSnapshot`]).
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name, as emitted in `# TYPE` lines.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric value.
// Histogram digests are ~280 bytes against the 8-byte scalar variants,
// but a registry holds tens of samples and is rebuilt per scrape —
// boxing would trade that stack space for an allocation per histogram
// on every snapshot (and cost `Copy`).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram digest.
    Histogram(HistogramSnapshot),
}

/// One sample of a family: a label set plus a value.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricSample {
    /// Label pairs, in insertion order (empty for unlabeled samples).
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A named metric family: every sample shares the name, kind and help
/// string and differs only in labels.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricFamily {
    /// Fully-qualified metric name (stable `drain_` namespace).
    pub name: String,
    /// One-line description (the `# HELP` text).
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Samples, in insertion order.
    pub samples: Vec<MetricSample>,
}

/// A registry snapshot: every family collected from one source (a
/// simulation, a sweep engine), mergeable across sources and encodable
/// as Prometheus text exposition or flat JSONL.
///
/// Merge semantics per kind: counters and histograms **accumulate**
/// (exact u64 arithmetic, associative in any grouping — sweep workers
/// rely on this); gauges are **right-biased** (the merged-in value wins,
/// also associative). Families are matched by name, samples by label
/// set.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected families, in registration order.
    pub fn families(&self) -> &[MetricFamily] {
        &self.families
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Looks a family up by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return &mut self.families[i];
        }
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn upsert(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: MetricValue,
    ) {
        let fam = self.family_mut(name, help, kind);
        let pos = fam.samples.iter().position(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        });
        match pos {
            Some(i) => merge_value(&mut fam.samples[i].value, &value),
            None => fam.samples.push(MetricSample {
                labels: labels
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                value,
            }),
        }
    }

    /// Registers (or accumulates into) an unlabeled counter.
    pub fn counter(&mut self, name: &str, help: &str, v: u64) {
        self.upsert(name, help, MetricKind::Counter, &[], MetricValue::Counter(v));
    }

    /// Registers (or accumulates into) a labeled counter sample.
    pub fn counter_labeled(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(name, help, MetricKind::Counter, labels, MetricValue::Counter(v));
    }

    /// Registers (or overwrites) an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, v: f64) {
        self.upsert(name, help, MetricKind::Gauge, &[], MetricValue::Gauge(v));
    }

    /// Registers (or overwrites) a labeled gauge sample.
    pub fn gauge_labeled(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.upsert(name, help, MetricKind::Gauge, labels, MetricValue::Gauge(v));
    }

    /// Registers (or merges into) an unlabeled histogram.
    pub fn histogram(&mut self, name: &str, help: &str, h: HistogramSnapshot) {
        self.upsert(name, help, MetricKind::Histogram, &[], MetricValue::Histogram(h));
    }

    /// The value of an unlabeled counter, when present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.family(name)?.samples.first()?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a labeled counter sample, when present.
    pub fn counter_value_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fam = self.family(name)?;
        let s = fam.samples.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        })?;
        match s.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of an unlabeled gauge, when present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.family(name)?.samples.first()?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Merges another snapshot into this one (see the type docs for the
    /// per-kind semantics). Families and samples unknown on this side
    /// are appended in the other side's order, so merging is
    /// deterministic given deterministic inputs.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for fam in &other.families {
            for s in &fam.samples {
                let labels: Vec<(&str, &str)> = s
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                self.upsert(&fam.name, &fam.help, fam.kind, &labels, s.value);
            }
        }
    }

    // -----------------------------------------------------------------
    // Prometheus text exposition
    // -----------------------------------------------------------------

    /// Encodes the snapshot as Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP` / `# TYPE` headers per
    /// family, histogram expansion into `_bucket{le=...}` / `_sum` /
    /// `_count` series. Deterministic: same snapshot, same bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.name());
            for s in &fam.samples {
                match &s.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, label_str(&s.labels, &[]), v);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            label_str(&s.labels, &[]),
                            fmt_f64(*v)
                        );
                    }
                    MetricValue::Histogram(h) => {
                        for (k, &c) in h.le.iter().enumerate() {
                            let le = if k == HIST_BUCKETS - 1 {
                                "+Inf".to_string()
                            } else {
                                HistogramSnapshot::bound(k).to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                fam.name,
                                label_str(&s.labels, &[("le", &le)]),
                                c
                            );
                        }
                        let _ =
                            writeln!(out, "{}_sum{} {}", fam.name, label_str(&s.labels, &[]), h.sum);
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            fam.name,
                            label_str(&s.labels, &[]),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }

    /// Parses text exposition produced by
    /// [`MetricsSnapshot::to_prometheus`] back into a snapshot
    /// (histograms are reassembled from their `_bucket`/`_sum`/`_count`
    /// series; the non-standard `max` is not carried by the wire format
    /// and parses back as the largest non-empty bucket bound). The
    /// round-trip test pins `encode(parse(encode(s))) == encode(s)`.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::new();
        let mut cur_kind = MetricKind::Gauge;
        let mut cur_name = String::new();
        let mut cur_help = String::new();
        // Histogram accumulation state for the family being parsed.
        let mut hist: Option<(Vec<(String, String)>, HistogramSnapshot)> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: &str| format!("line {}: {m}: {raw}", ln + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                cur_name = name.to_string();
                cur_help = unescape_help(help);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').ok_or_else(|| err("bad TYPE"))?;
                if name != cur_name {
                    cur_name = name.to_string();
                    cur_help.clear();
                }
                cur_kind = match kind {
                    "counter" => MetricKind::Counter,
                    "gauge" => MetricKind::Gauge,
                    "histogram" => MetricKind::Histogram,
                    other => return Err(err(&format!("unknown kind {other}"))),
                };
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (key, value) = line.rsplit_once(' ').ok_or_else(|| err("no value"))?;
            let (name, labels) = parse_labels(key).map_err(|m| err(&m))?;
            match cur_kind {
                MetricKind::Counter => {
                    let v: u64 = value.parse().map_err(|_| err("bad counter value"))?;
                    let l: Vec<(&str, &str)> =
                        labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                    snap.upsert(&name, &cur_help, cur_kind, &l, MetricValue::Counter(v));
                }
                MetricKind::Gauge => {
                    let v: f64 = value.parse().map_err(|_| err("bad gauge value"))?;
                    let l: Vec<(&str, &str)> =
                        labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                    snap.upsert(&name, &cur_help, cur_kind, &l, MetricValue::Gauge(v));
                }
                MetricKind::Histogram => {
                    let v: u64 = value.parse().map_err(|_| err("bad histogram value"))?;
                    if name == format!("{cur_name}_bucket") {
                        let le = labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .map(|(_, v)| v.clone())
                            .ok_or_else(|| err("bucket without le"))?;
                        let rest: Vec<(String, String)> = labels
                            .iter()
                            .filter(|(k, _)| k != "le")
                            .cloned()
                            .collect();
                        let (_, h) = hist.get_or_insert_with(|| (rest.clone(), HistogramSnapshot::default()));
                        let k = if le == "+Inf" {
                            HIST_BUCKETS - 1
                        } else {
                            let bound: u64 = le.parse().map_err(|_| err("bad le"))?;
                            (0..HIST_BUCKETS - 1)
                                .find(|&k| HistogramSnapshot::bound(k) == bound)
                                .ok_or_else(|| err("le off the 2^k - 1 grid"))?
                        };
                        h.le[k] = v;
                    } else if name == format!("{cur_name}_sum") {
                        if let Some((_, h)) = hist.as_mut() {
                            h.sum = v;
                        }
                    } else if name == format!("{cur_name}_count") {
                        let (lbls, mut h) = hist.take().unwrap_or_default();
                        h.count = v;
                        // Best-effort max: the largest non-empty bound.
                        h.max = (0..HIST_BUCKETS - 1)
                            .rev()
                            .find(|&k| h.le[k] < h.count)
                            .map(|k| HistogramSnapshot::bound(k + 1))
                            .unwrap_or(0);
                        let l: Vec<(&str, &str)> =
                            lbls.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                        snap.upsert(
                            &cur_name,
                            &cur_help,
                            MetricKind::Histogram,
                            &l,
                            MetricValue::Histogram(h),
                        );
                    } else {
                        return Err(err("unexpected histogram series"));
                    }
                }
            }
        }
        Ok(snap)
    }

    // -----------------------------------------------------------------
    // JSONL exposition
    // -----------------------------------------------------------------

    /// Encodes the snapshot as one flat JSONL object, mergeable into the
    /// telemetry stream the harness already writes: `{"kind":"metrics",
    /// "cycle":N, "<series>":value, ...}`. Labeled samples use their
    /// exposition key (`name{k="v"}`) as the JSON key; histograms expand
    /// to `_count`/`_sum`/`_max`/`_p50`/`_p99`.
    pub fn to_jsonl(&self, cycle: u64) -> String {
        let mut out = String::from("{\"kind\":\"metrics\"");
        let _ = write!(out, ",\"cycle\":{cycle}");
        for fam in &self.families {
            for s in &fam.samples {
                let key = format!("{}{}", fam.name, label_str(&s.labels, &[]));
                match &s.value {
                    MetricValue::Counter(v) => {
                        let _ = write!(out, ",{}:{}", json_str(&key), v);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = write!(out, ",{}:{}", json_str(&key), fmt_f64(*v));
                    }
                    MetricValue::Histogram(h) => {
                        let _ = write!(out, ",{}:{}", json_str(&format!("{key}_count")), h.count);
                        let _ = write!(out, ",{}:{}", json_str(&format!("{key}_sum")), h.sum);
                        let _ = write!(out, ",{}:{}", json_str(&format!("{key}_max")), h.max);
                        let _ = write!(
                            out,
                            ",{}:{}",
                            json_str(&format!("{key}_p50")),
                            h.quantile(0.5)
                        );
                        let _ = write!(
                            out,
                            ",{}:{}",
                            json_str(&format!("{key}_p99")),
                            h.quantile(0.99)
                        );
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

fn merge_value(into: &mut MetricValue, from: &MetricValue) {
    match (into, from) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
        (into, from) => panic!("metric kind mismatch merging {from:?} into {into:?}"),
    }
}

/// Formats labels as `{k="v",...}` (empty string when there are none);
/// `extra` pairs are appended after the sample's own labels.
fn label_str(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Parses `name` or `name{k="v",...}` into (name, labels).
fn parse_labels(key: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(brace) = key.find('{') else {
        return Ok((key.to_string(), Vec::new()));
    };
    let name = key[..brace].to_string();
    let body = key[brace + 1..]
        .strip_suffix('}')
        .ok_or("unterminated label set")?;
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without =")?;
        let k = rest[..eq].to_string();
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        // Scan to the closing quote, honouring backslash escapes.
        let mut val = String::new();
        let mut chars = after.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => val.push('\n'),
                    Some((_, e)) => val.push(e),
                    None => return Err("dangling escape".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => val.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((k, val));
        rest = after[end + 1..].strip_prefix(',').unwrap_or(&after[end + 1..]);
    }
    Ok((name, labels))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(e) => out.push(e),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Formats an `f64` so it parses back exactly ({} is Rust's shortest
/// round-trip form) while keeping integral values integral-looking.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Minimal JSON string encoder for controlled metric keys.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Kernel phase profiler
// ---------------------------------------------------------------------

/// Number of attributed phases (see [`Phase`]).
pub const NUM_PHASES: usize = 7;

/// One phase of the per-cycle engine, for wall-time attribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Endpoint models: traffic generation, delivery consumption.
    Endpoints = 0,
    /// Mechanism control (drain/spin/freeze decisions) plus the
    /// structural deadlock detector and watchdog instrumentation.
    Mechanism = 1,
    /// Phase A: routing, parking, and wake bookkeeping.
    PhaseA = 2,
    /// Phase B: ejection and link grants, commits.
    PhaseB = 3,
    /// Forced permutation cycles (drains, spins).
    Forced = 4,
    /// Runtime invariant checks.
    Checks = 5,
    /// Telemetry sampling.
    Telemetry = 6,
}

impl Phase {
    /// Every phase, in attribution order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Endpoints,
        Phase::Mechanism,
        Phase::PhaseA,
        Phase::PhaseB,
        Phase::Forced,
        Phase::Checks,
        Phase::Telemetry,
    ];

    /// Stable label, used in the `phase` label of
    /// `drain_profile_phase_nanos_total`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Endpoints => "endpoints",
            Phase::Mechanism => "mechanism",
            Phase::PhaseA => "phase_a",
            Phase::PhaseB => "phase_b",
            Phase::Forced => "forced",
            Phase::Checks => "checks",
            Phase::Telemetry => "telemetry",
        }
    }
}

/// Scoped wall-time attribution per cycle phase, sampled
/// every [`MetricsConfig::profile_period`] cycles.
///
/// The driver brackets each sampled cycle with
/// [`PhaseProfiler::begin_cycle`] / [`PhaseProfiler::end_cycle`] and
/// drops a [`PhaseProfiler::mark`] at each phase boundary; `mark`
/// attributes the wall time elapsed since the previous mark to the named
/// phase. Unsampled cycles (and the disabled profiler) cost one bool
/// check per call site.
///
/// Determinism: the profiler reads the wall clock and writes only its
/// own accumulators — simulation state, RNG draws and `Stats` are
/// untouched, so results are byte-identical with profiling on or off.
#[derive(Debug)]
pub struct PhaseProfiler {
    period: u64,
    active: bool,
    mark_at: Instant,
    cycle_start: Instant,
    phase_nanos: [u64; NUM_PHASES],
    cycle_nanos: u64,
    sampled: u64,
}

impl PhaseProfiler {
    /// A profiler sampling every `period` cycles (0 = disabled).
    pub fn new(period: u64) -> Self {
        let now = Instant::now();
        PhaseProfiler {
            period,
            active: false,
            mark_at: now,
            cycle_start: now,
            phase_nanos: [0; NUM_PHASES],
            cycle_nanos: 0,
            sampled: 0,
        }
    }

    /// Whether the profiler is configured at all (any cadence).
    pub fn enabled(&self) -> bool {
        self.period > 0
    }

    /// The sampling cadence (0 = disabled).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Whether the current cycle is being attributed. Hot paths guard
    /// their marks behind this (one bool read).
    #[inline(always)]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Opens a cycle: decides whether `cycle` is sampled and stamps the
    /// phase clock. One branch when disabled.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        if self.period == 0 {
            return;
        }
        self.active = cycle.is_multiple_of(self.period);
        if self.active {
            let now = Instant::now();
            self.cycle_start = now;
            self.mark_at = now;
        }
    }

    /// Attributes the wall time since the previous mark to `phase` and
    /// restamps the clock. One branch when the cycle is not sampled.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if !self.active {
            return;
        }
        let now = Instant::now();
        self.phase_nanos[phase as usize] +=
            now.duration_since(self.mark_at).as_nanos() as u64;
        self.mark_at = now;
    }

    /// Closes a sampled cycle: accounts total cycle wall time.
    #[inline]
    pub fn end_cycle(&mut self) {
        if !self.active {
            return;
        }
        self.active = false;
        self.cycle_nanos += self.cycle_start.elapsed().as_nanos() as u64;
        self.sampled += 1;
    }

    /// Sampled cycles so far.
    pub fn sampled_cycles(&self) -> u64 {
        self.sampled
    }

    /// Total wall nanoseconds across sampled cycles.
    pub fn cycle_nanos(&self) -> u64 {
        self.cycle_nanos
    }

    /// Accumulated wall nanoseconds attributed to `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    /// Sampled-cycle wall time not attributed to any phase (cycle
    /// bookkeeping, the marks themselves).
    pub fn other_nanos(&self) -> u64 {
        self.cycle_nanos
            .saturating_sub(self.phase_nanos.iter().sum())
    }

    /// Per-phase share of sampled-cycle wall time, plus an `"other"`
    /// row; the shares sum to 1.0 by construction (empty when nothing
    /// was sampled).
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        if self.cycle_nanos == 0 {
            return Vec::new();
        }
        let total = self.cycle_nanos as f64;
        let mut out: Vec<(&'static str, f64)> = Phase::ALL
            .iter()
            .map(|&p| (p.name(), self.phase_nanos[p as usize] as f64 / total))
            .collect();
        out.push(("other", self.other_nanos() as f64 / total));
        out
    }

    /// Registers the profiler's accumulators into a snapshot under the
    /// `drain_profile_` namespace.
    pub fn collect(&self, out: &mut MetricsSnapshot) {
        if !self.enabled() {
            return;
        }
        out.counter(
            "drain_profile_sampled_cycles_total",
            "Cycles the phase profiler attributed",
            self.sampled,
        );
        out.counter(
            "drain_profile_cycle_nanos_total",
            "Total wall nanoseconds across sampled cycles",
            self.cycle_nanos,
        );
        for &p in &Phase::ALL {
            out.counter_labeled(
                "drain_profile_phase_nanos_total",
                "Wall nanoseconds attributed per cycle phase over sampled cycles",
                &[("phase", p.name())],
                self.phase_nanos[p as usize],
            );
        }
        out.counter_labeled(
            "drain_profile_phase_nanos_total",
            "Wall nanoseconds attributed per cycle phase over sampled cycles",
            &[("phase", "other")],
            self.other_nanos(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_snapshot_records_and_quantiles() {
        let mut h = HistogramSnapshot::default();
        for v in [0u64, 1, 2, 3, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 5106);
        assert_eq!(h.max, 5000);
        assert_eq!(h.le[0], 1, "one zero sample at le=0");
        assert_eq!(h.le[1], 2, "0 and 1 at le=1");
        assert_eq!(h.le[2], 4, "0..=3 at le=3");
        assert_eq!(h.le[HIST_BUCKETS - 1], 6, "+Inf sees everything");
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) <= h.max);
    }

    #[test]
    fn histogram_snapshot_merge_matches_joint_recording() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut joint = HistogramSnapshot::default();
        for v in [1u64, 7, 130] {
            a.record(v);
            joint.record(v);
        }
        for v in [2u64, 9000] {
            b.record(v);
            joint.record(v);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn registry_accumulates_counters_and_overwrites_gauges() {
        let mut s = MetricsSnapshot::new();
        s.counter("drain_x_total", "x", 3);
        s.counter("drain_x_total", "x", 4);
        assert_eq!(s.counter_value("drain_x_total"), Some(7));
        s.gauge("drain_g", "g", 1.5);
        s.gauge("drain_g", "g", 2.5);
        assert_eq!(s.gauge_value("drain_g"), Some(2.5));
        s.counter_labeled("drain_l_total", "l", &[("k", "a")], 1);
        s.counter_labeled("drain_l_total", "l", &[("k", "b")], 2);
        s.counter_labeled("drain_l_total", "l", &[("k", "a")], 10);
        assert_eq!(
            s.counter_value_labeled("drain_l_total", &[("k", "a")]),
            Some(11)
        );
        assert_eq!(
            s.counter_value_labeled("drain_l_total", &[("k", "b")]),
            Some(2)
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_conflicts() {
        let mut s = MetricsSnapshot::new();
        s.counter("drain_x", "x", 1);
        s.gauge("drain_x", "x", 1.0);
    }

    #[test]
    fn merge_is_associative_on_counters() {
        let build = |v: u64| {
            let mut s = MetricsSnapshot::new();
            s.counter("drain_a_total", "a", v);
            s.counter_labeled("drain_b_total", "b", &[("k", "x")], v * 2);
            s
        };
        let (a, b, c) = (build(1), build(10), build(100));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter_value("drain_a_total"), Some(111));
    }

    #[test]
    fn prometheus_encoding_shape() {
        let mut s = MetricsSnapshot::new();
        s.counter("drain_x_total", "packets seen", 42);
        s.gauge_labeled("drain_g", "a gauge", &[("router", "0")], 0.5);
        let mut h = HistogramSnapshot::default();
        h.record(3);
        h.record(500);
        s.histogram("drain_h_cycles", "latency", h);
        let text = s.to_prometheus();
        assert!(text.contains("# HELP drain_x_total packets seen"));
        assert!(text.contains("# TYPE drain_x_total counter"));
        assert!(text.contains("drain_x_total 42"));
        assert!(text.contains("drain_g{router=\"0\"} 0.5"));
        assert!(text.contains("drain_h_cycles_bucket{le=\"3\"} 1"));
        assert!(text.contains("drain_h_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("drain_h_cycles_sum 503"));
        assert!(text.contains("drain_h_cycles_count 2"));
    }

    #[test]
    fn prometheus_round_trip_is_stable() {
        let mut s = MetricsSnapshot::new();
        s.counter("drain_x_total", "counts with spaces in help", 7);
        s.gauge("drain_rate", "a fractional gauge", 0.125);
        s.counter_labeled("drain_wake_events_total", "wake", &[("event", "parks")], 5);
        s.counter_labeled("drain_wake_events_total", "wake", &[("event", "skips")], 9);
        let mut h = HistogramSnapshot::default();
        for v in [1u64, 2, 3, 4096] {
            h.record(v);
        }
        s.histogram("drain_lat_cycles", "latency", h);
        let once = s.to_prometheus();
        let parsed = MetricsSnapshot::parse_prometheus(&once).expect("parses");
        assert_eq!(parsed.to_prometheus(), once, "encode∘parse is identity on encodings");
        assert_eq!(parsed.counter_value("drain_x_total"), Some(7));
        assert_eq!(
            parsed.counter_value_labeled("drain_wake_events_total", &[("event", "skips")]),
            Some(9)
        );
    }

    #[test]
    fn jsonl_line_is_flat_and_tagged() {
        let mut s = MetricsSnapshot::new();
        s.counter("drain_x_total", "x", 3);
        let mut h = HistogramSnapshot::default();
        h.record(10);
        s.histogram("drain_h", "h", h);
        let line = s.to_jsonl(1234);
        assert!(line.starts_with("{\"kind\":\"metrics\",\"cycle\":1234"));
        assert!(line.contains("\"drain_x_total\":3"));
        assert!(line.contains("\"drain_h_count\":1"));
        assert!(line.contains("\"drain_h_max\":10"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn profiler_disabled_is_inert() {
        let mut p = PhaseProfiler::new(0);
        p.begin_cycle(0);
        assert!(!p.active());
        p.mark(Phase::PhaseA);
        p.end_cycle();
        assert_eq!(p.sampled_cycles(), 0);
        assert_eq!(p.cycle_nanos(), 0);
        let mut out = MetricsSnapshot::new();
        p.collect(&mut out);
        assert!(out.is_empty(), "disabled profiler registers nothing");
    }

    #[test]
    fn profiler_samples_on_cadence_and_shares_sum_to_one() {
        let mut p = PhaseProfiler::new(4);
        for cycle in 0..8u64 {
            p.begin_cycle(cycle);
            assert_eq!(p.active(), cycle % 4 == 0);
            std::hint::black_box((0..100).sum::<u64>());
            p.mark(Phase::PhaseA);
            std::hint::black_box((0..100).sum::<u64>());
            p.mark(Phase::PhaseB);
            p.end_cycle();
        }
        assert_eq!(p.sampled_cycles(), 2);
        assert!(p.cycle_nanos() >= p.phase_nanos(Phase::PhaseA) + p.phase_nanos(Phase::PhaseB));
        let total: f64 = p.shares().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1.0, got {total}");
        let mut out = MetricsSnapshot::new();
        p.collect(&mut out);
        assert_eq!(
            out.counter_value("drain_profile_sampled_cycles_total"),
            Some(2)
        );
    }
}
