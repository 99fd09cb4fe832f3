//! Continuous telemetry: a deterministic time-series sampler plus the
//! sentinels that watch its stream.
//!
//! PR 6's profiles and flight recorder answer "what did *this query*
//! do?"; this module answers "what is the engine doing *over time*?" —
//! the view a long-lived serving process needs for leak detection and
//! latency SLOs, and the feedstock for workload-driven optimization
//! (SOLAR-style planning from accumulated statistics).
//!
//! # Tick model
//!
//! Time here is **logical**: one tick per completed query, advanced by
//! the engine's query drivers via [`tick`]. Wall clocks never enter the
//! stream, so two identical runs produce bit-identical samples. Every
//! `every_ticks` ticks the sampler snapshots the whole registry —
//! counters, gauges, and histogram observation totals — into a bounded
//! ring of [`Sample`]s.
//!
//! # Sparseness
//!
//! Samples store only **nonzero** values. A counter that has never
//! moved is indistinguishable from one that was merely registered (the
//! registry lazily interns names and [`crate::reset`] zeroes rather
//! than un-interns), so omitting zeros is what makes a re-run inside
//! the same process byte-identical to the first run.
//!
//! # Sentinels
//!
//! [`LeakSentinel`] watches a resource level series for monotonic drift
//! away from a baseline — the signature of a leak, as opposed to a
//! cache legitimately warming up to a plateau. [`check_slo`] gates a
//! latency quantile of a pow2 histogram against a fixed ceiling. Both
//! yield a [`Verdict`] with a pinned, test-asserted message format.

use crate::json::Json;
use crate::names;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Schema tag stamped into every rendered document.
pub const SCHEMA: &str = "pbsm-timeseries-v1";

/// Sampler configuration. `every_ticks == 0` disables sampling (the
/// default): [`tick`] still counts, but nothing is captured.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplerConfig {
    /// Capture a sample every this many logical ticks (0 = disabled).
    pub every_ticks: u64,
    /// Ring bound: oldest samples are evicted past this.
    pub ring_capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            every_ticks: 0,
            ring_capacity: 256,
        }
    }
}

/// One captured sample: levels and deltas at a logical tick.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    /// Logical tick at which this sample was captured.
    pub tick: u64,
    /// Ticks since the previous sample (== `every_ticks` in steady state).
    pub interval: u64,
    /// Counter levels, nonzero only, registration order.
    pub counters: Vec<(String, u64)>,
    /// Counter deltas vs the previous sample, nonzero only.
    pub deltas: Vec<(String, u64)>,
    /// Gauge levels, nonzero only.
    pub gauges: Vec<(String, u64)>,
    /// Histogram observation totals, nonzero only.
    pub hist_counts: Vec<(String, u64)>,
}

#[derive(Default)]
struct SamplerState {
    config: SamplerConfig,
    ticks: u64,
    last_sample_tick: u64,
    /// Previous filtered counter snapshot; absent name == 0.
    prev_counters: Vec<(String, u64)>,
    ring: VecDeque<Sample>,
    evicted: u64,
}

thread_local! {
    static SAMPLER: RefCell<SamplerState> = RefCell::new(SamplerState::default());
}

/// Arms (or re-arms) the sampler. Clears any previously captured
/// samples and restarts the logical clock at tick 0. Call *after*
/// [`crate::reset`] — reset disarms the sampler so each bench session
/// starts from a known-quiet state.
pub fn configure(config: SamplerConfig) {
    SAMPLER.with(|s| {
        *s.borrow_mut() = SamplerState {
            config,
            ..SamplerState::default()
        };
    });
}

/// Is a nonzero sampling interval configured?
pub fn is_enabled() -> bool {
    SAMPLER.with(|s| s.borrow().config.every_ticks > 0)
}

/// Returns the sampler to the disabled default and drops all state.
/// Called from [`crate::reset`].
pub(crate) fn clear() {
    SAMPLER.with(|s| *s.borrow_mut() = SamplerState::default());
}

/// Advances the logical clock by one query. Cheap when disarmed (one
/// counter bump); captures a sample on every `every_ticks`-th tick.
pub fn tick() {
    crate::counter(names::TIMESERIES_TICKS).incr();
    let due = SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        s.ticks += 1;
        s.config.every_ticks > 0 && s.ticks % s.config.every_ticks == 0
    });
    if due {
        capture();
    }
}

/// Current logical tick.
pub fn ticks() -> u64 {
    SAMPLER.with(|s| s.borrow().ticks)
}

/// Clones the retained samples, oldest first.
pub fn samples() -> Vec<Sample> {
    SAMPLER.with(|s| s.borrow().ring.iter().cloned().collect())
}

/// Samples evicted from the ring so far.
pub fn evicted() -> u64 {
    SAMPLER.with(|s| s.borrow().evicted)
}

fn capture() {
    crate::counter(names::TIMESERIES_SAMPLES).incr();
    // The accessors run the deferred-metric flushers, so gauge levels
    // and pool/disk counters are current as of this tick. They borrow
    // the collector, not the sampler — no re-entrancy.
    let all_counters = crate::counters();
    let all_gauges = crate::gauges();
    let all_hists = crate::histogram_counts();
    SAMPLER.with(|s| {
        let mut s = s.borrow_mut();
        let counters: Vec<(String, u64)> =
            all_counters.into_iter().filter(|(_, v)| *v > 0).collect();
        let deltas: Vec<(String, u64)> = counters
            .iter()
            .filter_map(|(n, v)| {
                let before = s
                    .prev_counters
                    .iter()
                    .find(|(pn, _)| pn == n)
                    .map_or(0, |&(_, pv)| pv);
                (*v > before).then(|| (n.clone(), v - before))
            })
            .collect();
        let sample = Sample {
            tick: s.ticks,
            interval: s.ticks - s.last_sample_tick,
            deltas,
            gauges: all_gauges.into_iter().filter(|(_, v)| *v > 0).collect(),
            hist_counts: all_hists.into_iter().filter(|(_, v)| *v > 0).collect(),
            counters: counters.clone(),
        };
        s.prev_counters = counters;
        s.last_sample_tick = s.ticks;
        if s.ring.len() >= s.config.ring_capacity.max(1) {
            s.ring.pop_front();
            s.evicted += 1;
            crate::counter(names::TIMESERIES_EVICTED).incr();
        }
        s.ring.push_back(sample);
    });
}

fn pairs_obj(pairs: &[(String, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(n, v)| (n.clone(), Json::uint(*v)))
            .collect(),
    )
}

/// Renders a sample set as a schema-versioned document:
///
/// ```json
/// {
///   "schema": "pbsm-timeseries-v1",
///   "every_ticks": 16, "ring_capacity": 512, "evicted": 0,
///   "samples": [{
///     "tick": 16, "interval": 16,
///     "counters": {"storage.disk.reads": 840, ...},
///     "deltas":   {"storage.disk.reads": 120, ...},
///     "rates":    {"storage.disk.reads": 7.5, ...},
///     "gauges":   {"storage.pool.occupied": 512, ...},
///     "hist_counts": {"obs.timeseries.query_io_ns.pbsm": 6, ...}
///   }, ...]
/// }
/// ```
///
/// `rates` are per-tick: `delta / interval`, both exact integers, so
/// the quotient (and its rendering) is deterministic.
pub fn to_json(samples: &[Sample], config: &SamplerConfig, evicted: u64) -> Json {
    let rendered = samples
        .iter()
        .map(|s| {
            let rates = Json::Obj(
                s.deltas
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Num(*v as f64 / s.interval.max(1) as f64)))
                    .collect(),
            );
            Json::Obj(vec![
                ("tick".into(), Json::uint(s.tick)),
                ("interval".into(), Json::uint(s.interval)),
                ("counters".into(), pairs_obj(&s.counters)),
                ("deltas".into(), pairs_obj(&s.deltas)),
                ("rates".into(), rates),
                ("gauges".into(), pairs_obj(&s.gauges)),
                ("hist_counts".into(), pairs_obj(&s.hist_counts)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("every_ticks".into(), Json::uint(config.every_ticks)),
        (
            "ring_capacity".into(),
            Json::uint(config.ring_capacity as u64),
        ),
        ("evicted".into(), Json::uint(evicted)),
        ("samples".into(), Json::Arr(rendered)),
    ])
}

/// Renders the live ring as a [`to_json`] document.
pub fn session() -> Json {
    SAMPLER.with(|s| {
        let s = s.borrow();
        let samples: Vec<Sample> = s.ring.iter().cloned().collect();
        to_json(&samples, &s.config, s.evicted)
    })
}

/// Checks a rendered document against the `pbsm-timeseries-v1` shape.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, want {SCHEMA:?}"));
    }
    for key in ["every_ticks", "ring_capacity", "evicted"] {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric {key}"))?;
    }
    let samples = doc
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or("missing samples array")?;
    let mut last_tick = 0u64;
    for (i, s) in samples.iter().enumerate() {
        let tick = s
            .get("tick")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("sample {i}: missing tick"))?;
        if tick <= last_tick && i > 0 {
            return Err(format!("sample {i}: tick {tick} not increasing"));
        }
        last_tick = tick;
        let interval = s
            .get("interval")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("sample {i}: missing interval"))?;
        if interval == 0 {
            return Err(format!("sample {i}: zero interval"));
        }
        for key in ["counters", "deltas", "rates", "gauges", "hist_counts"] {
            if !matches!(s.get(key), Some(Json::Obj(_))) {
                return Err(format!("sample {i}: missing object {key}"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Sparkline dashboard
// ---------------------------------------------------------------------

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                '·'
            } else {
                // Scale 1..=max onto the 8 block heights.
                let idx = ((v as f64 / max as f64) * 8.0).ceil() as usize;
                SPARK[idx.clamp(1, 8) - 1]
            }
        })
        .collect()
}

fn series_names(samples: &[Sample], pick: fn(&Sample) -> &[(String, u64)]) -> Vec<String> {
    let mut names: Vec<String> = samples
        .iter()
        .flat_map(|s| pick(s).iter().map(|(n, _)| n.clone()))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn series_values(
    samples: &[Sample],
    name: &str,
    pick: fn(&Sample) -> &[(String, u64)],
) -> Vec<u64> {
    samples
        .iter()
        .map(|s| {
            pick(s)
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        })
        .collect()
}

/// Renders a text dashboard: one sparkline per moving series, counter
/// deltas first, then gauge levels. Deterministic (sorted by name).
pub fn dashboard(samples: &[Sample]) -> String {
    let mut out = String::new();
    if samples.is_empty() {
        out.push_str("timeseries: no samples captured\n");
        return out;
    }
    let span = samples.last().map_or(0, |s| s.tick) - samples[0].tick + samples[0].interval;
    let _ = writeln!(
        out,
        "timeseries: {} samples over {} ticks",
        samples.len(),
        span
    );
    let width = series_names(samples, |s| &s.deltas)
        .iter()
        .chain(series_names(samples, |s| &s.gauges).iter())
        .map(|n| n.len())
        .max()
        .unwrap_or(0);
    out.push_str("\ncounter deltas per sample:\n");
    for name in series_names(samples, |s| &s.deltas) {
        let values = series_values(samples, &name, |s| &s.deltas);
        let max = values.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {name:<width$}  max {max:>8}  {}",
            sparkline(&values)
        );
    }
    out.push_str("\ngauge levels:\n");
    for name in series_names(samples, |s| &s.gauges) {
        let values = series_values(samples, &name, |s| &s.gauges);
        let max = values.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {name:<width$}  max {max:>8}  {}",
            sparkline(&values)
        );
    }
    out
}

// ---------------------------------------------------------------------
// Quantiles over pow2 histogram entries
// ---------------------------------------------------------------------

/// Quantile over sparse `[bucket_upper_bound, count]` histogram entries
/// (the [`crate::histogram_entries`] / session-JSON encoding). Returns
/// the upper bound of the bucket holding the `q`-quantile observation,
/// 0 for an empty histogram.
pub fn hist_quantile(entries: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = entries.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let want = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(upper, count) in entries {
        seen += count;
        if seen >= want {
            return upper;
        }
    }
    entries.last().map_or(0, |&(upper, _)| upper)
}

// ---------------------------------------------------------------------
// Sentinels
// ---------------------------------------------------------------------

/// A sentinel's conclusion about its stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No breach detected.
    Pass,
    /// Breach, with a pinned human-readable message.
    Breach(String),
}

impl Verdict {
    /// Is this a breach?
    pub fn is_breach(&self) -> bool {
        matches!(self, Verdict::Breach(_))
    }

    /// The breach message, or `"pass"`.
    pub fn message(&self) -> &str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Breach(m) => m,
        }
    }
}

/// Watches one resource-level series for monotonic drift away from a
/// baseline captured after warmup.
///
/// The breach condition is deliberately narrow — all three must hold
/// over the observation window:
///
/// 1. the series never decreases (a level that *returns* is a cache or
///    a batch, not a leak),
/// 2. it strictly increases at least once (an elevated plateau is
///    steady state, not drift),
/// 3. the last observation is above the baseline.
#[derive(Clone, Debug)]
pub struct LeakSentinel {
    /// Series name, used in the verdict message.
    pub name: String,
    /// Inter-query resting level captured after warmup.
    pub baseline: u64,
    /// Observed levels, oldest first.
    pub observed: Vec<u64>,
}

impl LeakSentinel {
    /// New sentinel with an empty observation window.
    pub fn new(name: impl Into<String>, baseline: u64) -> Self {
        LeakSentinel {
            name: name.into(),
            baseline,
            observed: Vec::new(),
        }
    }

    /// Appends one observation.
    pub fn observe(&mut self, level: u64) {
        self.observed.push(level);
    }

    /// Evaluates the window. The breach message format is pinned by
    /// tests — change it only with them.
    pub fn verdict(&self) -> Verdict {
        if self.observed.len() < 2 {
            return Verdict::Pass;
        }
        let first = self.observed[0];
        let last = *self.observed.last().expect("len >= 2");
        let monotonic = self.observed.windows(2).all(|w| w[1] >= w[0]);
        if monotonic && last > first && last > self.baseline {
            Verdict::Breach(format!(
                "leak sentinel: {} drifted monotonically from baseline {} to {} over {} samples",
                self.name,
                self.baseline,
                last,
                self.observed.len()
            ))
        } else {
            Verdict::Pass
        }
    }

    /// Renders the sentinel's state for a report document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("baseline".into(), Json::uint(self.baseline)),
            (
                "last".into(),
                Json::uint(self.observed.last().copied().unwrap_or(0)),
            ),
            ("samples".into(), Json::uint(self.observed.len() as u64)),
            ("verdict".into(), Json::Str(self.verdict().message().into())),
        ])
    }
}

/// One latency SLO: a quantile of a pow2 histogram must not exceed a
/// fixed ceiling.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Query-class label for the verdict message (e.g. `"pbsm"`).
    pub class: String,
    /// Histogram name to read.
    pub hist: String,
    /// Quantile in (0, 1], e.g. 0.99.
    pub quantile: f64,
    /// Inclusive ceiling on the quantile's bucket upper bound.
    pub limit: u64,
}

/// Result of evaluating one [`SloSpec`] against the live registry.
#[derive(Clone, Debug)]
pub struct SloCheck {
    /// The spec that was evaluated.
    pub spec: SloSpec,
    /// Observations in the histogram.
    pub count: u64,
    /// The observed quantile (bucket upper bound).
    pub observed: u64,
    /// Pass, or a pinned breach message.
    pub verdict: Verdict,
}

impl SloCheck {
    /// Renders the check for a report document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("class".into(), Json::Str(self.spec.class.clone())),
            ("hist".into(), Json::Str(self.spec.hist.clone())),
            (
                "quantile".into(),
                Json::Str(quantile_label(self.spec.quantile)),
            ),
            ("limit".into(), Json::uint(self.spec.limit)),
            ("count".into(), Json::uint(self.count)),
            ("observed".into(), Json::uint(self.observed)),
            ("verdict".into(), Json::Str(self.verdict.message().into())),
        ])
    }
}

/// `0.5 → "p50"`, `0.99 → "p99"`, `0.999 → "p999"`.
pub fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if pct.fract() == 0.0 {
        format!("p{}", pct as u64)
    } else {
        format!("p{}", (q * 1000.0).round() as u64)
    }
}

/// Evaluates one SLO against the live histogram registry. An empty
/// histogram passes (no evidence is not a breach).
pub fn check_slo(spec: &SloSpec) -> SloCheck {
    let entries = crate::histogram_entries(&spec.hist);
    let count: u64 = entries.iter().map(|&(_, c)| c).sum();
    let observed = hist_quantile(&entries, spec.quantile);
    let verdict = if count > 0 && observed > spec.limit {
        Verdict::Breach(format!(
            "slo sentinel: {} {} = {} exceeds limit {} ({})",
            spec.class,
            quantile_label(spec.quantile),
            observed,
            spec.limit,
            spec.hist
        ))
    } else {
        Verdict::Pass
    };
    SloCheck {
        spec: spec.clone(),
        count,
        observed,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Thread-locals give each test thread its own sampler + registry;
    // counter names are still prefixed per test for clarity.

    fn cfg(every: u64, cap: usize) -> SamplerConfig {
        SamplerConfig {
            every_ticks: every,
            ring_capacity: cap,
        }
    }

    #[test]
    fn disabled_sampler_counts_ticks_but_captures_nothing() {
        clear();
        tick();
        tick();
        assert_eq!(ticks(), 2);
        assert!(samples().is_empty());
        assert!(!is_enabled());
    }

    #[test]
    fn captures_levels_and_deltas_every_n_ticks() {
        clear();
        configure(cfg(2, 8));
        let c = counter_for_test("ts1.work");
        for i in 0..6u64 {
            c.add(i + 1);
            tick();
        }
        let got = samples();
        assert_eq!(got.len(), 3, "ticks 2, 4, 6");
        assert_eq!(got[0].tick, 2);
        assert_eq!(got[1].interval, 2);
        // Levels accumulate 1+2, +3+4, +5+6; deltas are per-window.
        let level = |s: &Sample| {
            s.counters
                .iter()
                .find(|(n, _)| n == "ts1.work")
                .map(|&(_, v)| v)
        };
        let delta = |s: &Sample| {
            s.deltas
                .iter()
                .find(|(n, _)| n == "ts1.work")
                .map(|&(_, v)| v)
        };
        assert_eq!(level(&got[0]), Some(3));
        assert_eq!(level(&got[2]), Some(21));
        assert_eq!(delta(&got[1]), Some(7));
        assert_eq!(delta(&got[2]), Some(11));
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        clear();
        configure(cfg(1, 3));
        for _ in 0..5 {
            tick();
        }
        let got = samples();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].tick, 3, "ticks 1 and 2 evicted");
        assert_eq!(evicted(), 2);
    }

    #[test]
    fn json_round_trips_and_validates() {
        clear();
        configure(cfg(2, 4));
        counter_for_test("ts3.ops").add(5);
        tick();
        tick();
        tick();
        tick();
        let doc = session();
        let text = doc.render();
        let parsed = crate::json::Json::parse(&text).expect("render parses");
        validate(&parsed).expect("valid pbsm-timeseries-v1");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            parsed
                .get("samples")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn validate_rejects_wrong_schema_and_shapes() {
        let doc = Json::Obj(vec![("schema".into(), Json::Str("nope".into()))]);
        assert!(validate(&doc).is_err());
        let doc = to_json(&[], &SamplerConfig::default(), 0);
        validate(&doc).expect("empty sample set is valid");
    }

    #[test]
    fn dashboard_draws_sparklines() {
        let samples = vec![
            Sample {
                tick: 2,
                interval: 2,
                deltas: vec![("x.reads".into(), 1)],
                gauges: vec![("x.level".into(), 10)],
                ..Sample::default()
            },
            Sample {
                tick: 4,
                interval: 2,
                deltas: vec![("x.reads".into(), 8)],
                gauges: vec![("x.level".into(), 10)],
                ..Sample::default()
            },
        ];
        let text = dashboard(&samples);
        assert!(text.contains("x.reads"), "{text}");
        assert!(text.contains('█'), "{text}");
        assert!(text.contains("2 samples over 4 ticks"), "{text}");
    }

    #[test]
    fn sparkline_scales_and_marks_zero() {
        assert_eq!(sparkline(&[0, 1, 8]), "·▁█");
        assert_eq!(sparkline(&[0, 0]), "··");
        assert_eq!(sparkline(&[5]), "█");
    }

    #[test]
    fn quantiles_over_sparse_entries() {
        let entries = [(1u64, 90u64), (3, 9), (7, 1)];
        assert_eq!(hist_quantile(&entries, 0.5), 1);
        assert_eq!(hist_quantile(&entries, 0.95), 3);
        assert_eq!(hist_quantile(&entries, 0.999), 7);
        assert_eq!(hist_quantile(&entries, 1.0), 7);
        assert_eq!(hist_quantile(&[], 0.5), 0);
    }

    #[test]
    fn leak_sentinel_breach_message_is_pinned() {
        let mut s = LeakSentinel::new("storage.disk.live_pages", 10);
        for level in [12, 13, 15] {
            s.observe(level);
        }
        assert_eq!(
            s.verdict(),
            Verdict::Breach(
                "leak sentinel: storage.disk.live_pages drifted monotonically \
                 from baseline 10 to 15 over 3 samples"
                    .into()
            )
        );
    }

    #[test]
    fn leak_sentinel_passes_plateau_dip_and_short_windows() {
        // Elevated plateau: steady state, not drift.
        let mut s = LeakSentinel::new("x", 10);
        s.observe(15);
        s.observe(15);
        assert_eq!(s.verdict(), Verdict::Pass);
        // Returns to baseline.
        let mut s = LeakSentinel::new("x", 10);
        for level in [15, 12, 10] {
            s.observe(level);
        }
        assert_eq!(s.verdict(), Verdict::Pass);
        // Single observation: no evidence.
        let mut s = LeakSentinel::new("x", 0);
        s.observe(99);
        assert_eq!(s.verdict(), Verdict::Pass);
        // Grows but ends at baseline.
        let mut s = LeakSentinel::new("x", 20);
        for level in [10, 15, 20] {
            s.observe(level);
        }
        assert_eq!(s.verdict(), Verdict::Pass);
    }

    #[test]
    fn slo_check_gates_quantiles() {
        clear();
        let h = crate::histogram("ts4.lat");
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let pass = check_slo(&SloSpec {
            class: "t".into(),
            hist: "ts4.lat".into(),
            quantile: 0.5,
            limit: 4,
        });
        assert_eq!(pass.verdict, Verdict::Pass);
        assert_eq!(pass.count, 10);
        let breach = check_slo(&SloSpec {
            class: "t".into(),
            hist: "ts4.lat".into(),
            quantile: 0.999,
            limit: 4,
        });
        assert_eq!(
            breach.verdict,
            Verdict::Breach("slo sentinel: t p999 = 1023 exceeds limit 4 (ts4.lat)".into())
        );
        // Empty histogram: no evidence, no breach.
        let empty = check_slo(&SloSpec {
            class: "t".into(),
            hist: "ts4.never".into(),
            quantile: 0.99,
            limit: 0,
        });
        assert_eq!(empty.verdict, Verdict::Pass);
    }

    #[test]
    fn quantile_labels() {
        assert_eq!(quantile_label(0.5), "p50");
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p999");
    }

    // Test-local counters must still be interned through the public
    // constructor so flushers and reset() see them.
    fn counter_for_test(name: &str) -> crate::Counter {
        crate::counter(name)
    }
}
