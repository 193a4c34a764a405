//! Perf-baseline regression checking for the `sim_scale` record.
//!
//! `sim_scale --check-baseline [path]` re-runs the benchmark and compares
//! the fresh record against the committed `BENCH_sim_scale.json`. The
//! comparison is deliberately asymmetric about what it trusts:
//!
//! - **deterministic counters** (`frames_sent`, `frames_delivered`,
//!   `events`) must match *exactly* — they are functions of the seed and
//!   the horizon, so any drift is a silent behavior change, not noise;
//! - **equality flags** (`stats_equal`, `results_equal`) must be `true`
//!   in the fresh record;
//! - **speedups** tolerate 25% degradation — they divide two wall times,
//!   so runner noise partially cancels but does not vanish;
//! - **event throughput** (`events_per_sec`, in the `resources` and
//!   `city` blocks) tolerates 50% degradation and is compared only when
//!   both records ran on hosts of the same core count — an absolute rate
//!   on different hardware is a different experiment;
//! - **peak heap per node** (`bytes_per_node`) may grow at most 25%, and
//!   only counts when both records measured a nonzero peak (both built
//!   with `count-alloc`) — the memory diet must not quietly un-diet;
//! - **absolute wall times** are never compared — CI runners differ too
//!   much for an absolute gate to stay honest.
//!
//! The `city` block is additionally gated on both records having run the
//! same city node count and horizon (nightly runs 50k against a committed
//! 10k record: `stats_equal` is still enforced, counters are not).
//!
//! The sweep speedup is additionally skipped when either record ran with
//! more jobs than the host had cores (`sweep.cores < sweep.jobs`): an
//! oversubscribed "parallel" run measures scheduling pressure, not the
//! executor. It is skipped outright when either record ran on a single
//! core — parallel wall time on one core measures context-switch
//! overhead, not the executor — while the sweep's `results_equal` flag is
//! enforced unconditionally (determinism does not need parallel hardware
//! to be checkable).
//!
//! The JSON reader below is a minimal recursive-descent parser for the
//! subset `sim_scale` emits (objects, arrays, strings, numbers, bools) —
//! the workspace is offline and vendors no serde.

use std::fmt;

/// Fraction of the baseline speedup the fresh run may lose before the
/// check fails (one-sided: running faster is never a regression).
pub const SPEEDUP_TOLERANCE: f64 = 0.25;

/// Fraction of the baseline event throughput (`events_per_sec`) the fresh
/// run may lose before the check fails. Wider than the speedup tolerance
/// because throughput is an absolute host-dependent rate, not a ratio of
/// two same-host wall times — it is only compared at all when both
/// records ran on hosts of the same width.
pub const THROUGHPUT_TOLERANCE: f64 = 0.5;

/// Fractional growth in per-node peak heap (`bytes_per_node`) the fresh
/// run may show before the check fails (one-sided: using less memory is
/// never a regression). Compared only when both records measured a
/// nonzero peak, i.e. both were built with `count-alloc`.
pub const BYTES_PER_NODE_TOLERANCE: f64 = 0.25;

/// A parsed JSON value (subset: no `null`, no string escapes beyond `\"`
/// and `\\` — `sim_scale` emits neither).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the record never needs integer/float distinction at
    /// comparison time (counters are compared exactly via `f64`, which is
    /// lossless for the magnitudes involved).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An ordered array.
    Arr(Vec<Value>),
    /// An object as an ordered key-value list (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if any.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if any.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document (the `sim_scale` subset).
///
/// # Errors
///
/// Returns a one-line description with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes.get(*pos).copied();
                *pos += 1;
                match esc {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    _ => return Err(format!("unsupported escape at byte {pos}")),
                }
            }
            _ => out.push(b as char),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// Outcome of a baseline comparison.
#[derive(Debug)]
pub enum Verdict {
    /// Records were comparable; the list holds every regression found
    /// (empty means the check passed).
    Compared(Vec<Regression>),
    /// Records were produced under different settings (e.g. `--quick` vs
    /// full horizon), so counters cannot be compared; the string says why.
    /// Not a failure — the caller should report and move on.
    Incomparable(String),
}

/// One baseline regression: which metric moved and how.
#[derive(Debug)]
pub struct Regression {
    /// Dotted path of the regressed metric, e.g. `results[n=500].speedup`.
    pub what: String,
    /// The committed value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} vs current {}",
            self.what, self.baseline, self.current
        )
    }
}

/// Compares a fresh `sim_scale` record against the committed baseline.
///
/// # Errors
///
/// Returns an error string when either document fails to parse.
pub fn check(baseline_json: &str, current_json: &str) -> Result<Verdict, String> {
    let base = parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse(current_json).map_err(|e| format!("current: {e}"))?;

    for key in ["quick", "sim_seconds"] {
        let (b, c) = (base.get(key), cur.get(key));
        if b != c {
            return Ok(Verdict::Incomparable(format!(
                "'{key}' differs ({b:?} vs {c:?}); run with matching flags to compare"
            )));
        }
    }

    let mut regressions = Vec::new();
    fn exact(out: &mut Vec<Regression>, what: String, b: Option<f64>, c: Option<f64>) {
        if let (Some(b), Some(c)) = (b, c) {
            if b != c {
                out.push(Regression {
                    what,
                    baseline: b,
                    current: c,
                });
            }
        }
    }

    // Per-n rows, matched by their "n" member so reordering or added node
    // counts never misalign the comparison.
    let rows = |root: &Value, section: &str| -> Vec<Value> {
        root.get(section)
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let find_n = |rows: &[Value], n: f64| -> Option<Value> {
        rows.iter()
            .find(|r| r.get("n").and_then(Value::as_f64) == Some(n))
            .cloned()
    };

    let mut speedups: Vec<(String, f64, f64)> = Vec::new();
    for section in ["results", "resources"] {
        let base_rows = rows(&base, section);
        let cur_rows = rows(&cur, section);
        for brow in &base_rows {
            let Some(n) = brow.get("n").and_then(Value::as_f64) else {
                continue;
            };
            let Some(crow) = find_n(&cur_rows, n) else {
                regressions.push(Regression {
                    what: format!("{section}[n={n}] missing from current record"),
                    baseline: n,
                    current: f64::NAN,
                });
                continue;
            };
            for counter in ["frames_sent", "frames_delivered", "events"] {
                exact(
                    &mut regressions,
                    format!("{section}[n={n}].{counter}"),
                    brow.get(counter).and_then(Value::as_f64),
                    crow.get(counter).and_then(Value::as_f64),
                );
            }
            if crow.get("stats_equal").and_then(Value::as_bool) == Some(false) {
                regressions.push(Regression {
                    what: format!("{section}[n={n}].stats_equal is false"),
                    baseline: 1.0,
                    current: 0.0,
                });
            }
            if let (Some(b), Some(c)) = (
                brow.get("speedup").and_then(Value::as_f64),
                crow.get("speedup").and_then(Value::as_f64),
            ) {
                speedups.push((format!("{section}[n={n}].speedup"), b, c));
            }
        }
    }

    // Host width of a record: the top-level "cores" (new records) with the
    // sweep block's copy as fallback (older records).
    let host_cores = |root: &Value| -> Option<f64> {
        root.get("cores").and_then(Value::as_f64).or_else(|| {
            root.get("sweep")
                .and_then(|s| s.get("cores"))
                .and_then(Value::as_f64)
        })
    };

    // Sweep block: the flag is exact; the speedup joins the tolerance pool
    // only when neither record oversubscribed the host and both hosts had
    // real parallelism available.
    let sweep_ok = |root: &Value| -> bool {
        let sweep = root.get("sweep");
        let jobs = sweep.and_then(|s| s.get("jobs")).and_then(Value::as_f64);
        let cores = sweep.and_then(|s| s.get("cores")).and_then(Value::as_f64);
        matches!((jobs, cores), (Some(j), Some(c)) if j <= c && c > 1.0)
    };
    if cur
        .get("sweep")
        .and_then(|s| s.get("results_equal"))
        .and_then(Value::as_bool)
        == Some(false)
    {
        regressions.push(Regression {
            what: "sweep.results_equal is false".to_owned(),
            baseline: 1.0,
            current: 0.0,
        });
    }
    if sweep_ok(&base) && sweep_ok(&cur) {
        if let (Some(b), Some(c)) = (
            base.get("sweep")
                .and_then(|s| s.get("speedup"))
                .and_then(Value::as_f64),
            cur.get("sweep")
                .and_then(|s| s.get("speedup"))
                .and_then(Value::as_f64),
        ) {
            speedups.push(("sweep.speedup".to_owned(), b, c));
        }
    }

    // Resource metrics are compared under their own gates: event
    // throughput only across hosts of the same width (an absolute rate on
    // a narrower host is a different experiment, not a regression), peak
    // heap per node only when both records measured one (`count-alloc`).
    let cores_match = host_cores(&base).is_some() && host_cores(&base) == host_cores(&cur);
    let mut throughputs: Vec<(String, f64, f64)> = Vec::new();
    let mut byte_loads: Vec<(String, f64, f64)> = Vec::new();
    let mut resource_pair = |what: &str, brow: &Value, crow: &Value| {
        if cores_match {
            if let (Some(b), Some(c)) = (
                brow.get("events_per_sec").and_then(Value::as_f64),
                crow.get("events_per_sec").and_then(Value::as_f64),
            ) {
                throughputs.push((format!("{what}.events_per_sec"), b, c));
            }
        }
        if let (Some(b), Some(c)) = (
            brow.get("bytes_per_node").and_then(Value::as_f64),
            crow.get("bytes_per_node").and_then(Value::as_f64),
        ) {
            if b > 0.0 && c > 0.0 {
                byte_loads.push((format!("{what}.bytes_per_node"), b, c));
            }
        }
    };
    {
        let base_rows = rows(&base, "resources");
        let cur_rows = rows(&cur, "resources");
        for brow in &base_rows {
            let Some(n) = brow.get("n").and_then(Value::as_f64) else {
                continue;
            };
            if let Some(crow) = find_n(&cur_rows, n) {
                resource_pair(&format!("resources[n={n}]"), brow, &crow);
            }
        }
    }

    // City block: rows are matched by scenario key. Deterministic event
    // counts (and the resource metrics above) are comparable only when
    // both records ran the same node count on the same horizon — nightly
    // 50k vs committed 10k is a different experiment — but a false
    // `stats_equal` in the fresh record is a determinism break at any n.
    let city_rows = |root: &Value| -> Vec<Value> {
        root.get("city")
            .and_then(|c| c.get("rows"))
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    let cur_city_rows = city_rows(&cur);
    for crow in &cur_city_rows {
        let scenario = crow
            .get("scenario")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned();
        if crow.get("stats_equal").and_then(Value::as_bool) == Some(false) {
            regressions.push(Regression {
                what: format!("city.rows[{scenario}].stats_equal is false"),
                baseline: 1.0,
                current: 0.0,
            });
        }
    }
    let city_setting = |root: &Value, key: &str| -> Option<f64> {
        root.get("city")
            .and_then(|c| c.get(key))
            .and_then(Value::as_f64)
    };
    let city_comparable = city_setting(&base, "n").is_some()
        && city_setting(&base, "n") == city_setting(&cur, "n")
        && city_setting(&base, "sim_seconds") == city_setting(&cur, "sim_seconds");
    if city_comparable {
        for brow in city_rows(&base) {
            let Some(scenario) = brow.get("scenario").and_then(Value::as_str) else {
                continue;
            };
            let Some(crow) = cur_city_rows
                .iter()
                .find(|r| r.get("scenario").and_then(Value::as_str) == Some(scenario))
            else {
                regressions.push(Regression {
                    what: format!("city.rows[{scenario}] missing from current record"),
                    baseline: 1.0,
                    current: f64::NAN,
                });
                continue;
            };
            exact(
                &mut regressions,
                format!("city.rows[{scenario}].events"),
                brow.get("events").and_then(Value::as_f64),
                crow.get("events").and_then(Value::as_f64),
            );
            resource_pair(&format!("city.rows[{scenario}]"), &brow, crow);
        }
    }

    for (what, b, c) in throughputs {
        if b > 0.0 && c < b * (1.0 - THROUGHPUT_TOLERANCE) {
            regressions.push(Regression {
                what,
                baseline: b,
                current: c,
            });
        }
    }
    for (what, b, c) in byte_loads {
        if c > b * (1.0 + BYTES_PER_NODE_TOLERANCE) {
            regressions.push(Regression {
                what,
                baseline: b,
                current: c,
            });
        }
    }

    for (what, b, c) in speedups {
        // Skip degenerate baselines — a ≤0 speedup means the baseline run
        // itself was broken, which is not this run's regression.
        if b > 0.0 && c < b * (1.0 - SPEEDUP_TOLERANCE) {
            regressions.push(Regression {
                what,
                baseline: b,
                current: c,
            });
        }
    }

    Ok(Verdict::Compared(regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(frames: u64, events: u64, speedup: f64, jobs: u64, cores: u64) -> String {
        format!(
            "{{\"bench\": \"sim_scale\", \"quick\": true, \"sim_seconds\": 2, \
             \"cores\": {cores},\n\
             \"sweep\": {{\"jobs\": {jobs}, \"cores\": {cores}, \"speedup\": {speedup}, \
             \"results_equal\": true}},\n\
             \"results\": [{{\"n\": 100, \"frames_sent\": {frames}, \"speedup\": 5.0, \
             \"stats_equal\": true}}],\n\
             \"resources\": [{{\"n\": 100, \"events\": {events}}}]}}"
        )
    }

    fn regressions(verdict: Verdict) -> Vec<Regression> {
        match verdict {
            Verdict::Compared(r) => r,
            Verdict::Incomparable(why) => panic!("unexpectedly incomparable: {why}"),
        }
    }

    #[test]
    fn identical_records_pass() {
        let r = record(1000, 5000, 2.0, 4, 8);
        assert!(regressions(check(&r, &r).unwrap()).is_empty());
    }

    #[test]
    fn counter_drift_is_exact_regression() {
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 4, 8),
                &record(1001, 5000, 2.0, 4, 8),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("frames_sent"), "{}", found[0]);
    }

    #[test]
    fn event_count_drift_is_exact_regression() {
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 4, 8),
                &record(1000, 5001, 2.0, 4, 8),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("events"), "{}", found[0]);
    }

    #[test]
    fn speedup_within_tolerance_passes() {
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 4, 8),
                &record(1000, 5000, 1.6, 4, 8),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn speedup_collapse_is_a_regression() {
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 4, 8),
                &record(1000, 5000, 1.2, 4, 8),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("sweep.speedup"), "{}", found[0]);
    }

    #[test]
    fn oversubscribed_sweep_speedup_is_skipped() {
        // 4 jobs on a 2-core host: the parallel run cannot win, so the
        // collapsed speedup must not fail the check.
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 4, 2),
                &record(1000, 5000, 0.6, 4, 2),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn single_core_skips_sweep_speedup_only() {
        // cores == 1 in the fresh record: the collapsed sweep speedup is
        // skipped; the exact counters are still enforced.
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 1, 8),
                &record(1000, 5000, 0.4, 1, 1),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
        let found = regressions(
            check(
                &record(1000, 5000, 2.0, 1, 8),
                &record(1001, 5000, 0.4, 1, 1),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].what.contains("frames_sent"), "{}", found[0]);
    }

    #[test]
    fn quick_mismatch_is_incomparable_not_failing() {
        let full = record(1000, 5000, 2.0, 4, 8).replace("\"quick\": true", "\"quick\": false");
        match check(&record(1000, 5000, 2.0, 4, 8), &full).unwrap() {
            Verdict::Incomparable(why) => assert!(why.contains("quick")),
            Verdict::Compared(r) => panic!("expected incomparable, got {r:?}"),
        }
    }

    #[test]
    fn wall_times_are_ignored() {
        let a = record(1000, 5000, 2.0, 4, 8)
            .replace("\"speedup\": 5.0", "\"grid_wall_s\": 1.0, \"speedup\": 5.0");
        let b = record(1000, 5000, 2.0, 4, 8)
            .replace("\"speedup\": 5.0", "\"grid_wall_s\": 9.0, \"speedup\": 5.0");
        assert!(regressions(check(&a, &b).unwrap()).is_empty());
    }

    fn city_record(n: u64, events: u64, eps: u64, bpn: u64, cores: u64, equal: bool) -> String {
        format!(
            "{{\"bench\": \"sim_scale\", \"quick\": true, \"sim_seconds\": 2, \
             \"cores\": {cores},\n\
             \"sweep\": {{\"jobs\": 1, \"cores\": {cores}, \"speedup\": 1.0, \
             \"results_equal\": true}},\n\
             \"city\": {{\"n\": {n}, \"sim_seconds\": 2, \"budget_bytes_per_node\": 32768, \
             \"rows\": [{{\"scenario\": \"stadium_exit\", \"n\": {n}, \"events\": {events}, \
             \"events_per_sec\": {eps}, \"peak_alloc_bytes\": 1, \"bytes_per_node\": {bpn}, \
             \"stats_equal\": {equal}}}]}},\n\
             \"results\": []}}"
        )
    }

    #[test]
    fn city_event_drift_is_exact_regression() {
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(10_000, 350_001, 300_000, 10_000, 4, true),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].what.contains("city.rows[stadium_exit].events"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn city_blocks_at_different_n_compare_nothing_but_stats_equal() {
        // Nightly (50k) against the committed 10k record: counters and
        // rates are different experiments, but a determinism break in the
        // fresh record still fails.
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(50_000, 999_999, 50_000, 30_000, 4, true),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(50_000, 999_999, 50_000, 30_000, 4, false),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].what.contains("stats_equal"), "{}", found[0]);
    }

    #[test]
    fn throughput_collapse_is_a_regression_on_matching_hosts() {
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(10_000, 350_000, 100_000, 10_000, 4, true),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].what.contains("events_per_sec"), "{}", found[0]);
        // Same collapse across hosts of different widths: skipped.
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 8, true),
                &city_record(10_000, 350_000, 100_000, 10_000, 4, true),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn per_node_heap_growth_is_a_regression() {
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(10_000, 350_000, 300_000, 20_000, 4, true),
            )
            .unwrap(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].what.contains("bytes_per_node"), "{}", found[0]);
        // Within tolerance: 10000 → 12000 is +20% < 25%.
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 10_000, 4, true),
                &city_record(10_000, 350_000, 300_000, 12_000, 4, true),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unmeasured_heap_is_skipped_not_failed() {
        // bytes_per_node == 0 means the record was built without
        // `count-alloc`; comparing against it would punish measuring.
        let found = regressions(
            check(
                &city_record(10_000, 350_000, 300_000, 0, 4, true),
                &city_record(10_000, 350_000, 300_000, 20_000, 4, true),
            )
            .unwrap(),
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn baseline_without_city_block_still_compares() {
        let old = "{\"bench\": \"sim_scale\", \"quick\": true, \"sim_seconds\": 2, \
             \"cores\": 8,\n\
             \"sweep\": {\"jobs\": 1, \"cores\": 8, \"speedup\": 1.0, \
             \"results_equal\": true},\n\
             \"results\": []}";
        let new = city_record(10_000, 350_000, 300_000, 10_000, 8, true);
        // Neither direction may error or regress on the missing block.
        assert!(regressions(check(old, &new).unwrap()).is_empty());
        assert!(regressions(check(&new, old).unwrap()).is_empty());
    }

    #[test]
    fn parser_round_trips_the_committed_shape() {
        let doc = record(1000, 5000, 0.67, 4, 4);
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("sweep")
                .and_then(|s| s.get("speedup"))
                .and_then(Value::as_f64),
            Some(0.67)
        );
        assert_eq!(
            v.get("results").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
    }
}
