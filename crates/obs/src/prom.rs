//! Prometheus text-format exposition (format version 0.0.4).
//!
//! Everything dp-obs already collects — the always-on [`crate::counter`]s,
//! the process-global log2 [`crate::hist`]ograms, and caller-published
//! labeled series (per-rank, per-model, per-phase) — rendered as one
//! scrape-able document: `dpmd serve` answers
//! `GET /metrics?format=prometheus` with it, and `dpmd --prom-dump <file>`
//! writes it after a batch run.
//!
//! Dotted dp-obs names (`serve.eval.wait_us`) are sanitized into the
//! text-format name grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) under a `dpmd_`
//! prefix: `dpmd_serve_eval_wait_us`. Log2 histograms render as the
//! classic cumulative histogram shape — one `_bucket{le="..."}` series
//! per non-empty bucket (upper bounds from [`crate::hist::bucket_hi`]),
//! a closing `le="+Inf"` bucket, `_sum`, and `_count`.
//!
//! Labeled series do not exist in the counter/hist primitives (those are
//! name-keyed only), so layers with label dimensions publish them here
//! explicitly: the parallel driver publishes per-rank phase gauges, the
//! serving daemon per-model queue depths, the roofline analyzer per-phase
//! attribution. [`publish_gauge`]/[`publish_hist`] upsert by
//! `(name, labels)`, so republishing on every scrape is idempotent.
//! Publication happens at scrape/report time, never on the MD hot path —
//! the hot path's only obligation stays the counters and histograms it
//! already feeds.
//!
//! The module also ships a strict [`parse`] for the same grammar. dp-obs
//! itself only writes, but the round-trip tests, the tier-1 scrape smoke,
//! and `dpmd promcheck` all need to *verify* a scrape: name validity,
//! label escaping, histogram bucket monotonicity, and `+Inf`/`_count`
//! agreement are checked, so a document that passes [`parse`] loads into
//! a real Prometheus server.

use crate::counter::counters;
use crate::hist::{bucket_hi, global_snapshots, HistSnapshot, N_BUCKETS};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The HTTP `Content-Type` of a text-format exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Map a dp-obs metric name onto the Prometheus name grammar: a `dpmd_`
/// namespace prefix, every character outside `[a-zA-Z0-9_:]` replaced
/// with `_` (dots in the dp-obs taxonomy become underscores).
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 5);
    out.push_str("dpmd_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value for the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n` (the only three escapes the format defines).
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

// ---- published labeled series ----

/// `(name, value)` label pairs in exposition order.
type Labels = Vec<(String, String)>;

#[derive(Debug, Clone)]
enum Published {
    Gauge(f64),
    Hist(Box<HistSnapshot>),
}

#[derive(Debug, Clone)]
struct Series {
    /// Raw dp-obs name (sanitized at render time).
    name: String,
    labels: Vec<(String, String)>,
    value: Published,
}

fn published() -> MutexGuard<'static, Vec<Series>> {
    static PUBLISHED: OnceLock<Mutex<Vec<Series>>> = OnceLock::new();
    PUBLISHED
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn upsert(name: &str, labels: &[(&str, &str)], value: Published) {
    let labels: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut reg = published();
    if let Some(s) = reg
        .iter_mut()
        .find(|s| s.name == name && s.labels == labels)
    {
        s.value = value;
    } else {
        reg.push(Series {
            name: name.to_string(),
            labels,
            value,
        });
    }
}

/// Publish (upsert) a labeled gauge. Keyed by `(name, labels)`:
/// republishing the same series overwrites its value in place, so
/// reporters can refresh on every scrape.
pub fn publish_gauge(name: &str, labels: &[(&str, &str)], value: f64) {
    upsert(name, labels, Published::Gauge(value));
}

/// Publish (upsert) a labeled histogram snapshot (e.g. one rank's
/// `step_wall_ns` with a `rank="3"` label).
pub fn publish_hist(name: &str, labels: &[(&str, &str)], snap: HistSnapshot) {
    upsert(name, labels, Published::Hist(Box::new(snap)));
}

// ---- rendering ----

fn render_label_set(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Append one histogram family: cumulative non-empty buckets, `+Inf`,
/// `_sum`, `_count`. `extra` is the series' own label set (may be empty);
/// `le` is merged into it on the bucket lines.
fn render_hist_into(out: &mut String, name: &str, extra: &[(String, String)], snap: &HistSnapshot) {
    let mut cum = 0u64;
    for i in 0..N_BUCKETS {
        if snap.buckets[i] == 0 {
            continue;
        }
        cum += snap.buckets[i];
        let mut labels = extra.to_vec();
        labels.push(("le".into(), bucket_hi(i).to_string()));
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            render_label_set(&labels)
        ));
    }
    let mut labels = extra.to_vec();
    labels.push(("le".into(), "+Inf".into()));
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        render_label_set(&labels),
        snap.count
    ));
    let plain = render_label_set(extra);
    out.push_str(&format!("{name}_sum{plain} {}\n", snap.sum));
    out.push_str(&format!("{name}_count{plain} {}\n", snap.count));
}

/// Render the full exposition: every registered counter, every
/// process-global histogram, then every published labeled series, each
/// family under one `# TYPE` line.
pub fn render() -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in counters() {
        let n = metric_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, snap) in global_snapshots() {
        let n = metric_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        render_hist_into(&mut out, &n, &[], &snap);
    }
    // Group published series by name so each family sits under exactly
    // one TYPE line (the format forbids repeating TYPE for a name).
    let series = published().clone();
    let mut seen: Vec<&str> = Vec::new();
    for s in &series {
        if seen.contains(&s.name.as_str()) {
            continue;
        }
        seen.push(&s.name);
        let n = metric_name(&s.name);
        let family: Vec<&Series> = series.iter().filter(|t| t.name == s.name).collect();
        let kind = match family[0].value {
            Published::Gauge(_) => "gauge",
            Published::Hist(_) => "histogram",
        };
        out.push_str(&format!("# TYPE {n} {kind}\n"));
        for t in family {
            match &t.value {
                Published::Gauge(v) => out.push_str(&format!(
                    "{n}{} {}\n",
                    render_label_set(&t.labels),
                    fmt_value(*v)
                )),
                Published::Hist(h) => render_hist_into(&mut out, &n, &t.labels, h),
            }
        }
    }
    out
}

// ---- strict scrape parser ----

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// Value of one label on this sample, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed (and validated) exposition.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations in document order.
    pub types: Vec<(String, String)>,
}

impl Exposition {
    /// First sample under `name` (exact match, labels ignored).
    pub fn sample(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Every sample under `name`.
    pub fn samples_named(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// Does any sample name start with `prefix`? (Histogram families
    /// appear as `<name>_bucket`/`_sum`/`_count`.)
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.samples.iter().any(|s| s.name.starts_with(prefix))
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut ch = s.chars();
    match ch.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    ch.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut ch = s.chars();
    match ch.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    ch.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(tok: &str) -> Result<f64, String> {
    match tok {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => tok
            .parse::<f64>()
            .map_err(|_| format!("bad sample value '{tok}'")),
    }
}

/// Parse `{k="v",...}` starting at the `{`; returns the labels and the
/// rest of the line after the closing `}`.
fn parse_labels(line: &str) -> Result<(Labels, &str), String> {
    let mut rest = &line[1..]; // past '{'
    let mut labels = Vec::new();
    loop {
        rest = rest.trim_start_matches(' ');
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((labels, r));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without '='".to_string())?;
        let key = rest[..eq].trim();
        if !valid_label_name(key) {
            return Err(format!("bad label name '{key}'"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label '{key}' value is not quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next() {
                None => return Err(format!("unterminated value for label '{key}'")),
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "invalid escape '\\{}' in label '{key}'",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ))
                    }
                },
                Some((_, c)) => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        rest = &rest[end + 1..];
        rest = rest.trim_start_matches(' ');
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with('}') {
            return Err(format!("expected ',' or '}}' after label '{key}'"));
        }
    }
}

/// Histogram families must be internally consistent: within one
/// `(name, labels \ le)` group, `le` values strictly increase, cumulative
/// counts never decrease, a `+Inf` bucket exists, and it agrees with the
/// family's `_count` sample when one is present.
fn validate_histograms(exp: &Exposition) -> Result<(), String> {
    // group key: (base name, labels minus le) — compared structurally;
    // the buckets are `(le, cumulative count)`
    type Group = (String, Labels, Vec<(f64, f64)>);
    let mut groups: Vec<Group> = Vec::new();
    for s in &exp.samples {
        let Some(base) = s.name.strip_suffix("_bucket") else {
            continue;
        };
        let le = s
            .label("le")
            .ok_or_else(|| format!("{}: bucket sample without le label", s.name))?;
        let le = parse_value(le).map_err(|e| format!("{}: bad le: {e}", s.name))?;
        let rest: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        match groups
            .iter_mut()
            .find(|(b, l, _)| *b == base && *l == rest)
        {
            Some((_, _, buckets)) => buckets.push((le, s.value)),
            None => groups.push((base.to_string(), rest, vec![(le, s.value)])),
        }
    }
    for (base, rest, buckets) in &groups {
        for w in buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "{base}_bucket: le values not strictly increasing ({} then {})",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "{base}_bucket: cumulative counts decrease at le={} ({} -> {})",
                    w[1].0, w[0].1, w[1].1
                ));
            }
        }
        let inf = buckets
            .last()
            .filter(|(le, _)| le.is_infinite())
            .ok_or_else(|| format!("{base}_bucket: missing le=\"+Inf\" bucket"))?;
        let count_name = format!("{base}_count");
        if let Some(c) = exp
            .samples
            .iter()
            .find(|s| s.name == count_name && s.labels == *rest)
        {
            if c.value != inf.1 {
                return Err(format!(
                    "{base}: +Inf bucket {} disagrees with _count {}",
                    inf.1, c.value
                ));
            }
        }
    }
    Ok(())
}

/// Parse and validate a text-format exposition. Errors carry the line
/// number. See the module docs for what "validate" covers.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it.next().ok_or_else(|| at("TYPE without name".into()))?;
                let kind = it.next().ok_or_else(|| at("TYPE without kind".into()))?;
                if !valid_metric_name(name) {
                    return Err(at(format!("bad metric name '{name}' in TYPE")));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(at(format!("unknown TYPE kind '{kind}'")));
                }
                if exp.types.iter().any(|(n, _)| n == name) {
                    return Err(at(format!("duplicate TYPE for '{name}'")));
                }
                exp.types.push((name.to_string(), kind.to_string()));
            }
            continue; // HELP and comments
        }
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .ok_or_else(|| at("sample without value".into()))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(at(format!("bad metric name '{name}'")));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if rest.starts_with('{') {
            parse_labels(rest).map_err(&at)?
        } else {
            (Vec::new(), rest)
        };
        let mut toks = rest.split_whitespace();
        let value_tok = toks
            .next()
            .ok_or_else(|| at(format!("sample '{name}' without value")))?;
        let value = parse_value(value_tok).map_err(&at)?;
        if let Some(ts) = toks.next() {
            // optional millisecond timestamp
            ts.parse::<i64>()
                .map_err(|_| at(format!("bad timestamp '{ts}'")))?;
        }
        if toks.next().is_some() {
            return Err(at(format!("trailing tokens after sample '{name}'")));
        }
        exp.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    validate_histograms(&exp)?;
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::counter;
    use crate::hist;

    #[test]
    fn names_are_sanitized_into_the_grammar() {
        assert_eq!(metric_name("serve.eval.wait_us"), "dpmd_serve_eval_wait_us");
        assert_eq!(metric_name("flops"), "dpmd_flops");
        assert_eq!(metric_name("a b-c/d"), "dpmd_a_b_c_d");
        for raw in ["fault.detected", "9starts_with_digit", "tab\there"] {
            assert!(valid_metric_name(&metric_name(raw)), "{raw}");
        }
    }

    #[test]
    fn render_parse_round_trip_covers_counters_hists_and_published() {
        counter("prom.test.counter").add(41);
        let h = hist::global("prom.test.latency_us");
        for v in [3u64, 90, 90, 4000] {
            h.record(v);
        }
        publish_gauge(
            "prom.test.gauge",
            &[("model", "water\"v\\1\n")],
            2.5,
        );
        let mut snap = HistSnapshot::default();
        snap.count = 2;
        snap.sum = 12;
        snap.min = 4;
        snap.max = 8;
        snap.buckets[3] = 1; // 4..8
        snap.buckets[4] = 1; // 8..16
        publish_hist("prom.test.rankhist", &[("rank", "3")], snap);

        let text = render();
        let exp = parse(&text).expect("rendered exposition must parse");

        let c = exp.sample("dpmd_prom_test_counter").expect("counter");
        assert!(c.value >= 41.0);

        // histogram family: monotone cumulative buckets already enforced
        // by parse(); check the shape explicitly too
        let buckets = exp.samples_named("dpmd_prom_test_latency_us_bucket");
        assert!(buckets.len() >= 2);
        let count = exp
            .sample("dpmd_prom_test_latency_us_count")
            .expect("count");
        assert!(count.value >= 4.0);
        let inf = buckets
            .iter()
            .find(|s| s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, count.value);

        // published gauge: label escaping survives the round trip
        let g = exp.sample("dpmd_prom_test_gauge").expect("gauge");
        assert_eq!(g.label("model"), Some("water\"v\\1\n"));
        assert_eq!(g.value, 2.5);

        // published labeled histogram keeps its rank label on every series
        let rh = exp.samples_named("dpmd_prom_test_rankhist_bucket");
        assert!(rh.iter().all(|s| s.label("rank") == Some("3")));
        let rsum = exp.sample("dpmd_prom_test_rankhist_sum").expect("sum");
        assert_eq!(rsum.label("rank"), Some("3"));
        assert_eq!(rsum.value, 12.0);
    }

    #[test]
    fn publish_is_an_upsert_keyed_by_name_and_labels() {
        publish_gauge("prom.test.upsert", &[("rank", "0")], 1.0);
        publish_gauge("prom.test.upsert", &[("rank", "1")], 2.0);
        publish_gauge("prom.test.upsert", &[("rank", "0")], 3.0);
        let text = render();
        let exp = parse(&text).unwrap();
        let series = exp.samples_named("dpmd_prom_test_upsert");
        assert_eq!(series.len(), 2);
        let r0 = series.iter().find(|s| s.label("rank") == Some("0")).unwrap();
        assert_eq!(r0.value, 3.0, "second publish overwrites");
        // one TYPE line for the whole family
        assert_eq!(
            text.matches("# TYPE dpmd_prom_test_upsert ").count(),
            1
        );
    }

    #[test]
    fn parser_rejects_grammar_violations() {
        assert!(parse("9bad_name 1\n").is_err(), "leading digit");
        assert!(parse("bad-dash 1\n").is_err(), "dash in name");
        assert!(parse("name{l=\"v\"} notanumber\n").is_err(), "bad value");
        assert!(parse("name{9l=\"v\"} 1\n").is_err(), "bad label name");
        assert!(parse("name{l=\"v} 1\n").is_err(), "unterminated value");
        assert!(parse("name{l=\"a\\qb\"} 1\n").is_err(), "invalid escape");
        assert!(
            parse("# TYPE x counter\n# TYPE x gauge\nx 1\n").is_err(),
            "duplicate TYPE"
        );
        assert!(parse("name 1 2 3\n").is_err(), "trailing tokens");
        // valid corner cases
        assert!(parse("x_total{} 1\n").is_ok(), "empty label set");
        assert!(parse("x 1 1700000000000\n").is_ok(), "timestamp");
        assert!(parse("x +Inf\n").is_ok(), "infinite value");
    }

    #[test]
    fn parser_enforces_histogram_invariants() {
        let good = "h_bucket{le=\"1\"} 2\nh_bucket{le=\"8\"} 5\n\
                    h_bucket{le=\"+Inf\"} 5\nh_sum 30\nh_count 5\n";
        assert!(parse(good).is_ok());

        let shrinking = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"8\"} 2\n\
                         h_bucket{le=\"+Inf\"} 5\n";
        assert!(parse(shrinking).is_err(), "cumulative counts decreased");

        let unsorted = "h_bucket{le=\"8\"} 2\nh_bucket{le=\"1\"} 1\n\
                        h_bucket{le=\"+Inf\"} 5\n";
        assert!(parse(unsorted).is_err(), "le out of order");

        let no_inf = "h_bucket{le=\"1\"} 2\nh_bucket{le=\"8\"} 5\n";
        assert!(parse(no_inf).is_err(), "missing +Inf");

        let disagree = "h_bucket{le=\"+Inf\"} 5\nh_count 7\n";
        assert!(parse(disagree).is_err(), "+Inf != _count");

        // labeled families are validated per label set, independently
        let labeled = "h_bucket{rank=\"0\",le=\"1\"} 1\nh_bucket{rank=\"0\",le=\"+Inf\"} 1\n\
                       h_bucket{rank=\"1\",le=\"1\"} 9\nh_bucket{rank=\"1\",le=\"+Inf\"} 9\n";
        assert!(parse(labeled).is_ok());
    }

    #[test]
    fn empty_histogram_renders_a_zero_family() {
        let _ = hist::global("prom.test.empty_hist");
        let text = render();
        let exp = parse(&text).unwrap();
        let inf = exp
            .samples_named("dpmd_prom_test_empty_hist_bucket")
            .into_iter()
            .find(|s| s.label("le") == Some("+Inf"))
            .expect("+Inf bucket even when empty");
        assert_eq!(inf.value, 0.0);
        assert_eq!(
            exp.sample("dpmd_prom_test_empty_hist_count").unwrap().value,
            0.0
        );
    }

    #[test]
    fn label_escaping_is_lossless() {
        let nasty = "a\\b\"c\nd";
        assert_eq!(escape_label(nasty), "a\\\\b\\\"c\\nd");
        let doc = format!("m{{l=\"{}\"}} 1\n", escape_label(nasty));
        let exp = parse(&doc).unwrap();
        assert_eq!(exp.sample("m").unwrap().label("l"), Some(nasty));
    }
}
