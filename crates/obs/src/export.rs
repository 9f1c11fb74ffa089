//! Serializers for [`ObsSnapshot`]: span JSONL, a
//! chrome://tracing-compatible trace file, a metrics-registry JSON
//! dump, and a Prometheus text exposition. All output is **out-of-band
//! telemetry** — none of it may be embedded in a deterministic report
//! (timestamps and durations are wall-clock and vary run to run).

use crate::phase::Phase;
use crate::ObsSnapshot;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep floats
        // visually typed for downstream tooling.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// One JSON object per line, one line per retained span:
/// `{"phase":"epoch.plan","ts_us":…,"dur_us":…,"tid":…}` with the
/// optional attribute inlined as its own key. A final `meta` line
/// carries the drop counter so consumers can detect truncation.
pub fn spans_jsonl(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    for s in &snap.spans {
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"ts_us\":{},\"dur_us\":{},\"tid\":{}",
            s.phase.name(),
            s.start_ns / 1_000,
            s.dur_ns / 1_000,
            s.tid
        );
        if let Some((name, value)) = s.attr {
            let _ = write!(out, ",\"{}\":{}", escape(name), value);
        }
        out.push_str("}\n");
    }
    let _ = writeln!(
        out,
        "{{\"meta\":\"ufp_obs\",\"spans\":{},\"spans_dropped\":{}}}",
        snap.spans.len(),
        snap.spans_dropped
    );
    out
}

/// A chrome://tracing (and Perfetto) compatible JSON document: one
/// complete event (`"ph":"X"`) per span, microsecond timestamps, the
/// recorder's dense thread ids as `tid`.
pub fn chrome_trace(snap: &ObsSnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for s in &snap.spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ufp\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            s.phase.name(),
            s.tid,
            s.start_ns / 1_000,
            s.dur_ns / 1_000
        );
        if let Some((name, value)) = s.attr {
            let _ = write!(out, ",\"args\":{{\"{}\":{}}}", escape(name), value);
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_dropped\":\"{}\"}}}}\n",
        snap.spans_dropped
    );
    out
}

/// The full registry plus phase totals and epoch profiles as one JSON
/// document — the `--metrics-out` payload.
pub fn metrics_json(snap: &ObsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {}", escape(name), value);
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {}", escape(name), fmt_f64(*value));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, count, sum, buckets)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            escape(name),
            count,
            sum
        );
        for (j, (lo, hi, hits)) in buckets.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}[{lo}, {hi}, {hits}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n  },\n  \"phases\": {");
    for (i, p) in Phase::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"total_us\": {}, \"spans\": {}}}",
            p.name(),
            snap.phase_ns[p.index()] / 1_000,
            snap.phase_hits[p.index()]
        );
    }
    let _ = write!(
        out,
        "\n  }},\n  \"spans_retained\": {},\n  \"spans_dropped\": {},\n  \"epoch_profiles\": [",
        snap.spans.len(),
        snap.spans_dropped
    );
    for (i, prof) in snap.profiles.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"epoch\": {}, \"wall_us\": {}, \"coverage\": {}, \"phases\": {{",
            prof.epoch,
            prof.wall_ns / 1_000,
            fmt_f64(prof.coverage())
        );
        let mut first = true;
        for p in Phase::ALL {
            if prof.phase_hits[p.index()] == 0 && prof.phase_ns[p.index()] == 0 {
                continue;
            }
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{}\": [{}, {}]",
                p.name(),
                prof.phase_ns[p.index()] / 1_000,
                prof.phase_hits[p.index()]
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Sanitize an internal dotted metric name into a legal Prometheus
/// metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character
/// becomes `_`, and a leading digit gets a `_` prefix. Empty names
/// become `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if legal {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the only three escapes the exposition format defines).
fn prom_label_value(v: &str) -> String {
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

/// Render a float the way the exposition format spells specials.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// The whole snapshot as a Prometheus text exposition (format 0.0.4) —
/// the `--health-out` payload. Registry counters are suffixed `_total`
/// (unless already so named), histograms become cumulative
/// `_bucket{le=…}` series with `+Inf`/`_sum`/`_count`, phase totals and
/// health alerts are rendered as labelled series, and each epoch's
/// regret-oracle sample (when present) becomes `ufp_regret_*` series
/// labelled by epoch.
pub fn prometheus_text(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let mut n = prom_name(name);
        if !n.ends_with("_total") {
            n.push_str("_total");
        }
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", prom_f64(*value));
    }
    for (name, count, sum, buckets) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (_, hi, hits) in buckets {
            cumulative += hits;
            let _ = writeln!(out, "{n}_bucket{{le=\"{hi}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{n}_sum {sum}");
        let _ = writeln!(out, "{n}_count {count}");
    }
    out.push_str("# TYPE ufp_phase_seconds_total counter\n");
    for p in Phase::ALL {
        let _ = writeln!(
            out,
            "ufp_phase_seconds_total{{phase=\"{}\"}} {}",
            prom_label_value(p.name()),
            prom_f64(snap.phase_ns[p.index()] as f64 / 1e9)
        );
    }
    out.push_str("# TYPE ufp_phase_spans_total counter\n");
    for p in Phase::ALL {
        let _ = writeln!(
            out,
            "ufp_phase_spans_total{{phase=\"{}\"}} {}",
            prom_label_value(p.name()),
            snap.phase_hits[p.index()]
        );
    }
    let _ = writeln!(
        out,
        "# TYPE ufp_spans_dropped_total counter\nufp_spans_dropped_total {}",
        snap.spans_dropped
    );
    let mut alert_counts = std::collections::BTreeMap::new();
    for a in &snap.alerts {
        *alert_counts.entry(a.kind()).or_insert(0u64) += 1;
    }
    out.push_str("# TYPE ufp_health_alerts_total counter\n");
    for (kind, count) in &alert_counts {
        let _ = writeln!(
            out,
            "ufp_health_alerts_total{{kind=\"{}\"}} {count}",
            prom_label_value(kind)
        );
    }
    let sampled: Vec<_> = snap
        .profiles
        .iter()
        .filter_map(|p| p.regret.map(|r| (p.epoch, r)))
        .collect();
    if !sampled.is_empty() {
        for (metric, read) in [
            ("ufp_regret_ratio", 0usize),
            ("ufp_regret_online_value", 1),
            ("ufp_regret_fractional_bound", 2),
            ("ufp_regret_duality_gap", 3),
        ] {
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (epoch, r) in &sampled {
                let v = match read {
                    0 => r.ratio,
                    1 => r.online_value,
                    2 => r.fractional_bound,
                    _ => r.duality_gap,
                };
                let _ = writeln!(out, "{metric}{{epoch=\"{epoch}\"}} {}", prom_f64(v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthAlert, Phase, Recorder, RegretSample};

    fn sample_snapshot() -> ObsSnapshot {
        let r = Recorder::enabled();
        r.epoch_begin(0);
        {
            let _g = r.span(Phase::EpochPlan);
        }
        {
            let _g = r.span_attr(Phase::PaymentProbe, "suffix_len", 9);
        }
        r.epoch_end(0);
        r.counter_add("par.steals", 3);
        r.gauge_set("engine.guard_slack", 1.5);
        r.histogram_record("probe.suffix", 9);
        r.snapshot().unwrap()
    }

    #[test]
    fn jsonl_has_one_object_per_span_plus_meta() {
        let snap = sample_snapshot();
        let text = spans_jsonl(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), snap.spans.len() + 1);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[1].contains("\"suffix_len\":9"));
        assert!(lines.last().unwrap().contains("\"spans_dropped\":0"));
    }

    #[test]
    fn chrome_trace_is_complete_events() {
        let snap = sample_snapshot();
        let text = chrome_trace(&snap);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), snap.spans.len());
        assert!(text.contains("\"name\":\"epoch.plan\""));
        assert!(text.contains("\"args\":{\"suffix_len\":9}"));
    }

    #[test]
    fn metrics_json_carries_registry_and_profiles() {
        let snap = sample_snapshot();
        let text = metrics_json(&snap);
        assert!(text.contains("\"par.steals\": 3"));
        assert!(text.contains("\"engine.guard_slack\": 1.5"));
        assert!(text.contains("\"probe.suffix\": {\"count\": 1, \"sum\": 9"));
        assert!(text.contains("\"epoch\": 0"));
        assert!(text.contains("\"payment.probe\""));
    }

    #[test]
    fn escaping_and_float_formatting() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    fn assert_legal_prom_name(n: &str) {
        let mut chars = n.chars();
        let first = chars.next().expect("empty metric name");
        assert!(
            first.is_ascii_alphabetic() || first == '_' || first == ':',
            "bad first char in {n}"
        );
        for c in chars {
            assert!(
                c.is_ascii_alphanumeric() || c == '_' || c == ':',
                "bad char {c:?} in {n}"
            );
        }
    }

    #[test]
    fn prometheus_sanitizes_adversarial_metric_names() {
        let r = Recorder::enabled();
        // Dots, spaces, unicode, quotes, leading digits, empty string:
        // every one must come out as a legal metric name.
        r.counter_add("engine.evictions_total", 4);
        r.counter_add("weird name {with=\"labels\"}", 1);
        r.gauge_set("7starts.with.digit", 1.5);
        r.gauge_set("uni\u{2603}code", 2.5);
        r.gauge_set("", 0.5);
        r.histogram_record("epoch wall µs", 100);
        let text = prometheus_text(&r.snapshot().unwrap());
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line
                .split(['{', ' '])
                .next()
                .expect("sample line has a name");
            // Histogram sample suffixes (_bucket/_sum/_count) are part
            // of the rendered name and must themselves be legal.
            assert_legal_prom_name(name);
        }
        // `_total` is appended exactly once.
        assert!(text.contains("engine_evictions_total 4"));
        assert!(!text.contains("engine_evictions_total_total"));
        assert!(text.contains("weird_name__with__labels___total 1"));
        assert!(text.contains("_7starts_with_digit 1.5"));
    }

    #[test]
    fn prometheus_empty_registry_still_exports_phase_series() {
        let r = Recorder::enabled();
        let text = prometheus_text(&r.snapshot().unwrap());
        // No registry metrics, no alerts, no regret — but the fixed
        // phase/drop series are always present and well-formed.
        assert!(text.contains("# TYPE ufp_phase_seconds_total counter"));
        assert!(text.contains("ufp_phase_seconds_total{phase=\"epoch.plan\"} 0"));
        assert!(text.contains("ufp_spans_dropped_total 0"));
        assert!(!text.contains("ufp_regret_ratio"));
        assert!(!text.contains("{kind="));
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.contains(' '),
                "malformed line {line}"
            );
        }
    }

    #[test]
    fn prometheus_histograms_are_cumulative() {
        let r = Recorder::enabled();
        r.histogram_record("lat.us", 1);
        r.histogram_record("lat.us", 1);
        r.histogram_record("lat.us", 1_000_000);
        let text = prometheus_text(&r.snapshot().unwrap());
        assert!(text.contains("# TYPE lat_us histogram"));
        // First nonzero bucket holds 2, the +Inf bucket the full count.
        assert!(text.contains("lat_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_count 3"));
        assert!(text.contains("lat_us_sum 1000002"));
    }

    #[test]
    fn prometheus_renders_alerts_and_regret() {
        let r = Recorder::enabled();
        r.epoch_begin(3);
        r.epoch_end(3);
        r.profile_set_regret(
            3,
            RegretSample {
                online_value: 8.0,
                fractional_bound: 10.0,
                ratio: 0.8,
                duality_gap: 0.25,
                commodities: 5,
                iterations: 40,
            },
        );
        r.alert(HealthAlert::SloMiss {
            epoch: 3,
            observed_us: 900,
            threshold_us: 500,
        });
        r.alert(HealthAlert::SloMiss {
            epoch: 4,
            observed_us: 700,
            threshold_us: 500,
        });
        let text = prometheus_text(&r.snapshot().unwrap());
        assert!(text.contains("ufp_health_alerts_total{kind=\"slo_miss\"} 2"));
        assert!(text.contains("ufp_regret_ratio{epoch=\"3\"} 0.8"));
        assert!(text.contains("ufp_regret_fractional_bound{epoch=\"3\"} 10"));
        assert!(text.contains("ufp_regret_duality_gap{epoch=\"3\"} 0.25"));
    }

    #[test]
    fn prometheus_label_escaping() {
        assert_eq!(prom_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
    }
}
