//! Named metrics and the Prometheus / JSON serializers.
//!
//! [`MetricSet`] is an append-only list of samples. Rendering returns
//! `String`s — writing them anywhere is the binary's job (see the
//! workspace lint rule `no_process_io`, `clippy::print_stdout`).

use crate::hist::HistogramSnapshot;
use crate::json::JsonValue;
use core::fmt::Write as _;

/// Prometheus metric type, as emitted in `# TYPE` comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count (page reads, objects generated).
    Counter,
    /// Point-in-time value (pages allocated, phase seconds).
    Gauge,
    /// Bucketed distribution (request latency); the sample carries a
    /// [`HistogramSnapshot`] and renders as `_bucket`/`_sum`/`_count`
    /// series.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric sample: name, optional labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name; sanitized to Prometheus' `[a-zA-Z_:][a-zA-Z0-9_:]*`
    /// at render time.
    pub name: String,
    /// One-line description for the `# HELP` comment.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs, rendered in insertion order.
    pub labels: Vec<(String, String)>,
    /// The sample value. Ignored for histograms, which carry their data
    /// in `histogram`.
    pub value: f64,
    /// Bucketed data for [`MetricKind::Histogram`] samples; `None` for
    /// counters and gauges.
    pub histogram: Option<HistogramSnapshot>,
}

/// An ordered collection of metric samples.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Record an arbitrary sample.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Record an unlabelled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Counter,
            labels: Vec::new(),
            value,
            histogram: None,
        });
    }

    /// Record an unlabelled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Gauge,
            labels: Vec::new(),
            value,
            histogram: None,
        });
    }

    /// Record a labelled gauge sample.
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Gauge,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            histogram: None,
        });
    }

    /// Record a histogram sample from a bucket snapshot (see
    /// [`crate::LatencyHistogram::snapshot`]). Renders as the standard
    /// Prometheus `_bucket{le="..."}` / `_sum` / `_count` triple.
    pub fn histogram(&mut self, name: &str, help: &str, snapshot: HistogramSnapshot) {
        self.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            labels: Vec::new(),
            value: 0.0,
            histogram: Some(snapshot),
        });
    }

    /// Record each span in `sink` as a `<prefix>_seconds` gauge labelled
    /// by phase name.
    pub fn record_spans(&mut self, prefix: &str, spans: &[crate::Span]) {
        for span in spans {
            self.gauge_with(
                &format!("{prefix}_seconds"),
                "phase wall-clock time in seconds",
                &[("phase", span.name.as_str())],
                span.seconds(),
            );
        }
    }

    /// Render in the Prometheus text exposition format. `# HELP` and
    /// `# TYPE` comments are emitted once per metric name, at its first
    /// occurrence; samples keep insertion order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut announced: Vec<&str> = Vec::new();
        for m in &self.metrics {
            let name = sanitize_name(&m.name);
            if !announced.contains(&m.name.as_str()) {
                announced.push(m.name.as_str());
                if !m.help.is_empty() {
                    let _ = writeln!(out, "# HELP {name} {}", sanitize_help(&m.help));
                }
                let _ = writeln!(out, "# TYPE {name} {}", m.kind.as_str());
            }
            if let Some(snap) = &m.histogram {
                for &(bound, cumulative) in &snap.buckets {
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        fmt_value(bound)
                    );
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                let _ = writeln!(out, "{name}_sum {}", fmt_value(snap.sum));
                let _ = writeln!(out, "{name}_count {}", snap.count);
                continue;
            }
            out.push_str(&name);
            if !m.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in m.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label(v));
                }
                out.push('}');
            }
            let _ = writeln!(out, " {}", fmt_value(m.value));
        }
        out
    }

    /// Render as a JSON array of `{name, kind, labels, value}` records.
    pub fn to_json(&self) -> String {
        let items = self.metrics.iter().map(|m| {
            let mut obj = JsonValue::object([
                ("name", JsonValue::str(sanitize_name(&m.name))),
                ("kind", JsonValue::str(m.kind.as_str())),
            ]);
            if !m.labels.is_empty() {
                obj.push_field(
                    "labels",
                    JsonValue::Obj(
                        m.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::str(v.clone())))
                            .collect(),
                    ),
                );
            }
            match &m.histogram {
                Some(snap) => {
                    let buckets = snap.buckets.iter().map(|&(bound, cumulative)| {
                        JsonValue::array([JsonValue::Num(bound), JsonValue::UInt(cumulative)])
                    });
                    obj.push_field(
                        "histogram",
                        JsonValue::object([
                            ("buckets", JsonValue::array(buckets)),
                            ("sum", JsonValue::Num(snap.sum)),
                            ("count", JsonValue::UInt(snap.count)),
                        ]),
                    );
                }
                None => obj.push_field("value", JsonValue::Num(m.value)),
            }
            obj
        });
        JsonValue::array(items).render_pretty()
    }
}

/// Map arbitrary names onto Prometheus' allowed alphabet.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// HELP text escapes backslash and newline per the exposition format, so
/// multi-line help round-trips through a real scraper instead of being
/// lossily folded. Bare `\r` has no spelling in the format; it is folded
/// into the escaped newline.
fn sanitize_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    let mut chars = help.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => {
                if chars.peek() != Some(&'\n') {
                    out.push_str("\\n");
                }
            }
            c => out.push(c),
        }
    }
    out
}

/// Label values escape backslash, quote, and newline per the exposition
/// format.
fn escape_label(v: &str) -> String {
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

/// Prometheus values are floats; print integral values without the
/// trailing `.0` noise and non-finite values in its spelling.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v.is_sign_positive() {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;
    use std::time::Duration;

    #[test]
    fn prometheus_format_shape() {
        let mut set = MetricSet::new();
        set.counter("sti_reads_total", "pages read", 42.0);
        set.gauge_with("sti_phase_seconds", "phase time", &[("phase", "pack")], 0.5);
        let text = set.to_prometheus();
        assert!(text.contains("# HELP sti_reads_total pages read"), "{text}");
        assert!(text.contains("# TYPE sti_reads_total counter"), "{text}");
        assert!(text.contains("sti_reads_total 42"), "{text}");
        assert!(
            text.contains("sti_phase_seconds{phase=\"pack\"} 0.5"),
            "{text}"
        );
    }

    #[test]
    fn help_and_type_emitted_once_per_name() {
        let mut set = MetricSet::new();
        set.gauge_with("m", "help", &[("i", "1")], 1.0);
        set.gauge_with("m", "help", &[("i", "2")], 2.0);
        let text = set.to_prometheus();
        assert_eq!(text.matches("# HELP m ").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE m ").count(), 1, "{text}");
        assert_eq!(text.matches("m{i=").count(), 2, "{text}");
    }

    #[test]
    fn names_and_labels_are_sanitized() {
        let mut set = MetricSet::new();
        set.gauge_with("bad-name.1", "h", &[("k", "va\"l\nue")], 1.0);
        let text = set.to_prometheus();
        assert!(text.contains("bad_name_1{k=\"va\\\"l\\nue\"} 1"), "{text}");
        assert_eq!(sanitize_name("0abc"), "_abc");
    }

    #[test]
    fn durability_counters_and_gauges_render_with_their_types() {
        // The names the ingest pipeline and recovery report export
        // (`record_metrics` in sti-core); pin that the renderer gives
        // each one a HELP/TYPE pair with the right kind and an exact
        // integer value line.
        let mut set = MetricSet::new();
        set.counter("wal_appends_total", "records appended to the WAL", 128.0);
        set.counter("wal_fsyncs_total", "fsync calls issued by the WAL", 128.0);
        set.gauge("wal_segments", "live WAL segment files", 3.0);
        set.counter(
            "recovery_wal_records_replayed",
            "WAL records replayed at recovery",
            17.0,
        );
        set.gauge(
            "recovery_checkpoint_generation",
            "checkpoint generation recovery loaded",
            5.0,
        );
        let text = set.to_prometheus();
        assert!(text.contains("# TYPE wal_appends_total counter"), "{text}");
        assert!(text.contains("wal_appends_total 128"), "{text}");
        assert!(text.contains("# TYPE wal_segments gauge"), "{text}");
        assert!(text.contains("wal_segments 3"), "{text}");
        assert!(
            text.contains("# TYPE recovery_wal_records_replayed counter"),
            "{text}"
        );
        assert!(text.contains("recovery_wal_records_replayed 17"), "{text}");
        assert!(
            text.contains("# TYPE recovery_checkpoint_generation gauge"),
            "{text}"
        );
        assert!(text.contains("recovery_checkpoint_generation 5"), "{text}");
        assert!(
            text.contains(
                "# HELP recovery_checkpoint_generation checkpoint generation recovery loaded"
            ),
            "{text}"
        );
        let json = set.to_json();
        assert!(json.contains("\"name\": \"wal_fsyncs_total\""), "{json}");
        assert!(json.contains("\"kind\": \"counter\""), "{json}");
    }

    #[test]
    fn json_rendering_includes_labels() {
        let mut set = MetricSet::new();
        set.counter("a_total", "", 3.0);
        set.gauge_with("b", "", &[("x", "y")], 0.25);
        let text = set.to_json();
        assert!(text.contains("\"name\": \"a_total\""), "{text}");
        assert!(text.contains("\"x\": \"y\""), "{text}");
        assert!(text.contains("\"value\": 0.25"), "{text}");
    }

    #[test]
    fn spans_record_as_labelled_gauges() {
        let mut set = MetricSet::new();
        let spans = [Span::from_duration(
            "split_planning",
            Duration::from_millis(10),
        )];
        set.record_spans("sti_build", &spans);
        let text = set.to_prometheus();
        assert!(
            text.contains("sti_build_seconds{phase=\"split_planning\"} 0.01"),
            "{text}"
        );
    }

    #[test]
    fn non_finite_values_render_in_prometheus_spelling() {
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }

    /// Inverse of the exposition-format escaping, as a real scraper
    /// would apply it when parsing a `# HELP` line or a label value.
    fn unescape(escaped: &str) -> String {
        let mut out = String::with_capacity(escaped.len());
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('"') => out.push('"'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn help_escapes_newline() {
        assert_eq!(sanitize_help("line one\nline two"), "line one\\nline two");
        assert_eq!(
            unescape(&sanitize_help("line one\nline two")),
            "line one\nline two"
        );
    }

    #[test]
    fn help_escapes_backslash() {
        assert_eq!(sanitize_help(r"path\to\thing"), r"path\\to\\thing");
        assert_eq!(unescape(&sanitize_help(r"path\to\thing")), r"path\to\thing");
    }

    #[test]
    fn help_folds_carriage_returns_into_newlines() {
        assert_eq!(sanitize_help("a\r\nb"), "a\\nb");
        assert_eq!(sanitize_help("a\rb"), "a\\nb");
    }

    #[test]
    fn help_leaves_quotes_alone() {
        // Per the exposition format, HELP text escapes only `\` and
        // newline — quotes pass through verbatim.
        assert_eq!(sanitize_help("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn label_escapes_round_trip() {
        for raw in ["a\nb", "a\\b", "a\"b", "mix\\\"\nall"] {
            assert_eq!(unescape(&escape_label(raw)), raw, "{raw:?}");
        }
    }

    #[test]
    fn tricky_help_survives_a_full_render() {
        let mut set = MetricSet::new();
        set.counter("m_total", "uses \\n literally\nand a real break", 1.0);
        let text = set.to_prometheus();
        let help_line = text
            .lines()
            .find(|l| l.starts_with("# HELP"))
            .expect("help line");
        assert_eq!(
            help_line,
            "# HELP m_total uses \\\\n literally\\nand a real break"
        );
        assert_eq!(
            unescape(help_line.trim_start_matches("# HELP m_total ")),
            "uses \\n literally\nand a real break"
        );
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let h = crate::LatencyHistogram::with_bounds(vec![0.01, 0.1]);
        h.observe_secs(0.005);
        h.observe_secs(0.05);
        h.observe_secs(7.0);
        let mut set = MetricSet::new();
        set.histogram("req_seconds", "request latency", h.snapshot());
        let text = set.to_prometheus();
        assert!(text.contains("# TYPE req_seconds histogram"), "{text}");
        assert!(text.contains("req_seconds_bucket{le=\"0.01\"} 1"), "{text}");
        assert!(text.contains("req_seconds_bucket{le=\"0.1\"} 2"), "{text}");
        assert!(text.contains("req_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("req_seconds_count 3"), "{text}");
        assert!(text.contains("req_seconds_sum 7.055"), "{text}");
    }

    #[test]
    fn histogram_renders_in_json() {
        let h = crate::LatencyHistogram::with_bounds(vec![1.0]);
        h.observe_secs(0.5);
        let mut set = MetricSet::new();
        set.histogram("lat", "l", h.snapshot());
        let text = set.to_json();
        assert!(text.contains("\"kind\": \"histogram\""), "{text}");
        assert!(text.contains("\"count\": 1"), "{text}");
        assert!(text.contains("\"buckets\""), "{text}");
    }
}
