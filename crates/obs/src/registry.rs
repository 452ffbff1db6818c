//! The typed metric registry and its snapshot/export forms.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone sum.
    Counter,
    /// Last-written value.
    Gauge,
}

impl MetricKind {
    /// Prometheus `# TYPE` name.
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One named metric with its labels and accumulated state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name (Prometheus-style, e.g. `adaqp_comm_sent_bytes_total`).
    pub name: String,
    /// Label pairs in insertion order (callers pass them pre-sorted where
    /// identity stability matters; the registry key is built from them).
    pub labels: Vec<(String, String)>,
    /// Kind; determines the export shape.
    pub kind: MetricKind,
    /// Counter total or gauge value.
    pub value: f64,
}

impl Metric {
    /// The registry key / Prometheus sample identity: `name{k="v",...}`.
    pub fn identity(&self) -> String {
        identity_of(&self.name, &self.labels)
    }
}

fn identity_of(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

/// A deterministic metric registry: a map from sample identity to metric,
/// ordered by identity so iteration and export order never depend
/// on insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of distinct metric samples.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    fn entry(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> &mut Metric {
        let labels = owned_labels(labels);
        let key = identity_of(name, &labels);
        let m = self.metrics.entry(key).or_insert_with(|| Metric {
            name: name.to_string(),
            labels,
            kind,
            value: 0.0,
        });
        debug_assert_eq!(m.kind, kind, "metric {name} re-registered as {kind:?}");
        m
    }

    /// Adds `v` to a counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.entry(name, labels, MetricKind::Counter).value += v;
    }

    /// Sets a gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.entry(name, labels, MetricKind::Gauge).value = v;
    }

    /// Looks a metric up by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.get(&identity_of(name, &owned_labels(labels)))
    }

    /// Iterates metrics in identity order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.values()
    }

    /// The snapshot — every metric, in identity order — built by moving the
    /// registry's map, not copying it.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics,
        }
    }
}

/// A serializable point-in-time view of a registry, keyed by sample
/// identity (so JSON diffs and regression tolerances address metrics by
/// name, not by array position).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Identity -> metric, in identity order.
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.get(&identity_of(name, &owned_labels(labels)))
    }

    /// Renders the snapshot in the Prometheus text exposition format: one
    /// `# TYPE` line per family, one sample line per series. Floats print
    /// shortest-roundtrip, so output is byte-stable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in self.metrics.values() {
            if last_name != Some(m.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&m.name);
                out.push(' ');
                out.push_str(m.kind.prom_type());
                out.push('\n');
                last_name = Some(m.name.as_str());
            }
            out.push_str(&m.identity());
            out.push(' ');
            out.push_str(&fmt_f64(m.value));
            out.push('\n');
        }
        out
    }
}

/// Shortest-roundtrip float formatting (Rust's `Display` for `f64`), the
/// same scheme the JSON printer shim uses; deterministic per value.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let mut r = Registry::new();
        r.counter_add("hits", &[("peer", "1")], 2.0);
        r.counter_add("hits", &[("peer", "1")], 3.0);
        r.gauge_set("level", &[], 7.0);
        r.gauge_set("level", &[], 4.0);
        assert_eq!(r.get("hits", &[("peer", "1")]).unwrap().value, 5.0);
        assert_eq!(r.get("level", &[]).unwrap().value, 4.0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn snapshot_order_is_insertion_independent() {
        let mut a = Registry::new();
        a.counter_add("z_metric", &[], 1.0);
        a.counter_add("a_metric", &[("peer", "3")], 1.0);
        a.counter_add("a_metric", &[("peer", "1")], 1.0);
        let mut b = Registry::new();
        b.counter_add("a_metric", &[("peer", "1")], 1.0);
        b.counter_add("z_metric", &[], 1.0);
        b.counter_add("a_metric", &[("peer", "3")], 1.0);
        let snap = a.into_snapshot();
        assert_eq!(snap, b.into_snapshot());
        let keys: Vec<&String> = snap.metrics.keys().collect();
        assert_eq!(
            keys,
            vec!["a_metric{peer=\"1\"}", "a_metric{peer=\"3\"}", "z_metric"]
        );
    }

    #[test]
    fn prometheus_export_shape() {
        let mut r = Registry::new();
        r.counter_add("bytes_total", &[("src", "0"), ("dst", "1")], 42.0);
        r.gauge_set("loss", &[("epoch", "0")], 0.25);
        let text = r.into_snapshot().to_prometheus();
        assert!(text.contains("# TYPE bytes_total counter\n"));
        assert!(text.contains("bytes_total{src=\"0\",dst=\"1\"} 42\n"));
        assert!(text.contains("# TYPE loss gauge\n"));
        assert!(text.contains("loss{epoch=\"0\"} 0.25\n"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut r = Registry::new();
        r.counter_add("c", &[("k", "v")], 3.5);
        r.gauge_set("g", &[], 1.0);
        let snap = r.into_snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
