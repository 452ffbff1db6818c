//! Run-level telemetry: the span view of a run, and its exporters.
//!
//! A run keeps one record, its flight log ([`obs::critpath::FlightLog`]),
//! which holds every charge a device made. [`TelemetryLog::from_flight`]
//! places each charge as one [`Event`] span on its device's simulated
//! clock; the log is stored on [`crate::RunResult`], folds back into
//! per-(rank, epoch) [`TimeBreakdown`]s ([`TelemetryLog::epoch_breakdowns`])
//! and exports two formats:
//!
//! * **JSONL** — one flattened event object per line, for ad-hoc analysis.
//! * **Chrome `trace_event` JSON** — loadable in Perfetto / `chrome://tracing`;
//!   devices become processes and [`TimeCategory`] tracks become threads, so
//!   the comm/compute overlap is visible on the timeline.

pub use obs::time::{Event, EventDetail, EventKind, Span};

use obs::critpath::FlightLog;
use obs::time::{HostSeconds, TimeBreakdown, TimeCategory};
use serde::Serialize;
use serde_json::{Map, Value};
use std::io::Write;
use std::path::Path;

/// All events one device recorded over a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DeviceLog {
    /// The recording device's rank.
    pub rank: usize,
    /// Events in recording order (per-track simulated clocks are monotone).
    pub events: Vec<Event>,
}

/// The whole cluster's telemetry for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TelemetryLog {
    /// One log per device, in rank order.
    pub devices: Vec<DeviceLog>,
}

impl TelemetryLog {
    /// Places the charges of a flight log on per-device tracks as spans, one
    /// span per charge, in the order each device charged them.
    ///
    /// Each device keeps one clock per [`TimeCategory`] track; a charge is a
    /// span on its kind's track, from the track's clock to the clock plus
    /// the charged seconds. Tracks advance independently within an epoch and
    /// re-align to the furthest one when the epoch changes, so epochs do not
    /// interleave in an exported trace. A charge of zero seconds and zero
    /// bytes is dropped, and so are charges of ranks the log does not
    /// declare.
    pub fn from_flight(log: &FlightLog) -> Self {
        const TRACKS: usize = TimeCategory::ALL.len();
        let n = log.num_devices;
        let mut devices: Vec<DeviceLog> = (0..n)
            .map(|rank| DeviceLog {
                rank,
                events: Vec::new(),
            })
            .collect();
        // Per device, the track clocks and the epoch they were last aligned at.
        let mut tracks = vec![([0.0f64; TRACKS], None); n];
        for ev in log.events.iter().filter(|ev| ev.rank < n) {
            let (span, epoch) = (&ev.span, ev.epoch);
            let (clocks, aligned) = &mut tracks[ev.rank];
            if *aligned != Some(epoch) {
                *clocks = [clocks.iter().cloned().fold(0.0f64, f64::max); TRACKS];
                *aligned = Some(epoch);
            }
            let detail = span.detail;
            if ev.seconds <= 0.0 && detail.bytes == 0 {
                continue;
            }
            let clock = &mut clocks[span.kind.category().index()];
            let start = *clock;
            *clock = start + ev.seconds.max(0.0);
            devices[ev.rank].events.push(Event {
                kind: span.kind,
                start,
                end: *clock,
                epoch: epoch as u32,
                layer: span.layer,
                bytes: detail.bytes,
                width_bits: detail.width_bits,
                host_seconds: detail.host_seconds,
                threads: detail.threads,
            });
        }
        TelemetryLog { devices }
    }

    /// Total event count across devices.
    pub fn num_events(&self) -> usize {
        self.devices.iter().map(|d| d.events.len()).sum()
    }

    /// Folds every span's duration back into the bucket its kind is charged
    /// to, indexed `[rank][epoch]`. Each breakdown matches what the device
    /// charged that epoch within float tolerance (a span's duration is the
    /// difference of two track clocks); compose and combine them with
    /// [`obs::time`].
    pub fn epoch_breakdowns(&self) -> Vec<Vec<TimeBreakdown>> {
        let epochs = self
            .devices
            .iter()
            .flat_map(|d| d.events.iter())
            .map(|e| e.epoch as usize + 1)
            .max()
            .unwrap_or(0);
        self.devices
            .iter()
            .map(|d| {
                let mut tbs = vec![TimeBreakdown::new(); epochs];
                for e in &d.events {
                    tbs[e.epoch as usize].charge(e.kind.category(), e.duration());
                }
                tbs
            })
            .collect()
    }

    /// Serializes to JSONL: one flattened `{rank, kind, start, ...}` object
    /// per line.
    #[expect(clippy::expect_used, reason = "an in-memory Value always encodes")]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for dev in &self.devices {
            for e in &dev.events {
                let mut obj = Map::new();
                obj.insert("rank".into(), serde_json::to_value(&dev.rank));
                if let Value::Object(fields) = serde_json::to_value(e) {
                    for (k, v) in fields.iter() {
                        obj.insert(k.clone(), v.clone());
                    }
                }
                out.push_str(&serde_json::to_string(&Value::Object(obj)).expect("jsonl encodes"));
                out.push('\n');
            }
        }
        out
    }

    /// Writes [`TelemetryLog::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Renders the log in Chrome `trace_event` JSON (the format Perfetto and
    /// `chrome://tracing` load). Each device is a process; each
    /// [`TimeCategory`] track is a thread inside it; spans are complete
    /// (`"ph": "X"`) events with microsecond timestamps.
    pub fn chrome_trace(&self) -> Value {
        let mut trace_events: Vec<Value> = Vec::with_capacity(self.num_events() + 8);
        for dev in &self.devices {
            trace_events.push(metadata_event(
                "process_name",
                dev.rank,
                None,
                &format!("device {}", dev.rank),
            ));
            for cat in TimeCategory::ALL {
                trace_events.push(metadata_event(
                    "thread_name",
                    dev.rank,
                    Some(cat.index()),
                    cat.label(),
                ));
            }
            for e in &dev.events {
                trace_events.push(span_event(dev.rank, e));
            }
        }
        let mut root = Map::new();
        root.insert("traceEvents".into(), Value::Array(trace_events));
        root.insert("displayTimeUnit".into(), Value::String("ms".into()));
        Value::Object(root)
    }

    /// Sums the measured host wall-clock seconds of the parallel kernels
    /// behind each device's spans (aggregation, quantization codecs), along
    /// with the runtime thread count the kernels reported. Purely
    /// diagnostic: simulated breakdowns stay analytic; this is the "real
    /// kernel time" column fig10/table5-style reports print next to them.
    pub fn host_kernel_summary(&self) -> Vec<HostKernelSummary> {
        self.devices
            .iter()
            .map(|d| {
                let mut s = HostKernelSummary {
                    rank: d.rank,
                    ..HostKernelSummary::default()
                };
                for e in &d.events {
                    s.host_seconds += e.host_seconds.secs();
                    if let Some(t) = e.threads {
                        s.threads = Some(s.threads.map_or(t, |prev| prev.max(t)));
                    }
                }
                s
            })
            .collect()
    }

    /// Writes [`TelemetryLog::chrome_trace`] to `path`.
    #[expect(clippy::expect_used, reason = "an in-memory Value always encodes")]
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.chrome_trace()).expect("trace encodes");
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())
    }
}

fn metadata_event(name: &str, pid: usize, tid: Option<usize>, display_name: &str) -> Value {
    let mut args = Map::new();
    args.insert("name".into(), Value::String(display_name.into()));
    let mut obj = Map::new();
    obj.insert("name".into(), Value::String(name.into()));
    obj.insert("ph".into(), Value::String("M".into()));
    obj.insert("pid".into(), serde_json::to_value(&pid));
    if let Some(tid) = tid {
        obj.insert("tid".into(), serde_json::to_value(&tid));
    }
    obj.insert("args".into(), Value::Object(args));
    Value::Object(obj)
}

fn span_event(rank: usize, e: &Event) -> Value {
    let mut args = Map::new();
    args.insert("epoch".into(), serde_json::to_value(&e.epoch));
    if let Some(layer) = e.layer {
        args.insert("layer".into(), serde_json::to_value(&layer));
    }
    if e.bytes > 0 {
        args.insert("bytes".into(), serde_json::to_value(&e.bytes));
    }
    if let Some(bits) = e.width_bits {
        args.insert("width_bits".into(), serde_json::to_value(&bits));
    }
    if e.host_seconds > HostSeconds::default() {
        args.insert("host_seconds".into(), serde_json::to_value(&e.host_seconds));
    }
    if let Some(threads) = e.threads {
        args.insert("threads".into(), serde_json::to_value(&threads));
    }
    let mut obj = Map::new();
    obj.insert("name".into(), Value::String(e.kind.name().into()));
    obj.insert(
        "cat".into(),
        Value::String(e.kind.category().label().into()),
    );
    obj.insert("ph".into(), Value::String("X".into()));
    obj.insert("ts".into(), serde_json::to_value(&(e.start * 1e6)));
    obj.insert("dur".into(), serde_json::to_value(&(e.duration() * 1e6)));
    obj.insert("pid".into(), serde_json::to_value(&rank));
    obj.insert(
        "tid".into(),
        serde_json::to_value(&e.kind.category().index()),
    );
    obj.insert("args".into(), Value::Object(args));
    Value::Object(obj)
}

/// One device's measured host kernel time over a run (see
/// [`TelemetryLog::host_kernel_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostKernelSummary {
    /// The device's rank.
    pub rank: usize,
    /// Total measured host wall-clock seconds across the device's spans.
    pub host_seconds: f64,
    /// Parallel-runtime worker count the kernels reported (`None` when no
    /// span carried one).
    pub threads: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TelemetryLog {
        let mk = |kind: EventKind, start: f64, end: f64, epoch: u32| Event {
            kind,
            start,
            end,
            epoch,
            layer: Some(0),
            bytes: 128,
            width_bits: Some(32),
            host_seconds: HostSeconds::default(),
            threads: None,
        };
        let events = vec![
            vec![
                mk(EventKind::HaloSend, 0.0, 1.0, 0),
                mk(EventKind::CentralCompute, 0.0, 0.5, 0),
                mk(EventKind::MarginalCompute, 1.0, 1.25, 1),
            ],
            vec![mk(EventKind::HaloSend, 0.0, 2.0, 0)],
        ];
        let devices = events.into_iter().enumerate();
        TelemetryLog {
            devices: devices
                .map(|(rank, events)| DeviceLog { rank, events })
                .collect(),
        }
    }

    /// A one-device flight log holding `charges` as `(epoch, seconds, span)`.
    fn charged(charges: Vec<(usize, f64, Span)>) -> TelemetryLog {
        let events = charges
            .into_iter()
            .map(|(epoch, seconds, span)| obs::critpath::FlightEvent {
                rank: 0,
                epoch,
                seconds,
                span,
            });
        TelemetryLog::from_flight(&FlightLog {
            num_devices: 1,
            collectives: 0,
            events: events.collect(),
        })
    }

    #[test]
    fn aggregate_buckets_by_rank_and_epoch() {
        let tbs = sample_log().epoch_breakdowns();
        assert_eq!(tbs.len(), 2);
        assert!(tbs.iter().all(|dev| dev.len() == 2));
        assert_eq!(tbs[0][0].comm, 1.0);
        assert_eq!(tbs[0][0].central_comp, 0.5);
        assert_eq!(tbs[0][1].marginal_comp, 0.25);
        assert_eq!(tbs[1][0].comm, 2.0);
    }

    #[test]
    fn breakdown_reconstructs_charges() {
        let log = charged(vec![
            (0, 1.0, Span::new(EventKind::HaloSend)),
            (0, 0.5, Span::new(EventKind::AllReduce)),
            (0, 0.25, Span::new(EventKind::QuantEncode)),
            (0, 2.0, Span::new(EventKind::CentralCompute)),
            (0, 0.75, Span::new(EventKind::MarginalCompute)),
            (0, 0.1, Span::new(EventKind::AssignerSolve)),
        ]);
        let tb = log.epoch_breakdowns()[0][0];
        assert_eq!(tb.comm, 1.5);
        assert_eq!(tb.quant, 0.25);
        assert_eq!(tb.central_comp, 2.0);
        assert_eq!(tb.marginal_comp, 0.75);
        assert_eq!(tb.solve, 0.1);
    }

    #[test]
    fn tracks_advance_independently() {
        let log = charged(vec![
            (0, 2.0, Span::new(EventKind::HaloSend)),
            (0, 1.0, Span::new(EventKind::CentralCompute)),
            (0, 0.5, Span::new(EventKind::AllReduce)),
        ]);
        let ev = &log.devices[0].events;
        // Comm track: the exchange then the all-reduce, back to back.
        assert_eq!((ev[0].start, ev[0].end), (0.0, 2.0));
        assert_eq!((ev[2].start, ev[2].end), (2.0, 2.5));
        // The compute track starts at zero, concurrent with comm.
        assert_eq!((ev[1].start, ev[1].end), (0.0, 1.0));
    }

    #[test]
    fn epoch_realigns_clocks_and_tags() {
        let mut layered = Span::new(EventKind::CentralCompute);
        layered.layer = Some(1);
        let log = charged(vec![
            (0, 2.0, Span::new(EventKind::HaloSend)),
            (1, 1.0, layered),
        ]);
        let ev = &log.devices[0].events;
        assert_eq!((ev[0].epoch, ev[0].layer), (0, None));
        // Epoch 1 starts where the furthest epoch-0 track ended.
        assert_eq!((ev[1].epoch, ev[1].layer, ev[1].start), (1, Some(1), 2.0));
    }

    #[test]
    fn zero_spans_are_dropped_but_byte_only_spans_kept() {
        let mut byte_only = Span::new(EventKind::AllReduce);
        byte_only.detail.bytes = 64;
        let log = charged(vec![
            (0, 0.0, Span::new(EventKind::QuantEncode)),
            (0, 0.0, byte_only),
        ]);
        let ev = &log.devices[0].events;
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].bytes, ev[0].duration()), (64, 0.0));
    }

    #[test]
    fn a_halo_charge_is_one_span_with_its_sent_bytes() {
        let mut halo = Span::new(EventKind::HaloSend);
        halo.detail.bytes = 300;
        halo.detail.width_bits = Some(8);
        let log = charged(vec![
            (0, 8.0, halo),
            (0, 1.0, Span::new(EventKind::HaloSend)),
        ]);
        let ev = &log.devices[0].events;
        let got: Vec<_> = ev
            .iter()
            .map(|e| (e.kind, e.bytes, e.width_bits, e.start, e.end))
            .collect();
        // A charge that sent nothing (received only) is still its seconds.
        assert_eq!(
            got,
            vec![
                (EventKind::HaloSend, 300, Some(8), 0.0, 8.0),
                (EventKind::HaloSend, 0, None, 8.0, 9.0),
            ]
        );
    }

    #[test]
    fn event_serde_round_trip() {
        let e = Event {
            kind: EventKind::HaloSend,
            start: 1.5,
            end: 2.0,
            epoch: 4,
            layer: Some(0),
            bytes: 1024,
            width_bits: None,
            host_seconds: HostSeconds::from_secs(0.002),
            threads: Some(4),
        };
        let text = serde_json::to_string(&e).unwrap();
        assert_eq!(
            text,
            concat!(
                r#"{"kind":"HaloSend","start":1.5,"end":2.0,"epoch":4,"layer":0,"#,
                r#""bytes":1024,"width_bits":null,"host_seconds":0.002,"threads":4}"#,
            )
        );
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, serde_json::to_value(&e));
    }

    #[test]
    fn jsonl_one_line_per_event_with_rank() {
        let log = sample_log();
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), log.num_events());
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["rank"].as_u64(), Some(0));
        assert_eq!(first["kind"].as_str(), Some("HaloSend"));
        let last: Value = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(last["rank"].as_u64(), Some(1));
    }

    #[test]
    fn chrome_trace_shape() {
        let log = sample_log();
        let trace = log.chrome_trace();
        let events = trace["traceEvents"].as_array().expect("array");
        // 2 devices x (1 process_name + 5 thread_name) metadata + 4 spans.
        assert_eq!(events.len(), 2 * 6 + 4);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        let s = spans[0];
        assert_eq!(s["name"].as_str(), Some("halo_send"));
        assert_eq!(s["ts"].as_f64(), Some(0.0));
        assert_eq!(s["dur"].as_f64(), Some(1e6));
        assert_eq!(s["args"]["bytes"].as_u64(), Some(128));
        // Round-trips through the JSON text layer.
        let text = serde_json::to_string(&trace).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["traceEvents"].as_array().unwrap().len(), events.len());
    }

    /// A fixed log exercising float formatting: host-kernel fractions, a
    /// value that only round-trips with 17 significant digits, and span
    /// boundaries that are not representable exactly in binary.
    fn golden_log() -> TelemetryLog {
        let mut log = sample_log();
        log.devices[0].events[0].host_seconds = HostSeconds::from_secs(0.000_123_456_789_012_345);
        log.devices[0].events[0].threads = Some(4);
        log.devices[1].events[0].start = 0.1;
        log.devices[1].events[0].end = 0.1 + 0.2; // 0.30000000000000004
        log
    }

    fn golden_path(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("testdata")
            .join(name)
    }

    /// Byte-compares `actual` against the committed golden file. Run with
    /// `ADAQP_BLESS=1` to regenerate the goldens after an intended change.
    fn assert_matches_golden(name: &str, actual: &str) {
        let path = golden_path(name);
        if std::env::var("ADAQP_BLESS").is_ok() {
            std::fs::write(&path, actual).expect("write golden");
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden file missing; regenerate with ADAQP_BLESS=1");
        assert_eq!(
            actual, golden,
            "{name} drifted from the committed bytes; if intended, regenerate with ADAQP_BLESS=1"
        );
    }

    #[test]
    fn jsonl_bytes_match_golden_file() {
        assert_matches_golden("telemetry_events.golden.jsonl", &golden_log().to_jsonl());
    }

    #[test]
    fn chrome_trace_bytes_match_golden_file() {
        let text = serde_json::to_string(&golden_log().chrome_trace()).expect("encodes");
        assert_matches_golden("telemetry_trace.golden.json", &text);
    }

    #[test]
    fn host_kernel_summary_sums_and_takes_max_threads() {
        let mut log = sample_log();
        log.devices[0].events[0].host_seconds = HostSeconds::from_secs(0.002);
        log.devices[0].events[0].threads = Some(2);
        log.devices[0].events[1].host_seconds = HostSeconds::from_secs(0.001);
        log.devices[0].events[1].threads = Some(8);
        let s = log.host_kernel_summary();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].rank, 0);
        assert!((s[0].host_seconds - 0.003).abs() < 1e-12);
        assert_eq!(s[0].threads, Some(8));
        assert_eq!(s[1].host_seconds, 0.0);
        assert_eq!(s[1].threads, None);
    }

    #[test]
    fn log_serde_round_trip() {
        let log = sample_log();
        let text = serde_json::to_string(&log).unwrap();
        assert_eq!(
            text,
            concat!(
                r#"{"devices":[{"rank":0,"events":[{"kind":"HaloSend","start":0.0,"#,
                r#""end":1.0,"epoch":0,"layer":0,"bytes":128,"width_bits":32,"#,
                r#""host_seconds":0.0,"threads":null},{"kind":"CentralCompute","start":0.0,"#,
                r#""end":0.5,"epoch":0,"layer":0,"bytes":128,"width_bits":32,"#,
                r#""host_seconds":0.0,"threads":null},{"kind":"MarginalCompute","#,
                r#""start":1.0,"end":1.25,"epoch":1,"layer":0,"bytes":128,"width_bits":32,"#,
                r#""host_seconds":0.0,"threads":null}]},{"rank":1,"#,
                r#""events":[{"kind":"HaloSend","start":0.0,"end":2.0,"epoch":0,"layer":0,"#,
                r#""bytes":128,"width_bits":32,"host_seconds":0.0,"threads":null}]}]}"#,
            )
        );
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, serde_json::to_value(&log));
    }
}
