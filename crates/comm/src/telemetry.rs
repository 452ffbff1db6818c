//! Structured telemetry for the simulated cluster.
//!
//! Every phase the trainers charge to a [`crate::TimeBreakdown`] bucket can also be
//! emitted as a typed [`Event`] carrying simulated-clock start/end stamps and
//! context (epoch, layer, peer, payload bytes, bit-width). Events are recorded
//! per device by a [`Recorder`] hanging off the device handle; the core crate
//! collects them into run-level logs and exports JSONL / Chrome-trace files.
//!
//! Recording is opt-in: a disabled recorder is a single `Option` check per
//! charge site (no allocation, no clock arithmetic), so simulation numerics
//! and runtime are unchanged when telemetry is off.

use crate::timing::TimeCategory;
use serde::{Deserialize, Serialize};

/// What a telemetry [`Event`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Halo feature/gradient bytes pushed to one peer in a ring round.
    HaloSend,
    /// Halo feature/gradient bytes pulled from one peer in a ring round.
    HaloRecv,
    /// Stochastic quantization encode/decode kernel time.
    QuantEncode,
    /// Central-graph (halo-free) compute: aggregation + dense layers.
    CentralCompute,
    /// Marginal-graph compute on the critical path after communication.
    MarginalCompute,
    /// Bit-width assigner solve (trace gather, solver, assignment scatter).
    AssignerSolve,
    /// Gradient all-reduce across devices.
    AllReduce,
}

impl EventKind {
    /// The [`crate::TimeBreakdown`] bucket this kind of event is charged to.
    pub fn category(self) -> TimeCategory {
        match self {
            EventKind::HaloSend | EventKind::HaloRecv | EventKind::AllReduce => TimeCategory::Comm,
            EventKind::QuantEncode => TimeCategory::Quant,
            EventKind::CentralCompute => TimeCategory::CentralComp,
            EventKind::MarginalCompute => TimeCategory::MarginalComp,
            EventKind::AssignerSolve => TimeCategory::Solve,
        }
    }

    /// Stable display name (used in trace exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HaloSend => "halo_send",
            EventKind::HaloRecv => "halo_recv",
            EventKind::QuantEncode => "quant_encode",
            EventKind::CentralCompute => "central_compute",
            EventKind::MarginalCompute => "marginal_compute",
            EventKind::AssignerSolve => "assigner_solve",
            EventKind::AllReduce => "all_reduce",
        }
    }
}

/// One recorded span on a device's simulated clock.
///
/// `start`/`end` are simulated seconds since the start of the run on the
/// per-category track clock of the recording device (tracks advance
/// independently, mirroring the overlap model where communication and
/// central compute proceed concurrently).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// What was measured.
    pub kind: EventKind,
    /// Simulated start time in seconds.
    pub start: f64,
    /// Simulated end time in seconds (`start + duration`).
    pub end: f64,
    /// Training epoch the span belongs to.
    pub epoch: u32,
    /// GNN layer index, when the span is layer-scoped.
    #[serde(default)]
    pub layer: Option<u32>,
    /// Peer device rank for point-to-point communication spans.
    #[serde(default)]
    pub peer: Option<u32>,
    /// Payload bytes moved (communication spans) or 0.
    #[serde(default)]
    pub bytes: u64,
    /// Message bit-width, when uniform for the span (32 = fp32; `None` for
    /// mixed adaptive assignments).
    #[serde(default)]
    pub width_bits: Option<u8>,
    /// Measured host wall-clock seconds the kernel behind this span actually
    /// took (0 when the span is purely analytic). Diagnostic only — never fed
    /// back into the simulated clock.
    #[serde(default)]
    pub host_seconds: f64,
    /// Worker-thread count of the parallel runtime while the span's kernel
    /// ran, when the span wraps a host-side kernel.
    #[serde(default)]
    pub threads: Option<u32>,
}

impl Event {
    /// Span duration in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Extra context attached to an event at record time.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventDetail {
    /// Peer device rank for point-to-point spans.
    pub peer: Option<u32>,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Uniform message bit-width, when one applies.
    pub width_bits: Option<u8>,
    /// Measured host wall-clock seconds of the kernel behind the span.
    pub host_seconds: f64,
    /// Parallel-runtime thread count while the kernel ran.
    pub threads: Option<u32>,
}

#[derive(Debug, Clone, Default)]
struct RecorderState {
    /// One simulated clock per [`TimeCategory`] track.
    clocks: [f64; TimeCategory::ALL.len()],
    epoch: u32,
    layer: Option<u32>,
    events: Vec<Event>,
}

/// Per-device event recorder attached to the simulated clock.
///
/// Disabled by default; every record call on a disabled recorder is a single
/// branch. An enabled recorder keeps one monotone clock per
/// [`TimeCategory`] track and appends spans as charge sites report simulated
/// seconds.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    state: Option<Box<RecorderState>>,
}

impl Recorder {
    /// A no-op recorder (the default).
    pub fn disabled() -> Self {
        Recorder { state: None }
    }

    /// A recorder that collects events.
    pub fn enabled() -> Self {
        Recorder {
            state: Some(Box::default()),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Tags subsequent events with `epoch` and re-aligns every track clock to
    /// the furthest one, so epochs don't interleave in exported traces.
    pub fn start_epoch(&mut self, epoch: u32) {
        if let Some(s) = &mut self.state {
            let max = s.clocks.iter().cloned().fold(0.0f64, f64::max);
            s.clocks = [max; TimeCategory::ALL.len()];
            s.epoch = epoch;
            s.layer = None;
        }
    }

    /// Tags subsequent events with `layer` (`None` clears the tag).
    pub fn set_layer(&mut self, layer: Option<u32>) {
        if let Some(s) = &mut self.state {
            s.layer = layer;
        }
    }

    /// Records a span of `seconds` simulated time for `kind` with no
    /// peer/bytes/width context.
    pub fn record(&mut self, kind: EventKind, seconds: f64) {
        self.record_detail(kind, seconds, EventDetail::default());
    }

    /// Records a span of `seconds` simulated time for `kind` on its
    /// category's track clock. Zero-duration, zero-byte spans are dropped.
    pub fn record_detail(&mut self, kind: EventKind, seconds: f64, detail: EventDetail) {
        let Some(s) = &mut self.state else { return };
        if seconds <= 0.0 && detail.bytes == 0 {
            return;
        }
        let track = kind.category().index();
        let start = s.clocks[track];
        let end = start + seconds.max(0.0);
        s.clocks[track] = end;
        s.events.push(Event {
            kind,
            start,
            end,
            epoch: s.epoch,
            layer: s.layer,
            peer: detail.peer,
            bytes: detail.bytes,
            width_bits: detail.width_bits,
            host_seconds: detail.host_seconds,
            threads: detail.threads,
        });
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[Event] {
        self.state.as_ref().map_or(&[], |s| &s.events)
    }

    /// Drains and returns all recorded events, leaving the recorder enabled
    /// (clocks keep advancing).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.state
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.start_epoch(3);
        r.record(EventKind::HaloSend, 1.0);
        assert!(r.events().is_empty());
        assert!(r.take_events().is_empty());
    }

    #[test]
    fn tracks_advance_independently() {
        let mut r = Recorder::enabled();
        r.record(EventKind::HaloSend, 2.0);
        r.record(EventKind::CentralCompute, 1.0);
        r.record(EventKind::HaloRecv, 0.5);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        // Comm track: send then recv back-to-back.
        assert_eq!((ev[0].start, ev[0].end), (0.0, 2.0));
        assert_eq!((ev[2].start, ev[2].end), (2.0, 2.5));
        // Compute track starts at zero, concurrent with comm.
        assert_eq!((ev[1].start, ev[1].end), (0.0, 1.0));
    }

    #[test]
    fn epoch_realigns_clocks_and_tags() {
        let mut r = Recorder::enabled();
        r.start_epoch(0);
        r.record(EventKind::HaloSend, 2.0);
        r.start_epoch(1);
        r.set_layer(Some(1));
        r.record(EventKind::CentralCompute, 1.0);
        let ev = r.take_events();
        assert_eq!(ev[0].epoch, 0);
        assert_eq!(ev[1].epoch, 1);
        assert_eq!(ev[1].layer, Some(1));
        // Epoch 1 starts where the furthest epoch-0 track ended.
        assert_eq!(ev[1].start, 2.0);
    }

    #[test]
    fn zero_spans_are_dropped_but_byte_only_spans_kept() {
        let mut r = Recorder::enabled();
        r.record(EventKind::QuantEncode, 0.0);
        r.record_detail(
            EventKind::HaloSend,
            0.0,
            EventDetail {
                peer: Some(1),
                bytes: 64,
                width_bits: Some(32),
                ..EventDetail::default()
            },
        );
        let ev = r.take_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].bytes, 64);
        assert_eq!(ev[0].duration(), 0.0);
    }

    #[test]
    fn event_serde_round_trip() {
        let e = Event {
            kind: EventKind::HaloRecv,
            start: 1.5,
            end: 2.0,
            epoch: 4,
            layer: Some(0),
            peer: Some(2),
            bytes: 1024,
            width_bits: None,
            host_seconds: 0.002,
            threads: Some(4),
        };
        let text = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn host_seconds_defaults_for_old_logs() {
        // Events serialized before the parallel runtime existed have no
        // host_seconds/threads fields; deserialization must still work.
        let text = r#"{"kind":"CentralCompute","start":0.0,"end":1.0,"epoch":0}"#;
        let e: Event = serde_json::from_str(text).unwrap();
        assert_eq!(e.host_seconds, 0.0);
        assert_eq!(e.threads, None);
    }
}
