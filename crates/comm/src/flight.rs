//! The causal flight recorder: an opt-in log of every scheduling
//! transition inside the discrete-event core.
//!
//! When a [`FlightRecorder`] is handed to
//! [`crate::event::run_programs_recorded`], the scheduler logs each device
//! dispatch, receive block, message departure/arrival (with the link's
//! `theta * bytes + gamma` split), collective front formation/release, and
//! simulated-time phase advance ([`crate::Command::Advance`]) as one
//! [`obs::critpath::FlightEvent`], tagged with its **causal predecessor**:
//!
//! * a *program-order* edge to the same rank's previous event,
//! * a *message* edge from an arrival back to the matching departure
//!   (per-`(src, tag)` FIFO, mirroring the mailbox discipline), or
//! * a *collective-rendezvous* edge from each release back to the park
//!   event that completed the front (the straggler that everyone waited
//!   for).
//!
//! The log is a pure function of the program schedule, which the event
//! core keeps bit-reproducible, so recorded logs are byte-identical at any
//! `ADAQP_THREADS`. When no recorder is attached the scheduler pays one
//! branch per transition and nothing else (the zero-cost-off contract,
//! DESIGN.md §5b). Every view of a run — the critical path
//! ([`obs::critpath::analyze`]), the telemetry spans
//! (`adaqp::TelemetryLog::from_flight`) — is a fold over this one log.

use crate::CostModel;
use obs::critpath::{EdgeKind, FlightEvent, FlightLog, FlightOp};
use obs::time::Span;
use std::collections::{BTreeMap, VecDeque};

/// Collects the causal flight log of one event-core run.
///
/// Create one with [`FlightRecorder::new`], pass it to
/// [`crate::event::run_programs_recorded`] (or
/// [`crate::Cluster::try_run_fn_recorded`]), then call
/// [`FlightRecorder::finish`] to obtain the [`FlightLog`].
#[derive(Debug)]
pub struct FlightRecorder<'a> {
    n: usize,
    /// Cost model used to annotate departures with their wire/latency
    /// split; `None` records zero splits (pure-ordering runs).
    cost: Option<&'a CostModel>,
    events: Vec<FlightEvent>,
    /// Each rank's most recent event, the source of program-order edges.
    last_seq: Vec<Option<u64>>,
    /// Departure seqs awaiting their arrival, keyed `(dst, src, tag)` with
    /// per-key FIFO order (the mailbox discipline).
    depart_seqs: BTreeMap<(usize, usize, u64), VecDeque<u64>>,
    /// Park-event seqs of the collective front currently forming.
    front: Vec<u64>,
    /// Kind of the forming front (first parked rank names it).
    front_kind: Option<&'static str>,
}

impl<'a> FlightRecorder<'a> {
    /// A recorder for `n` devices. `cost` (the run's cost model) annotates
    /// departures with their `theta * bytes` / `gamma` split; pass `None`
    /// for pure-ordering runs.
    pub fn new(n: usize, cost: Option<&'a CostModel>) -> Self {
        FlightRecorder {
            n,
            cost,
            events: Vec::new(),
            last_seq: vec![None; n],
            depart_seqs: BTreeMap::new(),
            front: Vec::new(),
            front_kind: None,
        }
    }

    /// Consumes the recorder and returns the finished log.
    pub fn finish(self) -> FlightLog {
        FlightLog {
            num_devices: self.n,
            events: self.events,
        }
    }

    fn next_seq(&self) -> u64 {
        self.events.len() as u64
    }

    /// Pushes `ev`, updating the rank's program-order cursor.
    fn push(&mut self, ev: FlightEvent) {
        self.last_seq[ev.rank] = Some(ev.seq);
        self.events.push(ev);
    }

    /// Pushes `ev` with a program-order edge to the rank's previous event.
    fn push_program(&mut self, mut ev: FlightEvent) {
        if let Some(pred) = self.last_seq[ev.rank] {
            ev = ev.caused_by(EdgeKind::Program, pred);
        }
        self.push(ev);
    }

    /// The scheduler dispatched `rank` at clock `t`.
    pub fn resume(&mut self, rank: usize, t: f64) {
        let ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::Resume);
        self.push_program(ev);
    }

    /// `rank` parked on the empty mailbox key `(src, tag)`.
    pub fn block_recv(&mut self, rank: usize, t: f64, src: usize, tag: u64) {
        let mut ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::Block);
        ev.peer = Some(src);
        ev.tag = Some(tag);
        self.push_program(ev);
    }

    /// `rank` finished its program.
    pub fn done(&mut self, rank: usize, t: f64) {
        let ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::Done);
        self.push_program(ev);
    }

    /// A `bytes`-byte payload left `rank` for `dst` under `tag`; the
    /// departure is annotated with the link's wire/latency split.
    pub fn depart(&mut self, rank: usize, t: f64, dst: usize, tag: u64, bytes: usize) {
        let seq = self.next_seq();
        let mut ev = FlightEvent::new(seq, rank, t, FlightOp::MessageDepart);
        ev.peer = Some(dst);
        ev.tag = Some(tag);
        ev.bytes = Some(bytes);
        if let Some(cost) = self.cost {
            let (theta, gamma) = cost.link_params(rank, dst);
            ev.wire_seconds = theta * bytes as f64;
            ev.latency_seconds = gamma;
        }
        self.push_program(ev);
        self.depart_seqs
            .entry((dst, rank, tag))
            .or_default()
            .push_back(seq);
    }

    /// `rank` consumed a `bytes`-byte payload from `src` under `tag`; the
    /// arrival carries a message edge back to the matching departure.
    pub fn arrive(&mut self, rank: usize, t: f64, src: usize, tag: u64, bytes: usize) {
        let mut ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::MessageArrive);
        ev.peer = Some(src);
        ev.tag = Some(tag);
        ev.bytes = Some(bytes);
        let pred = self
            .depart_seqs
            .get_mut(&(rank, src, tag))
            .and_then(VecDeque::pop_front);
        match pred {
            Some(pred) => {
                ev = ev.caused_by(EdgeKind::Message, pred);
                self.push(ev);
            }
            // Every arrival has a recorded departure; keep the log usable
            // if a future transport violates that by falling back to the
            // program edge.
            None => self.push_program(ev),
        }
    }

    /// `rank` parked at a `kind` collective, joining the forming front.
    pub fn collective_form(&mut self, rank: usize, t: f64, kind: &'static str) {
        let seq = self.next_seq();
        let mut ev = FlightEvent::new(seq, rank, t, FlightOp::CollectiveForm);
        ev.collective = Some(kind.to_string());
        self.push_program(ev);
        self.front.push(seq);
        self.front_kind.get_or_insert(kind);
    }

    /// The collective front fired; every rank is released at its
    /// post-collective clock (`clocks`, by rank), with a rendezvous edge
    /// back to the park event that completed the front.
    pub fn collective_release(&mut self, clocks: &[f64]) {
        let pred = self.front.last().copied();
        let kind = self.front_kind.take().unwrap_or("collective");
        self.front.clear();
        for (rank, &t) in clocks.iter().enumerate() {
            let mut ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::CollectiveRelease);
            ev.collective = Some(kind.to_string());
            match pred {
                Some(pred) => {
                    ev = ev.caused_by(EdgeKind::Rendezvous, pred);
                    self.push(ev);
                }
                // An empty front is impossible when the scheduler fires a
                // collective; recorded defensively as a root event.
                None => self.push_program(ev),
            }
        }
    }

    /// The trainer charged `seconds` of `span` (epoch `epoch`) on `rank`,
    /// whose clock stood at `t` before the charge.
    pub fn phase_advance(
        &mut self,
        rank: usize,
        t: f64,
        epoch: usize,
        seconds: f64,
        span: Box<Span>,
    ) {
        let mut ev = FlightEvent::new(self.next_seq(), rank, t, FlightOp::PhaseAdvance);
        ev.phase = Some(span.kind.category());
        ev.epoch = Some(epoch);
        ev.seconds = seconds;
        ev.span = Some(span);
        self.push_program(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::time::{EventKind, TimeCategory};

    #[test]
    fn program_edges_chain_per_rank() {
        let mut rec = FlightRecorder::new(2, None);
        rec.resume(0, 0.0);
        rec.resume(1, 0.0);
        let span = Box::new(Span::new(EventKind::QuantEncode));
        rec.phase_advance(0, 0.0, 0, 1.0, span.clone());
        let log = rec.finish();
        assert_eq!(log.events[0].cause, None);
        assert_eq!(log.events[1].cause, None);
        assert_eq!(log.events[2].cause, Some(EdgeKind::Program));
        assert_eq!(log.events[2].pred, Some(0));
        assert_eq!(log.events[2].phase, Some(TimeCategory::Quant));
        assert_eq!(log.events[2].span, Some(span));
    }

    #[test]
    fn arrivals_point_back_to_their_departure_in_fifo_order() {
        let mut rec = FlightRecorder::new(2, None);
        rec.depart(0, 0.0, 1, 7, 16);
        rec.depart(0, 0.0, 1, 7, 32);
        rec.arrive(1, 0.0, 0, 7, 16);
        rec.arrive(1, 0.0, 0, 7, 32);
        let log = rec.finish();
        assert_eq!(log.events[2].cause, Some(EdgeKind::Message));
        assert_eq!(log.events[2].pred, Some(0));
        assert_eq!(log.events[3].pred, Some(1));
    }

    #[test]
    fn departures_carry_the_link_split() {
        // theta = 1e-6 s/B, gamma = 1e-3 s.
        let cost = CostModel::homogeneous(2, 1e6, 1e-3);
        let mut rec = FlightRecorder::new(2, Some(&cost));
        rec.depart(0, 0.0, 1, 1, 100);
        let log = rec.finish();
        assert!((log.events[0].wire_seconds - 1e-4).abs() < 1e-15);
        assert!((log.events[0].latency_seconds - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn releases_share_a_rendezvous_edge_to_the_last_park() {
        let mut rec = FlightRecorder::new(3, None);
        rec.collective_form(1, 0.0, "barrier");
        rec.collective_form(0, 1.0, "barrier");
        rec.collective_form(2, 2.0, "barrier");
        rec.collective_release(&[2.0, 2.0, 2.0]);
        let log = rec.finish();
        for ev in &log.events[3..] {
            assert_eq!(ev.op, FlightOp::CollectiveRelease);
            assert_eq!(ev.cause, Some(EdgeKind::Rendezvous));
            // The last park (rank 2, seq 2) completed the front.
            assert_eq!(ev.pred, Some(2));
            assert_eq!(ev.collective.as_deref(), Some("barrier"));
        }
    }
}
