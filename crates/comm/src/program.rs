//! The scheduler's view of a device: a resumable state machine.
//!
//! A simulated device does not own an OS thread. It is a [`DeviceProgram`]
//! the discrete-event scheduler ([`crate::event`]) advances by calling
//! [`DeviceProgram::resume`]. Every collective is an explicit *yield
//! point*: the program returns [`Step::Yield`] with a [`Command`] and is
//! suspended until the scheduler has satisfied it, then resumed with the
//! matching [`Resume`] value. Two adapters implement the trait: the one
//! that polls an `async` body over an `AsyncDevice`
//! ([`crate::Cluster::try_run_async`]), and the lockstep adapter for
//! closure devices ([`crate::Cluster::try_run_fn`]).
//!
//! The contract, in full (DESIGN.md §10 gives the determinism argument):
//!
//! * The first call to `resume` passes [`Resume::Start`].
//! * After `Step::Yield(cmd)`, the next `resume` passes the response
//!   variant matching `cmd`.
//! * A program must not block the host between yields: no
//!   `std::thread::sleep`, no blocking channel reads, no `Instant` waits
//!   (clippy's `disallowed_methods` and `disallowed_types` refuse them; see
//!   `clippy.toml`). All waiting is expressed by yielding.
//! * The scheduler's clocks move only at collectives, by the cost model;
//!   local work is charged by the program itself, never through here, and
//!   host time is never mapped onto a clock.

use bytes::Bytes;

/// What a suspended device is asking the scheduler to do. Every command is
/// a collective: it must be entered by every rank, with matching roots.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    /// Ring all2all (Fig. 8): each listed payload goes to its destination
    /// over `N-1` rounds; resumes with the payloads received. A peer that is
    /// not listed is sent nothing — on the simulated clock that is the zero
    /// transfer an empty payload would be.
    RingAll2All {
        /// `(dst, payload)` in strictly ascending `dst`, never this rank.
        sends: Vec<(u32, Bytes)>,
    },
    /// Broadcast from `root`: the root passes `Some`, everyone else `None`.
    Broadcast {
        /// Broadcasting rank.
        root: usize,
        /// The payload (`Some` on the root only).
        payload: Option<Bytes>,
    },
    /// Gather to `root`: every rank contributes one payload.
    Gather {
        /// Gathering rank.
        root: usize,
        /// This rank's contribution.
        payload: Bytes,
    },
    /// Scatter from `root`: the root passes one payload per rank.
    Scatter {
        /// Scattering rank.
        root: usize,
        /// One payload per rank (`Some` on the root only).
        payloads: Option<Vec<Bytes>>,
    },
}

impl Command {
    /// Short kind name, used by mismatch and deadlock diagnostics.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Command::RingAll2All { .. } => "ring_all2all",
            Command::Broadcast { .. } => "broadcast",
            Command::Gather { .. } => "gather",
            Command::Scatter { .. } => "scatter",
        }
    }
}

/// The value a device is resumed with after a yield.
#[derive(Debug, Clone)]
pub(crate) enum Resume {
    /// First resumption: the program has not yielded yet.
    Start,
    /// Ring all2all results: `(src, payload)` for every rank that listed
    /// this one, in ascending `src`.
    RingDone(Vec<(u32, Bytes)>),
    /// The broadcast payload (identical on every rank).
    BroadcastDone(Bytes),
    /// Gather results: `Some(payloads by rank)` on the root, `None` off it.
    GatherDone(Option<Vec<Bytes>>),
    /// This rank's slice of the scatter.
    ScatterDone(Bytes),
}

/// One step of a device program: either a yield with the command to satisfy
/// or the program's final output.
#[derive(Debug)]
pub(crate) enum Step<T> {
    /// Suspend until the scheduler satisfies `Command`.
    Yield(Command),
    /// The program finished with this output.
    Done(T),
}

/// A device's simulated clock, kept by the scheduler.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceCtx {
    clock: f64,
}

impl DeviceCtx {
    /// The device's simulated clock, in seconds.
    pub(crate) fn now(&self) -> f64 {
        self.clock
    }

    /// Moves the clock to a collective's exit time `t`, never backwards.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite: clocks order the scheduler's
    /// picks through `f64::to_bits`, which is monotonic only there.
    pub(crate) fn advance_to(&mut self, t: f64) {
        assert!(
            t.is_finite() && t >= 0.0,
            "clock advances must be finite and non-negative"
        );
        if t > self.clock {
            self.clock = t;
        }
    }
}

/// A device as a resumable state machine, advanced by the discrete-event
/// scheduler. See the module docs for the yield-point contract.
pub(crate) trait DeviceProgram {
    /// The program's final output.
    type Output;

    /// Advances the state machine: `input` answers the previous yield
    /// (`Resume::Start` on the first call). Returns the next yield point or
    /// the final output.
    fn resume(&mut self, input: Resume) -> Step<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_identity_and_clock() {
        let mut ctx = DeviceCtx::default();
        assert_eq!(ctx.now(), 0.0);
        ctx.advance_to(1.5);
        ctx.advance_to(1.0); // never moves backwards
        assert_eq!(ctx.now(), 1.5);
        ctx.advance_to(2.0);
        assert_eq!(ctx.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn ctx_rejects_negative_advance() {
        DeviceCtx::default().advance_to(-1.0);
    }

    #[test]
    fn command_names_line_up() {
        let c = Command::RingAll2All { sends: Vec::new() };
        assert_eq!(c.kind_name(), "ring_all2all");
        let g = Command::Gather {
            root: 0,
            payload: Bytes::new(),
        };
        assert_eq!(g.kind_name(), "gather");
    }
}
