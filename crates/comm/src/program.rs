//! The redesigned device API: devices are resumable state machines.
//!
//! A simulated device no longer owns an OS thread for its whole lifetime.
//! Instead it implements [`DeviceProgram`]: a state machine the
//! discrete-event scheduler ([`crate::event`]) advances by calling
//! [`DeviceProgram::resume`]. Every communication boundary — send, recv,
//! barrier, or a collective — is an explicit *yield point*: the program
//! returns [`Step::Yield`] with a [`Command`] and is suspended until the
//! scheduler has satisfied the command, at which point it is resumed with
//! the matching [`Resume`] value.
//!
//! The contract, in full (DESIGN.md §10 gives the determinism argument):
//!
//! * The first call to `resume` passes [`Resume::Start`].
//! * After `Step::Yield(cmd)`, the next `resume` passes the response
//!   variant matching `cmd` ([`Command::response_name`] names it).
//! * A program must not block the host between yields: no
//!   `std::thread::sleep`, no blocking channel reads, no `Instant` waits
//!   (the `no-host-block` lint rule enforces this). All waiting is
//!   expressed by yielding.
//! * Between yields a program may charge local work to the simulated clock
//!   via [`DeviceCtx::advance`]; the scheduler never maps host time onto
//!   the clock.

use bytes::Bytes;

/// What a suspended device is asking the scheduler to do.
///
/// Point-to-point sends are asynchronous (the sender resumes immediately);
/// everything else suspends the device until the condition is met.
/// Collectives must be entered by every rank, with matching roots.
#[derive(Debug, Clone)]
pub enum Command {
    /// Deliver `payload` to `dst` under a user `tag` (`tag` must stay below
    /// the reserved collective space).
    Send {
        /// Destination rank.
        dst: usize,
        /// User tag.
        tag: u64,
        /// The payload to deliver.
        payload: Bytes,
    },
    /// Wait for the next payload from `src` with `tag` (per-`(src, tag)`
    /// FIFO order).
    Recv {
        /// Source rank.
        src: usize,
        /// User tag.
        tag: u64,
    },
    /// Wait until every rank has reached a barrier.
    Barrier,
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
    /// Charge `seconds` of simulated time (during training `epoch`) to this
    /// rank's clock *through the scheduler*, so the flight recorder logs the
    /// whole charge — the one record every view of a run is derived from —
    /// with its causal context. Semantically identical to
    /// [`DeviceCtx::advance`]; resumes immediately with [`Resume::Advanced`].
    /// Only recorded runs route charges this way.
    Advance {
        /// Training epoch the charge belongs to.
        epoch: usize,
        /// Charged simulated seconds (finite, non-negative).
        seconds: f64,
        /// What was charged: the kind (hence the `comm::TimeCategory`
        /// bucket), layer, width and per-peer volumes. Boxed so that the
        /// commands every run yields stay as small as they were.
        span: Box<obs::time::Span>,
    },
}

impl Command {
    /// The [`Resume`] variant this command is answered with (for error
    /// messages and the yield-point contract in DESIGN.md §10).
    pub fn response_name(&self) -> &'static str {
        match self {
            Command::Send { .. } => "Sent",
            Command::Recv { .. } => "Received",
            Command::Barrier => "BarrierDone",
            Command::RingAll2All { .. } => "RingDone",
            Command::Broadcast { .. } => "BroadcastDone",
            Command::Gather { .. } => "GatherDone",
            Command::Scatter { .. } => "ScatterDone",
            Command::Advance { .. } => "Advanced",
        }
    }

    /// Short kind name, used by mismatch diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Command::Send { .. } => "send",
            Command::Recv { .. } => "recv",
            Command::Barrier => "barrier",
            Command::RingAll2All { .. } => "ring_all2all",
            Command::Broadcast { .. } => "broadcast",
            Command::Gather { .. } => "gather",
            Command::Scatter { .. } => "scatter",
            Command::Advance { .. } => "advance",
        }
    }
}

/// The value a device is resumed with after a yield.
#[derive(Debug, Clone)]
pub enum Resume {
    /// First resumption: the program has not yielded yet.
    Start,
    /// A [`Command::Send`] was queued (sends never block the sender).
    Sent,
    /// The payload a [`Command::Recv`] waited for.
    Received(Bytes),
    /// Every rank reached the [`Command::Barrier`].
    BarrierDone,
    /// Ring all2all results: `(src, payload)` for every rank that listed
    /// this one, in ascending `src`.
    RingDone(Vec<(u32, Bytes)>),
    /// The broadcast payload (identical on every rank).
    BroadcastDone(Bytes),
    /// Gather results: `Some(payloads by rank)` on the root, `None` off it.
    GatherDone(Option<Vec<Bytes>>),
    /// This rank's slice of the scatter.
    ScatterDone(Bytes),
    /// The [`Command::Advance`] charge was applied to the clock.
    Advanced,
}

/// One step of a device program: either a yield with the command to satisfy
/// or the program's final output.
#[derive(Debug)]
pub enum Step<T> {
    /// Suspend until the scheduler satisfies `Command`.
    Yield(Command),
    /// The program finished with this output.
    Done(T),
}

/// Per-device context the scheduler passes into every [`DeviceProgram::resume`]
/// call: identity plus the device's simulated clock.
#[derive(Debug, Clone)]
pub struct DeviceCtx {
    rank: usize,
    n: usize,
    clock: f64,
}

impl DeviceCtx {
    /// Creates the context for `rank` of `n` devices, clock at zero.
    pub(crate) fn new(rank: usize, n: usize) -> Self {
        Self {
            rank,
            n,
            clock: 0.0,
        }
    }

    /// This device's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Whether this device is the master (rank 0).
    pub fn is_master(&self) -> bool {
        self.rank == 0
    }

    /// The device's simulated clock, in seconds. Advanced by the scheduler
    /// when link events complete and by the program via
    /// [`DeviceCtx::advance`].
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Charges `seconds` of local (compute) time to the simulated clock.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite — the clock only moves
    /// forward.
    pub fn advance(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "clock advances must be finite and non-negative"
        );
        self.clock += seconds;
    }

    /// Scheduler-side clock update (link arrivals, collective exits).
    pub(crate) fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }
}

/// A device as a resumable state machine, advanced by the discrete-event
/// scheduler. See the module docs for the yield-point contract.
///
/// # Example
///
/// A two-state program: send the rank to the right neighbor, then wait for
/// the left neighbor's rank.
///
/// ```
/// use comm::{Cluster, Command, DeviceCtx, DeviceProgram, Resume, Step};
/// use bytes::Bytes;
///
/// enum RingShift {
///     Sending,
///     Receiving,
/// }
///
/// impl DeviceProgram for RingShift {
///     type Output = usize;
///     fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<usize> {
///         match self {
///             RingShift::Sending => {
///                 let right = (ctx.rank() + 1) % ctx.num_devices();
///                 *self = RingShift::Receiving;
///                 Step::Yield(Command::Send {
///                     dst: right,
///                     tag: 7,
///                     payload: Bytes::from(vec![ctx.rank() as u8]),
///                 })
///             }
///             RingShift::Receiving => match input {
///                 Resume::Sent => {
///                     let n = ctx.num_devices();
///                     let left = (ctx.rank() + n - 1) % n;
///                     Step::Yield(Command::Recv { src: left, tag: 7 })
///                 }
///                 Resume::Received(payload) => Step::Done(payload[0] as usize),
///                 _ => unreachable!("scheduler honors the yield contract"),
///             },
///         }
///     }
/// }
///
/// let out = Cluster::run(3, |_rank| RingShift::Sending);
/// assert_eq!(out, vec![2, 0, 1]);
/// ```
pub trait DeviceProgram {
    /// The program's final output.
    type Output;

    /// Advances the state machine: `input` answers the previous yield
    /// (`Resume::Start` on the first call). Returns the next yield point or
    /// the final output.
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_identity_and_clock() {
        let mut ctx = DeviceCtx::new(2, 4);
        assert_eq!(ctx.rank(), 2);
        assert_eq!(ctx.num_devices(), 4);
        assert!(!ctx.is_master());
        assert_eq!(ctx.now(), 0.0);
        ctx.advance(1.5);
        ctx.advance_to(1.0); // never moves backwards
        assert_eq!(ctx.now(), 1.5);
        ctx.advance_to(2.0);
        assert_eq!(ctx.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn ctx_rejects_negative_advance() {
        DeviceCtx::new(0, 1).advance(-1.0);
    }

    #[test]
    fn command_names_line_up() {
        let c = Command::Barrier;
        assert_eq!(c.response_name(), "BarrierDone");
        assert_eq!(c.kind_name(), "barrier");
        let r = Command::Recv { src: 0, tag: 1 };
        assert_eq!(r.response_name(), "Received");
    }
}
