// Fixture: collectives guarded by rank-dependent control flow. Four
// shapes: an early return that skips a following Barrier, a collective
// nested directly under a rank branch, one inside a rank-bounded loop, and
// a sparse ring that ranks with nothing to send never enter.
struct SkipBarrier;
impl DeviceProgram for SkipBarrier {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        match input {
            Resume::Start => {
                if ctx.rank() == 0 {
                    return Step::Done(());
                }
                Step::Yield(Command::Barrier)
            }
            _ => Step::Done(()),
        }
    }
}
struct GatedGather;
impl DeviceProgram for GatedGather {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        match input {
            Resume::Start => {
                if ctx.is_master() {
                    Step::Yield(Command::Gather { root: 0, payload: Bytes::new() })
                } else {
                    Step::Done(())
                }
            }
            _ => Step::Done(()),
        }
    }
}
struct LoopBarrier;
impl DeviceProgram for LoopBarrier {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        drop(input);
        while self.round < ctx.rank() {
            self.round += 1;
            return Step::Yield(Command::Barrier);
        }
        Step::Done(())
    }
}
struct GatedSparseRing;
impl DeviceProgram for GatedSparseRing {
    type Output = ();
    fn resume(&mut self, ctx: &mut DeviceCtx, input: Resume) -> Step<()> {
        match input {
            Resume::Start => {
                if ctx.rank() != 0 {
                    let sends = vec![(0, Bytes::from_static(b"halo"))];
                    Step::Yield(Command::RingAll2All { sends })
                } else {
                    Step::Done(())
                }
            }
            _ => Step::Done(()),
        }
    }
}
