// Fixture: blocking host primitives inside `async` device code.
async fn train(dev: &mut AsyncDevice, chan: &Receiver<Bytes>) {
    dev.ring_exchange(Vec::new()).await;
    std::thread::sleep(core::time::Duration::from_millis(1));
    drop(chan.recv());
}
fn spawn_body(chan: Receiver<Bytes>) -> impl Future<Output = ()> {
    async move { drop(chan.recv_timeout(core::time::Duration::from_millis(1))) }
}
