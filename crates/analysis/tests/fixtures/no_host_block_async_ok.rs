// Fixture: awaited collectives (even split over lines) yield; a plain fn is not device code.
async fn train(dev: &mut AsyncDevice) -> Bytes {
    let first = dev.broadcast(0, None).await;
    let second = dev
        .scatter(0, None)
        .await;
    Bytes::from([first.as_ref(), second.as_ref()].concat())
}
fn drain(chan: &Receiver<Bytes>) {
    drop(chan.recv());
}
