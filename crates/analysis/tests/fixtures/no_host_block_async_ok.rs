// Fixture: an awaited receive (even split over lines) yields; a plain fn is not device code.
async fn train(dev: &mut AsyncDevice) -> Bytes {
    let first = dev.recv(1, 7).await;
    let second = dev
        .recv(1, 8)
        .await;
    Bytes::from([first.as_ref(), second.as_ref()].concat())
}
fn drain(chan: &Receiver<Bytes>) {
    drop(chan.recv());
}
