// Clean: the allow is live — it suppresses the rank-dependent root below it.
async fn announce(dev: &mut AsyncDevice, stats: Bytes) -> Bytes {
    let own = (dev.rank() == 0).then_some(stats);
    // lint:allow(collective-divergence): fewer than 64 ranks, so every rank names root 0
    dev.broadcast(dev.rank() / 64, own).await
}
