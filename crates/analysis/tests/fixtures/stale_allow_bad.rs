// Bad: the allow names a real rule and carries a reason, but nothing on
// its line or the next triggers collective-divergence — the directive is stale.
async fn step(dev: &mut AsyncDevice, grads: &mut [f32]) {
    // lint:allow(collective-divergence): every rank awaits the same allreduce
    dev.allreduce_sum_f32(grads).await;
}
