// Fixture: three planted protocol bugs, each a typed runtime error
// (crates/comm/tests/planted.rs runs the same shapes).
async fn skip_allreduce(dev: &mut AsyncDevice, grads: &mut [f32]) {
    // Rank 0 skips the gradient allreduce: a Deadlock, rank 0 absent.
    if dev.rank() != 0 {
        dev.allreduce_sum_f32(grads).await;
    }
}
async fn odd_root(dev: &mut AsyncDevice, stats: Bytes) -> Bytes {
    // Odd ranks broadcast from root 1: a root mismatch naming rank 1.
    let root = dev.rank() % 2;
    let own = (dev.rank() == root).then_some(stats);
    dev.broadcast(root, own).await
}
async fn reordered(dev: &mut AsyncDevice, part: &DevicePartition) {
    // One rank reassigns before it evaluates: a kind mismatch naming it.
    if part.rank == 2 {
        reassign(dev).await;
        evaluate(dev).await;
    } else {
        evaluate(dev).await;
        reassign(dev).await;
    }
}
