// Fixture: the assigner round (Fig. 6) as shipped. The master and worker
// arms diverge in payload, not in protocol: both await scatter, then
// broadcast. The `?` inside the master arm is an error path, not a skipped
// collective.
async fn reassign_adaptive(
    dev: &mut AsyncDevice,
    part: &DevicePartition,
    cost: &CostModel,
    trace: &Trace,
    cfg: &TrainingConfig,
    assignment: &mut WidthAssignment,
) -> Result<SolveStats, AssignError> {
    let at = |stage| move |cause| AssignError { stage, cause };
    // Step 1-2 (Fig. 6): build and gather per-device betas.
    let own_trace = Bytes::from(encode_trace(&part.send_alpha_sq, trace));
    let gathered = dev.gather(0, own_trace).await;

    // Step 3: master solves one problem per (layer, direction) in parallel.
    let (own, stats_bytes) = if let Some(traces) = gathered {
        let (round, secs) = comm::timing::measure(|| master_round(&traces, cost, cfg));
        let (replies, mut stats) = round.map_err(at(AssignStage::Trace))?;
        stats.secs = secs;
        let payloads = replies.into_iter().map(Bytes::from).collect();
        // Piggy-back the solve stats: broadcast after scatter.
        let own = dev.scatter(0, Some(payloads)).await;
        let stats_b = Bytes::from(stats.to_bytes().to_vec());
        (own, dev.broadcast(0, Some(stats_b)).await)
    } else {
        let own = dev.scatter(0, None).await;
        (own, dev.broadcast(0, None).await)
    };
    let solve_stats = SolveStats::from_bytes(&stats_bytes).map_err(at(AssignStage::Stats))?;
    assignment
        .decode_into(&own, part.num_parts)
        .map_err(at(AssignStage::Reply))?;
    Ok(solve_stats)
}
// A rank-dependent branch with no awaits, and a uniform loop bound.
async fn epoch(dev: &mut AsyncDevice, part: &DevicePartition, tallies: Option<&mut Tallies>) {
    for _ in 0..ROUNDS {
        dev.ring_exchange(Vec::new()).await;
    }
    if let Some(t) = tallies.filter(|_| part.rank == 0) {
        t.count();
    }
}
