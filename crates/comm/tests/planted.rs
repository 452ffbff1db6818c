//! Planted protocol bugs and the typed error each ends in. These are the
//! runtime half of adaqp-lint's `collective-divergence` rule: the rule's
//! flagged fixture (`crates/analysis/tests/fixtures/collective_divergence_bad.rs`)
//! holds the same three shapes, and here each one runs and the error names
//! the planted ranks.

use bytes::Bytes;
use comm::{Cluster, ClusterError, WaitCause};

const N: usize = 4;

/// Rank 0 skips the gradient allreduce: its peers park at the allreduce's
/// gather forever, and the stall lists rank 0 as finished and absent.
#[test]
fn a_rank_that_skips_the_allreduce_is_finished_and_absent_from_the_front() {
    let err = Cluster::try_run_async(N, None, None, |mut dev| async move {
        let mut grads = [dev.rank() as f32];
        if dev.rank() != 0 {
            dev.allreduce_sum_f32(&mut grads).await;
        }
    })
    .expect_err("the allreduce can never fire");
    let ClusterError::Deadlock { graph } = &err else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(graph.finished, [0]);
    let blocked: Vec<usize> = graph.blocked.iter().map(|b| b.rank).collect();
    assert_eq!(blocked, [1, 2, 3]);
    assert!(graph
        .blocked
        .iter()
        .all(|b| b.cause == WaitCause::Collective { kind: "gather" }));
    let front = graph.collective.as_ref().expect("front recorded");
    assert_eq!(
        (front.kind, &front.reached, &front.absent),
        ("gather", &vec![1, 2, 3], &vec![0])
    );
    assert!(err.to_string().contains("never by ranks [0]"), "{err}");
}

/// Odd ranks broadcast from root 1, even ranks from root 0: the ranks agree
/// on the kind but not on the root, and the first disagreeing rank is named.
#[test]
fn odd_ranks_broadcasting_from_another_root_is_a_root_mismatch() {
    let err = Cluster::try_run_async(N, None, None, |mut dev| async move {
        let root = dev.rank() % 2;
        let payload = (dev.rank() == root).then(|| Bytes::from_static(b"stats"));
        dev.broadcast(root, payload).await
    })
    .expect_err("the roots disagree");
    let ClusterError::CollectiveMismatch { rank, detail } = &err else {
        panic!("expected a collective mismatch, got {err}");
    };
    assert_eq!(*rank, 1);
    assert!(
        detail.contains("used root 0 but rank 1 used root 1"),
        "{detail}"
    );
}

/// One rank reassigns (awaits the assigner's gather) while the others
/// evaluate first (await a ring exchange): the collective kinds disagree,
/// and the error names the reordered rank.
#[test]
fn a_rank_that_gathers_while_the_others_ring_is_named() {
    let err = Cluster::try_run_async(N, None, None, |mut dev| async move {
        let trace = Bytes::from(vec![dev.rank() as u8]);
        if dev.rank() == 2 {
            let _ = dev.gather(0, trace).await;
            dev.ring_exchange(Vec::new()).await;
        } else {
            dev.ring_exchange(Vec::new()).await;
            let _ = dev.gather(0, trace).await;
        }
    })
    .expect_err("the kinds disagree");
    let ClusterError::CollectiveMismatch { rank, detail } = &err else {
        panic!("expected a collective mismatch, got {err}");
    };
    assert_eq!(*rank, 2);
    assert!(
        detail.contains("rank 0 entered `ring_all2all` but rank 2 entered `gather`"),
        "{detail}"
    );
}
