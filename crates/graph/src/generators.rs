//! Synthetic graph and feature generators.
//!
//! The paper trains on Reddit, Yelp, ogbn-products and AmazonProducts, which
//! are multi-gigabyte public downloads not available in this environment.
//! These generators build scaled-down stand-ins with the properties that
//! matter for AdaQP's claims: community structure (so METIS-style partitions
//! have a meaningful boundary), controllable density (remote-neighbor ratios
//! in the regime of Table 1), and class-correlated features (so the GNNs
//! genuinely learn and quantization/staleness effects are visible in the
//! accuracy curves).

use crate::CsrGraph;
use tensor::{Matrix, Rng};

/// Generates a stochastic-block-model-style community graph.
///
/// `block_of[v]` gives each node's community. Each node receives on average
/// `avg_in_degree` intra-community neighbors and the graph carries
/// `avg_out_degree / 2 * n` inter-community edges, sampled uniformly (a fast
/// expected-degree approximation of the SBM).
///
/// Cross-community edges concentrate on *gateway* nodes — see
/// [`sbm_with_gateways`]; this function uses every node as a gateway
/// (uniform cross edges).
///
/// # Panics
///
/// Panics if `block_of` is empty or names an empty block.
pub fn sbm(block_of: &[usize], avg_in_degree: f64, avg_out_degree: f64, rng: &mut Rng) -> CsrGraph {
    sbm_with_gateways(block_of, avg_in_degree, avg_out_degree, 1.0, rng)
}

/// SBM variant where only a `gateway_frac` fraction of each community's
/// nodes carry inter-community edges.
///
/// Real web/social/product graphs exhibit this locality: most nodes'
/// neighborhoods are entirely inside their community, and a minority of
/// boundary nodes hold the cross links. It is exactly this structure that
/// makes the paper's central/marginal decomposition useful — with uniform
/// cross edges nearly every node would be marginal and there would be no
/// central computation to hide under communication.
///
/// # Panics
///
/// Panics if `block_of` is empty, a block is empty, or
/// `gateway_frac` is not in `(0, 1]`.
pub fn sbm_with_gateways(
    block_of: &[usize],
    avg_in_degree: f64,
    avg_out_degree: f64,
    gateway_frac: f64,
    rng: &mut Rng,
) -> CsrGraph {
    let n = block_of.len();
    assert!(n > 0, "sbm needs at least one node");
    assert!(
        gateway_frac > 0.0 && gateway_frac <= 1.0,
        "gateway_frac must be in (0, 1]"
    );
    let num_blocks = block_of.iter().copied().max().unwrap_or(0) + 1;
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_blocks];
    for (v, &b) in block_of.iter().enumerate() {
        members[b].push(v as u32);
    }
    for (b, m) in members.iter().enumerate() {
        assert!(!m.is_empty(), "block {b} has no members");
    }
    // Gateways: a random prefix of each block's shuffled member list.
    let gateways: Vec<Vec<u32>> = members
        .iter()
        .map(|m| {
            let mut shuffled = m.clone();
            rng.shuffle(&mut shuffled);
            let take = ((m.len() as f64 * gateway_frac).ceil() as usize).clamp(1, m.len());
            shuffled.truncate(take);
            shuffled
        })
        .collect();
    let mut is_gateway = vec![false; n];
    for g in gateways.iter().flatten() {
        is_gateway[*g as usize] = true;
    }

    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        let b = block_of[v];
        // Halve per-node counts: each undirected edge is generated from one
        // endpoint, so expected degree doubles.
        let in_edges = sample_count(avg_in_degree / 2.0, rng);
        for _ in 0..in_edges {
            let u = members[b][rng.below(members[b].len())];
            if u as usize != v {
                edges.push((v as u32, u));
            }
        }
        if num_blocks <= 1 || !is_gateway[v] {
            continue;
        }
        // Gateways emit the block's entire cross-edge budget, so the mean
        // per-gateway count is scaled up by 1/gateway_frac.
        let out_edges = sample_count(avg_out_degree / (2.0 * gateway_frac), rng);
        for _ in 0..out_edges {
            let mut ob = rng.below(num_blocks);
            if ob == b {
                ob = (ob + 1) % num_blocks;
            }
            // Popularity-skewed (log-uniform ~ Zipf) target choice: cross
            // edges concentrate on a few hub gateways, keeping the set of
            // *distinct* remote neighbors small, as in real web/social
            // graphs (this is what Table 1's remote-neighbor ratios
            // measure).
            let len = gateways[ob].len();
            let idx = ((len as f64).powf(rng.unit() as f64) as usize).saturating_sub(1);
            let u = gateways[ob][idx.min(len - 1)];
            edges.push((v as u32, u));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Position of every node inside its community, counting members in
/// node-id order. Deterministic companion to [`locality_community_graph`]:
/// callers use it to derive position-based class chunks.
pub fn community_positions(block_of: &[usize]) -> Vec<usize> {
    let num_blocks = block_of.iter().copied().max().unwrap_or(0) + 1;
    let mut next = vec![0usize; num_blocks];
    block_of
        .iter()
        .map(|&b| {
            let p = next[b];
            next[b] += 1;
            p
        })
        .collect()
}

/// Community graph with *local* internal wiring.
///
/// Members of each community are arranged on a ring (in node-id order);
/// with probability `locality` an intra-community edge connects nodes at a
/// log-uniform ring distance (`P(d) ~ 1/d`, mostly short links with a few
/// long ones — small-world clustering), otherwise any two members.
/// Cross-community edges follow the gateway/hub scheme of
/// [`sbm_with_gateways`].
///
/// This locality is what keeps a partitioner's cuts small even when it must
/// split a community, exactly as in real web/social/product graphs; random
/// internal wiring would turn every split community into a giant bipartite
/// boundary and inflate the remote-neighbor ratios of Table 1 far beyond
/// what the paper observes.
///
/// # Panics
///
/// Panics on empty blocks or parameters outside their ranges.
pub fn locality_community_graph(
    block_of: &[usize],
    avg_in_degree: f64,
    avg_out_degree: f64,
    gateway_frac: f64,
    locality: f64,
    rng: &mut Rng,
) -> CsrGraph {
    let n = block_of.len();
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&locality), "locality in [0,1]");
    assert!(
        gateway_frac > 0.0 && gateway_frac <= 1.0,
        "gateway_frac must be in (0, 1]"
    );
    let num_blocks = block_of.iter().copied().max().unwrap_or(0) + 1;
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_blocks];
    for (v, &b) in block_of.iter().enumerate() {
        members[b].push(v as u32);
    }
    for (b, m) in members.iter().enumerate() {
        assert!(!m.is_empty(), "block {b} has no members");
    }
    let positions = community_positions(block_of);
    // Gateways: contiguous head of each community's ring, so the cross
    // boundary is also position-local.
    let gateways: Vec<&[u32]> = members
        .iter()
        .map(|m| {
            let take = ((m.len() as f64 * gateway_frac).ceil() as usize).clamp(1, m.len());
            &m[..take]
        })
        .collect();

    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        let b = block_of[v];
        let len = members[b].len();
        let pos = positions[v];
        let in_edges = sample_count(avg_in_degree / 2.0, rng);
        for _ in 0..in_edges {
            if len <= 1 {
                break;
            }
            let target = if rng.chance(locality) {
                // Heavy-headed ring distance (density ~ 1/d^2): mostly
                // immediate neighbors, expected span ~ log(len), so a ring
                // cut severs only O(deg * log len) edges.
                let d = ((1.0 / (rng.unit() as f64).max(1e-9)) as usize).clamp(1, len - 1);
                let t = if rng.chance(0.5) {
                    (pos + d) % len
                } else {
                    (pos + len - d) % len
                };
                members[b][t]
            } else {
                members[b][rng.below(len)]
            };
            if target as usize != v {
                edges.push((v as u32, target));
            }
        }
        // Cross edges from gateway sources to hub-skewed gateway targets.
        // Each gateway talks to one or two *partner* communities only
        // (real boundary nodes bridge specific community pairs, they do not
        // touch every community); this keeps each partition's set of
        // distinct remote neighbors small.
        if num_blocks <= 1 || pos >= gateways[b].len() {
            continue;
        }
        let out_edges = sample_count(avg_out_degree / (2.0 * gateway_frac), rng);
        let mut partners = [0usize; 2];
        for p in &mut partners {
            let mut ob = rng.below(num_blocks);
            if ob == b {
                ob = (ob + 1) % num_blocks;
            }
            *p = ob;
        }
        for _ in 0..out_edges {
            let ob = partners[usize::from(rng.chance(0.25))];
            let glen = gateways[ob].len();
            let idx = ((glen as f64).powf(rng.unit() as f64) as usize).saturating_sub(1);
            edges.push((v as u32, gateways[ob][idx.min(glen - 1)]));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Samples an integer with the given mean (floor + Bernoulli on the
/// fractional part).
fn sample_count(mean: f64, rng: &mut Rng) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - mean.floor();
    base + usize::from(rng.chance(frac))
}

/// Assigns nodes to `num_classes` communities with mildly skewed sizes,
/// returning `block_of`.
pub fn skewed_communities(n: usize, num_classes: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(
        num_classes > 0 && n >= num_classes,
        "need n >= num_classes > 0"
    );
    // Zipf-ish weights.
    let weights: Vec<f64> = (0..num_classes)
        .map(|i| 1.0 / (1.0 + i as f64).sqrt())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut block_of = Vec::with_capacity(n);
    // Guarantee at least one member each.
    for c in 0..num_classes {
        block_of.push(c);
    }
    for _ in num_classes..n {
        let mut r = rng.unit() as f64 * total;
        let mut pick = num_classes - 1;
        for (c, w) in weights.iter().enumerate() {
            if r < *w {
                pick = c;
                break;
            }
            r -= w;
        }
        block_of.push(pick);
    }
    let mut shuffled = block_of;
    rng.shuffle(&mut shuffled);
    shuffled
}

/// Generates class-correlated node features: one random unit-ish centroid per
/// class plus Gaussian noise. `signal` controls separability (~0.5-2.0).
pub fn class_features(
    block_of: &[usize],
    dim: usize,
    signal: f32,
    noise: f32,
    rng: &mut Rng,
) -> Matrix {
    let num_classes = block_of.iter().copied().max().unwrap_or(0) + 1;
    let centroids: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| (0..dim).map(|_| rng.normal()).collect())
        .collect();
    Matrix::from_fn(block_of.len(), dim, |i, j| {
        centroids[block_of[i]][j] * signal + rng.normal() * noise
    })
}

/// Generates multi-label class memberships: every node carries its community
/// label plus 0-2 extra correlated labels.
pub fn multilabel_classes(
    block_of: &[usize],
    num_classes: usize,
    rng: &mut Rng,
) -> Vec<Vec<usize>> {
    block_of
        .iter()
        .map(|&b| {
            let mut cs = vec![b % num_classes];
            // Correlated extra labels: neighbors in label space.
            if rng.chance(0.5) {
                cs.push((b + 1) % num_classes);
            }
            if rng.chance(0.2) {
                cs.push((b + 2) % num_classes);
            }
            cs.sort_unstable();
            cs.dedup();
            cs
        })
        .collect()
}

/// Produces boolean train/val/test masks with the given fractions
/// (remainder goes to test).
///
/// # Panics
///
/// Panics if `train_frac + val_frac > 1`.
pub fn split_masks(
    n: usize,
    train_frac: f64,
    val_frac: f64,
    rng: &mut Rng,
) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    assert!(train_frac + val_frac <= 1.0, "fractions exceed 1");
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let n_train = (n as f64 * train_frac).round() as usize;
    let n_val = (n as f64 * val_frac).round() as usize;
    let mut train = vec![false; n];
    let mut val = vec![false; n];
    let mut test = vec![false; n];
    for (i, &v) in order.iter().enumerate() {
        if i < n_train {
            train[v] = true;
        } else if i < n_train + n_val {
            val[v] = true;
        } else {
            test[v] = true;
        }
    }
    (train, val, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbm_density_close_to_requested() {
        let mut rng = Rng::seed_from(1);
        let block_of = skewed_communities(2000, 8, &mut rng);
        let g = sbm(&block_of, 12.0, 3.0, &mut rng);
        let avg = g.avg_degree();
        assert!(
            (avg - 15.0).abs() < 3.0,
            "avg degree {avg} not near requested 15"
        );
    }

    #[test]
    fn sbm_homophily_holds() {
        let mut rng = Rng::seed_from(2);
        let block_of = skewed_communities(1500, 6, &mut rng);
        let g = sbm(&block_of, 10.0, 2.0, &mut rng);
        let mut same = 0usize;
        let mut diff = 0usize;
        for (u, v) in g.edges() {
            if block_of[u as usize] == block_of[v as usize] {
                same += 1;
            } else {
                diff += 1;
            }
        }
        assert!(
            same > 2 * diff,
            "expected homophily: same={same} diff={diff}"
        );
    }

    #[test]
    fn skewed_communities_cover_all_classes() {
        let mut rng = Rng::seed_from(5);
        let blocks = skewed_communities(300, 10, &mut rng);
        let mut seen = [false; 10];
        for &b in &blocks {
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn class_features_are_separable() {
        let mut rng = Rng::seed_from(6);
        let block_of = skewed_communities(400, 4, &mut rng);
        let feats = class_features(&block_of, 16, 1.0, 0.3, &mut rng);
        // Same-class rows should correlate more than cross-class rows.
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        let mut same_sum = 0.0;
        let mut same_n = 0;
        let mut diff_sum = 0.0;
        let mut diff_n = 0;
        for i in 0..100 {
            for j in (i + 1)..100 {
                let c = cos(feats.row(i), feats.row(j));
                if block_of[i] == block_of[j] {
                    same_sum += c;
                    same_n += 1;
                } else {
                    diff_sum += c;
                    diff_n += 1;
                }
            }
        }
        assert!(same_sum / same_n as f32 > diff_sum / diff_n as f32 + 0.2);
    }

    #[test]
    fn multilabel_classes_contain_community() {
        let mut rng = Rng::seed_from(7);
        let block_of = vec![0, 1, 2, 3, 4];
        let ml = multilabel_classes(&block_of, 5, &mut rng);
        for (v, cs) in ml.iter().enumerate() {
            assert!(cs.contains(&block_of[v]));
            assert!(cs.len() <= 3);
        }
    }

    #[test]
    fn split_masks_partition_nodes() {
        let mut rng = Rng::seed_from(8);
        let (tr, va, te) = split_masks(1000, 0.6, 0.2, &mut rng);
        let n_tr = tr.iter().filter(|&&b| b).count();
        let n_va = va.iter().filter(|&&b| b).count();
        let n_te = te.iter().filter(|&&b| b).count();
        assert_eq!(n_tr + n_va + n_te, 1000);
        assert!((n_tr as i64 - 600).abs() <= 1);
        assert!((n_va as i64 - 200).abs() <= 1);
        // Disjoint.
        for i in 0..1000 {
            assert_eq!(u8::from(tr[i]) + u8::from(va[i]) + u8::from(te[i]), 1);
        }
    }
}
