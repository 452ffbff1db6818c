//! The partitioner's three phases as they were before they were rewritten
//! in time linear in edges: dense per-node scans and a `BTreeMap` per coarse
//! node. Kept verbatim as the oracle the rewrite must match bit for bit.

use super::{WeightedGraph, BALANCE_SLACK, COARSEN_TARGET_PER_PART, REFINE_PASSES};
use crate::CsrGraph;
use std::collections::BTreeMap;
use tensor::Rng;

/// `try_metis_like`'s assignment for `2 <= k <= n`, built with the old
/// phases.
pub(super) fn metis_like(graph: &CsrGraph, k: usize, rng: &mut Rng) -> Vec<usize> {
    let mut current = WeightedGraph::from_csr(graph);
    let mut levels: Vec<WeightedGraph> = Vec::new();
    let mut maps: Vec<Vec<u32>> = Vec::new();
    let target = (COARSEN_TARGET_PER_PART * k).max(2 * k);
    while current.num_nodes() > target {
        let (coarse, map) = coarsen_once(&current, rng);
        if coarse.num_nodes() as f64 > current.num_nodes() as f64 * 0.95 {
            break;
        }
        levels.push(std::mem::replace(&mut current, coarse));
        maps.push(map);
    }
    let mut assignment = grow_initial(&current, k, rng);
    refine(&current, k, &mut assignment, rng);
    for li in (0..maps.len()).rev() {
        assignment = maps[li].iter().map(|&c| assignment[c as usize]).collect();
        refine(&levels[li], k, &mut assignment, rng);
    }
    assignment
}

/// One round of heavy-edge matching; returns the coarse graph and the
/// fine-to-coarse map.
fn coarsen_once(g: &WeightedGraph, rng: &mut Rng) -> (WeightedGraph, Vec<u32>) {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        if mate[v] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &g.adj[v] {
            if mate[u as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                mate[v] = u;
                mate[u as usize] = v as u32;
            }
            None => mate[v] = v as u32, // matched with itself
        }
    }
    // Assign coarse ids.
    let mut coarse_of = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        coarse_of[v] = next;
        coarse_of[m] = next;
        next += 1;
    }
    let cn = next as usize;
    // Build coarse graph.
    let mut node_w = vec![0u64; cn];
    for v in 0..n {
        node_w[coarse_of[v] as usize] += g.node_w[v];
    }
    // BTreeMap keeps the accumulated neighbor lists in sorted (and therefore
    // deterministic) order — no post-hoc sort, no iteration-order hazard.
    let mut adj_maps: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); cn];
    for v in 0..n {
        let cv = coarse_of[v];
        for &(u, w) in &g.adj[v] {
            let cu = coarse_of[u as usize];
            if cu != cv {
                *adj_maps[cv as usize].entry(cu).or_insert(0) += w;
            }
        }
    }
    let adj: Vec<Vec<(u32, u64)>> = adj_maps
        .into_iter()
        .map(|m| {
            // Each undirected edge visited from both endpoints: halve.
            m.into_iter()
                .map(|(u, w)| (u, w.div_ceil(2).max(1)))
                .collect()
        })
        .collect();
    (WeightedGraph { node_w, adj }, coarse_of)
}

/// Greedy region growing for the initial partition of the coarsest graph.
fn grow_initial(g: &WeightedGraph, k: usize, rng: &mut Rng) -> Vec<usize> {
    let n = g.num_nodes();
    let total_w: u64 = g.node_w.iter().sum();
    let target_w = total_w as f64 / k as f64;
    let mut assignment = vec![usize::MAX; n];
    let mut part_w = vec![0u64; k];

    // Seeds: random distinct nodes.
    let mut seeds: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut seeds);
    let mut frontiers: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, &s) in seeds.iter().take(k).enumerate() {
        assignment[s] = p;
        part_w[p] += g.node_w[s];
        frontiers[p].extend(g.adj[s].iter().map(|&(u, _)| u as usize));
    }
    let mut remaining: usize = assignment.iter().filter(|&&a| a == usize::MAX).count();
    let mut spare: Vec<usize> = seeds[k..].to_vec();
    while remaining > 0 {
        // Grow the lightest part (k >= 1, so the min always exists).
        let p = (0..k).min_by_key(|&p| part_w[p]).unwrap_or(0);
        // Pick the unassigned frontier node most connected to part `p`
        // (gain-based growing; the coarsest graph is small enough to scan).
        let mut picked = None;
        {
            frontiers[p].retain(|&v| assignment[v] == usize::MAX);
            let mut best_idx = usize::MAX;
            let mut best_conn = 0u64;
            for (idx, &v) in frontiers[p].iter().enumerate() {
                let conn: u64 = g.adj[v]
                    .iter()
                    .filter(|&&(u, _)| assignment[u as usize] == p)
                    .map(|&(_, w)| w)
                    .sum();
                if best_idx == usize::MAX || conn > best_conn {
                    best_idx = idx;
                    best_conn = conn;
                }
            }
            if best_idx != usize::MAX {
                picked = Some(frontiers[p].swap_remove(best_idx));
            }
        }
        // Frontier exhausted: steal any unassigned node.
        if picked.is_none() {
            while let Some(v) = spare.pop() {
                if assignment[v] == usize::MAX {
                    picked = Some(v);
                    break;
                }
            }
        }
        let Some(v) = picked else {
            // All spare consumed; sweep linearly.
            if let Some(v) = (0..n).find(|&v| assignment[v] == usize::MAX) {
                assignment[v] = p;
                part_w[p] += g.node_w[v];
                remaining -= 1;
                continue;
            }
            break;
        };
        assignment[v] = p;
        part_w[p] += g.node_w[v];
        remaining -= 1;
        if (part_w[p] as f64) < target_w * BALANCE_SLACK {
            frontiers[p].extend(g.adj[v].iter().map(|&(u, _)| u as usize));
        }
    }
    assignment
}

/// Boundary refinement: greedy gain moves subject to balance.
fn refine(g: &WeightedGraph, k: usize, assignment: &mut [usize], rng: &mut Rng) {
    let n = g.num_nodes();
    let total_w: u64 = g.node_w.iter().sum();
    let max_w = ((total_w as f64 / k as f64) * BALANCE_SLACK).ceil() as u64;
    let min_w = (((total_w as f64 / k as f64) / BALANCE_SLACK).floor() as u64).max(1);
    let mut part_w = vec![0u64; k];
    for v in 0..n {
        part_w[assignment[v]] += g.node_w[v];
    }
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..REFINE_PASSES {
        rng.shuffle(&mut order);
        let mut moved = 0usize;
        for &v in &order {
            let from = assignment[v];
            // Connectivity to each part.
            let mut conn = vec![0u64; k];
            let mut is_boundary = false;
            for &(u, w) in &g.adj[v] {
                let pu = assignment[u as usize];
                conn[pu] += w;
                if pu != from {
                    is_boundary = true;
                }
            }
            if !is_boundary || part_w[from] < min_w + g.node_w[v] {
                continue;
            }
            // Best destination by gain.
            let mut best_to = from;
            let mut best_gain = 0i64;
            for to in 0..k {
                if to == from || part_w[to] + g.node_w[v] > max_w {
                    continue;
                }
                let gain = conn[to] as i64 - conn[from] as i64;
                if gain > best_gain {
                    best_gain = gain;
                    best_to = to;
                }
            }
            if best_to != from {
                assignment[v] = best_to;
                part_w[from] -= g.node_w[v];
                part_w[best_to] += g.node_w[v];
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}
