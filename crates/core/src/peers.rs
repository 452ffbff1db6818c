//! Per-peer state for a device's listed peers only.
//!
//! A device exchanges messages with the peers its partition lists: those it
//! sends at least one row to, or receives at least one row from. Every
//! per-peer table it keeps — the widths it assigns, the ranges it traces,
//! the error-feedback residuals — covers those peers only, so its size
//! follows the device's own cut, not the size of the fleet (DESIGN.md
//! §21). [`PeerLayout`] is one direction's list of peers and the span each
//! one's messages take in a flat per-message arena; [`PeerTable`] is one
//! such arena per layer.

use std::ops::Range;

/// The peers a device has messages for in one direction, ascending, and the
/// span of each one's messages in a flat arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerLayout {
    /// Listed peers, strictly ascending.
    peers: Vec<u32>,
    /// Listed peer `i`'s messages are `start[i]..start[i + 1]`.
    start: Vec<usize>,
}

impl PeerLayout {
    /// The layout of dense per-peer message sets (`sets[q]` the messages
    /// for peer `q`): the peers with a non-empty set, each spanning as many
    /// arena slots as its set has messages.
    pub fn of<T>(sets: &[Vec<T>]) -> Self {
        let mut layout = Self {
            peers: Vec::new(),
            start: vec![0],
        };
        for (q, set) in sets.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            // Device counts are far below 2^32.
            layout.peers.push(q as u32);
            layout.start.push(layout.num_messages() + set.len());
        }
        layout
    }

    /// The listed peers, ascending.
    pub fn peers(&self) -> &[u32] {
        &self.peers
    }

    /// Number of listed peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether no peer is listed.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Messages across all listed peers: the length of an arena.
    pub fn num_messages(&self) -> usize {
        self.start[self.start.len() - 1]
    }

    /// The arena span of listed peer number `i` (not peer id `i`).
    fn span_at(&self, i: usize) -> Range<usize> {
        self.start[i]..self.start[i + 1]
    }

    /// The arena span of peer `q`: empty for a peer that is not listed.
    pub fn span(&self, q: usize) -> Range<usize> {
        match u32::try_from(q).map(|q| self.peers.binary_search(&q)) {
            Ok(Ok(i)) => self.span_at(i),
            _ => 0..0,
        }
    }

    /// `(peer, span)` of every listed peer, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.len()).map(|i| (self.peers[i] as usize, self.span_at(i)))
    }
}

/// Per-message values of one direction for every layer, held for the
/// listed peers of one [`PeerLayout`] only: one flat arena per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerTable<T> {
    layout: PeerLayout,
    layers: Vec<Vec<T>>,
}

impl<T: Clone> PeerTable<T> {
    /// `layers` arenas laid out by `layout`, every message at `value`.
    pub fn filled(layout: &PeerLayout, layers: usize, value: T) -> Self {
        Self {
            layers: vec![vec![value; layout.num_messages()]; layers],
            layout: layout.clone(),
        }
    }
}

impl<T> PeerTable<T> {
    /// The layout every layer's arena follows.
    pub fn layout(&self) -> &PeerLayout {
        &self.layout
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Peer `q`'s values at `layer`, in message order: empty for a peer
    /// that is not listed.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn get(&self, layer: usize, q: usize) -> &[T] {
        &self.layers[layer][self.layout.span(q)]
    }

    /// `layer`'s whole arena, laid out by [`PeerTable::layout`].
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: usize) -> &[T] {
        &self.layers[layer]
    }

    /// `layer`'s whole arena, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut [T] {
        &mut self.layers[layer]
    }

    /// `(peer, values)` of every listed peer at `layer`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn peers(&self, layer: usize) -> impl Iterator<Item = (usize, &[T])> + '_ {
        let arena = &self.layers[layer];
        self.layout.iter().map(move |(q, span)| (q, &arena[span]))
    }

    /// `(peer, values)` of every listed peer at `layer`, ascending, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn peers_mut(&mut self, layer: usize) -> impl Iterator<Item = (usize, &mut [T])> + '_ {
        let mut rest = self.layers[layer].as_mut_slice();
        self.layout.iter().map(move |(q, span)| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(span.len());
            rest = tail;
            (q, head)
        })
    }

    /// Every value of every layer, layer by layer.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.layers.iter().flatten()
    }

    /// Every value of every layer, mutably, layer by layer.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.layers.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_layout_lists_non_empty_sets_only() {
        let sets: Vec<Vec<u32>> = vec![vec![], vec![4, 5], vec![], vec![7], vec![]];
        let layout = PeerLayout::of(&sets);
        assert_eq!(layout.peers(), [1, 3]);
        assert_eq!(layout.num_messages(), 3);
        assert_eq!(layout.span(1), 0..2);
        assert_eq!(layout.span(3), 2..3);
        for unlisted in [0, 2, 4, 5, usize::MAX] {
            assert!(layout.span(unlisted).is_empty(), "peer {unlisted}");
        }
        assert_eq!(layout.iter().collect::<Vec<_>>(), [(1, 0..2), (3, 2..3)]);
        let mut table = PeerTable::filled(&layout, 2, 0u8);
        table.layer_mut(1)[2] = 9;
        assert_eq!(table.get(1, 3), [9]);
        assert_eq!(table.get(0, 1), [0, 0]);
        assert!(table.get(1, 2).is_empty());
        assert!(PeerLayout::of::<u32>(&[]).is_empty());
    }
}
