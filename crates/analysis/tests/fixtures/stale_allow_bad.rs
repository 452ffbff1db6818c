// Bad: the allow names a real rule and carries a reason, but nothing on
// its line or the next triggers par-disjoint — the directive is stale.
pub fn double(out: &mut [f32]) {
    // lint:allow(par-disjoint): the index is derived from the chunk range
    par_chunks_deterministic(out, 1, 1, |start, end, chunk| chunk[end - start - 1] *= 2.0);
}
