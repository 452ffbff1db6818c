// Clean: the allow is live — it suppresses the captured index below it.
pub fn mark(out: &mut [f32], offset: usize) {
    par_chunks_deterministic(out, 1, 1, |_start, _end, chunk| {
        // lint:allow(par-disjoint): the caller passes one chunk's offset
        chunk[offset] = 1.0;
    });
}
