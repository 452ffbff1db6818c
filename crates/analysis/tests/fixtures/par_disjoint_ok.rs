// Clean: every output index is derived from the chunk-range parameters,
// directly or through locals and loop bindings computed from them; and
// `#[cfg(test)]` code is exempt.
pub fn scale_rows(out: &mut [f32], width: usize) {
    par_chunks_deterministic(out, width, 1, |start, end, chunk| {
        for i in start..end {
            let base = (i - start) * width;
            for j in 0..width {
                chunk[base + j] *= 2.0;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    fn racy_fill(out: &mut [f32], offset: usize) {
        par_chunks_deterministic(out, 1, 1, |start, end, chunk| {
            for _i in start..end {
                chunk[offset] += 1.0;
            }
        });
    }
}
