//! Multi-label targets: the 0/1 matrix the BCE loss trains on and micro-F1
//! scores against. The scores themselves are accumulated per device by the
//! trainer (`adaqp::metrics`).

use crate::Matrix;

/// Builds a multi-label 0/1 target matrix from per-node class lists.
///
/// # Panics
///
/// Panics if any class index is `>= num_classes`.
pub fn multilabel_targets_from_classes(classes: &[Vec<usize>], num_classes: usize) -> Matrix {
    let mut t = Matrix::zeros(classes.len(), num_classes);
    for (i, cs) in classes.iter().enumerate() {
        for &c in cs {
            assert!(c < num_classes, "class {c} out of range {num_classes}");
            t.set(i, c, 1.0);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multilabel_targets_built_correctly() {
        let t = multilabel_targets_from_classes(&[vec![0, 2], vec![1]], 3);
        assert_eq!(t.row(0), &[1.0, 0.0, 1.0]);
        assert_eq!(t.row(1), &[0.0, 1.0, 0.0]);
    }
}
