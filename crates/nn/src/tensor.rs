//! A minimal dense tensor for plaintext CNN reference execution.
//!
//! The plaintext network is the oracle the HE-CNN inference is verified
//! against; it only needs `f64` storage, CHW indexing and flattening.

/// A dense row-major tensor of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be positive"
        );
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from explicit data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_data(shape: &[usize], data: Vec<f64>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements (unreachable by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// CHW element access for 3-dimensional tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or indices are out of
    /// bounds.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f64 {
        assert_eq!(self.shape.len(), 3, "at3 needs a 3-D tensor");
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w]
    }

    /// Mutable CHW element access for 3-dimensional tensors.
    #[inline]
    pub fn at3_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f64 {
        assert_eq!(self.shape.len(), 3, "at3_mut needs a 3-D tensor");
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        &mut self.data[(c * hh + h) * ww + w]
    }

    /// Reshapes to a flat vector (1-D) without copying.
    pub fn flattened(mut self) -> Tensor {
        let len = self.data.len();
        self.shape = vec![len];
        self
    }

    /// Largest absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element (argmax over flat data). NaN-safe:
    /// `total_cmp` orders a NaN above every number, so a diverged
    /// network yields an index instead of a panic.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty());
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_len() {
        let t = Tensor::zeros(&[3, 4, 5]);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert!(!t.is_empty());
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn chw_indexing_is_row_major() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        *t.at3_mut(1, 2, 3) = 7.5;
        assert_eq!(t.at3(1, 2, 3), 7.5);
        assert_eq!(t.data()[(3 + 2) * 4 + 3], 7.5);
    }

    #[test]
    fn from_data_validates_length() {
        let t = Tensor::from_data(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_data_rejects_bad_length() {
        Tensor::from_data(&[2, 2], vec![1.0]);
    }

    #[test]
    fn flatten_preserves_data() {
        let t = Tensor::from_data(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).flattened();
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn argmax_and_max_abs() {
        let t = Tensor::from_data(&[4], vec![1.0, -5.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.max_abs(), 5.0);
    }

    #[test]
    fn argmax_of_a_nan_tensor_does_not_panic() {
        let t = Tensor::from_data(&[3], vec![1.0, f64::NAN, 3.0]);
        assert_eq!(t.argmax(), 1, "NaN orders above every number");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Tensor::zeros(&[3, 0]);
    }
}
