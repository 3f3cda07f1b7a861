//! Port-labelled scattering matrices.

use crate::port::port_direction;
use crate::PortDirection;
use picbench_math::{CMatrix, Complex};
use std::fmt;

/// A scattering matrix whose rows/columns are addressed by port name.
///
/// Convention: with incident amplitudes `a` and outgoing amplitudes `b`
/// indexed by the same port list, `b = S·a`. The transfer from port `p`
/// to port `q` is therefore the entry at row `q`, column `p`, exposed as
/// [`SMatrix::s`]`(p, q)`.
///
/// # Examples
///
/// ```
/// use picbench_sparams::SMatrix;
/// use picbench_math::Complex;
///
/// let mut s = SMatrix::new(vec!["I1".into(), "O1".into()]);
/// s.set_sym("I1", "O1", Complex::cis(0.3));
/// assert!((s.s("I1", "O1").unwrap().abs() - 1.0).abs() < 1e-12);
/// assert!(s.is_reciprocal(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SMatrix {
    ports: Vec<String>,
    m: CMatrix,
}

impl SMatrix {
    /// Creates an all-zero scattering matrix over the given port list.
    ///
    /// # Panics
    ///
    /// Panics if the port list contains duplicates.
    pub fn new(ports: Vec<String>) -> Self {
        let n = ports.len();
        SMatrix::from_matrix(ports, CMatrix::zeros(n, n))
    }

    /// Creates a scattering matrix from a port list and a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square with dimension `ports.len()`, or if
    /// the port list contains duplicates.
    pub fn from_matrix(ports: Vec<String>, m: CMatrix) -> Self {
        assert!(m.is_square(), "S-matrix must be square");
        assert_eq!(m.rows(), ports.len(), "port count must match matrix size");
        for (i, p) in ports.iter().enumerate() {
            assert!(
                !ports[..i].contains(p),
                "duplicate port name {p:?} in S-matrix"
            );
        }
        SMatrix { ports, m }
    }

    /// The port names, in index order.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// Number of ports.
    pub fn dim(&self) -> usize {
        self.ports.len()
    }

    /// The underlying dense matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.m
    }

    /// Index of a port by name.
    pub fn port_index(&self, name: &str) -> Option<usize> {
        self.ports.iter().position(|p| p == name)
    }

    /// Transfer coefficient from `from` to `to`, or `None` if either port
    /// does not exist.
    pub fn s(&self, from: &str, to: &str) -> Option<Complex> {
        let f = self.port_index(from)?;
        let t = self.port_index(to)?;
        Some(self.m[(t, f)])
    }

    /// Sets the transfer coefficient from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either port does not exist.
    pub fn set(&mut self, from: &str, to: &str, value: Complex) {
        let f = self
            .port_index(from)
            .unwrap_or_else(|| panic!("unknown port {from:?}"));
        let t = self
            .port_index(to)
            .unwrap_or_else(|| panic!("unknown port {to:?}"));
        self.m[(t, f)] = value;
    }

    /// Sets the transfer symmetrically in both directions (reciprocal
    /// passive device).
    ///
    /// # Panics
    ///
    /// Panics if either port does not exist.
    pub fn set_sym(&mut self, a: &str, b: &str, value: Complex) {
        self.set(a, b, value);
        self.set(b, a, value);
    }

    /// Whether `S = Sᵀ` within `tol` (reciprocity).
    pub fn is_reciprocal(&self, tol: f64) -> bool {
        self.reciprocity_defect() <= tol
    }

    /// Largest entry-wise |S − Sᵀ| — zero for a perfectly reciprocal
    /// network. The quantitative form of [`SMatrix::is_reciprocal`],
    /// used by conformance oracles to report *how far* a matrix is from
    /// reciprocity.
    pub fn reciprocity_defect(&self) -> f64 {
        self.m.max_abs_diff(&self.m.transpose())
    }

    /// Whether the matrix is unitary within `tol` (lossless network).
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.m.is_unitary(tol)
    }

    /// Largest entry-wise |S†S − I| — zero for a perfectly unitary
    /// (lossless) network. The quantitative form of
    /// [`SMatrix::is_unitary`].
    pub fn unitarity_defect(&self) -> f64 {
        let n = self.dim();
        let mut worst = 0.0f64;
        for r in 0..n {
            for c in 0..n {
                let mut acc = Complex::ZERO;
                for k in 0..n {
                    acc += self.m[(k, r)].conj() * self.m[(k, c)];
                }
                if r == c {
                    acc -= Complex::ONE;
                }
                worst = worst.max(acc.abs());
            }
        }
        worst
    }

    /// Largest column power sum in excess of 1 — zero for a passive
    /// network. The quantitative form of [`SMatrix::is_passive`].
    pub fn passivity_defect(&self) -> f64 {
        let mut worst = 0.0f64;
        for c in 0..self.dim() {
            let power: f64 = (0..self.dim()).map(|r| self.m[(r, c)].norm_sqr()).sum();
            worst = worst.max(power - 1.0);
        }
        worst.max(0.0)
    }

    /// Whether the network is passive: no column's total output power
    /// exceeds `1 + tol`.
    pub fn is_passive(&self, tol: f64) -> bool {
        for c in 0..self.dim() {
            let power: f64 = (0..self.dim()).map(|r| self.m[(r, c)].norm_sqr()).sum();
            if power > 1.0 + tol {
                return false;
            }
        }
        true
    }

    /// Ports whose name classifies as an input (`I*`).
    pub fn input_ports(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| port_direction(p) == PortDirection::Input)
            .map(String::as_str)
            .collect()
    }

    /// Ports whose name classifies as an output (`O*`).
    pub fn output_ports(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| port_direction(p) == PortDirection::Output)
            .map(String::as_str)
            .collect()
    }

    /// Largest entry-wise magnitude difference between two S-matrices with
    /// identical port lists.
    ///
    /// # Panics
    ///
    /// Panics if the port lists differ.
    pub fn max_abs_diff(&self, other: &SMatrix) -> f64 {
        assert_eq!(self.ports, other.ports, "port lists differ");
        self.m.max_abs_diff(&other.m)
    }
}

impl fmt::Display for SMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "S-matrix over ports {:?}:", self.ports)?;
        write!(f, "{}", self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port() -> SMatrix {
        let mut s = SMatrix::new(vec!["I1".into(), "O1".into()]);
        s.set_sym("I1", "O1", Complex::new(0.0, 1.0));
        s
    }

    #[test]
    fn set_get_roundtrip() {
        let s = two_port();
        assert_eq!(s.s("I1", "O1"), Some(Complex::i()));
        assert_eq!(s.s("O1", "I1"), Some(Complex::i()));
        assert_eq!(s.s("I1", "I1"), Some(Complex::ZERO));
        assert_eq!(s.s("I1", "bogus"), None);
    }

    #[test]
    fn directional_set() {
        let mut s = SMatrix::new(vec!["I1".into(), "O1".into()]);
        s.set("I1", "O1", Complex::ONE);
        assert_eq!(s.s("I1", "O1"), Some(Complex::ONE));
        assert_eq!(s.s("O1", "I1"), Some(Complex::ZERO));
        assert!(!s.is_reciprocal(1e-12));
    }

    #[test]
    fn unitarity_and_passivity() {
        let s = two_port();
        assert!(s.is_unitary(1e-12));
        assert!(s.is_passive(1e-12));

        let mut lossy = SMatrix::new(vec!["I1".into(), "O1".into()]);
        lossy.set_sym("I1", "O1", Complex::real(0.5));
        assert!(!lossy.is_unitary(1e-6));
        assert!(lossy.is_passive(1e-12));

        let mut gain = SMatrix::new(vec!["I1".into(), "O1".into()]);
        gain.set_sym("I1", "O1", Complex::real(2.0));
        assert!(!gain.is_passive(1e-12));
    }

    #[test]
    fn port_classification() {
        let s = SMatrix::new(vec!["I1".into(), "I2".into(), "O1".into()]);
        assert_eq!(s.input_ports(), vec!["I1", "I2"]);
        assert_eq!(s.output_ports(), vec!["O1"]);
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_ports_panic() {
        let _ = SMatrix::new(vec!["I1".into(), "I1".into()]);
    }

    #[test]
    #[should_panic(expected = "unknown port")]
    fn unknown_port_set_panics() {
        let mut s = two_port();
        s.set("I9", "O1", Complex::ONE);
    }

    #[test]
    fn from_matrix_wraps_dense() {
        let m = CMatrix::identity(2);
        let s = SMatrix::from_matrix(vec!["I1".into(), "O1".into()], m);
        assert_eq!(s.s("I1", "I1"), Some(Complex::ONE));
        assert_eq!(s.s("I1", "O1"), Some(Complex::ZERO));
    }

    #[test]
    fn diff_between_matrices() {
        let a = two_port();
        let mut b = two_port();
        b.set_sym("I1", "O1", Complex::new(0.0, 0.5));
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }
}
