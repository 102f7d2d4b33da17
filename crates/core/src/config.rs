//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// Hyper-parameters of a Deep Potential model (the paper's §6.1 settings
/// are provided as constructors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpConfig {
    /// Interaction cutoff r_c (Å). Water: 6, copper: 8.
    pub rcut: f64,
    /// Smoothing onset r_cs (Å): `s(r) = 1/r` below, switched to 0 at rcut.
    pub rcut_smth: f64,
    /// Cut-off number of neighbors per *neighbor* type (the padding widths
    /// of §5.2.1). Water: {O:46, H:92} summing to 138; copper: {Cu:500}.
    pub sel: Vec<usize>,
    /// Embedding-net widths (paper: 25, 50, 100; must double each step).
    pub embedding: Vec<usize>,
    /// Fitting-net hidden widths (paper: 240, 240, 240).
    pub fitting: Vec<usize>,
    /// Number of "axis" columns M₂ taken from the embedding output for the
    /// second factor of the descriptor (DeePMD-kit default: 4).
    pub axis_neurons: usize,
}

impl DpConfig {
    /// Number of species the model supports.
    pub fn n_types(&self) -> usize {
        self.sel.len()
    }

    /// Total padded neighbor slots per atom, `Nm = Σ_t sel[t]`.
    pub fn nm(&self) -> usize {
        self.sel.iter().sum()
    }

    /// Embedding output width M.
    pub fn emb_width(&self) -> usize {
        *self.embedding.last().expect("embedding sizes empty")
    }

    /// Descriptor dimension `M × M₂` (the fitting-net input width).
    pub fn descriptor_dim(&self) -> usize {
        self.emb_width() * self.axis_neurons
    }

    /// Validate internal consistency.
    pub fn check(&self) {
        assert!(self.rcut > 0.0 && self.rcut_smth > 0.0 && self.rcut_smth < self.rcut);
        assert!(!self.sel.is_empty(), "need at least one type");
        assert!(self.sel.iter().all(|&s| s > 0));
        assert!(!self.embedding.is_empty() && !self.fitting.is_empty());
        assert!(self.axis_neurons > 0 && self.axis_neurons <= self.emb_width());
        for w in self.embedding.windows(2) {
            assert_eq!(w[1], 2 * w[0], "embedding widths must double");
        }
    }

    /// The paper's water model: r_c = 6 Å, 138 total neighbor slots
    /// (O: 46, H: 92 — one third oxygens as in H₂O stoichiometry),
    /// embedding 25×50×100, fitting 240×240×240 (§6.1).
    pub fn water_paper() -> Self {
        Self {
            rcut: 6.0,
            rcut_smth: 0.5,
            sel: vec![46, 92],
            embedding: vec![25, 50, 100],
            fitting: vec![240, 240, 240],
            axis_neurons: 4,
        }
    }

    /// The paper's copper model: r_c = 8 Å, 500 neighbor slots (§6.1).
    pub fn copper_paper() -> Self {
        Self {
            rcut: 8.0,
            rcut_smth: 2.0,
            sel: vec![500],
            embedding: vec![25, 50, 100],
            fitting: vec![240, 240, 240],
            axis_neurons: 4,
        }
    }

    /// A compact single-species model for tests and laptop-scale training:
    /// same architecture shape, smaller widths.
    pub fn small(n_types: usize, rcut: f64, sel_per_type: usize) -> Self {
        Self {
            rcut,
            rcut_smth: rcut * 0.25,
            sel: vec![sel_per_type; n_types],
            embedding: vec![8, 16],
            fitting: vec![32, 32],
            axis_neurons: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_consistent() {
        DpConfig::water_paper().check();
        DpConfig::copper_paper().check();
        assert_eq!(DpConfig::water_paper().nm(), 138);
        assert_eq!(DpConfig::copper_paper().nm(), 500);
        assert_eq!(DpConfig::water_paper().descriptor_dim(), 400);
    }

    #[test]
    fn small_config() {
        let c = DpConfig::small(2, 5.0, 20);
        c.check();
        assert_eq!(c.n_types(), 2);
        assert_eq!(c.nm(), 40);
        assert_eq!(c.emb_width(), 16);
    }

    #[test]
    #[should_panic(expected = "embedding widths must double")]
    fn bad_embedding_widths() {
        let mut c = DpConfig::small(1, 5.0, 10);
        c.embedding = vec![8, 20];
        c.check();
    }

    #[test]
    fn serde_roundtrip() {
        let c = DpConfig::water_paper();
        let json = serde_json::to_string(&c).unwrap();
        let back: DpConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sel, c.sel);
        assert_eq!(back.rcut, c.rcut);
    }
}
