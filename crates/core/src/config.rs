//! Model hyper-parameters.

use crate::codec::Codec;

/// Hyper-parameters of a Deep Potential model (the paper's §6.1 settings
/// are provided as constructors).
#[derive(Debug, Clone, PartialEq)]
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

    /// The neighbor-key codec for formatting `n_atoms` atoms under this
    /// model: the paper's decimal layout while its ranges allow, binary
    /// beyond (see [`Codec::auto`]).
    pub fn codec(&self, n_atoms: usize) -> Codec {
        Codec::auto(self.n_types(), n_atoms, self.rcut)
    }

    /// Internal consistency, as an error (a model file's config is
    /// untrusted input).
    pub fn validate(&self) -> Result<(), String> {
        let m = self.embedding.last().copied().unwrap_or(0);
        let broken = if !(self.rcut_smth > 0.0 && self.rcut_smth < self.rcut) {
            "need 0 < rcut_smth < rcut"
        } else if self.sel.is_empty() || self.sel.contains(&0) {
            "sel needs one positive count per type"
        } else if self.embedding.is_empty() || self.fitting.is_empty() {
            "embedding and fitting need at least one width"
        } else if self.embedding.windows(2).any(|w| w[1] != 2 * w[0]) {
            "embedding widths must double"
        } else if !(1..=m).contains(&self.axis_neurons) {
            "axis_neurons must be between 1 and the last embedding width"
        } else {
            return Ok(());
        };
        Err(format!("bad model config: {broken}"))
    }

    /// Panic unless [`validate`](Self::validate) passes.
    pub fn check(&self) {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
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
}
