//! Deep Potential model parameters.

use crate::config::DpConfig;
use dp_linalg::Real;
use dp_nn::net::{Net, NetWeights};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Deep Potential model in precision `T`: one embedding net per neighbor
/// type (input `s(r)`, output width M) and one fitting net per center type
/// (input the flattened M×M₂ descriptor, output the atomic energy).
#[derive(Clone)]
pub struct DpModel<T> {
    pub config: DpConfig,
    pub embeddings: Vec<Net<T>>,
    pub fittings: Vec<Net<T>>,
    /// Per-center-type energy shift added to the fitting output (eV); set
    /// to the dataset's mean atomic energy before training.
    pub e0: Vec<f64>,
}

/// Serializable model (f64 weights).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpModelData {
    pub config: DpConfig,
    pub embeddings: Vec<NetWeights>,
    pub fittings: Vec<NetWeights>,
    pub e0: Vec<f64>,
}

impl<T: Real> DpModel<T> {
    /// Fresh model with Xavier-initialized weights.
    pub fn new_random(config: DpConfig, rng: &mut impl Rng) -> Self {
        config.check();
        let n_types = config.n_types();
        let embeddings = (0..n_types)
            .map(|_| Net::embedding(&config.embedding, rng))
            .collect();
        let fittings = (0..n_types)
            .map(|_| Net::fitting(config.descriptor_dim(), &config.fitting, rng))
            .collect();
        Self {
            config,
            embeddings,
            fittings,
            e0: vec![0.0; n_types],
        }
    }

    pub fn num_params(&self) -> usize {
        self.embeddings
            .iter()
            .chain(self.fittings.iter())
            .map(|n| n.num_params())
            .sum()
    }

    /// Canonical flat parameter vector: embeddings (type order) then
    /// fittings (type order), each in `Net::flat_params` order.
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.flat_params_into(&mut out);
        out
    }

    /// [`flat_params`](Self::flat_params) into a caller-kept buffer (the
    /// trainer refills one every step).
    pub fn flat_params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for n in self.embeddings.iter().chain(self.fittings.iter()) {
            n.extend_flat_params(out);
        }
    }

    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length");
        let mut off = 0;
        for n in self.embeddings.iter_mut().chain(self.fittings.iter_mut()) {
            let k = n.num_params();
            n.set_flat_params(&flat[off..off + k]);
            off += k;
        }
    }

    pub fn cast<U: Real>(&self) -> DpModel<U> {
        DpModel {
            config: self.config.clone(),
            embeddings: self.embeddings.iter().map(|n| n.cast()).collect(),
            fittings: self.fittings.iter().map(|n| n.cast()).collect(),
            e0: self.e0.clone(),
        }
    }

    pub fn to_data(&self) -> DpModelData {
        DpModelData {
            config: self.config.clone(),
            embeddings: self.embeddings.iter().map(|n| n.to_weights()).collect(),
            fittings: self.fittings.iter().map(|n| n.to_weights()).collect(),
            e0: self.e0.clone(),
        }
    }

    pub fn from_data(data: &DpModelData) -> Self {
        data.config.check();
        Self {
            config: data.config.clone(),
            embeddings: data.embeddings.iter().map(Net::from_weights).collect(),
            fittings: data.fittings.iter().map(Net::from_weights).collect(),
            e0: data.e0.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_model_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DpModel::<f64>::new_random(DpConfig::small(2, 5.0, 12), &mut rng);
        assert_eq!(m.embeddings.len(), 2);
        assert_eq!(m.fittings.len(), 2);
        assert_eq!(m.embeddings[0].in_dim(), 1);
        assert_eq!(m.embeddings[0].out_dim(), 16);
        assert_eq!(m.fittings[0].in_dim(), 16 * 4);
        assert_eq!(m.fittings[0].out_dim(), 1);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = DpModel::<f64>::new_random(DpConfig::small(1, 5.0, 12), &mut rng);
        let p = m.flat_params();
        assert_eq!(p.len(), m.num_params());
        let shifted: Vec<f64> = p.iter().map(|x| x + 0.5).collect();
        m.set_flat_params(&shifted);
        assert_eq!(m.flat_params(), shifted);
    }

    #[test]
    fn data_roundtrip_preserves_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DpModel::<f64>::new_random(DpConfig::small(2, 5.0, 8), &mut rng);
        let back = DpModel::<f64>::from_data(&m.to_data());
        assert_eq!(m.flat_params(), back.flat_params());
    }

    #[test]
    fn paper_model_parameter_count() {
        // embedding 1->25->50->100: (25+25)+(25*50+50)+(50*100+100) = 6425
        // fitting 400->240->240->240->1:
        //   400*240+240 + 240*240+240 * 2 + 240+1
        let mut rng = StdRng::seed_from_u64(4);
        let m = DpModel::<f64>::new_random(DpConfig::water_paper(), &mut rng);
        let emb = 25 + 25 + (25 * 50 + 50) + (50 * 100 + 100);
        let fit = 400 * 240 + 240 + 2 * (240 * 240 + 240) + 240 + 1;
        assert_eq!(m.num_params(), 2 * emb + 2 * fit);
    }
}
