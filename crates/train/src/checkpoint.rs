//! Training checkpoints: net weights + Adam moments + step counter.
//!
//! Restarting a DeePMD-kit-style training run from the weights alone would
//! reset the Adam moments and the decayed learning rate, producing a loss
//! spike at every restart. A [`TrainCheckpoint`] therefore carries the
//! complete optimizer state ([`AdamState`]) and the step counter, so
//! a resumed run continues the loss curve where the interrupted one left
//! off (the weights are stored as model-file JSON, whose f64 formatting
//! round-trips bit-exactly).

use crate::adam::AdamState;
use deepmd_core::model::DpModel;
use dp_ckpt::{CkptError, CkptReader, CkptWriter, Dec, Enc, Rotation, KIND_TRAIN};
use std::path::PathBuf;

const SEC_META: [u8; 4] = *b"META";
const SEC_MODL: [u8; 4] = *b"MODL";
const SEC_ADAM: [u8; 4] = *b"ADAM";

/// Everything a training run needs to continue loss-continuously.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Optimizer steps completed when the snapshot was taken.
    pub steps: usize,
    /// Model weights + config + e0 shifts.
    pub model: DpModel<f64>,
    /// Adam step counter and first/second moment vectors.
    pub adam: AdamState,
}

impl TrainCheckpoint {
    pub fn capture(model: &DpModel<f64>, adam_state: AdamState, steps: usize) -> Self {
        Self {
            steps,
            model: model.clone(),
            adam: adam_state,
        }
    }

    pub fn to_writer(&self) -> CkptWriter {
        let mut w = CkptWriter::new(KIND_TRAIN);

        let mut meta = Enc::new();
        meta.put_u64(self.steps as u64);
        meta.put_u64(self.adam.m.len() as u64);
        w.add_section(SEC_META, meta.into_bytes());

        let mut modl = Enc::new();
        modl.put_bytes(self.model.to_json().as_bytes());
        w.add_section(SEC_MODL, modl.into_bytes());

        let mut adam = Enc::new();
        adam.put_u64(self.adam.step as u64);
        adam.put_f64s(&self.adam.m);
        adam.put_f64s(&self.adam.v);
        w.add_section(SEC_ADAM, adam.into_bytes());
        w
    }

    pub fn from_reader(r: &CkptReader) -> Result<Self, CkptError> {
        r.expect_kind(KIND_TRAIN)?;
        let mut meta = Dec::new(r.section(SEC_META)?);
        let steps = meta.get_u64()? as usize;
        let n_params = meta.get_u64()? as usize;

        let mut modl = Dec::new(r.section(SEC_MODL)?);
        let model = std::str::from_utf8(modl.get_bytes()?)
            .map_err(|e| e.to_string())
            .and_then(DpModel::from_json)
            .map_err(|e| CkptError::Malformed(format!("model deserialization: {e}")))?;

        let mut adam = Dec::new(r.section(SEC_ADAM)?);
        let step = adam.get_u64()? as usize;
        let m = adam.get_f64s()?;
        let v = adam.get_f64s()?;
        if m.len() != n_params || v.len() != n_params {
            return Err(CkptError::Malformed(format!(
                "Adam moments sized {}/{} but header says {n_params} params",
                m.len(),
                v.len()
            )));
        }
        Ok(Self {
            steps,
            model,
            adam: AdamState { step, m, v },
        })
    }

    /// Write into the next rotation slot (atomic, shifts older generations).
    pub fn save(&self, rot: &Rotation) -> Result<PathBuf, CkptError> {
        Ok(rot.save(&self.to_writer())?)
    }

    /// Load the newest valid generation from a rotation.
    pub fn load(rot: &Rotation) -> Result<(Self, PathBuf), CkptError> {
        let (reader, path) = rot.load_newest_valid(KIND_TRAIN)?;
        Ok((Self::from_reader(&reader)?, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmd_core::config::DpConfig;
    use dp_md::CounterRng;

    fn sample() -> TrainCheckpoint {
        let cfg = DpConfig::small(1, 4.0, 8);
        let mut rng = CounterRng::new(19);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let n = model.num_params();
        let adam = AdamState {
            step: 37,
            m: (0..n).map(|i| (i as f64).sin() * 1e-3).collect(),
            v: (0..n).map(|i| (i as f64).cos().abs() * 1e-6).collect(),
        };
        TrainCheckpoint::capture(&model, adam, 37)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let bytes = ck.to_writer().to_bytes();
        let back = TrainCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(back.steps, ck.steps);
        assert_eq!(back.adam.step, ck.adam.step);
        for (a, b) in ck.adam.m.iter().zip(&back.adam.m) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // the MODL section must round-trip weights bit-exactly
        let wa = ck.model.flat_params();
        let wb = back.model.flat_params();
        for (a, b) in wa.iter().zip(&wb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn md_checkpoint_rejected_as_wrong_kind() {
        let mut w = CkptWriter::new(dp_ckpt::KIND_MD);
        w.add_section(SEC_META, Enc::new().into_bytes());
        let r = CkptReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(
            TrainCheckpoint::from_reader(&r),
            Err(CkptError::WrongKind { .. })
        ));
    }

    #[test]
    fn moment_length_mismatch_is_malformed() {
        let mut ck = sample();
        ck.adam.m.pop();
        let bytes = ck.to_writer().to_bytes();
        let err =
            TrainCheckpoint::from_reader(&CkptReader::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err:?}");
    }
}
