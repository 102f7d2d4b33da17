//! Deep Potential model parameters — the nets and their stack of
//! [`Layer`]s, generic over precision — and the one place that knows the
//! model-file format (JSON, see [`DpModel::to_json`]).

use crate::config::DpConfig;
use crate::layer_op::{Layer, LayerKind};
use dp_linalg::{Matrix, Real};
use dp_md::CounterRng;
use dp_obs::json::{self, Json};

/// A feed-forward network: an ordered stack of [`Layer`]s. The paper's
/// embedding and fitting nets are built by [`Net::embedding`] and
/// [`Net::fitting`], with the other rules on layer kinds in `layer_op`.
#[derive(Clone)]
pub struct Net<T> {
    pub layers: Vec<Layer<T>>,
}

impl<T: Real> Net<T> {
    /// Every layer's shape and the widths between layers, as an error.
    pub fn validate(&self) -> Result<(), String> {
        self.layers.iter().try_for_each(Layer::validate)?;
        let mut pairs = self.layers.windows(2);
        match pairs.all(|w| w[0].out_dim() == w[1].in_dim()) {
            true => Ok(()),
            false => Err("consecutive layers disagree on width".into()),
        }
    }

    /// Panic unless [`validate`](Self::validate) passes.
    pub fn check(&self) {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim())
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Flatten all parameters (row-major weights then biases, layer order)
    /// into an `f64` vector — the canonical order shared with the
    /// training gradient and the optimizer.
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        self.extend_flat_params(&mut out);
        out
    }

    /// Append the parameters to `out` in [`flat_params`](Self::flat_params)
    /// order.
    pub fn extend_flat_params(&self, out: &mut Vec<f64>) {
        for l in &self.layers {
            out.extend(l.w.as_slice().iter().map(|x| x.to_f64()));
            out.extend(l.b.iter().map(|x| x.to_f64()));
        }
    }

    /// Overwrite all parameters from a flat vector (inverse of
    /// [`flat_params`](Self::flat_params)).
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length");
        let mut off = 0;
        for l in &mut self.layers {
            for x in l.w.as_mut_slice() {
                *x = T::from_f64(flat[off]);
                off += 1;
            }
            for x in &mut l.b {
                *x = T::from_f64(flat[off]);
                off += 1;
            }
        }
    }

    pub fn cast<U: Real>(&self) -> Net<U> {
        Net {
            layers: self.layers.iter().map(|l| l.cast()).collect(),
        }
    }
}

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

/// The configuration and the parameter count, not ~10⁵ weights.
impl<T: Real> std::fmt::Debug for DpModel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpModel")
            .field("config", &self.config)
            .field("num_params", &self.num_params())
            .finish_non_exhaustive()
    }
}

fn f64s(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| json::num(x)).collect())
}

fn counts(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| json::num(x as f64)).collect())
}

fn nets_json(nets: &[Net<f64>]) -> Json {
    let layer = |l: &Layer<f64>| {
        json::obj(vec![
            ("kind", json::str(l.kind.name())),
            ("rows", json::num(l.w.rows() as f64)),
            ("cols", json::num(l.w.cols() as f64)),
            ("w", f64s(l.w.as_slice())),
            ("b", f64s(&l.b)),
        ])
    };
    let layers = |n: &Net<f64>| Json::Arr(n.layers.iter().map(layer).collect());
    Json::Arr(
        nets.iter()
            .map(|n| json::obj(vec![("layers", layers(n))]))
            .collect(),
    )
}

/// Required field `key` of object `v`, converted by `get`.
fn scalar<'a, T>(v: &'a Json, key: &str, get: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    let field = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    get(field).ok_or_else(|| format!("field `{key}` has the wrong type"))
}

/// Required array field `key` of object `v`, every element converted by `item`.
fn list<'a, T>(
    v: &'a Json,
    key: &str,
    item: impl Fn(&'a Json) -> Option<T>,
) -> Result<Vec<T>, String> {
    scalar(v, key, |f| f.as_arr()?.iter().map(&item).collect())
}

fn layer_from(v: &Json) -> Result<Layer<f64>, String> {
    let name = scalar(v, "kind", Json::as_str)?;
    let kind = LayerKind::from_name(name).ok_or_else(|| format!("unknown layer kind `{name}`"))?;
    let rows = scalar(v, "rows", Json::as_usize)?;
    let cols = scalar(v, "cols", Json::as_usize)?;
    let w = list(v, "w", Json::as_f64)?;
    let b = list(v, "b", Json::as_f64)?;
    if w.len() != rows * cols || b.len() != cols {
        return Err(format!(
            "layer is {rows}x{cols} but holds {} weights and {} biases",
            w.len(),
            b.len()
        ));
    }
    Ok(Layer {
        kind,
        w: Matrix::from_vec(rows, cols, w),
        b,
    })
}

fn nets_from(v: &Json, key: &str) -> Result<Vec<Net<f64>>, String> {
    let net = |n: &Json| {
        let layers = scalar(n, "layers", Json::as_arr)?.iter().map(layer_from);
        Ok(Net {
            layers: layers.collect::<Result<_, _>>()?,
        })
    };
    let nets: Result<_, String> = scalar(v, key, Json::as_arr)?.iter().map(net).collect();
    nets.map_err(|e| format!("{key}: {e}"))
}

/// `DpConfig::validate` and `Net::validate`, plus what only the whole
/// model can tell: one net and one shift per type, nets of the
/// configured end widths.
fn consistent(m: &DpModel<f64>) -> Result<(), String> {
    let c = &m.config;
    c.validate()?;
    let n = c.n_types();
    if m.embeddings.len() != n || m.fittings.len() != n || m.e0.len() != n {
        return Err("embeddings, fittings and e0 need one entry per type in config.sel".into());
    }
    let ends = [
        (&m.embeddings, "embeddings", 1, c.emb_width()),
        (&m.fittings, "fittings", c.descriptor_dim(), 1),
    ];
    for (nets, key, d_in, d_out) in ends {
        for net in nets {
            net.validate().map_err(|e| format!("{key}: {e}"))?;
            if net.in_dim() != d_in || net.out_dim() != d_out {
                return Err(format!("{key}: a net must map width {d_in} to {d_out}"));
            }
        }
    }
    Ok(())
}

/// The model file (and a training checkpoint's `MODL` section):
/// `{"config":{"rcut","rcut_smth","sel","embedding","fitting",
/// "axis_neurons"},"embeddings":[{"layers":[{"kind","rows","cols","w",
/// "b"}]}],"fittings":[…],"e0":[…]}`, weights row-major in f64, written
/// so every number re-parses to the same bits (cast other precisions to
/// f64 first).
impl DpModel<f64> {
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let config = json::obj(vec![
            ("rcut", json::num(c.rcut)),
            ("rcut_smth", json::num(c.rcut_smth)),
            ("sel", counts(&c.sel)),
            ("embedding", counts(&c.embedding)),
            ("fitting", counts(&c.fitting)),
            ("axis_neurons", json::num(c.axis_neurons as f64)),
        ]);
        json::obj(vec![
            ("config", config),
            ("embeddings", nets_json(&self.embeddings)),
            ("fittings", nets_json(&self.fittings)),
            ("e0", f64s(&self.e0)),
        ])
        .to_string()
    }

    /// Parse [`to_json`](Self::to_json)'s format; the error names the
    /// field that is missing or mistyped, or the rule an inconsistent
    /// (well-typed) file breaks.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let c = v.get("config").ok_or("missing field `config`")?;
        let config = DpConfig {
            rcut: scalar(c, "rcut", Json::as_f64)?,
            rcut_smth: scalar(c, "rcut_smth", Json::as_f64)?,
            sel: list(c, "sel", Json::as_usize)?,
            embedding: list(c, "embedding", Json::as_usize)?,
            fitting: list(c, "fitting", Json::as_usize)?,
            axis_neurons: scalar(c, "axis_neurons", Json::as_usize)?,
        };
        let model = Self {
            config,
            embeddings: nets_from(&v, "embeddings")?,
            fittings: nets_from(&v, "fittings")?,
            e0: list(&v, "e0", Json::as_f64)?,
        };
        consistent(&model)?;
        Ok(model)
    }
}

impl<T: Real> DpModel<T> {
    /// Fresh model with Xavier-initialized weights.
    pub fn new_random(config: DpConfig, rng: &mut CounterRng) -> Self {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_md::CounterRng;

    #[test]
    fn random_model_shapes() {
        let mut rng = CounterRng::new(1);
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
        let mut rng = CounterRng::new(2);
        let mut m = DpModel::<f64>::new_random(DpConfig::small(1, 5.0, 12), &mut rng);
        let p = m.flat_params();
        assert_eq!(p.len(), m.num_params());
        let shifted: Vec<f64> = p.iter().map(|x| x + 0.5).collect();
        m.set_flat_params(&shifted);
        assert_eq!(m.flat_params(), shifted);
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let mut rng = CounterRng::new(5);
        let m = DpModel::<f64>::new_random(DpConfig::small(2, 5.0, 8), &mut rng);
        let back = DpModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back.config, m.config);
        let bits = |m: &DpModel<f64>| {
            m.flat_params()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn paper_model_parameter_count() {
        // embedding 1->25->50->100: (25+25)+(25*50+50)+(50*100+100) = 6425
        // fitting 400->240->240->240->1:
        //   400*240+240 + 240*240+240 * 2 + 240+1
        let mut rng = CounterRng::new(4);
        let m = DpModel::<f64>::new_random(DpConfig::water_paper(), &mut rng);
        let emb = 25 + 25 + (25 * 50 + 50) + (50 * 100 + 100);
        let fit = 400 * 240 + 240 + 2 * (240 * 240 + 240) + 240 + 1;
        assert_eq!(m.num_params(), 2 * emb + 2 * fit);
    }

    #[test]
    fn net_flat_params_roundtrip() {
        let mut rng = CounterRng::new(4);
        let mut net = Net::<f64>::embedding(&[4, 8], &mut rng);
        let p = net.flat_params();
        assert_eq!(p.len(), net.num_params());
        let mut p2 = p.clone();
        for x in &mut p2 {
            *x += 1.0;
        }
        net.set_flat_params(&p2);
        assert_eq!(net.flat_params(), p2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut r1, mut r2) = (CounterRng::new(7), CounterRng::new(7));
        let n1 = Net::<f64>::embedding(&[4, 8], &mut r1);
        let n2 = Net::<f64>::embedding(&[4, 8], &mut r2);
        assert_eq!(n1.flat_params(), n2.flat_params());
    }
}
