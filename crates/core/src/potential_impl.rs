//! [`DeepPotential`]: the `dp_md::Potential` implementation with the
//! paper's precision modes (§5.2.3).

use crate::eval::{evaluate_items_into, EvalOutput};
use crate::model::DpModel;
use crate::profile::Profiler;
use crate::workspace::EvalWorkspace;
use dp_md::{NeighborList, Potential, PotentialOutput, System};
use std::sync::{Arc, Mutex};

/// Numerical precision of the network evaluation. (The paper's rejected
/// half precision is emulated by the `mixed_precision` experiment only.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecisionMode {
    /// Everything in f64.
    Double,
    /// Networks in f32, geometry and accumulation in f64 — the paper's
    /// production mode (~1.5× faster, half the memory, no observable loss).
    Mixed,
}

/// One caller's complete evaluation arena (§5.2.2 "trunk of memory"):
/// the precision-specific eval workspaces (each holding one chunk of
/// formatted rows) and the raw evaluation output. Solo and batched calls
/// share it. Boxed so pool pushes move a pointer.
struct Arena {
    ws64: EvalWorkspace<f64>,
    ws32: EvalWorkspace<f32>,
    out: EvalOutput,
}

/// One request in a cross-request batch: a standalone configuration
/// (every atom local — `n_local == len`) plus its neighbor list. A solo
/// force call evaluates itself as the one item of a batch, ghosts allowed.
pub struct BatchItem<'a> {
    pub sys: &'a System,
    pub nl: &'a NeighborList,
}

/// Per-request result of a batched evaluation, bit-identical to what a
/// solo [`Potential::compute`] of the same system produces (see
/// [`crate::batch`]). The virial is omitted: it is accumulated globally
/// over the joined table and cannot be attributed to one request.
#[derive(Debug, Clone)]
pub struct BatchResult {
    pub energy: f64,
    pub per_atom_energy: Vec<f64>,
    pub forces: Vec<[f64; 3]>,
}

/// Reusable flat output of [`DeepPotential::compute_batch_into`]: all
/// requests' per-atom quantities live in shared buffers addressed through
/// `offsets`, so a caller stepping many replicas every tick (the ensemble
/// engine) copies slices instead of allocating per-request `Vec`s.
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    /// Prefix sums: request `k` owns atoms `offsets[k]..offsets[k + 1]`.
    pub offsets: Vec<usize>,
    /// Total energy per request (left-to-right sum of its slice, the same
    /// summation the solo evaluation performs — bit-identical).
    pub energies: Vec<f64>,
    /// Per-atom energies, concatenated in request order.
    pub per_atom_energy: Vec<f64>,
    /// Forces, concatenated in request order.
    pub forces: Vec<[f64; 3]>,
}

impl BatchOutput {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests in the last batch.
    pub fn len(&self) -> usize {
        self.energies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.energies.is_empty()
    }

    /// Force slice of request `k`.
    pub fn forces_of(&self, k: usize) -> &[[f64; 3]] {
        &self.forces[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Per-atom-energy slice of request `k`.
    pub fn per_atom_energy_of(&self, k: usize) -> &[f64] {
        &self.per_atom_energy[self.offsets[k]..self.offsets[k + 1]]
    }
}

/// A trained Deep Potential usable as an interatomic potential in MD.
pub struct DeepPotential {
    model64: DpModel<f64>,
    model32: DpModel<f32>,
    pub mode: PrecisionMode,
    /// Optional Fig 3 profiler shared with the caller.
    pub profiler: Option<Arc<Profiler>>,
    /// Pool of evaluation arenas, popped per call (solo or batched) so
    /// `&self` stays shared while the buffers mutate; concurrent callers
    /// each get (and warm up) their own arena. The lock is held only for
    /// the pop/push, never during evaluation.
    // boxed so a pop/push moves a pointer, not the arena's many buffers
    #[allow(clippy::vec_box)]
    scratch: Mutex<Vec<Box<Arena>>>,
}

impl DeepPotential {
    pub fn new(model: DpModel<f64>, mode: PrecisionMode) -> Self {
        let model32 = model.cast::<f32>();
        Self {
            model64: model,
            model32,
            mode,
            profiler: None,
            scratch: Mutex::new(Vec::new()),
        }
    }

    pub fn with_profiler(mut self, prof: Arc<Profiler>) -> Self {
        self.profiler = Some(prof);
        self
    }

    pub fn model(&self) -> &DpModel<f64> {
        &self.model64
    }

    /// Switch precision without re-deriving the reduced models.
    pub fn set_mode(&mut self, mode: PrecisionMode) {
        self.mode = mode;
    }

    /// Evaluate `items` as one batch on a pooled arena (see
    /// [`crate::batch`]); `span` names the per-chunk formatting span. The
    /// forces, and the per-atom energies when asked for, are evaluated
    /// straight into the caller's buffers (swapped in, not copied), so the
    /// arena keeps no per-atom force buffer between calls. Returns the
    /// energy and the virial.
    fn eval_items(
        &self,
        items: &[BatchItem],
        mode: PrecisionMode,
        span: &'static str,
        forces: &mut Vec<[f64; 3]>,
        mut per_atom_energy: Option<&mut Vec<f64>>,
    ) -> (f64, [f64; 6]) {
        let prof = self.profiler.as_deref();
        // keep the lock only for the pop so concurrent callers never
        // serialize on the evaluation itself
        let mut sc = self.scratch.lock().unwrap().pop().unwrap_or_else(|| {
            Box::new(Arena {
                ws64: EvalWorkspace::new(&self.model64.config),
                ws32: EvalWorkspace::new(&self.model32.config),
                out: EvalOutput::default(),
            })
        });
        let Arena { ws64, ws32, out } = &mut *sc;
        std::mem::swap(forces, &mut out.forces);
        if let Some(pe) = per_atom_energy.as_deref_mut() {
            std::mem::swap(pe, &mut out.per_atom_energy);
        }
        match mode {
            PrecisionMode::Double => {
                evaluate_items_into(&self.model64, items, span, prof, ws64, out)
            }
            PrecisionMode::Mixed => {
                evaluate_items_into(&self.model32, items, span, prof, ws32, out)
            }
        }
        std::mem::swap(forces, &mut out.forces);
        if let Some(pe) = per_atom_energy {
            std::mem::swap(pe, &mut out.per_atom_energy);
        }
        let result = (out.energy, out.virial);
        self.scratch.lock().unwrap().push(sc);
        result
    }

    /// Evaluate several standalone configurations as ONE forward/backward
    /// pass over their atoms laid end to end (see [`crate::batch`]).
    /// Per-request energies and forces are bit-identical to evaluating
    /// each system alone in the same `mode`. The serving scheduler uses
    /// this to coalesce concurrent `/v1/eval` requests.
    pub fn compute_batch(&self, items: &[BatchItem], mode: PrecisionMode) -> Vec<BatchResult> {
        let mut out = BatchOutput::new();
        self.compute_batch_into(items, mode, &mut out);
        (0..items.len())
            .map(|k| BatchResult {
                energy: out.energies[k],
                per_atom_energy: out.per_atom_energy_of(k).to_vec(),
                forces: out.forces_of(k).to_vec(),
            })
            .collect()
    }

    /// [`Self::compute_batch`] writing into a caller-owned flat
    /// [`BatchOutput`], so steady-state callers (the multi-replica engine
    /// dispatching one batch per tick) reuse the same buffers every call.
    pub fn compute_batch_into(
        &self,
        items: &[BatchItem],
        mode: PrecisionMode,
        res: &mut BatchOutput,
    ) {
        res.offsets.clear();
        res.offsets.push(0);
        res.energies.clear();
        res.per_atom_energy.clear();
        res.forces.clear();
        if items.is_empty() {
            return;
        }
        for it in items {
            assert_eq!(
                it.sys.n_local,
                it.sys.len(),
                "only standalone configurations (no ghost region) can batch"
            );
            res.offsets.push(res.offsets.last().unwrap() + it.sys.len());
        }
        let pe = Some(&mut res.per_atom_energy);
        self.eval_items(items, mode, "batch_environment", &mut res.forces, pe);
        for w in res.offsets.windows(2) {
            // left-to-right sum over the request's contiguous slice — the
            // same order the solo evaluation uses
            res.energies
                .push(res.per_atom_energy[w[0]..w[1]].iter().sum());
        }
    }
}

impl Potential for DeepPotential {
    fn compute(&self, sys: &System, nl: &NeighborList) -> PotentialOutput {
        let mut out = PotentialOutput::zeros(0);
        self.compute_into(sys, nl, &mut out);
        out
    }

    /// A batch of one: the atoms are formatted chunk by chunk inside the
    /// evaluation, so the call holds one chunk of formatted rows, never a
    /// table of the whole system. Ghosts (`n_local < len`) are allowed.
    fn compute_into(&self, sys: &System, nl: &NeighborList, out: &mut PotentialOutput) {
        let items = [BatchItem { sys, nl }];
        (out.energy, out.virial) =
            self.eval_items(&items, self.mode, "environment", &mut out.forces, None);
    }

    fn cutoff(&self) -> f64 {
        self.model64.config.rcut
    }

    fn name(&self) -> &'static str {
        match self.mode {
            PrecisionMode::Double => "deep-potential(double)",
            PrecisionMode::Mixed => "deep-potential(mixed)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use dp_md::CounterRng;
    use dp_md::{lattice, units};

    fn setup(mode: PrecisionMode) -> (DeepPotential, System) {
        let cfg = DpConfig::small(1, 4.5, 16);
        let mut rng = CounterRng::new(31);
        let model = DpModel::<f64>::new_random(cfg, &mut rng);
        let mut sys = lattice::fcc(3.615, [3, 3, 3], units::MASS_CU);
        sys.perturb(0.1, &mut rng);
        (DeepPotential::new(model, mode), sys)
    }

    #[test]
    fn implements_potential_trait() {
        let (dp, sys) = setup(PrecisionMode::Double);
        let nl = NeighborList::build(&sys, dp.cutoff());
        let out = dp.compute(&sys, &nl);
        assert!(out.energy.is_finite());
        assert_eq!(out.forces.len(), sys.len());
    }

    #[test]
    fn mixed_precision_close_to_double() {
        let (mut dp, sys) = setup(PrecisionMode::Double);
        let nl = NeighborList::build(&sys, dp.cutoff());
        let double = dp.compute(&sys, &nl);
        dp.set_mode(PrecisionMode::Mixed);
        let mixed = dp.compute(&sys, &nl);
        // the paper reports sub-meV/molecule energy and ~0.03 eV/Å force
        // deviations; a small random model should be tighter still
        let de = (double.energy - mixed.energy).abs() / sys.len() as f64;
        assert!(de < 1e-4, "energy deviation {de} eV/atom");
        let mut max_f = 0.0f64;
        for (a, b) in double.forces.iter().zip(&mixed.forces) {
            for k in 0..3 {
                max_f = max_f.max((a[k] - b[k]).abs());
            }
        }
        assert!(max_f < 1e-3, "force deviation {max_f} eV/Å");
    }

    #[test]
    fn names_reflect_mode() {
        let (mut dp, _) = setup(PrecisionMode::Double);
        assert!(dp.name().contains("double"));
        dp.set_mode(PrecisionMode::Mixed);
        assert!(dp.name().contains("mixed"));
    }
}
