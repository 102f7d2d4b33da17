//! Adam optimizer over flat parameter vectors.
//!
//! DeePMD-kit trains with Adam and an exponentially decaying learning rate;
//! we reproduce both. The optimizer is deliberately framework-free: it owns
//! two moment vectors and updates a flat `Vec<f64>` in place, matching the
//! canonical flat order of [`deepmd_core::DpModel::flat_params`].

/// The mutable state of an [`Adam`] optimizer: everything a training
/// checkpoint must carry besides the (deck-supplied) hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Updates performed so far (drives bias correction and LR decay).
    pub step: usize,
    /// First-moment (mean) estimate per parameter.
    pub m: Vec<f64>,
    /// Second-moment (uncentered variance) estimate per parameter.
    pub v: Vec<f64>,
}

/// Adam with exponential learning-rate decay.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr0: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    /// Decay by `decay_rate` per `decay_steps` steps, spread smoothly over
    /// them: `lr = lr0 * decay_rate^(step / decay_steps)` with a real
    /// exponent, so the rate falls a little at every step.
    pub decay_rate: f64,
    pub decay_steps: usize,
    step: usize,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    pub fn new(n_params: usize, lr0: f64) -> Self {
        Self {
            lr0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            decay_rate: 0.95,
            decay_steps: 10_000,
            step: 0,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
        }
    }

    /// Current learning rate after decay.
    pub fn lr(&self) -> f64 {
        self.lr0
            * self
                .decay_rate
                .powf(self.step as f64 / self.decay_steps as f64)
    }

    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Snapshot the mutable optimizer state (step counter + both moment
    /// vectors). Together with the public hyperparameters this is the
    /// complete state: restoring it into a fresh `Adam` continues the
    /// update sequence exactly, which is what makes training checkpoints
    /// loss-continuous instead of resetting the effective learning rate
    /// and momentum on every restart.
    pub fn state(&self) -> AdamState {
        AdamState {
            step: self.step,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a previously captured state. The moment vectors must match
    /// the parameter count this optimizer was built for.
    pub fn restore_state(&mut self, state: AdamState) {
        assert_eq!(
            state.m.len(),
            self.m.len(),
            "Adam state is for {} params, optimizer has {}",
            state.m.len(),
            self.m.len()
        );
        assert_eq!(state.v.len(), state.m.len(), "m/v length mismatch");
        self.step = state.step;
        self.m = state.m;
        self.v = state.v;
    }

    /// One Adam update: `params -= lr * m̂ / (sqrt(v̂) + eps)`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "param length changed");
        assert_eq!(grads.len(), self.m.len(), "grad length mismatch");
        self.step += 1;
        let lr = self.lr();
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.step as i32);
        let bc2 = 1.0 - b2.powi(self.step as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(p) = sum (p - target)^2
        let target = [3.0, -1.5, 0.25];
        let mut p = vec![0.0; 3];
        let mut opt = Adam::new(3, 0.05);
        for _ in 0..2000 {
            let g: Vec<f64> = p.iter().zip(&target).map(|(a, b)| 2.0 * (a - b)).collect();
            opt.step(&mut p, &g);
        }
        for (a, b) in p.iter().zip(&target) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn lr_decays() {
        let mut opt = Adam::new(1, 0.1);
        opt.decay_steps = 10;
        opt.decay_rate = 0.5;
        let lr_start = opt.lr();
        let mut p = vec![0.0];
        for _ in 0..10 {
            opt.step(&mut p, &[0.0]);
        }
        assert!((opt.lr() - lr_start * 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_grad_is_fixed_point() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[0.0, 0.0]);
        assert_eq!(p, vec![1.0, 2.0]);
    }

    #[test]
    fn state_roundtrip_continues_identically() {
        // Train A for 20 steps straight; train B for 10, snapshot, restore
        // into a fresh optimizer, train 10 more: parameters must agree
        // bitwise (the update is sequential, so this is exact).
        let grad_at = |p: &[f64]| -> Vec<f64> { p.iter().map(|a| 2.0 * (a - 1.0)).collect() };

        let mut opt_a = Adam::new(3, 0.05);
        let mut pa = vec![0.0, 5.0, -2.0];
        for _ in 0..20 {
            let g = grad_at(&pa);
            opt_a.step(&mut pa, &g);
        }

        let mut opt_b = Adam::new(3, 0.05);
        let mut pb = vec![0.0, 5.0, -2.0];
        for _ in 0..10 {
            let g = grad_at(&pb);
            opt_b.step(&mut pb, &g);
        }
        let saved = opt_b.state();
        assert_eq!(saved.step, 10);
        let mut opt_c = Adam::new(3, 0.05);
        opt_c.restore_state(saved);
        assert!((opt_c.lr() - opt_b.lr()).abs() == 0.0);
        for _ in 0..10 {
            let g = grad_at(&pb);
            opt_c.step(&mut pb, &g);
        }

        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "params, optimizer has")]
    fn restore_wrong_size_panics() {
        let mut opt = Adam::new(2, 0.1);
        let donor = Adam::new(3, 0.1);
        opt.restore_state(donor.state());
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn length_mismatch_panics() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0, 0.0];
        opt.step(&mut p, &[1.0]);
    }
}
