//! Hierarchical process-variation mapping.
//!
//! The paper extracts its independent variables by PCA over foundry
//! data. We build the statistically equivalent structure directly in
//! independent-factor form: each physical device parameter is a linear
//! combination of
//!
//! - a few **global (inter-die)** factors shared by every device,
//! - optional **spatial grid** factors shared by nearby devices, and
//! - one dedicated **local mismatch** factor (Pelgrom-style).
//!
//! All factors are independent standard normals, so the concatenated
//! factor vector *is* the paper's `ΔY`, what its PCA produces: no PCA
//! runs here, and the implied parameter covariance is never formed.

/// Sensitivities of one device's threshold voltage and
/// transconductance factor to the variation hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSigmas {
    /// Local (mismatch) ΔV_th sigma in volts.
    pub vth_local: f64,
    /// Global (inter-die) ΔV_th sigma in volts.
    pub vth_global: f64,
    /// Local relative Δβ/β sigma.
    pub beta_local: f64,
    /// Global relative Δβ/β sigma.
    pub beta_global: f64,
}

impl DeviceSigmas {
    /// Representative 65 nm-class analog device sigmas.
    pub fn analog_65nm() -> Self {
        DeviceSigmas {
            vth_local: 0.010,
            vth_global: 0.012,
            beta_local: 0.015,
            beta_global: 0.025,
        }
    }

    /// Representative 65 nm-class minimum-size SRAM cell device sigmas
    /// (mismatch dominates at minimum area).
    pub fn sram_cell_65nm() -> Self {
        DeviceSigmas {
            vth_local: 0.028,
            vth_global: 0.015,
            beta_local: 0.035,
            beta_global: 0.03,
        }
    }
}

/// The per-device draw produced by [`DeviceVariation::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDelta {
    /// Threshold shift ΔV_th (V), to be *added* to `vth0`.
    pub dvth: f64,
    /// Relative transconductance shift Δβ/β, to *scale* `kp` by
    /// `1 + dbeta_rel`.
    pub dbeta_rel: f64,
}

/// Maps a device's slice of the independent factor vector to physical
/// parameter shifts.
///
/// Factor layout convention used by both benchmark circuits:
/// `dy[g_vth]`/`dy[g_beta]` are the global V_th / β factors, and each
/// device owns two consecutive local factors starting at `local_base`.
#[derive(Debug, Clone, Copy)]
pub struct DeviceVariation {
    /// Index of the shared global ΔV_th factor.
    pub global_vth: usize,
    /// Index of the shared global Δβ factor.
    pub global_beta: usize,
    /// Index of this device's first local factor (ΔV_th); the Δβ local
    /// factor is `local_base + 1`.
    pub local_base: usize,
    /// Sigma set.
    pub sigmas: DeviceSigmas,
}

impl DeviceVariation {
    /// Evaluates the parameter shifts at a factor sample.
    ///
    /// # Panics
    ///
    /// Panics (debug) on out-of-range factor indices.
    pub fn apply(&self, dy: &[f64]) -> DeviceDelta {
        debug_assert!(self.local_base + 1 < dy.len());
        debug_assert!(self.global_vth < dy.len() && self.global_beta < dy.len());
        let s = &self.sigmas;
        DeviceDelta {
            dvth: s.vth_global * dy[self.global_vth] + s.vth_local * dy[self.local_base],
            dbeta_rel: s.beta_global * dy[self.global_beta]
                + s.beta_local * dy[self.local_base + 1],
        }
    }
}

/// A weak many-variable dependence: a nominal value modulated by a
/// window of fine-grained factors, `v = nominal·(1 + σ·Σ w_i·dy_i)`
/// with fixed pseudo-random weights `w_i` of unit RMS.
///
/// This models layout-parasitic variation: hundreds of variables that
/// each matter a little — the "long tail" whose model coefficients the
/// sparse solvers correctly drive to (near) zero.
#[derive(Debug, Clone)]
pub struct ParasiticSensitivity {
    /// First factor index of the window.
    pub base: usize,
    /// Number of factors in the window.
    pub count: usize,
    /// Overall relative sigma of the combined perturbation.
    pub sigma_rel: f64,
    /// Seed for the fixed weight pattern.
    pub seed: u64,
}

impl ParasiticSensitivity {
    /// Evaluates the relative perturbation `σ·Σ w_i·dy_i` (zero-mean,
    /// standard deviation ≈ `sigma_rel`).
    pub fn relative_shift(&self, dy: &[f64]) -> f64 {
        debug_assert!(self.base + self.count <= dy.len());
        if self.count == 0 {
            return 0.0;
        }
        let mut state = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xD1B54A32D192ED03);
        let mut acc = 0.0;
        for i in 0..self.count {
            state = state.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            // Fixed weight in [-1, 1].
            let w = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            acc += w * dy[self.base + i];
        }
        // Normalize to unit RMS: E[(Σ w_i z_i)²] = Σ w_i² ≈ count/3.
        let rms = (self.count as f64 / 3.0).sqrt();
        self.sigma_rel * acc / rms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_stats::{describe, NormalSampler};

    #[test]
    fn device_delta_combines_global_and_local() {
        let v = DeviceVariation {
            global_vth: 0,
            global_beta: 1,
            local_base: 2,
            sigmas: DeviceSigmas {
                vth_local: 0.01,
                vth_global: 0.02,
                beta_local: 0.03,
                beta_global: 0.05,
            },
        };
        let dy = [1.0, -1.0, 2.0, 0.5];
        let d = v.apply(&dy);
        assert!((d.dvth - (0.02 + 0.02)).abs() < 1e-15);
        assert!((d.dbeta_rel - (-0.05 + 0.015)).abs() < 1e-15);
    }

    #[test]
    fn global_factor_correlates_devices() {
        let mk = |local| DeviceVariation {
            global_vth: 0,
            global_beta: 1,
            local_base: local,
            sigmas: DeviceSigmas::analog_65nm(),
        };
        let (a, b) = (mk(2), mk(4));
        let mut s = NormalSampler::seed_from_u64(4);
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..20_000 {
            let dy = s.sample_vec(6);
            da.push(a.apply(&dy).dvth);
            db.push(b.apply(&dy).dvth);
        }
        let rho = describe::correlation(&da, &db);
        // Correlation = σ_g² / (σ_g² + σ_l²) = 0.012²/(0.012²+0.010²) ≈ 0.590.
        assert!((rho - 0.590).abs() < 0.03, "rho = {rho}");
    }

    #[test]
    fn parasitic_shift_is_zero_mean_unit_scaled() {
        let p = ParasiticSensitivity {
            base: 0,
            count: 60,
            sigma_rel: 0.01,
            seed: 7,
        };
        let mut s = NormalSampler::seed_from_u64(11);
        let shifts: Vec<f64> = (0..30_000)
            .map(|_| p.relative_shift(&s.sample_vec(60)))
            .collect();
        assert!(describe::mean(&shifts).abs() < 5e-4);
        let sd = describe::std_dev(&shifts);
        assert!((sd - 0.01).abs() < 0.002, "sd = {sd}");
    }

    #[test]
    fn parasitic_weights_are_deterministic() {
        let p = ParasiticSensitivity {
            base: 0,
            count: 10,
            sigma_rel: 0.05,
            seed: 3,
        };
        let dy: Vec<f64> = (0..10).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_eq!(p.relative_shift(&dy), p.relative_shift(&dy));
        let p2 = ParasiticSensitivity {
            seed: 4,
            ..p.clone()
        };
        assert_ne!(p.relative_shift(&dy), p2.relative_shift(&dy));
    }

    #[test]
    fn empty_window_is_zero() {
        let p = ParasiticSensitivity {
            base: 0,
            count: 0,
            sigma_rel: 0.05,
            seed: 1,
        };
        assert_eq!(p.relative_shift(&[]), 0.0);
    }
}
