//! Optical system parameters and process conditions.

use crate::error::{LithoError, Result};

/// Parameters of the projection optics.
///
/// The reproduction targets the 193 nm / NA 0.75 generation the paper's
/// 90 nm-class process used, giving k₁ = CD·NA/λ ≈ 0.35 for the 90 nm
/// drawn gate — deep in the regime where proximity effects demand OPC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticsParams {
    /// Exposure wavelength in nm.
    pub wavelength_nm: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Partial coherence factor (σ of the illuminator).
    pub sigma: f64,
    /// Center-surround weight of the kernel stack: the fraction of the
    /// point-spread function carried by the negative surround lobe that
    /// produces proximity interactions (0 = pure Gaussian blur).
    pub surround_weight: f64,
    /// Surround-to-core width ratio of the kernel stack.
    pub surround_ratio: f64,
    /// Defocus blur coefficient: core width grows as
    /// `sqrt(sigma_core² + (defocus_coeff · focus)²)`.
    pub defocus_coeff: f64,
}

impl OpticsParams {
    /// 193 nm / NA 0.75 / σ 0.6 conventional illumination — the paper-era
    /// exposure tool.
    pub fn argon_fluoride_075() -> OpticsParams {
        OpticsParams {
            wavelength_nm: 193.0,
            na: 0.75,
            sigma: 0.6,
            surround_weight: 0.3,
            surround_ratio: 2.5,
            defocus_coeff: 0.25,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidOptics`] for out-of-range values
    /// (non-positive wavelength, NA outside (0, 1.5], σ outside [0, 1],
    /// negative weights/ratios).
    pub fn validate(&self) -> Result<()> {
        if !(self.wavelength_nm.is_finite() && self.wavelength_nm > 0.0) {
            return Err(LithoError::InvalidOptics {
                name: "wavelength",
                value: self.wavelength_nm,
            });
        }
        if !(self.na > 0.0 && self.na <= 1.5) {
            return Err(LithoError::InvalidOptics {
                name: "NA",
                value: self.na,
            });
        }
        if !(0.0..=1.0).contains(&self.sigma) {
            return Err(LithoError::InvalidOptics {
                name: "sigma",
                value: self.sigma,
            });
        }
        if !(0.0..1.0).contains(&self.surround_weight) {
            return Err(LithoError::InvalidOptics {
                name: "surround_weight",
                value: self.surround_weight,
            });
        }
        if self.surround_ratio <= 1.0 {
            return Err(LithoError::InvalidOptics {
                name: "surround_ratio",
                value: self.surround_ratio,
            });
        }
        if self.defocus_coeff < 0.0 {
            return Err(LithoError::InvalidOptics {
                name: "defocus_coeff",
                value: self.defocus_coeff,
            });
        }
        Ok(())
    }

    /// The in-focus core blur width in nm, derived from λ/NA and the
    /// partial coherence (more coherent → slightly sharper).
    pub fn core_sigma_nm(&self) -> f64 {
        // 0.21 λ/NA is the classic Gaussian-equivalent image blur for a
        // partially coherent system; σ trimming is a small correction.
        0.21 * self.wavelength_nm / self.na * (1.0 - 0.15 * (self.sigma - 0.5))
    }
}

impl Default for OpticsParams {
    fn default() -> Self {
        OpticsParams::argon_fluoride_075()
    }
}

/// Exposure conditions: focus and dose, the two axes of the process window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessConditions {
    /// Defocus in nm (0 = best focus).
    pub focus_nm: f64,
    /// Relative exposure dose (1 = nominal).
    pub dose: f64,
}

impl ProcessConditions {
    /// Nominal conditions: best focus, nominal dose.
    pub fn nominal() -> ProcessConditions {
        ProcessConditions {
            focus_nm: 0.0,
            dose: 1.0,
        }
    }

    /// Validates the conditions (finite, in-band), mirroring
    /// [`OpticsParams::validate`]. The bands are deliberately generous —
    /// ±5 µm defocus and (0, 10] relative dose cover any plausible sweep —
    /// so this rejects corruption (NaN, ∞, negated dose), not exploration.
    ///
    /// # Errors
    ///
    /// [`LithoError::InvalidOptics`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !self.focus_nm.is_finite() || self.focus_nm.abs() > 5000.0 {
            return Err(LithoError::InvalidOptics {
                name: "focus_nm",
                value: self.focus_nm,
            });
        }
        if !(self.dose.is_finite() && self.dose > 0.0 && self.dose <= 10.0) {
            return Err(LithoError::InvalidOptics {
                name: "dose",
                value: self.dose,
            });
        }
        Ok(())
    }
}

impl Default for ProcessConditions {
    fn default() -> Self {
        ProcessConditions::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_optics_validate() {
        OpticsParams::default().validate().expect("valid defaults");
    }

    #[test]
    fn conditions_validation_rejects_out_of_band() {
        ProcessConditions::nominal()
            .validate()
            .expect("nominal is valid");
        for bad in [
            ProcessConditions {
                focus_nm: f64::NAN,
                dose: 1.0,
            },
            ProcessConditions {
                focus_nm: 1e6,
                dose: 1.0,
            },
            ProcessConditions {
                focus_nm: 0.0,
                dose: 0.0,
            },
            ProcessConditions {
                focus_nm: 0.0,
                dose: f64::INFINITY,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn core_sigma_is_tens_of_nm() {
        let s = OpticsParams::default().core_sigma_nm();
        assert!((30.0..80.0).contains(&s), "sigma = {s}");
    }

    #[test]
    fn rejects_out_of_range() {
        let o = OpticsParams {
            na: 2.0,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        let o = OpticsParams {
            sigma: 1.5,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        let o = OpticsParams {
            surround_ratio: 0.5,
            ..Default::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn nominal_conditions() {
        let c = ProcessConditions::nominal();
        assert_eq!(c.focus_nm, 0.0);
        assert_eq!(c.dose, 1.0);
        assert_eq!(ProcessConditions::default(), c);
    }
}
