//! Alpha-power-law MOSFET evaluation.

use crate::error::{DeviceError, Result};
use crate::params::{MosKind, ProcessParams};

/// A single rectangular-gate transistor.
///
/// ```
/// use postopc_device::{Mosfet, MosKind, ProcessParams};
/// # fn main() -> Result<(), postopc_device::DeviceError> {
/// let p = ProcessParams::n90();
/// let n = Mosfet::new(MosKind::Nmos, 1000.0, 90.0)?;
/// let short = Mosfet::new(MosKind::Nmos, 1000.0, 85.0)?;
/// // A shorter printed channel is faster (more current) but leaks more.
/// assert!(short.i_on(&p) > n.i_on(&p));
/// assert!(short.i_off(&p) > n.i_off(&p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    kind: MosKind,
    w_nm: f64,
    l_nm: f64,
}

impl Mosfet {
    /// Creates a transistor with the given drawn/printed dimensions in nm.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidDimension`] if either dimension is
    /// non-positive or non-finite.
    pub fn new(kind: MosKind, w_nm: f64, l_nm: f64) -> Result<Mosfet> {
        if !(w_nm.is_finite() && w_nm > 0.0) {
            return Err(DeviceError::InvalidDimension {
                name: "W",
                value: w_nm,
            });
        }
        if !(l_nm.is_finite() && l_nm > 0.0) {
            return Err(DeviceError::InvalidDimension {
                name: "L",
                value: l_nm,
            });
        }
        Ok(Mosfet { kind, w_nm, l_nm })
    }

    /// Transistor polarity.
    pub fn kind(&self) -> MosKind {
        self.kind
    }

    /// Channel width in nm.
    pub fn width_nm(&self) -> f64 {
        self.w_nm
    }

    /// Channel length in nm.
    pub fn length_nm(&self) -> f64 {
        self.l_nm
    }

    /// Threshold voltage in volts, including short-channel roll-off:
    /// `Vth(L) = Vth0 − a · exp(−L/λ)`.
    pub fn vth(&self, p: &ProcessParams) -> f64 {
        let vth0 = match self.kind {
            MosKind::Nmos => p.vth0_n,
            MosKind::Pmos => p.vth0_p,
        };
        vth0 - p.vth_rolloff_v * (-self.l_nm / p.vth_rolloff_lambda_nm).exp()
    }

    /// Saturation drive current in µA (alpha-power law). Clamped to a tiny
    /// positive value if the overdrive is non-positive (off device).
    pub fn i_on(&self, p: &ProcessParams) -> f64 {
        let k = match self.kind {
            MosKind::Nmos => p.k_n,
            MosKind::Pmos => p.k_p,
        };
        let overdrive = (p.vdd - self.vth(p)).max(0.0);
        (k * (self.w_nm / self.l_nm) * overdrive.powf(p.alpha)).max(1e-9)
    }

    /// Subthreshold leakage current in µA:
    /// `I_off = i0 (W/L) 10^(−Vth / S)`.
    pub fn i_off(&self, p: &ProcessParams) -> f64 {
        let s_v = p.subthreshold_swing_mv / 1000.0;
        p.i_leak0 * (self.w_nm / self.l_nm) * 10f64.powf(-self.vth(p) / s_v)
    }

    /// Total gate capacitance in fF (area + overlap/fringe).
    pub fn c_gate(&self, p: &ProcessParams) -> f64 {
        p.c_ox * self.w_nm * self.l_nm + p.c_overlap * self.w_nm
    }

    /// Drain junction capacitance in fF.
    pub fn c_drain(&self, p: &ProcessParams) -> f64 {
        p.c_junction * self.w_nm
    }

    /// Effective switching resistance in kΩ, defined as
    /// `R = Vdd / I_on` with unit bookkeeping (V/µA = MΩ → ×1000 kΩ).
    ///
    /// With capacitance in fF this gives delays directly in ps
    /// (kΩ · fF = ps).
    pub fn r_eff(&self, p: &ProcessParams) -> f64 {
        1000.0 * p.vdd / self.i_on(p)
    }
}

impl std::fmt::Display for Mosfet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} W={}nm L={}nm", self.kind, self.w_nm, self.l_nm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ProcessParams {
        ProcessParams::n90()
    }

    fn nmos(w: f64, l: f64) -> Mosfet {
        Mosfet::new(MosKind::Nmos, w, l).expect("valid device")
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Mosfet::new(MosKind::Nmos, 0.0, 90.0).is_err());
        assert!(Mosfet::new(MosKind::Nmos, 100.0, -1.0).is_err());
        assert!(Mosfet::new(MosKind::Pmos, f64::NAN, 90.0).is_err());
    }

    #[test]
    fn nominal_nmos_current_in_calibrated_range() {
        // ~500-700 uA/um is the published 90 nm ballpark.
        let i = nmos(1000.0, 90.0).i_on(&p());
        assert!((450.0..750.0).contains(&i), "I_on = {i} µA/µm");
    }

    #[test]
    fn nominal_leakage_in_calibrated_range() {
        // Tens of nA per µm.
        let i = nmos(1000.0, 90.0).i_off(&p()) * 1000.0; // nA
        assert!((1.0..100.0).contains(&i), "I_off = {i} nA/µm");
    }

    #[test]
    fn gate_cap_in_calibrated_range() {
        let c = nmos(1000.0, 90.0).c_gate(&p());
        assert!((1.0..3.0).contains(&c), "C_gate = {c} fF/µm");
    }

    #[test]
    fn current_scales_with_width() {
        let a = nmos(500.0, 90.0).i_on(&p());
        let b = nmos(1000.0, 90.0).i_on(&p());
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shorter_channel_is_monotonically_faster_and_leakier() {
        let pp = p();
        let mut last_ion = 0.0;
        let mut last_ioff = 0.0;
        for l in [100.0, 95.0, 90.0, 85.0, 80.0] {
            let d = nmos(1000.0, l);
            assert!(d.i_on(&pp) > last_ion, "I_on not monotone at L={l}");
            assert!(d.i_off(&pp) > last_ioff, "I_off not monotone at L={l}");
            last_ion = d.i_on(&pp);
            last_ioff = d.i_off(&pp);
        }
    }

    #[test]
    fn leakage_is_much_more_cd_sensitive_than_drive() {
        let pp = p();
        let nom = nmos(1000.0, 90.0);
        let short = nmos(1000.0, 81.0); // -10% CD
        let ion_ratio = short.i_on(&pp) / nom.i_on(&pp);
        let ioff_ratio = short.i_off(&pp) / nom.i_off(&pp);
        assert!(ion_ratio > 1.05 && ion_ratio < 1.5, "ion ratio {ion_ratio}");
        assert!(
            ioff_ratio > 2.0,
            "ioff ratio {ioff_ratio} should be exponential"
        );
    }

    #[test]
    fn pmos_is_weaker_than_nmos() {
        let pp = p();
        let n = nmos(1000.0, 90.0);
        let pm = Mosfet::new(MosKind::Pmos, 1000.0, 90.0).expect("valid");
        assert!(n.i_on(&pp) > 1.5 * pm.i_on(&pp));
    }

    #[test]
    fn r_eff_times_c_gives_picoseconds() {
        let pp = p();
        let d = nmos(1000.0, 90.0);
        // FO4-ish delay sanity: R_eff * 4*C_gate should be a few ps.
        let tau = d.r_eff(&pp) * 4.0 * d.c_gate(&pp);
        assert!((1.0..100.0).contains(&tau), "tau = {tau} ps");
    }
}
