//! Process parameters for the 90 nm-class technology model.
//!
//! The workspace substitutes foundry BSIM decks with an alpha-power-law
//! model (Sakurai–Newton) plus a short-channel V_th roll-off. Only the
//! *sensitivities* matter for reproducing the paper: delay and leakage must
//! respond to printed gate length the way silicon does — super-linearly,
//! and much more steeply for leakage than for delay.

/// Technology constants shared by all device evaluations.
///
/// Units: volts, nm, µA, fF, kΩ, ps (so that kΩ·fF = ps exactly).
///
/// ```
/// use postopc_device::ProcessParams;
/// let p = ProcessParams::n90();
/// assert_eq!(p.l_nominal_nm, 90.0);
/// assert!(p.vdd > 1.0 && p.vdd < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Nominal (drawn) gate length in nm.
    pub l_nominal_nm: f64,
    /// Long-channel NMOS threshold voltage in volts.
    pub vth0_n: f64,
    /// Long-channel PMOS threshold voltage magnitude in volts.
    pub vth0_p: f64,
    /// Velocity-saturation exponent of the alpha-power law (1 = fully
    /// velocity saturated, 2 = long-channel square law).
    pub alpha: f64,
    /// NMOS transconductance factor: `I_on = k_n (W/L) (Vdd - Vth)^alpha`
    /// in µA per square.
    pub k_n: f64,
    /// PMOS transconductance factor in µA per square.
    pub k_p: f64,
    /// Short-channel V_th roll-off amplitude in volts:
    /// `Vth(L) = Vth0 - a · exp(-L / lambda)`.
    pub vth_rolloff_v: f64,
    /// Roll-off characteristic length in nm.
    pub vth_rolloff_lambda_nm: f64,
    /// Subthreshold swing in mV/decade.
    pub subthreshold_swing_mv: f64,
    /// Leakage prefactor: `I_off = i_leak0 (W/L) 10^(-Vth / S)` in µA.
    pub i_leak0: f64,
    /// Gate-oxide areal capacitance in fF/nm².
    pub c_ox: f64,
    /// Gate overlap/fringe capacitance in fF per nm of width.
    pub c_overlap: f64,
    /// Effective junction (drain) capacitance in fF per nm of width.
    pub c_junction: f64,
}

impl ProcessParams {
    /// The 90 nm-class process used throughout the reproduction
    /// (λ = 193 nm lithography generation; see `DESIGN.md`).
    ///
    /// Calibration sanity targets: a W = 1 µm NMOS at nominal L drives
    /// ≈ 500–700 µA, leaks tens of nA, and has ≈ 1.5–2.5 fF of gate
    /// capacitance — consistent with published 90 nm data.
    pub fn n90() -> ProcessParams {
        ProcessParams {
            vdd: 1.2,
            l_nominal_nm: 90.0,
            vth0_n: 0.32,
            vth0_p: 0.35,
            alpha: 1.3,
            k_n: 62.0,
            k_p: 28.0,
            vth_rolloff_v: 30.0,
            vth_rolloff_lambda_nm: 13.0,
            subthreshold_swing_mv: 85.0,
            i_leak0: 2.2,
            c_ox: 1.7e-5,
            c_overlap: 2.6e-4,
            c_junction: 4.0e-4,
        }
    }
}

impl Default for ProcessParams {
    fn default() -> Self {
        ProcessParams::n90()
    }
}

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosKind {
    /// N-channel device (pull-down).
    Nmos,
    /// P-channel device (pull-up).
    Pmos,
}

impl std::fmt::Display for MosKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosKind::Nmos => f.write_str("nmos"),
            MosKind::Pmos => f.write_str("pmos"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_n90() {
        assert_eq!(ProcessParams::default(), ProcessParams::n90());
    }

    #[test]
    fn voltage_scaling_slows_delay() {
        use crate::mosfet::Mosfet;
        use crate::params::MosKind;
        let nominal = ProcessParams::n90();
        let low = ProcessParams {
            vdd: 0.9,
            ..nominal.clone()
        };
        let d = Mosfet::new(MosKind::Nmos, 1000.0, 90.0).expect("device");
        // R_eff ∝ Vdd/(Vdd - Vth)^alpha grows as Vdd drops toward Vth.
        assert!(d.r_eff(&low) > 1.2 * d.r_eff(&nominal));
        // Subthreshold leakage is Vdd-independent in this model.
        assert!((d.i_off(&low) - d.i_off(&nominal)).abs() < 1e-12);
    }

    #[test]
    fn rolloff_is_meaningful_at_nominal() {
        // The roll-off term must be a few tens of mV at nominal L so that
        // printed-CD variation of a few nm visibly moves Vth.
        let p = ProcessParams::n90();
        let dv = p.vth_rolloff_v * (-p.l_nominal_nm / p.vth_rolloff_lambda_nm).exp();
        assert!(dv > 0.01 && dv < 0.1, "roll-off at nominal = {dv} V");
    }
}
