//! The imaging kernel stack.
//!
//! Commercial OPC models decompose the partially coherent imaging operator
//! into a weighted sum of convolution kernels (SOCS). We keep the same
//! *structure* — a weighted stack of radially symmetric kernels applied by
//! separable convolution — with analytic center-surround Gaussians instead
//! of eigenfunctions of a measured optical system:
//!
//! `PSF = (1 + a)·G(σ_core) − a·G(σ_surround)` with `σ_surround ≫ σ_core`.
//!
//! The negative surround reproduces the proximity phenomenology that the
//! flow must exercise: iso-dense bias, line-end pullback, corner rounding,
//! and through-focus CD walk (defocus widens the core). The clear-field
//! response is normalized to exactly 1.0 so a constant resist threshold is
//! meaningful across conditions.

use crate::optics::{OpticsParams, ProcessConditions};

/// One kernel of the stack: a normalized Gaussian with a signed weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImagingKernel {
    /// Signed contribution weight (weights sum to 1.0 across the stack).
    pub weight: f64,
    /// Gaussian width in nm (already including defocus blur).
    pub sigma_nm: f64,
}

/// Stack capacity: center + surround is the widest stack in use. A fixed
/// inline array keeps [`KernelStack`] construction allocation-free — it is
/// rebuilt per simulation in the imaging hot loop.
const MAX_KERNELS: usize = 2;

/// Placeholder for unused stack slots; a constant so derived `PartialEq`
/// compares stacks by their live kernels only.
const EMPTY_KERNEL: ImagingKernel = ImagingKernel {
    weight: 0.0,
    sigma_nm: 0.0,
};

/// The kernel stack for a set of optics at given process conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStack {
    kernels: [ImagingKernel; MAX_KERNELS],
    len: usize,
}

impl KernelStack {
    /// Builds the center-surround stack for `optics` at `conditions`.
    pub fn new(optics: &OpticsParams, conditions: &ProcessConditions) -> KernelStack {
        let defocus_blur = optics.defocus_coeff * conditions.focus_nm.abs();
        let core = (optics.core_sigma_nm().powi(2) + defocus_blur.powi(2)).sqrt();
        let surround = core * optics.surround_ratio;
        let a = optics.surround_weight;
        KernelStack {
            kernels: [
                ImagingKernel {
                    weight: 1.0 + a,
                    sigma_nm: core,
                },
                ImagingKernel {
                    weight: -a,
                    sigma_nm: surround,
                },
            ],
            len: 2,
        }
    }

    /// A single-Gaussian stack (the ablation baseline: pure blur, no
    /// proximity interaction).
    pub fn single_gaussian(optics: &OpticsParams, conditions: &ProcessConditions) -> KernelStack {
        let defocus_blur = optics.defocus_coeff * conditions.focus_nm.abs();
        let core = (optics.core_sigma_nm().powi(2) + defocus_blur.powi(2)).sqrt();
        KernelStack {
            kernels: [
                ImagingKernel {
                    weight: 1.0,
                    sigma_nm: core,
                },
                EMPTY_KERNEL,
            ],
            len: 1,
        }
    }

    /// The kernels of the stack.
    pub fn kernels(&self) -> &[ImagingKernel] {
        &self.kernels[..self.len]
    }

    /// Largest kernel width — the lithographic interaction range driver.
    pub fn max_sigma_nm(&self) -> f64 {
        self.kernels()
            .iter()
            .map(|k| k.sigma_nm)
            .fold(0.0, f64::max)
    }

    /// The optical ambit: context margin (in nm) a simulation window needs
    /// so border features image correctly (3σ of the widest kernel).
    pub fn ambit_nm(&self) -> f64 {
        3.0 * self.max_sigma_nm()
    }

    /// Samples a kernel as a discrete, odd-length separable 1-D Gaussian at
    /// the given pixel pitch, truncated at 3σ and normalized to sum 1.
    pub fn discretize(kernel: &ImagingKernel, pixel_nm: f64) -> Vec<f64> {
        let half = ((3.0 * kernel.sigma_nm / pixel_nm).ceil() as usize).max(1);
        let mut taps = Vec::with_capacity(2 * half + 1);
        let s = kernel.sigma_nm / pixel_nm;
        for i in 0..(2 * half + 1) {
            let x = i as f64 - half as f64;
            taps.push((-0.5 * (x / s).powi(2)).exp());
        }
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        taps
    }
}

/// Upper bound on retained tap vectors; beyond it the oldest entry is
/// evicted. A flow touches few distinct `(σ, pixel)` pairs — one per focus
/// condition per kernel — so 64 covers every focus sweep in the repo with
/// room to spare while bounding worst-case memory.
const TAP_CACHE_CAP: usize = 64;

/// Memoizes [`KernelStack::discretize`] by its exact inputs — the bit
/// patterns of `(kernel.sigma_nm, pixel_nm)` (weight does not enter the
/// discretization) — so taps are computed once per distinct imaging
/// condition instead of once per simulation window.
///
/// Lookup is a linear scan: the working set is a handful of entries and a
/// scan over inline keys beats hashing at that size.
#[derive(Debug, Default, Clone)]
pub(crate) struct TapCache {
    entries: Vec<TapEntry>,
}

#[derive(Debug, Clone)]
struct TapEntry {
    key: (u64, u64),
    taps: Vec<f64>,
}

impl TapCache {
    /// The discretized taps for `kernel` at `pixel_nm`, computed on first
    /// use and served from the cache afterwards.
    pub(crate) fn taps(&mut self, kernel: &ImagingKernel, pixel_nm: f64) -> &[f64] {
        let key = (kernel.sigma_nm.to_bits(), pixel_nm.to_bits());
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            return &self.entries[pos].taps;
        }
        if self.entries.len() >= TAP_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push(TapEntry {
            key,
            taps: KernelStack::discretize(kernel, pixel_nm),
        });
        &self.entries[self.entries.len() - 1].taps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal_stack() -> KernelStack {
        KernelStack::new(&OpticsParams::default(), &ProcessConditions::nominal())
    }

    #[test]
    fn weights_sum_to_unity() {
        let total: f64 = nominal_stack().kernels().iter().map(|k| k.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn surround_is_wider_than_core() {
        let s = nominal_stack();
        assert!(s.kernels()[1].sigma_nm > 2.0 * s.kernels()[0].sigma_nm);
        assert!(s.kernels()[1].weight < 0.0);
    }

    #[test]
    fn defocus_widens_the_core() {
        let optics = OpticsParams::default();
        let focused = KernelStack::new(&optics, &ProcessConditions::nominal());
        let defocused = KernelStack::new(
            &optics,
            &ProcessConditions {
                focus_nm: 200.0,
                dose: 1.0,
            },
        );
        assert!(defocused.kernels()[0].sigma_nm > focused.kernels()[0].sigma_nm);
        // Negative focus blurs identically (focus enters as |f|).
        let neg = KernelStack::new(
            &optics,
            &ProcessConditions {
                focus_nm: -200.0,
                dose: 1.0,
            },
        );
        assert_eq!(neg, defocused);
    }

    #[test]
    fn discrete_kernel_is_odd_normalized_symmetric() {
        let k = ImagingKernel {
            weight: 1.0,
            sigma_nm: 42.0,
        };
        let taps = KernelStack::discretize(&k, 5.0);
        assert_eq!(taps.len() % 2, 1);
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for i in 0..taps.len() / 2 {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-15);
        }
        // Peak at the center.
        let mid = taps.len() / 2;
        assert!(taps.iter().all(|&t| t <= taps[mid]));
    }

    #[test]
    fn ambit_covers_interaction_range() {
        let s = nominal_stack();
        assert!(s.ambit_nm() > 250.0, "ambit = {}", s.ambit_nm());
        assert!(s.ambit_nm() < 1000.0);
    }

    #[test]
    fn single_gaussian_has_one_kernel() {
        let s =
            KernelStack::single_gaussian(&OpticsParams::default(), &ProcessConditions::nominal());
        assert_eq!(s.kernels().len(), 1);
        assert_eq!(s.kernels()[0].weight, 1.0);
    }

    #[test]
    fn tap_cache_returns_discretize_results() {
        let mut cache = TapCache::default();
        let k = ImagingKernel {
            weight: 1.3,
            sigma_nm: 42.0,
        };
        let fresh = KernelStack::discretize(&k, 5.0);
        assert_eq!(cache.taps(&k, 5.0), &fresh[..]);
        assert_eq!(cache.entries.len(), 1);
        // Second call is a hit, not a second entry.
        assert_eq!(cache.taps(&k, 5.0), &fresh[..]);
        assert_eq!(cache.entries.len(), 1);
        // Weight is not part of the key: same σ and pixel share taps.
        let reweighted = ImagingKernel { weight: -0.3, ..k };
        assert_eq!(cache.taps(&reweighted, 5.0), &fresh[..]);
        assert_eq!(cache.entries.len(), 1);
    }

    #[test]
    fn tap_cache_distinguishes_sigma_and_pixel() {
        let mut cache = TapCache::default();
        let a = ImagingKernel {
            weight: 1.0,
            sigma_nm: 30.0,
        };
        let b = ImagingKernel {
            weight: 1.0,
            sigma_nm: 90.0,
        };
        let na = cache.taps(&a, 5.0).len();
        let nb = cache.taps(&b, 5.0).len();
        assert!(nb > na);
        let nc = cache.taps(&a, 2.5).len();
        assert!(nc > na);
        assert_eq!(cache.entries.len(), 3);
    }

    #[test]
    fn tap_cache_evicts_at_capacity() {
        let mut cache = TapCache::default();
        for i in 0..(TAP_CACHE_CAP + 8) {
            let k = ImagingKernel {
                weight: 1.0,
                sigma_nm: 20.0 + i as f64,
            };
            let _ = cache.taps(&k, 5.0);
        }
        assert_eq!(cache.entries.len(), TAP_CACHE_CAP);
        // The oldest entries were evicted; the newest survive.
        let newest = ImagingKernel {
            weight: 1.0,
            sigma_nm: 20.0 + (TAP_CACHE_CAP + 7) as f64,
        };
        let before = cache.entries.len();
        let _ = cache.taps(&newest, 5.0);
        assert_eq!(cache.entries.len(), before);
    }
}
