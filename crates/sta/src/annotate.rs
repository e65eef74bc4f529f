//! Back-annotation containers: per-gate printed channel lengths and
//! per-net printed wire widths.
//!
//! This is the interface between post-OPC extraction (the `cdex` crate)
//! and timing: extraction fills a [`CdAnnotation`]; the timing model
//! consumes it in place of drawn dimensions.

use crate::error::{Result, StaError};
use postopc_device::MosKind;
use postopc_layout::{GateId, NetId, Netlist};
use std::collections::HashMap;

/// Extracted critical dimensions of one transistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransistorCd {
    /// Device polarity.
    pub kind: MosKind,
    /// Channel width in nm.
    pub width_nm: f64,
    /// Delay-equivalent channel length in nm (slice-reduced).
    pub l_delay_nm: f64,
    /// Leakage-equivalent channel length in nm (slice-reduced).
    pub l_leakage_nm: f64,
    /// Which logic input drives this finger (`None` for internal stages).
    pub input_pin: Option<usize>,
    /// Finger index within the cell.
    pub finger: usize,
}

impl TransistorCd {
    /// A drawn (un-extracted) transistor record at the nominal length.
    pub fn drawn(
        kind: MosKind,
        width_nm: f64,
        l_nm: f64,
        input_pin: Option<usize>,
        finger: usize,
    ) -> TransistorCd {
        TransistorCd {
            kind,
            width_nm,
            l_delay_nm: l_nm,
            l_leakage_nm: l_nm,
            input_pin,
            finger,
        }
    }
}

/// Extracted CDs of one gate instance (one record per transistor finger).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateAnnotation {
    /// Per-finger extracted CDs.
    pub transistors: Vec<TransistorCd>,
}

/// Extracted printed geometry of one routed net (multi-layer extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetAnnotation {
    /// Printed wire width in nm.
    pub printed_width_nm: f64,
}

/// A complete back-annotation: the output of post-OPC extraction, the
/// input of silicon-calibrated timing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CdAnnotation {
    gates: HashMap<GateId, GateAnnotation>,
    nets: HashMap<NetId, NetAnnotation>,
}

impl CdAnnotation {
    /// An empty annotation (timing falls back to drawn dimensions).
    pub fn new() -> CdAnnotation {
        CdAnnotation::default()
    }

    /// Sets the extracted CDs of a gate.
    pub fn set_gate(&mut self, gate: GateId, annotation: GateAnnotation) {
        self.gates.insert(gate, annotation);
    }

    /// Sets the extracted printed width of a net.
    pub fn set_net(&mut self, net: NetId, annotation: NetAnnotation) {
        self.nets.insert(net, annotation);
    }

    /// The extracted CDs of a gate, if annotated.
    pub fn gate(&self, gate: GateId) -> Option<&GateAnnotation> {
        self.gates.get(&gate)
    }

    /// The extracted wire data of a net, if annotated.
    pub fn net(&self, net: NetId) -> Option<&NetAnnotation> {
        self.nets.get(&net)
    }

    /// Number of annotated gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of annotated nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterator over annotated gates.
    pub fn gates(&self) -> impl Iterator<Item = (&GateId, &GateAnnotation)> {
        self.gates.iter()
    }

    /// Iterator over annotated nets.
    pub fn nets(&self) -> impl Iterator<Item = (&NetId, &NetAnnotation)> {
        self.nets.iter()
    }

    /// Rejects an annotation naming a gate or net `netlist` does not have
    /// — every engine indexes per-gate and per-net state by these ids.
    /// Checked before an evaluation writes any state.
    ///
    /// # Errors
    ///
    /// [`StaError::UnknownAnnotation`] naming the lowest unknown gate id,
    /// else the lowest unknown net id (independent of map order, so every
    /// engine reports the same one).
    pub(crate) fn check_ids(&self, netlist: &Netlist) -> Result<()> {
        let unknown_gate = self
            .gates
            .keys()
            .map(|g| g.0 as usize)
            .filter(|&i| i >= netlist.gate_count())
            .min();
        if let Some(index) = unknown_gate {
            return Err(StaError::UnknownAnnotation {
                kind: "gate",
                index,
            });
        }
        let unknown_net = self
            .nets
            .keys()
            .map(|n| n.0 as usize)
            .filter(|&i| i >= netlist.nets().len())
            .min();
        match unknown_net {
            Some(index) => Err(StaError::UnknownAnnotation { kind: "net", index }),
            None => Ok(()),
        }
    }

    /// Mean delay-equivalent length over all annotated transistors, or
    /// `None` if nothing is annotated (a quick sanity statistic).
    pub fn mean_l_delay_nm(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for g in self.gates.values() {
            for t in &g.transistors {
                sum += t.l_delay_nm;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_round_trip() {
        let mut ann = CdAnnotation::new();
        assert_eq!(ann.gate_count(), 0);
        ann.set_gate(
            GateId(3),
            GateAnnotation {
                transistors: vec![TransistorCd::drawn(MosKind::Nmos, 420.0, 91.5, Some(0), 0)],
            },
        );
        ann.set_net(
            NetId(7),
            NetAnnotation {
                printed_width_nm: 117.0,
            },
        );
        assert_eq!(ann.gate_count(), 1);
        assert_eq!(ann.net_count(), 1);
        assert_eq!(ann.gate(GateId(3)).expect("present").transistors.len(), 1);
        assert!(ann.gate(GateId(4)).is_none());
        assert_eq!(ann.net(NetId(7)).expect("present").printed_width_nm, 117.0);
    }

    #[test]
    fn drawn_record_has_equal_lengths() {
        let t = TransistorCd::drawn(MosKind::Pmos, 640.0, 90.0, None, 2);
        assert_eq!(t.l_delay_nm, t.l_leakage_nm);
        assert_eq!(t.finger, 2);
    }

    #[test]
    fn mean_l_delay() {
        let mut ann = CdAnnotation::new();
        assert!(ann.mean_l_delay_nm().is_none());
        ann.set_gate(
            GateId(0),
            GateAnnotation {
                transistors: vec![
                    TransistorCd::drawn(MosKind::Nmos, 420.0, 88.0, Some(0), 0),
                    TransistorCd::drawn(MosKind::Pmos, 640.0, 92.0, Some(0), 0),
                ],
            },
        );
        assert_eq!(ann.mean_l_delay_nm(), Some(90.0));
    }
}
