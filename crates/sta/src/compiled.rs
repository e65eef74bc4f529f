//! The compiled sample evaluator: everything annotation-invariant is
//! precomputed once by [`TimingModel::compile`], and each evaluation runs
//! against reusable scratch buffers — no per-sample `HashMap`, no
//! re-built `Wire`s, no re-cloned base records, no fresh result vectors
//! in the Monte Carlo hot loop.
//!
//! The evaluator is a pure refactoring of [`TimingModel::analyze`]: every
//! float operation happens on the same values in the same order, so the
//! results are **bit-identical** to the naive path (enforced by the
//! `compiled_parity` reference-implementation tests). Characterization is
//! a pure function of each call's inputs — the scratch holds buffers
//! only, so no answer depends on what it evaluated before. Workloads that
//! shift every gate uniformly (corners, the Monte Carlo shift table, the
//! tail-sampling sensitivity pass) deduplicate gates into distinct cells
//! first and run the device model once per cell, not once per gate.

use crate::annotate::{CdAnnotation, TransistorCd};
use crate::error::{Result, StaError};
use crate::graph::{TimingModel, TimingReport};
use crate::liberty::{CellTiming, CLOCK_SLEW_PS, PRIMARY_INPUT_SLEW_PS};
use postopc_device::Wire;
use postopc_layout::{GateId, GateKind, NetId};
use std::collections::HashMap;

/// Samples the Monte Carlo evaluator processes per gate visit.
///
/// Lane state is stored as `[f64; LANES]` arrays (structure-of-arrays per
/// net/gate), so the per-lane loops compile to straight-line vector code in
/// release builds without any architecture-specific intrinsics. Eight lanes
/// amortize the per-gate walk (topological order, netlist indirections,
/// endpoint pushes) across eight samples while keeping the per-batch state
/// well inside L2 for realistic designs.
pub const LANES: usize = 8;

/// Exact-bit equality of two cell timings. The incremental (ECO) path
/// must treat `-0.0`/`+0.0` and distinct NaN payloads as *different* —
/// `PartialEq` would not — because "unchanged" there means "the stored
/// bits the full pass would have produced".
fn timing_bits_eq(a: &CellTiming, b: &CellTiming) -> bool {
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let seq = match (&a.sequential, &b.sequential) {
        (None, None) => true,
        (Some(x), Some(y)) => bits(x.clk_to_q_ps, y.clk_to_q_ps) && bits(x.setup_ps, y.setup_ps),
        _ => false,
    };
    seq && bits(a.input_cap_ff, b.input_cap_ff)
        && bits(a.pull_up_r_kohm, b.pull_up_r_kohm)
        && bits(a.pull_down_r_kohm, b.pull_down_r_kohm)
        && bits(a.intrinsic_ps, b.intrinsic_ps)
        && bits(a.output_cap_ff, b.output_cap_ff)
        && bits(a.leakage_ua, b.leakage_ua)
        && a.nldm
            .load_axis_ff
            .iter()
            .zip(b.nldm.load_axis_ff.iter())
            .all(|(x, y)| bits(*x, *y))
        && a.nldm
            .delay_grid_ps
            .iter()
            .flatten()
            .zip(b.nldm.delay_grid_ps.iter().flatten())
            .all(|(x, y)| bits(*x, *y))
        && a.nldm
            .slew_grid_ps
            .iter()
            .flatten()
            .zip(b.nldm.slew_grid_ps.iter().flatten())
            .all(|(x, y)| bits(*x, *y))
}

/// Summary of one evaluated sample — the quantities Monte Carlo keeps,
/// produced without materializing a full [`TimingReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SampleTiming {
    /// Worst endpoint slack, in ps.
    pub(crate) worst_slack_ps: f64,
    /// Critical path delay (clock − worst slack), in ps.
    pub(crate) critical_delay_ps: f64,
    /// Total static leakage, in µA.
    pub(crate) leakage_ua: f64,
}

/// Per-gate sensitivities produced by [`CompiledSta::gate_sensitivities`]
/// — the inputs tail-targeted (importance-sampled) Monte Carlo derives
/// its per-gate tilt from.
#[derive(Debug, Clone)]
pub(crate) struct GateSensitivity {
    /// Worst endpoint slack of the zero-shift baseline, in ps.
    pub(crate) worst_slack_ps: f64,
    /// Slack of each gate's output net (`required − arrival`;
    /// `INFINITY` when no endpoint constrains the net), in ps.
    pub(crate) slack_ps: Vec<f64>,
    /// Central-difference derivative of each gate's stage delay with
    /// respect to a uniform channel-length shift, in ps per nm.
    pub(crate) ddelay_dl_ps_per_nm: Vec<f64>,
}

/// The per-gate base ensembles of a Monte Carlo run or corner sweep,
/// deduplicated into distinct cells — built once per run by
/// [`CompiledSta::sample_cells`].
///
/// Gates whose `(GateKind, base transistor records)` match bit for bit
/// share one slot, so a uniform length shift applied to either produces
/// the identical `CellTiming` — the invariant the shift table and the
/// corner path key on.
#[derive(Debug)]
pub(crate) struct SampleCells {
    /// Gate index → slot in `cells` (the cell axis of the shift table).
    pub(crate) cell_of_gate: Vec<u32>,
    /// Distinct `(kind, base records)` ensembles, first-seen order.
    pub(crate) cells: Vec<(GateKind, Vec<TransistorCd>)>,
}

/// The compiled, annotation-invariant form of a [`TimingModel`].
///
/// Owns per-net drawn [`Wire`] models, per-gate drawn [`CellTiming`]s and
/// drawn transistor records; borrows the model (netlist, topological
/// order, library) it was compiled from. Evaluations mutate a separate
/// [`StaScratch`], so one compiled model is shared read-only across
/// worker threads.
///
/// ```
/// use postopc_sta::TimingModel;
/// use postopc_layout::{Design, generate, TechRules};
/// use postopc_device::ProcessParams;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = Design::compile(generate::ripple_carry_adder(4)?, TechRules::n90())?;
/// let model = TimingModel::new(&design, ProcessParams::n90(), 500.0)?;
/// let compiled = model.compile()?;
/// let mut scratch = compiled.scratch();
/// let report = compiled.evaluate(&mut scratch, None)?;
/// assert_eq!(report, model.analyze(None)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledSta<'m> {
    model: &'m TimingModel<'m>,
    /// Drawn per-net wire RC (`None` below the 1 nm routing threshold).
    drawn_wires: Vec<Option<Wire>>,
    /// Drawn per-gate electrical views.
    base_timings: Vec<CellTiming>,
    /// Drawn per-gate transistor records (annotation templates).
    base_records: Vec<Vec<TransistorCd>>,
    /// Net → sink-gate indices, one entry per input-pin occurrence, in
    /// gate order — re-summing one net's sink load walks the exact
    /// addends of the full pass in the exact order (the incremental ECO
    /// path's bit-identity depends on it).
    net_sinks: Vec<Vec<u32>>,
    /// Net → driver gate index (`u32::MAX` for primary inputs), the O(1)
    /// form of `Netlist::driver`'s linear scan.
    net_driver: Vec<u32>,
}

/// Reusable per-worker evaluation buffers.
///
/// Created by [`CompiledSta::scratch`] (sized for that design) and passed
/// mutably to every evaluation; contents are dead between calls, so one
/// scratch serves any number of sequential evaluations. In parallel Monte
/// Carlo each worker owns one via `par_map_init`.
#[derive(Debug)]
pub struct StaScratch {
    timings: Vec<CellTiming>,
    sink_cap: Vec<f64>,
    gate_delays: Vec<f64>,
    slews: Vec<f64>,
    arrivals: Vec<f64>,
    requireds: Vec<f64>,
    endpoint_required: Vec<(NetId, f64)>,
    /// Dense per-net worst-slack combine (`INFINITY` = untouched).
    worst_by_net: Vec<f64>,
    /// Nets touched in `worst_by_net`, for sparse reset.
    touched: Vec<NetId>,
    /// Per-(gate, lane) shift-table indices of the current batch
    /// (`gate * LANES + lane`).
    lane_timing_idx: Vec<u32>,
    /// Per-net lane-parallel propagation state (SoA: one `[f64; LANES]`
    /// row per net/gate, so lane loops autovectorize).
    lane_sink_cap: Vec<[f64; LANES]>,
    /// Per-gate input-pin caps of the current batch, filled while the
    /// lane timings resolve so the sink-load pass reads straight rows.
    lane_input_cap: Vec<[f64; LANES]>,
    lane_slews: Vec<[f64; LANES]>,
    lane_arrivals: Vec<[f64; LANES]>,
    lane_endpoint_required: Vec<(NetId, [f64; LANES])>,
    /// Incremental (ECO) dirty flags: gates whose timing or sink load
    /// changed and must re-derive delay/slew this pass.
    eco_gate_dirty: Vec<bool>,
    /// Incremental dirty flags: nets whose sink capacitance must be
    /// re-summed (a sink gate's input cap changed).
    eco_net_cap_dirty: Vec<bool>,
    /// Incremental change flags: nets whose output slew bits moved.
    eco_slew_changed: Vec<bool>,
    /// Incremental change flags: nets whose arrival bits moved.
    eco_arrival_changed: Vec<bool>,
    /// Incremental change flags: gates whose delay bits moved.
    eco_delay_changed: Vec<bool>,
}

/// The read-only `(cell, shift-bin) → CellTiming` table of one Monte
/// Carlo run, built once by [`CompiledSta::shift_table`] and shared by
/// reference across workers — the only place the batched evaluator reads
/// cell timings from.
///
/// Storage is a dense 2-D direct-index map (`cells × bin span`), so a probe
/// is one bounds check and two loads — no hashing at all. Entries are
/// characterized by [`CompiledSta::characterize_shift`], the record shift
/// the naive reference applies, so every lookup replays exactly the bits
/// a per-sample characterization would compute (proven by the
/// `batched_parity` tests).
#[derive(Debug)]
pub(crate) struct ShiftTable {
    /// Smallest prewarmed bin (row offset of the dense table).
    min_bin: i32,
    /// Dense bin-range width (`max_bin - min_bin + 1`; 0 when empty).
    span: usize,
    /// `cell * span + (bin - min_bin)` → `store` index; `u32::MAX` absent.
    idx: Vec<u32>,
    /// Prewarmed timings, sorted by `(cell, bin)`.
    store: Vec<CellTiming>,
    /// `store[i].leakage_ua`, densely packed — the batch fill pass sums
    /// leakage for every (gate, lane) and these 8-byte rows keep it from
    /// dragging whole `CellTiming`s through the cache.
    leak: Vec<f64>,
    /// `store[i].input_cap_ff`, densely packed (same rationale).
    cap: Vec<f64>,
}

impl ShiftTable {
    /// Number of prewarmed `(cell, bin)` entries.
    pub(crate) fn entries(&self) -> usize {
        self.store.len()
    }

    /// `store` index of `(cell, bin)`, if prewarmed.
    #[inline]
    fn get(&self, cell: u32, bin: i32) -> Option<u32> {
        let off = i64::from(bin) - i64::from(self.min_bin);
        if off < 0 || off >= self.span as i64 {
            return None;
        }
        let i = self.idx[cell as usize * self.span + off as usize];
        (i != u32::MAX).then_some(i)
    }
}

impl<'m> CompiledSta<'m> {
    /// Precomputes the annotation-invariant structure of `model`.
    pub(crate) fn new(model: &'m TimingModel<'m>) -> Result<CompiledSta<'m>> {
        let netlist = model.design().netlist();
        let tech = model.design().tech();
        let mut base_timings = Vec::with_capacity(netlist.gate_count());
        let mut base_records = Vec::with_capacity(netlist.gate_count());
        for gate in netlist.gates() {
            base_timings.push(model.library().drawn_timing(gate.kind, gate.drive));
            base_records.push(
                model
                    .library()
                    .drawn_transistors(gate.kind, gate.drive)
                    .to_vec(),
            );
        }
        let mut drawn_wires = Vec::with_capacity(netlist.nets().len());
        for (ni, _) in netlist.nets().iter().enumerate() {
            let length = model
                .design()
                .routing()
                .route_of(NetId(ni as u32))
                .map(|r| r.length_nm)
                .unwrap_or(0.0);
            if length < 1.0 {
                drawn_wires.push(None);
                continue;
            }
            let wire = Wire::new(
                *model.wire_layer(),
                length,
                tech.m1_width as f64,
                tech.m1_space as f64,
            )
            .map_err(StaError::from)?;
            drawn_wires.push(Some(wire));
        }
        let mut net_sinks: Vec<Vec<u32>> = vec![Vec::new(); netlist.nets().len()];
        let mut net_driver = vec![u32::MAX; netlist.nets().len()];
        for (gi, gate) in netlist.gates().iter().enumerate() {
            for &input in &gate.inputs {
                net_sinks[input.0 as usize].push(gi as u32);
            }
            net_driver[gate.output.0 as usize] = gi as u32;
        }
        Ok(CompiledSta {
            model,
            drawn_wires,
            base_timings,
            base_records,
            net_sinks,
            net_driver,
        })
    }

    /// The timing model this evaluator was compiled from.
    pub fn model(&self) -> &'m TimingModel<'m> {
        self.model
    }

    /// The drawn transistor records of gate `gate` (annotation template —
    /// same as looking the cell up in the library, without the hash).
    pub fn base_records(&self, gate: GateId) -> &[TransistorCd] {
        &self.base_records[gate.0 as usize]
    }

    /// A scratch sized for this design.
    pub fn scratch(&self) -> StaScratch {
        let n_nets = self.drawn_wires.len();
        let n_gates = self.base_timings.len();
        StaScratch {
            timings: Vec::with_capacity(n_gates),
            sink_cap: vec![0.0; n_nets],
            gate_delays: vec![0.0; n_gates],
            slews: vec![0.0; n_nets],
            arrivals: vec![0.0; n_nets],
            requireds: vec![f64::INFINITY; n_nets],
            endpoint_required: Vec::new(),
            worst_by_net: vec![f64::INFINITY; n_nets],
            touched: Vec::new(),
            lane_timing_idx: vec![0; n_gates * LANES],
            lane_sink_cap: vec![[0.0; LANES]; n_nets],
            lane_input_cap: vec![[0.0; LANES]; n_gates],
            lane_slews: vec![[0.0; LANES]; n_nets],
            lane_arrivals: vec![[0.0; LANES]; n_nets],
            lane_endpoint_required: Vec::new(),
            eco_gate_dirty: vec![false; n_gates],
            eco_net_cap_dirty: vec![false; n_nets],
            eco_slew_changed: vec![false; n_nets],
            eco_arrival_changed: vec![false; n_nets],
            eco_delay_changed: vec![false; n_gates],
        }
    }

    /// Deduplicates per-gate base ensembles (`bases[gi]` = systematic
    /// records of gate `gi`) into distinct `(kind, records)` cells for
    /// the shift table. Two gates share a cell only when their kind and
    /// every record match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not cover every gate of the design.
    pub(crate) fn sample_cells(&self, bases: &[Vec<TransistorCd>]) -> SampleCells {
        let netlist = self.model.design().netlist();
        assert_eq!(bases.len(), netlist.gate_count(), "one base set per gate");
        let mut seen: HashMap<(GateKind, Vec<u64>), u32> = HashMap::new();
        let mut cell_of_gate = Vec::with_capacity(bases.len());
        let mut cells: Vec<(GateKind, Vec<TransistorCd>)> = Vec::new();
        for (gi, base) in bases.iter().enumerate() {
            let kind = netlist.gate(GateId(gi as u32)).kind;
            // Exact-bit fingerprint of the ensemble (dimension bit
            // patterns plus the discrete record fields).
            let mut bits = Vec::with_capacity(base.len() * 6);
            for r in base {
                bits.push(r.kind as u64);
                bits.push(r.width_nm.to_bits());
                bits.push(r.l_delay_nm.to_bits());
                bits.push(r.l_leakage_nm.to_bits());
                bits.push(r.input_pin.map_or(u64::MAX, |p| p as u64));
                bits.push(r.finger as u64);
            }
            let slot = *seen.entry((kind, bits)).or_insert_with(|| {
                cells.push((kind, base.clone()));
                (cells.len() - 1) as u32
            });
            cell_of_gate.push(slot);
        }
        SampleCells {
            cell_of_gate,
            cells,
        }
    }

    /// Full analysis with optional annotation — the drop-in compiled
    /// counterpart of [`TimingModel::analyze`], bit-identical to it.
    ///
    /// # Errors
    ///
    /// Propagates device errors for non-physical annotated dimensions.
    pub fn evaluate(
        &self,
        scratch: &mut StaScratch,
        annotation: Option<&CdAnnotation>,
    ) -> Result<TimingReport> {
        let netlist = self.model.design().netlist();
        scratch.timings.clear();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let timing = match annotation.and_then(|a| a.gate(GateId(gi as u32))) {
                Some(ann) => self
                    .model
                    .library()
                    .annotated_timing(gate.kind, &ann.transistors)?,
                None => self.base_timings[gi],
            };
            scratch.timings.push(timing);
        }
        self.propagate(scratch, annotation)
    }

    /// The drawn per-gate ensembles deduplicated into cells — the cell
    /// axis of a corner sweep.
    pub(crate) fn drawn_cells(&self) -> SampleCells {
        self.sample_cells(&self.base_records)
    }

    /// Full analysis with every gate's `cells` ensemble shifted uniformly
    /// by `shift_nm` — bit-identical to [`Self::evaluate`] of the
    /// annotation that shifts each gate's records by `shift_nm` (a corner
    /// annotation, when `cells` are the [`Self::drawn_cells`]), because
    /// each gate reads the [`Self::characterize_shift`] of its cell and
    /// the propagation is the same. The device model runs once per
    /// distinct cell instead of once per gate.
    ///
    /// # Errors
    ///
    /// Propagates device errors for non-physical shifted dimensions.
    pub(crate) fn evaluate_shift(
        &self,
        scratch: &mut StaScratch,
        cells: &SampleCells,
        shift_nm: f64,
    ) -> Result<TimingReport> {
        let per_cell = (0..cells.cells.len() as u32)
            .map(|cell| self.characterize_shift(cells, cell, shift_nm))
            .collect::<Result<Vec<_>>>()?;
        scratch.timings.clear();
        scratch.timings.extend(
            cells
                .cell_of_gate
                .iter()
                .map(|&cell| per_cell[cell as usize]),
        );
        self.propagate(scratch, None)
    }

    /// Incremental ECO re-analysis: re-derives only the state an
    /// annotation edit actually moved, bit-identical to a full
    /// [`Self::evaluate`] with `next`.
    ///
    /// `scratch` must hold the state of a completed evaluation with
    /// `prev` on this compiled model (that is the warm state the
    /// increments are applied to). The diff of `prev` → `next` seeds the
    /// dirty set: gates whose annotation entry changed re-characterize;
    /// nets whose sink gates changed input capacitance re-sum their load
    /// over the precompiled sink adjacency in gate order (the exact
    /// addend order of the full pass); then two topological sweeps
    /// recompute delay/slew and arrivals only for gates flagged dirty or
    /// fed by a changed net, propagating flags precisely when stored bits
    /// move. Untouched gates keep their stored bits, recomputed gates
    /// run the same float ops on the same values as the full pass — so
    /// the result is bit-identical by induction (enforced by the `eco`
    /// parity tests and the `serve` CI stage).
    /// The backward required pass, endpoint slacks and the leakage sum
    /// are cheap pure functions of the forward state and re-run whole.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::InvalidIncremental`] when the scratch holds no
    /// prior full evaluation; propagates device errors for non-physical
    /// annotated dimensions.
    pub fn evaluate_eco(
        &self,
        scratch: &mut StaScratch,
        prev: Option<&CdAnnotation>,
        next: Option<&CdAnnotation>,
    ) -> Result<TimingReport> {
        let netlist = self.model.design().netlist();
        let n_gates = self.base_timings.len();
        if scratch.timings.len() != n_gates {
            return Err(StaError::InvalidIncremental(
                "scratch holds no prior full evaluation (run evaluate first)".into(),
            ));
        }
        scratch.eco_gate_dirty.fill(false);
        scratch.eco_net_cap_dirty.fill(false);
        scratch.eco_slew_changed.fill(false);
        scratch.eco_arrival_changed.fill(false);
        scratch.eco_delay_changed.fill(false);

        // Phase 1a — candidate gates: anything annotated on either side.
        for a in [prev, next].into_iter().flatten() {
            for (&gid, _) in a.gates() {
                scratch.eco_gate_dirty[gid.0 as usize] = true;
            }
        }
        // Re-characterize candidates whose entries actually differ; drop
        // the flag when the annotation (or the resulting timing) is
        // unchanged bit for bit.
        for gi in 0..n_gates {
            if !scratch.eco_gate_dirty[gi] {
                continue;
            }
            let gid = GateId(gi as u32);
            if prev.and_then(|a| a.gate(gid)) == next.and_then(|a| a.gate(gid)) {
                scratch.eco_gate_dirty[gi] = false;
                continue;
            }
            let gate = netlist.gate(gid);
            let timing = match next.and_then(|a| a.gate(gid)) {
                Some(ann) => self
                    .model
                    .library()
                    .annotated_timing(gate.kind, &ann.transistors)?,
                None => self.base_timings[gi],
            };
            let old = scratch.timings[gi];
            if timing_bits_eq(&old, &timing) {
                scratch.eco_gate_dirty[gi] = false;
                continue;
            }
            let cap_changed = old.input_cap_ff.to_bits() != timing.input_cap_ff.to_bits();
            scratch.timings[gi] = timing;
            if cap_changed {
                for &input in &gate.inputs {
                    scratch.eco_net_cap_dirty[input.0 as usize] = true;
                }
            }
        }
        // Phase 1b — net annotation edits re-width the driver's wire.
        for a in [prev, next].into_iter().flatten() {
            for (&nid, _) in a.nets() {
                if prev.and_then(|p| p.net(nid)) != next.and_then(|q| q.net(nid)) {
                    let driver = self.net_driver[nid.0 as usize];
                    if driver != u32::MAX {
                        scratch.eco_gate_dirty[driver as usize] = true;
                    }
                }
            }
        }

        // Phase 2 — re-sum dirtied sink loads over the precompiled sink
        // adjacency (gate order — the full pass's addend order).
        for ni in 0..self.net_sinks.len() {
            if !scratch.eco_net_cap_dirty[ni] {
                continue;
            }
            let mut sum = 0.0;
            for &gi in &self.net_sinks[ni] {
                sum += scratch.timings[gi as usize].input_cap_ff;
            }
            if sum.to_bits() != scratch.sink_cap[ni].to_bits() {
                scratch.sink_cap[ni] = sum;
                let driver = self.net_driver[ni];
                if driver != u32::MAX {
                    scratch.eco_gate_dirty[driver as usize] = true;
                }
            }
        }

        // Phase 3 — delays and output slews of the dirty cone, in the
        // full pass's topological order and with its exact formulas.
        for &gid in netlist.topological_order() {
            let gi = gid.0 as usize;
            let gate = netlist.gate(gid);
            let sequential = gate.kind.is_sequential();
            let inputs_changed = !sequential
                && gate
                    .inputs
                    .iter()
                    .any(|n| scratch.eco_slew_changed[n.0 as usize]);
            if !(scratch.eco_gate_dirty[gi] || inputs_changed) {
                continue;
            }
            let t = scratch.timings[gi];
            let slew_in = if sequential {
                CLOCK_SLEW_PS
            } else {
                gate.inputs
                    .iter()
                    .map(|n| scratch.slews[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            let out = gate.output.0 as usize;
            let c_sinks = scratch.sink_cap[out] + t.output_cap_ff;
            let (table_delay, out_slew) = t.nldm.delay_and_slew_ps(slew_in, c_sinks);
            let delay = match &self.drawn_wires[out] {
                Some(w) => {
                    let wire = match next.and_then(|a| a.net(NetId(out as u32))) {
                        Some(net_ann) => w
                            .with_printed_width(net_ann.printed_width_nm)
                            .map_err(StaError::from)?,
                        None => *w,
                    };
                    let r = t.drive_r_kohm();
                    table_delay + (wire.elmore_delay_ps(r, c_sinks) - r * c_sinks)
                }
                None => table_delay,
            };
            if delay.to_bits() != scratch.gate_delays[gi].to_bits() {
                scratch.gate_delays[gi] = delay;
                scratch.eco_delay_changed[gi] = true;
            }
            if out_slew.to_bits() != scratch.slews[out].to_bits() {
                scratch.slews[out] = out_slew;
                scratch.eco_slew_changed[out] = true;
            }
        }

        // Phase 4 — arrivals of the dirty fanout cone.
        for &gid in netlist.topological_order() {
            let gi = gid.0 as usize;
            let gate = netlist.gate(gid);
            let sequential = gate.kind.is_sequential();
            let inputs_changed = !sequential
                && gate
                    .inputs
                    .iter()
                    .any(|n| scratch.eco_arrival_changed[n.0 as usize]);
            if !(scratch.eco_delay_changed[gi] || inputs_changed) {
                continue;
            }
            let worst_in = if sequential {
                0.0
            } else {
                gate.inputs
                    .iter()
                    .map(|n| scratch.arrivals[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            let out = gate.output.0 as usize;
            let arrival = worst_in + scratch.gate_delays[gi];
            if arrival.to_bits() != scratch.arrivals[out].to_bits() {
                scratch.arrivals[out] = arrival;
                scratch.eco_arrival_changed[out] = true;
            }
        }

        // Phase 5 — cheap whole-pass tail: backward requireds, endpoint
        // slacks, and the leakage re-sum in gate order (the full
        // evaluation's report).
        self.backward_requireds(scratch);
        Ok(self.report(scratch))
    }

    /// Characterizes cell `cell` with every channel length shifted by
    /// `shift` nm (clamped at 1 nm, as the naive reference and
    /// [`corner_annotation`](crate::corner_annotation) clamp) — the single
    /// code path behind the shift table, the sensitivity pass and corner
    /// sweeps, so all three compute identical bits for identical inputs.
    fn characterize_shift(&self, cells: &SampleCells, cell: u32, shift: f64) -> Result<CellTiming> {
        let (kind, base) = &cells.cells[cell as usize];
        let mut records = base.clone();
        for r in &mut records {
            r.l_delay_nm = (r.l_delay_nm + shift).max(1.0);
            r.l_leakage_nm = (r.l_leakage_nm + shift).max(1.0);
        }
        self.model.library().annotated_timing(*kind, &records)
    }

    /// Builds the [`ShiftTable`] of a run: scans the gate-major bin
    /// `blocks` (`block[gate * LANES + lane]`) for the distinct `(cell,
    /// bin)` pairs they hold and characterizes each exactly once, in
    /// parallel, at shift `bin * step_nm` — the shift the sampler's
    /// quantizer pairs with that bin. The build is deterministic for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates device errors for non-physical shifted dimensions.
    pub(crate) fn shift_table<'b, I>(
        &self,
        cells: &SampleCells,
        blocks: I,
        step_nm: f64,
        threads: usize,
    ) -> Result<ShiftTable>
    where
        I: Iterator<Item = &'b [i32]> + Clone,
    {
        let (mut lo, mut hi) = (i32::MAX, i32::MIN);
        for &bin in blocks.clone().flatten() {
            lo = lo.min(bin);
            hi = hi.max(bin);
        }
        let span = (i64::from(hi) - i64::from(lo) + 1).max(0) as usize;
        // Mark every occurring `(cell, bin)` slot, then number the marked
        // slots in slot order — `(cell, bin)` order, so no sort is needed.
        let mut idx = vec![u32::MAX; cells.cells.len() * span];
        for block in blocks {
            for (&cell, lanes) in cells.cell_of_gate.iter().zip(block.chunks_exact(LANES)) {
                for &bin in lanes {
                    idx[cell as usize * span + (bin - lo) as usize] = 0;
                }
            }
        }
        let mut slots = Vec::new();
        for (slot, i) in idx.iter_mut().enumerate() {
            if *i != u32::MAX {
                *i = slots.len() as u32;
                slots.push(slot);
            }
        }
        let store = postopc_parallel::try_par_map(threads, &slots, |_, &slot| {
            let bin = lo + (slot % span) as i32;
            self.characterize_shift(cells, (slot / span) as u32, f64::from(bin) * step_nm)
        })?;
        let leak = store.iter().map(|t| t.leakage_ua).collect();
        let cap = store.iter().map(|t| t.input_cap_ff).collect();
        Ok(ShiftTable {
            min_bin: lo,
            span,
            idx,
            store,
            leak,
            cap,
        })
    }

    /// The Monte Carlo hot path: evaluates [`LANES`] samples per gate
    /// visit. `bins[gi * LANES + lane]` is the shift-grid bin of gate `gi`
    /// in lane `lane` (gate-major, so one gate's lanes are contiguous), and
    /// every cell timing is read from `table`.
    ///
    /// Per lane, every float operation mirrors the naive
    /// [`TimingModel::analyze`] of the same shifted annotation (same fold
    /// orders, same table lookups, same endpoint accumulation), so each
    /// returned [`SampleTiming`] is bit-identical to it — the contract the
    /// `batched_parity` suite enforces. The propagation state is laid out
    /// as `[f64; LANES]` rows (structure-of-arrays), so the per-lane loops
    /// autovectorize in release builds, and timings are staged as 4-byte
    /// table indices instead of being copied per gate. The backward
    /// required-time relaxation is skipped entirely: a sample summary only
    /// reads endpoint required times and arrivals, which are fixed before
    /// that pass runs.
    ///
    /// Callers with fewer than [`LANES`] live samples pad the tail lanes
    /// by repeating a live sample's bins and discard the padded results
    /// (every lane is always evaluated).
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidMonteCarlo`] if a `(cell, bin)` pair is missing
    /// from `table` — impossible when the table was built from these bins.
    pub(crate) fn evaluate_shifted_batch(
        &self,
        scratch: &mut StaScratch,
        cells: &SampleCells,
        table: &ShiftTable,
        bins: &[i32],
    ) -> Result<[SampleTiming; LANES]> {
        let clock_ps = self.model.clock_ps();
        let mut leakage = [0.0f64; LANES];
        // Phase 1 — resolve every (gate, lane) timing to a table index.
        // Leakage accumulates here in gate order, matching the reference's
        // accumulation order per lane, and is read (like the input cap)
        // from the table's dense 8-byte side rows instead of dragging the
        // full `CellTiming` through the cache (same bits: copies of the
        // same store fields).
        for (gi, (&cell, lanes)) in cells
            .cell_of_gate
            .iter()
            .zip(bins.chunks_exact(LANES))
            .enumerate()
        {
            for (lane, &bin) in lanes.iter().enumerate() {
                let i = table.get(cell, bin).ok_or_else(|| {
                    StaError::InvalidMonteCarlo(format!(
                        "shift bin {bin} of cell {cell} is missing from the shift table"
                    ))
                })?;
                leakage[lane] += table.leak[i as usize];
                scratch.lane_input_cap[gi][lane] = table.cap[i as usize];
                scratch.lane_timing_idx[gi * LANES + lane] = i;
            }
        }

        // Phase 2 — lane-parallel propagation. Split-borrow the scratch so
        // the staged indices stay readable while lane arrays mutate.
        let StaScratch {
            ref lane_timing_idx,
            ref lane_input_cap,
            ref mut lane_sink_cap,
            ref mut lane_slews,
            ref mut lane_arrivals,
            ref mut lane_endpoint_required,
            ..
        } = *scratch;
        let timing =
            |gi: usize, lane: usize| &table.store[lane_timing_idx[gi * LANES + lane] as usize];
        let netlist = self.model.design().netlist();

        // Sink loads (gate order, one add per input per lane — the
        // reference's order, so partial sums agree bit for bit). The caps
        // were staged per gate while the lane timings resolved above.
        for row in lane_sink_cap.iter_mut() {
            *row = [0.0; LANES];
        }
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let caps = lane_input_cap[gi];
            for &input in &gate.inputs {
                let row = &mut lane_sink_cap[input.0 as usize];
                for l in 0..LANES {
                    row[l] += caps[l];
                }
            }
        }

        // Delays, output slews and forward arrivals fused into a single
        // topological walk: a gate's input slews *and* input arrivals are
        // both final before the walk reaches it, so folding arrivals here
        // performs exactly the float ops of the reference's split
        // delay/arrival passes — one traversal and one per-gate delay
        // store/reload cheaper, and each lane timing resolves once.
        for row in lane_slews.iter_mut() {
            *row = [PRIMARY_INPUT_SLEW_PS; LANES];
        }
        for row in lane_arrivals.iter_mut() {
            *row = [0.0; LANES];
        }
        for &gid in netlist.topological_order() {
            let gate = netlist.gate(gid);
            let gi = gid.0 as usize;
            let ts: [&CellTiming; LANES] = std::array::from_fn(|l| timing(gi, l));
            let (slew_in, worst_in) = if gate.kind.is_sequential() {
                ([CLOCK_SLEW_PS; LANES], [0.0; LANES])
            } else {
                let mut s = [0.0f64; LANES];
                let mut a = [0.0f64; LANES];
                for n in &gate.inputs {
                    let srow = &lane_slews[n.0 as usize];
                    let arow = &lane_arrivals[n.0 as usize];
                    for l in 0..LANES {
                        s[l] = s[l].max(srow[l]);
                        a[l] = a[l].max(arow[l]);
                    }
                }
                (s, a)
            };
            let out = gate.output.0 as usize;
            let sinks = lane_sink_cap[out];
            let mut out_slews = [0.0f64; LANES];
            let mut arrivals = [0.0f64; LANES];
            let wire = self.drawn_wires[out].as_ref();
            for l in 0..LANES {
                let t = ts[l];
                let c_sinks = sinks[l] + t.output_cap_ff;
                let (table_delay, out_slew) = t.nldm.delay_and_slew_ps(slew_in[l], c_sinks);
                let delay = match wire {
                    Some(w) => {
                        let r = t.drive_r_kohm();
                        table_delay + (w.elmore_delay_ps(r, c_sinks) - r * c_sinks)
                    }
                    None => table_delay,
                };
                out_slews[l] = out_slew;
                arrivals[l] = worst_in[l] + delay;
            }
            lane_slews[out] = out_slews;
            lane_arrivals[out] = arrivals;
        }

        // Endpoint required times in the reference's push order (primary
        // outputs, then sequential gates in index order). The backward
        // relaxation over internal nets is omitted: the sample summary
        // below never reads it.
        lane_endpoint_required.clear();
        for &po in netlist.primary_outputs() {
            lane_endpoint_required.push((po, [clock_ps; LANES]));
        }
        for (gi, gate) in netlist.gates().iter().enumerate() {
            if timing(gi, 0).sequential.is_none() {
                continue;
            }
            // Sequential-ness is a property of the cell kind, so every
            // lane of a gate agrees on it; setup times still vary per bin.
            let mut req = [clock_ps; LANES];
            for (l, r) in req.iter_mut().enumerate() {
                if let Some(seq) = &timing(gi, l).sequential {
                    *r = clock_ps - seq.setup_ps;
                }
            }
            lane_endpoint_required.push((gate.inputs[0], req));
        }

        // Worst slack per lane: min-fold over endpoints in push order.
        let mut worst = [f64::INFINITY; LANES];
        for &(net, req) in lane_endpoint_required.iter() {
            let arr = &lane_arrivals[net.0 as usize];
            for l in 0..LANES {
                worst[l] = worst[l].min(req[l] - arr[l]);
            }
        }
        Ok(std::array::from_fn(|l| SampleTiming {
            worst_slack_ps: worst[l],
            critical_delay_ps: clock_ps - worst[l],
            leakage_ua: leakage[l],
        }))
    }

    /// Delay/arrival/required propagation over `scratch.timings`,
    /// mirroring `analyze` operation for operation, then the report — the
    /// shared tail of every full evaluation.
    fn propagate(
        &self,
        scratch: &mut StaScratch,
        annotation: Option<&CdAnnotation>,
    ) -> Result<TimingReport> {
        let netlist = self.model.design().netlist();

        // Sink loads.
        scratch.sink_cap.fill(0.0);
        for (gi, gate) in netlist.gates().iter().enumerate() {
            for &input in &gate.inputs {
                scratch.sink_cap[input.0 as usize] += scratch.timings[gi].input_cap_ff;
            }
        }

        // Gate delays and output slews in topological order, mirroring
        // `analyze`: the NLDM table at (worst input slew, lumped sink
        // load) plus the Elmore excess of the precompiled drawn wire
        // (re-widthed in place when the annotation prints the net
        // differently) over the lumped `R·C` the table already charges.
        scratch.slews.fill(PRIMARY_INPUT_SLEW_PS);
        for &gid in netlist.topological_order() {
            let gate = netlist.gate(gid);
            let t = &scratch.timings[gid.0 as usize];
            let slew_in = if gate.kind.is_sequential() {
                CLOCK_SLEW_PS
            } else {
                gate.inputs
                    .iter()
                    .map(|n| scratch.slews[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            let out = gate.output.0 as usize;
            let c_sinks = scratch.sink_cap[out] + t.output_cap_ff;
            let (table_delay, out_slew) = t.nldm.delay_and_slew_ps(slew_in, c_sinks);
            scratch.gate_delays[gid.0 as usize] = match &self.drawn_wires[out] {
                Some(w) => {
                    let wire = match annotation.and_then(|a| a.net(NetId(out as u32))) {
                        Some(net_ann) => w
                            .with_printed_width(net_ann.printed_width_nm)
                            .map_err(StaError::from)?,
                        None => *w,
                    };
                    let r = t.drive_r_kohm();
                    table_delay + (wire.elmore_delay_ps(r, c_sinks) - r * c_sinks)
                }
                None => table_delay,
            };
            scratch.slews[out] = out_slew;
        }

        // Forward arrivals in topological order.
        scratch.arrivals.fill(0.0);
        for &gid in netlist.topological_order() {
            let gate = netlist.gate(gid);
            let worst_in = if gate.kind.is_sequential() {
                0.0
            } else {
                gate.inputs
                    .iter()
                    .map(|n| scratch.arrivals[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            scratch.arrivals[gate.output.0 as usize] =
                worst_in + scratch.gate_delays[gid.0 as usize];
        }

        // Backward requireds from the endpoints.
        self.backward_requireds(scratch);
        Ok(self.report(scratch))
    }

    /// Assembles the report of the propagated state in `scratch`: endpoint
    /// slacks, and leakage summed over `scratch.timings` in gate order
    /// (the reference's accumulation order).
    fn report(&self, scratch: &mut StaScratch) -> TimingReport {
        let endpoint_slacks = Self::sorted_endpoint_slacks(scratch);
        let leakage = scratch
            .timings
            .iter()
            .fold(0.0, |sum, t| sum + t.leakage_ua);
        TimingReport::from_parts(
            scratch.arrivals.clone(),
            scratch.requireds.clone(),
            scratch.gate_delays.clone(),
            scratch.slews.clone(),
            endpoint_slacks,
            self.model.clock_ps(),
            leakage,
        )
    }

    /// Backward required-time relaxation from the endpoints — the final
    /// pass of [`Self::propagate`], shared verbatim with the incremental
    /// ECO path (it is cheap and a pure function of the forward state, so
    /// the incremental evaluator reruns it whole rather than tracking
    /// dirty cones backwards).
    fn backward_requireds(&self, scratch: &mut StaScratch) {
        let netlist = self.model.design().netlist();
        scratch.requireds.fill(f64::INFINITY);
        let clock_ps = self.model.clock_ps();
        scratch.endpoint_required.clear();
        for &po in netlist.primary_outputs() {
            scratch.requireds[po.0 as usize] = clock_ps;
            scratch.endpoint_required.push((po, clock_ps));
        }
        for (gi, gate) in netlist.gates().iter().enumerate() {
            if let Some(seq) = &scratch.timings[gi].sequential {
                let d_net = gate.inputs[0];
                let required = clock_ps - seq.setup_ps;
                let r = &mut scratch.requireds[d_net.0 as usize];
                *r = r.min(required);
                scratch.endpoint_required.push((d_net, required));
            }
        }
        for &gid in netlist.topological_order().iter().rev() {
            let gate = netlist.gate(gid);
            if gate.kind.is_sequential() {
                continue;
            }
            let req_out = scratch.requireds[gate.output.0 as usize];
            if req_out.is_finite() {
                let req_in = req_out - scratch.gate_delays[gid.0 as usize];
                for &input in &gate.inputs {
                    let r = &mut scratch.requireds[input.0 as usize];
                    *r = r.min(req_in);
                }
            }
        }
    }

    /// Per-gate tail-sampling sensitivities: one zero-shift baseline
    /// evaluation (forward arrivals plus the backward required-time
    /// relaxation — the "extra backward pass"), then per gate:
    ///
    /// - `slack_ps[gi]`: the slack of the gate's output net
    ///   (`required − arrival`; `INFINITY` when no endpoint constrains
    ///   it) — the criticality signal;
    /// - `ddelay_dl_ps_per_nm[gi]`: the central-difference derivative of
    ///   the gate's stage delay (NLDM table plus Elmore wire excess, the
    ///   exact formula [`Self::propagate`] uses) with respect to a
    ///   uniform channel-length shift of ±`step_nm`, evaluated at the
    ///   gate's baseline input slew and sink load. Loading feedback
    ///   through neighbour input caps is second-order and ignored — the
    ///   derivative seeds a sampling tilt, not a timing result.
    ///
    /// The device model runs three times per *distinct cell* (zero and
    /// ±`step_nm` shifts), not per gate, so the pass costs about three
    /// corner characterizations. Everything is computed serially in gate
    /// order from deterministic inputs, so the result is identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Propagates device errors for non-physical shifted dimensions.
    pub(crate) fn gate_sensitivities(
        &self,
        scratch: &mut StaScratch,
        cells: &SampleCells,
        step_nm: f64,
    ) -> Result<GateSensitivity> {
        // ±step characterizations, once per distinct cell.
        let n_cells = cells.cells.len();
        let mut plus = Vec::with_capacity(n_cells);
        let mut minus = Vec::with_capacity(n_cells);
        for cell in 0..n_cells as u32 {
            plus.push(self.characterize_shift(cells, cell, step_nm)?);
            minus.push(self.characterize_shift(cells, cell, -step_nm)?);
        }

        // The zero-shift baseline: full propagation, backward pass included.
        let worst_slack_ps = self.evaluate_shift(scratch, cells, 0.0)?.worst_slack_ps();

        let netlist = self.model.design().netlist();
        let n_gates = netlist.gate_count();
        let mut slack_ps = Vec::with_capacity(n_gates);
        let mut ddelay = Vec::with_capacity(n_gates);
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let out = gate.output.0 as usize;
            slack_ps.push(scratch.requireds[out] - scratch.arrivals[out]);
            let slew_in = if gate.kind.is_sequential() {
                CLOCK_SLEW_PS
            } else {
                gate.inputs
                    .iter()
                    .map(|n| scratch.slews[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            let wire = self.drawn_wires[out].as_ref();
            let sink_cap = scratch.sink_cap[out];
            let stage_delay = |t: &CellTiming| {
                let c_sinks = sink_cap + t.output_cap_ff;
                let (table_delay, _) = t.nldm.delay_and_slew_ps(slew_in, c_sinks);
                match wire {
                    Some(w) => {
                        let r = t.drive_r_kohm();
                        table_delay + (w.elmore_delay_ps(r, c_sinks) - r * c_sinks)
                    }
                    None => table_delay,
                }
            };
            let cell = cells.cell_of_gate[gi] as usize;
            ddelay.push((stage_delay(&plus[cell]) - stage_delay(&minus[cell])) / (2.0 * step_nm));
        }
        Ok(GateSensitivity {
            worst_slack_ps,
            slack_ps,
            ddelay_dl_ps_per_nm: ddelay,
        })
    }

    /// Per-endpoint worst slacks, most critical first — the dense-array
    /// equivalent of `analyze`'s HashMap min-combine. The final sort key
    /// `(slack, NetId)` is a total order over unique net ids, so the
    /// result is identical however the entries were combined.
    fn sorted_endpoint_slacks(scratch: &mut StaScratch) -> Vec<(NetId, f64)> {
        for &(net, required) in &scratch.endpoint_required {
            let ni = net.0 as usize;
            let slack = required - scratch.arrivals[ni];
            let worst = &mut scratch.worst_by_net[ni];
            if *worst == f64::INFINITY {
                scratch.touched.push(net);
            }
            *worst = worst.min(slack);
        }
        let mut slacks: Vec<(NetId, f64)> = scratch
            .touched
            .iter()
            .map(|&net| (net, scratch.worst_by_net[net.0 as usize]))
            .collect();
        for &net in &scratch.touched {
            scratch.worst_by_net[net.0 as usize] = f64::INFINITY;
        }
        scratch.touched.clear();
        slacks.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        slacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::GateAnnotation;
    use postopc_device::ProcessParams;
    use postopc_layout::{generate, Design, TechRules};

    fn design() -> Design {
        Design::compile(
            generate::ripple_carry_adder(3).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    #[test]
    fn scratch_is_reusable_across_evaluations() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let mut scratch = compiled.scratch();
        let first = compiled.evaluate(&mut scratch, None).expect("first");
        // A dirty scratch (post-annotated run) must not bleed into the
        // next drawn evaluation.
        let ann = crate::corners::corner_annotation(&model, 4.0);
        let slow = compiled.evaluate(&mut scratch, Some(&ann)).expect("slow");
        assert!(slow.critical_delay_ps() > first.critical_delay_ps());
        let again = compiled.evaluate(&mut scratch, None).expect("again");
        assert_eq!(first, again);
    }

    /// Every gate annotated with its drawn records shifted by `shift_of(gi)`
    /// nm — the annotation the naive reference builds for one sample.
    fn shifted_annotation(
        compiled: &CompiledSta<'_>,
        shift_of: impl Fn(usize) -> f64,
    ) -> CdAnnotation {
        let mut ann = CdAnnotation::new();
        for gi in 0..compiled.base_records.len() {
            let shift = shift_of(gi);
            let transistors = compiled.base_records[gi]
                .iter()
                .map(|r| TransistorCd {
                    l_delay_nm: (r.l_delay_nm + shift).max(1.0),
                    l_leakage_nm: (r.l_leakage_nm + shift).max(1.0),
                    ..*r
                })
                .collect();
            ann.set_gate(GateId(gi as u32), GateAnnotation { transistors });
        }
        ann
    }

    #[test]
    fn batch_lanes_match_full_evaluation() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let n = d.netlist().gate_count();
        let cells = compiled.sample_cells(&compiled.base_records);
        // Identical cells collapse: far fewer distinct ensembles than gates.
        assert!(cells.cells.len() < n);
        // A gate- and lane-dependent repeating pattern of grid bins.
        let step = 0.25;
        let bins: Vec<i32> = (0..n * LANES).map(|i| ((i * 7) % 9) as i32 - 4).collect();
        let table = compiled
            .shift_table(&cells, std::iter::once(&bins[..]), step, 2)
            .expect("table");
        // One entry per distinct (cell, bin) the block holds.
        let mut keys: Vec<(u32, i32)> = bins
            .iter()
            .enumerate()
            .map(|(i, &bin)| (cells.cell_of_gate[i / LANES], bin))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(table.entries(), keys.len());
        let mut scratch = compiled.scratch();
        let lanes = compiled
            .evaluate_shifted_batch(&mut scratch, &cells, &table, &bins)
            .expect("batch");
        // Each lane is a full evaluation of its shifted annotation, bit
        // for bit.
        for (lane, sample) in lanes.iter().enumerate() {
            let ann = shifted_annotation(&compiled, |gi| f64::from(bins[gi * LANES + lane]) * step);
            let report = compiled.evaluate(&mut scratch, Some(&ann)).expect("report");
            assert_eq!(
                sample.worst_slack_ps.to_bits(),
                report.worst_slack_ps().to_bits()
            );
            assert_eq!(
                sample.critical_delay_ps.to_bits(),
                report.critical_delay_ps().to_bits()
            );
            assert_eq!(sample.leakage_ua.to_bits(), report.leakage_ua().to_bits());
        }
        // A bin the table was not built for is a typed error.
        let mut foreign = bins.clone();
        foreign[0] = 99;
        assert!(matches!(
            compiled.evaluate_shifted_batch(&mut scratch, &cells, &table, &foreign),
            Err(StaError::InvalidMonteCarlo(_))
        ));
    }

    #[test]
    fn eco_reanalysis_is_bit_identical_to_full() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let prev = crate::corners::corner_annotation(&model, 2.0);
        // Edit a handful of gates (K ≪ N) plus one routed net's width.
        let wide = crate::corners::corner_annotation(&model, 5.0);
        let mut next = prev.clone();
        for gi in [0u32, 2, 5] {
            next.set_gate(GateId(gi), wide.gate(GateId(gi)).expect("gate").clone());
        }
        let routed = (0..compiled.drawn_wires.len())
            .find(|&n| compiled.drawn_wires[n].is_some())
            .expect("routed net");
        next.set_net(
            NetId(routed as u32),
            crate::annotate::NetAnnotation {
                printed_width_nm: 120.0,
            },
        );

        let mut warm = compiled.scratch();
        compiled.evaluate(&mut warm, Some(&prev)).expect("warm");
        let eco = compiled
            .evaluate_eco(&mut warm, Some(&prev), Some(&next))
            .expect("eco");
        let mut fresh = compiled.scratch();
        let full = compiled.evaluate(&mut fresh, Some(&next)).expect("full");
        assert_eq!(eco, full);
        // A sparse edit must not dirty the whole design.
        assert!(
            warm.eco_gate_dirty.iter().filter(|&&dirty| dirty).count() < d.netlist().gate_count()
        );
        // The warm state is itself a valid base: ECO back to `prev`
        // reproduces the original full analysis bit for bit.
        let back = compiled
            .evaluate_eco(&mut warm, Some(&next), Some(&prev))
            .expect("back");
        let mut s2 = compiled.scratch();
        let orig = compiled.evaluate(&mut s2, Some(&prev)).expect("orig");
        assert_eq!(back, orig);
    }

    #[test]
    fn eco_handles_missing_annotations() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let ann = crate::corners::corner_annotation(&model, 3.0);
        let mut warm = compiled.scratch();
        let drawn = compiled.evaluate(&mut warm, None).expect("drawn");
        // None → Some: every annotated gate dirties; still bit-identical.
        let eco = compiled
            .evaluate_eco(&mut warm, None, Some(&ann))
            .expect("eco");
        let mut fresh = compiled.scratch();
        let full = compiled.evaluate(&mut fresh, Some(&ann)).expect("full");
        assert_eq!(eco, full);
        // Some → None: retracting the ECO restores the drawn analysis.
        let reverted = compiled
            .evaluate_eco(&mut warm, Some(&ann), None)
            .expect("revert");
        assert_eq!(reverted, drawn);
        // A no-op diff leaves every stored bit alone.
        let noop = compiled.evaluate_eco(&mut warm, None, None).expect("noop");
        assert_eq!(noop, drawn);
        assert!(warm.eco_gate_dirty.iter().all(|&dirty| !dirty));
    }

    #[test]
    fn gate_sensitivities_match_baseline_and_point_slow() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let cells = compiled.sample_cells(&compiled.base_records);
        let mut scratch = compiled.scratch();
        let report = compiled.evaluate(&mut scratch, None).expect("report");
        let sens = compiled
            .gate_sensitivities(&mut scratch, &cells, 0.125)
            .expect("sensitivities");
        let n = d.netlist().gate_count();
        assert_eq!(sens.slack_ps.len(), n);
        assert_eq!(sens.ddelay_dl_ps_per_nm.len(), n);
        // The baseline of the pass is the drawn analysis, bit for bit.
        assert_eq!(
            sens.worst_slack_ps.to_bits(),
            report.worst_slack_ps().to_bits()
        );
        // Net slacks are bounded below by the worst endpoint slack, and
        // the worst path's driver attains it.
        let min = sens.slack_ps.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(sens
            .slack_ps
            .iter()
            .all(|s| *s >= sens.worst_slack_ps - 1e-9));
        assert!((min - sens.worst_slack_ps).abs() < 1e-6);
        // Longer channels are slower: the derivative is positive for the
        // bulk of the design (every gate, for this library).
        let positive = sens
            .ddelay_dl_ps_per_nm
            .iter()
            .filter(|d| **d > 0.0)
            .count();
        assert!(positive * 2 > n, "{positive} of {n} gates slow with L");
        // Deterministic: a second pass reproduces identical bits.
        let again = compiled
            .gate_sensitivities(&mut scratch, &cells, 0.125)
            .expect("again");
        assert_eq!(sens.slack_ps, again.slack_ps);
        assert_eq!(sens.ddelay_dl_ps_per_nm, again.ddelay_dl_ps_per_nm);
    }

    #[test]
    fn eco_without_prior_evaluation_is_rejected() {
        let d = design();
        let model = TimingModel::new(&d, ProcessParams::n90(), 800.0).expect("model");
        let compiled = model.compile().expect("compile");
        let mut cold = compiled.scratch();
        let err = compiled
            .evaluate_eco(&mut cold, None, None)
            .expect_err("cold scratch must be rejected");
        assert!(matches!(err, StaError::InvalidIncremental(_)));
    }
}
