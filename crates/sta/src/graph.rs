//! The timing graph: arrival/required propagation, slack, and speed paths.

use crate::annotate::CdAnnotation;
use crate::error::{Result, StaError};
use crate::liberty::{CellTiming, TimingLibrary, CLOCK_SLEW_PS, PRIMARY_INPUT_SLEW_PS};
use postopc_device::{Wire, WireLayerParams};
use postopc_layout::{Design, GateId, NetId};

/// A configured timing engine over a compiled design.
///
/// ```
/// use postopc_sta::TimingModel;
/// use postopc_layout::{Design, generate, TechRules};
/// use postopc_device::ProcessParams;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = Design::compile(generate::ripple_carry_adder(4)?, TechRules::n90())?;
/// let model = TimingModel::new(&design, ProcessParams::n90(), 500.0)?;
/// let report = model.analyze(None)?;
/// assert!(report.critical_delay_ps() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimingModel<'d> {
    design: &'d Design,
    library: TimingLibrary,
    clock_ps: f64,
    wire_layer: WireLayerParams,
}

/// One timed path from a primary input to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// The endpoint (primary-output net).
    pub endpoint: NetId,
    /// Arrival time at the endpoint, in ps.
    pub arrival_ps: f64,
    /// Slack at the endpoint, in ps.
    pub slack_ps: f64,
    /// Gates along the path, launch to capture order.
    pub gates: Vec<GateId>,
}

/// The result of one timing analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrivals: Vec<f64>,
    requireds: Vec<f64>,
    gate_delays: Vec<f64>,
    slews: Vec<f64>,
    endpoint_slacks: Vec<(NetId, f64)>,
    clock_ps: f64,
    leakage_ua: f64,
}

impl<'d> TimingModel<'d> {
    /// Builds a timing model with the given clock period (ps).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::InvalidClock`] for a non-positive clock, or a
    /// device error from characterization.
    pub fn new(
        design: &'d Design,
        process: postopc_device::ProcessParams,
        clock_ps: f64,
    ) -> Result<TimingModel<'d>> {
        if !(clock_ps.is_finite() && clock_ps > 0.0) {
            return Err(StaError::InvalidClock(clock_ps));
        }
        let library = TimingLibrary::characterize(design.library(), process)?;
        Ok(TimingModel {
            design,
            library,
            clock_ps,
            wire_layer: WireLayerParams::m1_90nm(),
        })
    }

    /// The underlying design.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// The characterized timing library.
    pub fn library(&self) -> &TimingLibrary {
        &self.library
    }

    /// The clock period in ps.
    pub fn clock_ps(&self) -> f64 {
        self.clock_ps
    }

    /// The metal-1 wire parameters the model builds net RC from.
    pub(crate) fn wire_layer(&self) -> &WireLayerParams {
        &self.wire_layer
    }

    /// Compiles the annotation-invariant structure (topological order,
    /// drawn wires, drawn cell timings and transistor records) into a
    /// [`CompiledSta`](crate::CompiledSta) evaluator, for workloads that
    /// analyze the same design many times with different annotations —
    /// corners and Monte Carlo. Evaluation results are bit-identical to
    /// [`Self::analyze`].
    ///
    /// # Errors
    ///
    /// Propagates device errors from building the drawn wire models.
    pub fn compile(&self) -> Result<crate::compiled::CompiledSta<'_>> {
        crate::compiled::CompiledSta::new(self)
    }

    /// Runs timing with optional post-OPC CD annotation (`None` = drawn).
    ///
    /// # Errors
    ///
    /// Propagates device errors for non-physical annotated dimensions.
    pub fn analyze(&self, annotation: Option<&CdAnnotation>) -> Result<TimingReport> {
        let netlist = self.design.netlist();
        let tech = self.design.tech();
        let n_nets = netlist.nets().len();
        let n_gates = netlist.gate_count();

        // Per-gate electrical views.
        let mut timings: Vec<CellTiming> = Vec::with_capacity(n_gates);
        let mut leakage = 0.0;
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let timing = match annotation.and_then(|a| a.gate(GateId(gi as u32))) {
                Some(ann) => self.library.annotated_timing(gate.kind, &ann.transistors)?,
                None => self.library.drawn_timing(gate.kind, gate.drive),
            };
            leakage += timing.leakage_ua;
            timings.push(timing);
        }

        // Per-net wires and sink loads.
        let mut sink_cap = vec![0.0f64; n_nets];
        for (gi, gate) in netlist.gates().iter().enumerate() {
            for &input in &gate.inputs {
                sink_cap[input.0 as usize] += timings[gi].input_cap_ff;
            }
        }
        let mut wires: Vec<Option<Wire>> = Vec::with_capacity(n_nets);
        for (ni, _) in netlist.nets().iter().enumerate() {
            let net = NetId(ni as u32);
            let length = self
                .design
                .routing()
                .route_of(net)
                .map(|r| r.length_nm)
                .unwrap_or(0.0);
            if length < 1.0 {
                wires.push(None);
                continue;
            }
            let drawn_width = tech.m1_width as f64;
            let spacing = tech.m1_space as f64;
            let wire =
                Wire::new(self.wire_layer, length, drawn_width, spacing).map_err(StaError::from)?;
            let wire = match annotation.and_then(|a| a.net(net)) {
                Some(net_ann) => wire
                    .with_printed_width(net_ann.printed_width_nm)
                    .map_err(StaError::from)?,
                None => wire,
            };
            wires.push(Some(wire));
        }

        // Gate delays and output slews, in topological order: each gate's
        // NLDM table is evaluated at (its worst input slew, its lumped
        // sink load), plus the Elmore excess of a routed wire over the
        // lumped `R·C` the table already charges. Registers launch their
        // Q from the clock edge (at the clock's slew) regardless of data
        // arrivals; primary inputs arrive with a nominal board-level slew.
        let mut gate_delays = vec![0.0f64; n_gates];
        let mut slews = vec![PRIMARY_INPUT_SLEW_PS; n_nets];
        for &gid in netlist.topological_order() {
            let gate = netlist.gate(gid);
            let t = &timings[gid.0 as usize];
            let slew_in = if gate.kind.is_sequential() {
                CLOCK_SLEW_PS
            } else {
                gate.inputs
                    .iter()
                    .map(|n| slews[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            let out = gate.output.0 as usize;
            let c_sinks = sink_cap[out] + t.output_cap_ff;
            let table_delay = t.nldm.delay_ps(slew_in, c_sinks);
            gate_delays[gid.0 as usize] = match &wires[out] {
                Some(w) => {
                    let r = t.drive_r_kohm();
                    table_delay + (w.elmore_delay_ps(r, c_sinks) - r * c_sinks)
                }
                None => table_delay,
            };
            slews[out] = t.nldm.output_slew_ps(slew_in, c_sinks);
        }

        // Forward arrivals in topological order.
        let mut arrivals = vec![0.0f64; n_nets];
        for &gid in netlist.topological_order() {
            let gate = netlist.gate(gid);
            let worst_in = if gate.kind.is_sequential() {
                0.0 // launched by the clock edge, not by data
            } else {
                gate.inputs
                    .iter()
                    .map(|n| arrivals[n.0 as usize])
                    .fold(0.0, f64::max)
            };
            arrivals[gate.output.0 as usize] = worst_in + gate_delays[gid.0 as usize];
        }

        // Backward required times. Endpoints: primary outputs (required at
        // the clock period) and register D pins (required a setup time
        // before the next edge). Registers do not propagate requireds
        // backward through themselves.
        let mut requireds = vec![f64::INFINITY; n_nets];
        for &po in netlist.primary_outputs() {
            requireds[po.0 as usize] = self.clock_ps;
        }
        let mut endpoint_required: Vec<(NetId, f64)> = netlist
            .primary_outputs()
            .iter()
            .map(|&po| (po, self.clock_ps))
            .collect();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            if let Some(seq) = &timings[gi].sequential {
                let d_net = gate.inputs[0];
                let required = self.clock_ps - seq.setup_ps;
                let r = &mut requireds[d_net.0 as usize];
                *r = r.min(required);
                endpoint_required.push((d_net, required));
            }
        }
        for &gid in netlist.topological_order().iter().rev() {
            let gate = netlist.gate(gid);
            if gate.kind.is_sequential() {
                continue;
            }
            let req_out = requireds[gate.output.0 as usize];
            if req_out.is_finite() {
                let req_in = req_out - gate_delays[gid.0 as usize];
                for &input in &gate.inputs {
                    let r = &mut requireds[input.0 as usize];
                    *r = r.min(req_in);
                }
            }
        }

        // Endpoint slacks, one entry per endpoint net (a net that is both
        // a primary output and a register D keeps its tighter requirement).
        let mut worst_by_net: std::collections::HashMap<NetId, f64> =
            std::collections::HashMap::new();
        for (net, required) in endpoint_required {
            let slack = required - arrivals[net.0 as usize];
            let entry = worst_by_net.entry(net).or_insert(f64::INFINITY);
            *entry = entry.min(slack);
        }
        let mut endpoint_slacks: Vec<(NetId, f64)> = worst_by_net.into_iter().collect();
        endpoint_slacks.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

        Ok(TimingReport {
            arrivals,
            requireds,
            gate_delays,
            slews,
            endpoint_slacks,
            clock_ps: self.clock_ps,
            leakage_ua: leakage,
        })
    }
}

impl TimingReport {
    /// Assembles a report from propagated vectors (the compiled evaluator
    /// builds reports through this; `analyze` constructs them literally).
    pub(crate) fn from_parts(
        arrivals: Vec<f64>,
        requireds: Vec<f64>,
        gate_delays: Vec<f64>,
        slews: Vec<f64>,
        endpoint_slacks: Vec<(NetId, f64)>,
        clock_ps: f64,
        leakage_ua: f64,
    ) -> TimingReport {
        TimingReport {
            arrivals,
            requireds,
            gate_delays,
            slews,
            endpoint_slacks,
            clock_ps,
            leakage_ua,
        }
    }

    /// Arrival time of a net, in ps.
    pub fn arrival_ps(&self, net: NetId) -> f64 {
        self.arrivals[net.0 as usize]
    }

    /// Required time of a net, in ps (`inf` for nets feeding no endpoint).
    pub fn required_ps(&self, net: NetId) -> f64 {
        self.requireds[net.0 as usize]
    }

    /// Slack of a net, in ps.
    pub fn slack_ps(&self, net: NetId) -> f64 {
        self.required_ps(net) - self.arrival_ps(net)
    }

    /// Delay of a gate's worst arc, in ps.
    pub fn gate_delay_ps(&self, gate: GateId) -> f64 {
        self.gate_delays[gate.0 as usize]
    }

    /// Signal transition time (slew) on a net, in ps. Driven nets carry
    /// their driver's NLDM output slew; primary-input and undriven nets
    /// carry the nominal [`PRIMARY_INPUT_SLEW_PS`].
    pub fn slew_ps(&self, net: NetId) -> f64 {
        self.slews[net.0 as usize]
    }

    /// Endpoint slacks, most critical first.
    pub fn endpoint_slacks(&self) -> &[(NetId, f64)] {
        &self.endpoint_slacks
    }

    /// The worst endpoint slack, in ps.
    pub fn worst_slack_ps(&self) -> f64 {
        self.endpoint_slacks
            .first()
            .map(|&(_, s)| s)
            .unwrap_or(f64::INFINITY)
    }

    /// The longest endpoint arrival (critical path delay), in ps.
    pub fn critical_delay_ps(&self) -> f64 {
        self.clock_ps - self.worst_slack_ps()
    }

    /// Total static leakage of the design, in µA.
    pub fn leakage_ua(&self) -> f64 {
        self.leakage_ua
    }

    /// The `k` most critical speed paths (worst path per endpoint, ranked
    /// by endpoint slack — the paper's "speed path" definition).
    pub fn top_paths(&self, design: &Design, k: usize) -> Vec<TimingPath> {
        let netlist = design.netlist();
        self.endpoint_slacks
            .iter()
            .take(k)
            .map(|&(endpoint, slack)| {
                // Trace the worst-arrival chain backward from the endpoint.
                let mut gates = Vec::new();
                let mut net = endpoint;
                while let Some(gid) = netlist.driver(net) {
                    gates.push(gid);
                    let gate = netlist.gate(gid);
                    if gate.kind.is_sequential() {
                        break; // the path launches at this register's Q
                    }
                    let next = gate
                        .inputs
                        .iter()
                        .max_by(|a, b| {
                            self.arrivals[a.0 as usize].total_cmp(&self.arrivals[b.0 as usize])
                        })
                        .copied();
                    match next {
                        Some(n) => net = n,
                        None => break,
                    }
                }
                gates.reverse();
                TimingPath {
                    endpoint,
                    arrival_ps: self.arrivals[endpoint.0 as usize],
                    slack_ps: slack,
                    gates,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_device::ProcessParams;
    use postopc_layout::{generate, TechRules};

    fn model(design: &Design, clock: f64) -> TimingModel<'_> {
        TimingModel::new(design, ProcessParams::n90(), clock).expect("model")
    }

    fn rca_design() -> Design {
        Design::compile(
            generate::ripple_carry_adder(4).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    #[test]
    fn rejects_bad_clock() {
        let d = rca_design();
        assert!(TimingModel::new(&d, ProcessParams::n90(), 0.0).is_err());
        assert!(TimingModel::new(&d, ProcessParams::n90(), f64::NAN).is_err());
    }

    #[test]
    fn arrivals_increase_along_carry_chain() {
        let d = rca_design();
        let report = model(&d, 1000.0).analyze(None).expect("analyze");
        // Sum outputs s0..s3 arrive progressively later (carry ripples).
        let nl = d.netlist();
        let arrival_of = |name: &str| {
            let id = nl
                .nets()
                .iter()
                .position(|n| n.name == name)
                .map(|i| NetId(i as u32))
                .expect("net exists");
            report.arrival_ps(id)
        };
        let a0 = arrival_of("fa0_s_o");
        let a3 = arrival_of("fa3_s_o");
        assert!(a3 > a0 + 10.0, "carry chain: {a0} -> {a3}");
    }

    #[test]
    fn worst_slack_matches_critical_delay() {
        let d = rca_design();
        let report = model(&d, 800.0).analyze(None).expect("analyze");
        let ws = report.worst_slack_ps();
        assert!((report.critical_delay_ps() - (800.0 - ws)).abs() < 1e-9);
        // Slack of the most critical endpoint equals worst slack.
        let (net, s) = report.endpoint_slacks()[0];
        assert_eq!(s, ws);
        assert!((report.slack_ps(net) - s).abs() < 1e-9);
    }

    #[test]
    fn paths_are_connected_chains() {
        let d = rca_design();
        let report = model(&d, 800.0).analyze(None).expect("analyze");
        let paths = report.top_paths(&d, 5);
        assert_eq!(paths.len(), 5);
        let nl = d.netlist();
        for p in &paths {
            assert!(!p.gates.is_empty());
            // Consecutive gates connected: output of gate i is an input of i+1.
            for pair in p.gates.windows(2) {
                let out = nl.gate(pair[0]).output;
                assert!(nl.gate(pair[1]).inputs.contains(&out));
            }
            // Last gate drives the endpoint.
            assert_eq!(
                nl.gate(*p.gates.last().expect("non-empty")).output,
                p.endpoint
            );
            // Path slack ordering.
            assert!(p.slack_ps >= report.worst_slack_ps() - 1e-9);
        }
    }

    #[test]
    fn annotation_changes_timing() {
        use crate::annotate::{CdAnnotation, GateAnnotation};
        let d = rca_design();
        let m = model(&d, 800.0);
        let drawn = m.analyze(None).expect("analyze");
        // Annotate every gate 5 nm short: faster, leakier.
        let mut ann = CdAnnotation::new();
        for (gi, g) in d.netlist().gates().iter().enumerate() {
            let mut records = m.library().drawn_transistors(g.kind, g.drive).to_vec();
            for r in &mut records {
                r.l_delay_nm -= 5.0;
                r.l_leakage_nm -= 5.0;
            }
            ann.set_gate(
                GateId(gi as u32),
                GateAnnotation {
                    transistors: records,
                },
            );
        }
        let fast = m.analyze(Some(&ann)).expect("analyze");
        assert!(fast.critical_delay_ps() < drawn.critical_delay_ps());
        assert!(fast.leakage_ua() > 1.3 * drawn.leakage_ua());
    }

    #[test]
    fn longer_wires_mean_more_delay() {
        // An inverter chain placed across rows accumulates wire delay; the
        // report must include finite positive delays.
        let d = Design::compile(
            generate::inverter_chain(40).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let report = model(&d, 2000.0).analyze(None).expect("analyze");
        assert!(report.critical_delay_ps() > 40.0);
        assert!(report.critical_delay_ps() < 2000.0);
    }

    #[test]
    fn leakage_is_positive_and_scales_with_gates() {
        let small = Design::compile(
            generate::inverter_chain(10).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let big = Design::compile(
            generate::inverter_chain(100).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design");
        let l_small = model(&small, 1000.0)
            .analyze(None)
            .expect("analyze")
            .leakage_ua();
        let l_big = model(&big, 1000.0)
            .analyze(None)
            .expect("analyze")
            .leakage_ua();
        assert!(l_big > 5.0 * l_small);
    }
}
