//! Placement: bin-packing gate nodes onto `(waveguide, lane)` slots.
//!
//! The placer answers two questions:
//!
//! * **how much spectrum can one waveguide carry?** Lanes of the
//!   [`fdm_lane_base`] grid stack onto a waveguide while their built
//!   [`ChannelPlan`]s stay pairwise disjoint
//!   ([`ChannelPlan::overlaps`]), keep the grid's guard band
//!   ([`ChannelPlan::guard_band_to`]), and the whole stack's
//!   [`LaneIsolationReport`] stays clean — the moment isolation drops
//!   below the configured floor, the next slot opens a new waveguide;
//! * **which slot runs which gate?** Within each ASAP wavefront, every
//!   gate node goes to the slot with the least load *in that level*,
//!   ties broken by the slot's crosstalk penalty (worst Lorentzian
//!   leakage against its co-resident lanes) and then by index. Gates
//!   of one wavefront therefore spread across lanes and waveguides —
//!   the lanes of a waveguide start on one scheduler shard, so a
//!   wavefront's requests share its drain cycles by construction.

use crate::levelize::Levelized;
use crate::{CompileError, CompilerConfig};
use magnon_circuits::netlist::{
    fdm_lane_base, fdm_lane_guard_band, packed_frequency_step, Circuit, NodeId,
};
use magnon_core::channel::{ChannelPlan, DispersionModel};
use magnon_core::crosstalk::LaneIsolationReport;
use magnon_core::gate::{LaneId, WaveguideId};
use magnon_physics::waveguide::Waveguide;

/// One `(waveguide, lane)` execution slot of a compiled plan. A slot
/// hosts the two gate shapes circuits lower to (MAJ-3, XOR-2) on its
/// lane's slice of the spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSpec {
    /// The physical waveguide the slot lives on (plan-relative id; an
    /// executor may rebase it when sharing a scheduler between plans).
    pub waveguide: WaveguideId,
    /// The frequency lane within that waveguide.
    pub lane: LaneId,
    /// First channel frequency of the lane's band (Hz).
    pub base_frequency: f64,
    /// Channel spacing within the band (Hz).
    pub frequency_step: f64,
}

/// The slot table and gate-to-slot assignment of a compiled circuit.
#[derive(Debug, Clone)]
pub struct Placement {
    slots: Vec<SlotSpec>,
    /// Node index → slot index, gate nodes only.
    assignment: Vec<Option<usize>>,
    lanes_per_waveguide: u16,
    waveguides_used: usize,
    min_guard_band: f64,
    isolation_db: f64,
}

impl Placement {
    /// The slot table, densest-packed waveguide first.
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// The slot gate node `id` executes on (`None` for free nodes and
    /// foreign handles).
    pub fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.assignment.get(id.index()).copied().flatten()
    }

    /// Lanes stacked per waveguide before isolation (or the lane cap)
    /// stopped the packer.
    pub fn lanes_per_waveguide(&self) -> u16 {
        self.lanes_per_waveguide
    }

    /// Distinct waveguides the plan claims.
    pub fn waveguides_used(&self) -> usize {
        self.waveguides_used
    }

    /// Smallest spectral gap (Hz) between two lanes sharing a
    /// waveguide; infinite when no waveguide carries two lanes.
    pub fn min_guard_band(&self) -> f64 {
        self.min_guard_band
    }

    /// Worst inter-lane isolation (dB) across the plan's waveguides;
    /// infinite when no waveguide carries two lanes.
    pub fn isolation_db(&self) -> f64 {
        self.isolation_db
    }
}

/// Runs the placement pass.
///
/// # Errors
///
/// * [`CompileError::Placement`] when not even lane 0 builds on the
///   target waveguide.
/// * [`CompileError::Gate`] for channel-plan construction failures.
pub fn place(
    circuit: &Circuit,
    levelized: &Levelized,
    waveguide: &Waveguide,
    config: &CompilerConfig,
) -> Result<Placement, CompileError> {
    let width = circuit.width();
    let step = packed_frequency_step(width);
    let guard = fdm_lane_guard_band(width);

    if levelized.max_level_width() == 0 {
        // No gates: nothing to place, nothing to claim.
        return Ok(Placement {
            slots: Vec::new(),
            assignment: vec![None; circuit.node_count()],
            lanes_per_waveguide: 0,
            waveguides_used: 0,
            min_guard_band: f64::INFINITY,
            isolation_db: f64::INFINITY,
        });
    }

    // 1. Stack lanes onto one waveguide while the spectrum stays clean:
    //    disjoint bands, the grid's guard band, and isolation above the
    //    configured floor. This is the compile-time verification the
    //    scheduler's own build-time overlap check later re-asserts.
    let mut lane_plans: Vec<ChannelPlan> = Vec::new();
    for lane in 0..config.max_lanes_per_waveguide {
        let Ok(plan) = ChannelPlan::uniform(
            waveguide,
            DispersionModel::Exchange,
            width,
            fdm_lane_base(lane, width),
            step,
        ) else {
            break;
        };
        let disjoint = lane_plans
            .iter()
            .all(|p| !p.overlaps(&plan) && p.guard_band_to(&plan) >= guard - 1.0);
        if !disjoint {
            break;
        }
        if !lane_plans.is_empty() {
            let mut refs: Vec<&ChannelPlan> = lane_plans.iter().collect();
            refs.push(&plan);
            let clean = LaneIsolationReport::analyze(&refs, config.linewidth)
                .map(|r| r.is_clean(config.min_isolation_db))
                .unwrap_or(false);
            if !clean {
                break;
            }
        }
        lane_plans.push(plan);
    }
    if lane_plans.is_empty() {
        return Err(CompileError::Placement {
            reason: format!("lane 0 of the w{width} grid does not build on this waveguide"),
        });
    }
    let lanes_per_waveguide = lane_plans.len() as u16;

    // 2. Size the slot table to the concurrency demand, capped by the
    //    spectrum budget. Slots fill waveguide 0's lanes first, then
    //    open waveguide 1, and so on — FDM density before hardware.
    let want = levelized.max_level_width();
    let capacity = config.max_waveguides.max(1) * lanes_per_waveguide as usize;
    let slot_count = want.min(capacity);
    let slots: Vec<SlotSpec> = (0..slot_count)
        .map(|k| {
            let lane = (k % lanes_per_waveguide as usize) as u16;
            SlotSpec {
                waveguide: WaveguideId((k / lanes_per_waveguide as usize) as u64),
                lane: LaneId(lane),
                base_frequency: fdm_lane_base(lane, width),
                frequency_step: step,
            }
        })
        .collect();

    // 3. Per-slot crosstalk penalty: the worst Lorentzian leakage the
    //    slot's lane picks up from co-resident lanes on its waveguide —
    //    the cost-function term that prefers spectrally lonely slots
    //    when level loads tie.
    let penalty: Vec<f64> = slots
        .iter()
        .map(|s| {
            slots
                .iter()
                .filter(|o| o.waveguide == s.waveguide && o.lane != s.lane)
                .map(|o| {
                    let gap =
                        lane_plans[s.lane.0 as usize].guard_band_to(&lane_plans[o.lane.0 as usize]);
                    1.0 / (1.0 + (gap / config.linewidth).powi(2))
                })
                .fold(0.0, f64::max)
        })
        .collect();

    // 4. Assign each wavefront's gates: least level-load first, then
    //    least crosstalk, then lowest index (deterministic).
    let mut assignment = vec![None; circuit.node_count()];
    for level in levelized.levels() {
        let mut level_load = vec![0usize; slot_count];
        for node in level {
            let best = (0..slot_count)
                .min_by(|&a, &b| {
                    level_load[a]
                        .cmp(&level_load[b])
                        .then(
                            penalty[a]
                                .partial_cmp(&penalty[b])
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.cmp(&b))
                })
                .expect("slot_count >= 1 when gates exist");
            assignment[node.index()] = Some(best);
            level_load[best] += 1;
        }
    }

    // 5. Aggregate spectrum facts over the lanes actually used.
    let waveguides_used = slots
        .last()
        .map(|s| s.waveguide.0 as usize + 1)
        .unwrap_or(0);
    let used_lanes = lanes_per_waveguide.min(slot_count as u16) as usize;
    let (min_guard_band, isolation_db) = if used_lanes >= 2 {
        let refs: Vec<&ChannelPlan> = lane_plans[..used_lanes].iter().collect();
        let report = LaneIsolationReport::analyze(&refs, config.linewidth)?;
        (report.min_guard_band, report.isolation_db)
    } else {
        (f64::INFINITY, f64::INFINITY)
    };

    Ok(Placement {
        slots,
        assignment,
        lanes_per_waveguide,
        waveguides_used,
        min_guard_band,
        isolation_db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelize::levelize;

    /// `gates` independent XOR gates — one maximally wide wavefront.
    fn wide_circuit(gates: usize) -> Circuit {
        let mut c = Circuit::new(8).unwrap();
        for _ in 0..gates {
            let a = c.input();
            let b = c.input();
            let x = c.xor2(a, b).unwrap();
            c.mark_output(x).unwrap();
        }
        c
    }

    #[test]
    fn packs_denser_than_one_gate_per_waveguide() {
        let guide = Waveguide::paper_default().unwrap();
        let config = CompilerConfig::default();
        let circuit = wide_circuit(6);
        let lv = levelize(&circuit);
        let placement = place(&circuit, &lv, &guide, &config).unwrap();
        assert_eq!(placement.slots().len(), 6);
        // Naive placement claims one waveguide per gate (6); stacking
        // FDM lanes must beat that.
        assert!(
            placement.waveguides_used() < 6,
            "expected FDM stacking, got {} waveguides",
            placement.waveguides_used()
        );
        assert!(placement.lanes_per_waveguide() >= 2);
        // The spectrum facts the stacking relied on.
        assert!(placement.min_guard_band() >= fdm_lane_guard_band(8) - 1.0);
        assert!(placement.isolation_db() >= config.min_isolation_db);
    }

    #[test]
    fn level_load_spreads_across_slots() {
        let guide = Waveguide::paper_default().unwrap();
        let circuit = wide_circuit(4);
        let lv = levelize(&circuit);
        let placement = place(&circuit, &lv, &guide, &CompilerConfig::default()).unwrap();
        // 4 concurrent gates over >= 2 slots: no slot hosts everything.
        let mut per_slot = vec![0usize; placement.slots().len()];
        for id in circuit.node_ids() {
            if let Some(slot) = placement.slot_of(id) {
                per_slot[slot] += 1;
            }
        }
        assert!(per_slot.iter().all(|&n| n == 1), "{per_slot:?}");
    }

    #[test]
    fn lane_cap_limits_stacking() {
        let guide = Waveguide::paper_default().unwrap();
        let config = CompilerConfig {
            max_lanes_per_waveguide: 1,
            ..CompilerConfig::default()
        };
        let circuit = wide_circuit(3);
        let lv = levelize(&circuit);
        let placement = place(&circuit, &lv, &guide, &config).unwrap();
        assert_eq!(placement.lanes_per_waveguide(), 1);
        assert_eq!(placement.waveguides_used(), 3);
        assert_eq!(placement.min_guard_band(), f64::INFINITY);
    }

    #[test]
    fn capacity_caps_the_slot_table() {
        let guide = Waveguide::paper_default().unwrap();
        let config = CompilerConfig {
            max_waveguides: 1,
            max_lanes_per_waveguide: 2,
            ..CompilerConfig::default()
        };
        let circuit = wide_circuit(5);
        let lv = levelize(&circuit);
        let placement = place(&circuit, &lv, &guide, &config).unwrap();
        // Demand (5) exceeds capacity (2): gates share slots.
        assert_eq!(placement.slots().len(), 2);
        assert_eq!(placement.waveguides_used(), 1);
    }
}
