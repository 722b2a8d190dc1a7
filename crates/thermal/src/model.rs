//! RC-network assembly and steady-state solving.

use darksil_floorplan::Floorplan;
use std::sync::Arc;

use darksil_numerics::{solve_spd_factored, CsrMatrix, FactorCache, SpdFactors, TripletMatrix};
use darksil_units::{Celsius, Watts};

use crate::{PackageConfig, ThermalError, ThermalMap};

/// A compact thermal model of a floorplan inside a package.
///
/// Node layout for an `n`-core plan (`N = 3n + 2` nodes total):
///
/// | Range          | Layer                         |
/// |----------------|-------------------------------|
/// | `0..n`         | die cells (one per core)      |
/// | `n..2n`        | spreader cells under the die  |
/// | `2n`           | spreader periphery ring       |
/// | `2n+1..3n+1`   | sink cells under the die      |
/// | `3n+1`         | sink periphery ring           |
#[derive(Debug, Clone)]
pub struct ThermalModel {
    g: CsrMatrix,
    /// Conductance from each node to ambient (W/K); zero for
    /// non-convecting nodes.
    g_ambient: Vec<f64>,
    /// Heat capacity of each node (J/K).
    capacitance: Vec<f64>,
    ambient: Celsius,
    /// Logical cores (what power maps index).
    cores: usize,
    rows: usize,
    cols: usize,
    /// Die cells per core side: 1 for the block model, s for an s×s
    /// grid-mode subdivision.
    subdivision: usize,
    /// Logical core owning each fine die cell.
    core_of_cell: Vec<usize>,
    /// Sparse LDLᵀ factors of `g`, resolved at construction through the
    /// process-global `FactorCache` — "factor once" literally happens
    /// when the model is assembled, so every steady-state solve is a
    /// pure substitution. `None` means the matrix is not factorable and
    /// solves go through the iterative chain.
    factors: Option<Arc<SpdFactors>>,
}

impl ThermalModel {
    /// Builds the RC network for `plan` inside `package`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidPackage`] for invalid package
    /// parameters and [`ThermalError::LayerTooSmall`] when the spreader
    /// or sink cannot cover the die.
    pub fn new(plan: &Floorplan, package: PackageConfig) -> Result<Self, ThermalError> {
        Self::with_subdivision(plan, package, 1)
    }

    /// Builds the RC network with each core subdivided into
    /// `subdivision × subdivision` die/spreader/sink cells — HotSpot's
    /// "grid mode". Power maps remain *per core* (each core's power is
    /// spread uniformly over its cells); reported die temperatures are
    /// the per-core maxima, which resolves intra-die gradients more
    /// sharply at the cost of `s²` more unknowns.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidPackage`] for invalid package
    /// parameters or a zero subdivision, and
    /// [`ThermalError::LayerTooSmall`] when the spreader or sink cannot
    /// cover the die.
    pub fn with_subdivision(
        plan: &Floorplan,
        package: PackageConfig,
        subdivision: usize,
    ) -> Result<Self, ThermalError> {
        package.validate()?;
        if subdivision == 0 {
            return Err(ThermalError::InvalidPackage {
                name: "subdivision",
                value: 0.0,
            });
        }
        let s = subdivision;
        let fine = if s == 1 {
            plan.clone()
        } else {
            Floorplan::grid(
                plan.rows() * s,
                plan.cols() * s,
                plan.core_area() / (s * s) as f64,
            )
            .map_err(|_| ThermalError::InvalidPackage {
                name: "subdivision",
                value: s as f64,
            })?
        };
        let mut model = Self::assemble(&fine, package)?;
        // Re-express the model in logical-core terms.
        let cores = plan.core_count();
        let mut core_of_cell = vec![0_usize; fine.core_count()];
        for (cell, owner) in core_of_cell.iter_mut().enumerate() {
            let row = cell / fine.cols();
            let col = cell % fine.cols();
            *owner = (row / s) * plan.cols() + col / s;
        }
        model.cores = cores;
        model.rows = plan.rows();
        model.cols = plan.cols();
        model.subdivision = s;
        model.core_of_cell = core_of_cell;
        Ok(model)
    }

    /// Assembles the RC network treating every floorplan cell as one
    /// thermal cell (the logical/fine distinction is installed by the
    /// callers).
    fn assemble(plan: &Floorplan, package: PackageConfig) -> Result<Self, ThermalError> {
        let n = plan.core_count();
        let cell_area = plan.core_area().value() * 1.0e-6; // mm² → m²
        let die_area = cell_area * n as f64;

        let spreader_side = package
            .spreader
            .side_m
            .unwrap_or(plan.chip_width_mm() * 1e-3);
        let sink_side = package.sink.side_m.unwrap_or(spreader_side);
        let spreader_area = spreader_side * spreader_side;
        let sink_area = sink_side * sink_side;
        if spreader_area < die_area {
            return Err(ThermalError::LayerTooSmall { layer: "spreader" });
        }
        if sink_area < spreader_area {
            return Err(ThermalError::LayerTooSmall { layer: "sink" });
        }

        let total = 3 * n + 2;
        let sp_periph = 2 * n; // spreader periphery node index
        let sink_base = 2 * n + 1; // first sink cell
        let sink_periph = 3 * n + 1;

        let die = &package.die;
        let tim = &package.interface;
        let sp = &package.spreader;
        let sink = &package.sink;

        let mut g = TripletMatrix::new(total, total);

        // Lateral conduction: between adjacent equal-size cells the
        // conductance is k·(t·w)/w = k·t.
        let g_die_lat = die.conductivity * die.thickness_m;
        let g_sp_lat = sp.conductivity * sp.thickness_m;
        let g_sink_lat = sink.conductivity * sink.thickness_m;

        // Vertical resistances per cell column (K/W).
        let r_die_sp = die.thickness_m / 2.0 / (die.conductivity * cell_area)
            + tim.thickness_m / (tim.conductivity * cell_area)
            + sp.thickness_m / 2.0 / (sp.conductivity * cell_area);
        let r_sp_sink = sp.thickness_m / 2.0 / (sp.conductivity * cell_area)
            + sink.thickness_m / 2.0 / (sink.conductivity * cell_area);

        // Ring geometries.
        let sp_ring_area = spreader_area - die_area;
        let sink_ring_area = sink_area - die_area;
        let r_ring_vertical = if sp_ring_area > 0.0 {
            sp.thickness_m / 2.0 / (sp.conductivity * sp_ring_area)
                + sink.thickness_m / 2.0 / (sink.conductivity * sp_ring_area)
        } else {
            f64::INFINITY
        };

        for core in plan.cores() {
            let i = core.index();
            let die_node = i;
            let sp_node = n + i;
            let sink_node = sink_base + i;

            // Vertical stack.
            g.stamp_conductance(die_node, sp_node, 1.0 / r_die_sp);
            g.stamp_conductance(sp_node, sink_node, 1.0 / r_sp_sink);

            // Lateral neighbours (each undirected pair stamped once).
            let mut degree = 0;
            for nb in plan
                .neighbors(core)
                .map_err(|_| ThermalError::PowerMapMismatch {
                    got: i,
                    expected: n,
                })?
            {
                degree += 1;
                if nb.index() > i {
                    g.stamp_conductance(die_node, nb.index(), g_die_lat);
                    g.stamp_conductance(sp_node, n + nb.index(), g_sp_lat);
                    g.stamp_conductance(sink_node, sink_base + nb.index(), g_sink_lat);
                }
            }

            // Boundary faces connect to the periphery rings (spreader
            // and sink extend beyond the die; the thin die does not).
            let missing_faces = 4 - degree;
            if missing_faces > 0 && sp_ring_area > 0.0 {
                g.stamp_conductance(sp_node, sp_periph, g_sp_lat * missing_faces as f64);
                g.stamp_conductance(sink_node, sink_periph, g_sink_lat * missing_faces as f64);
            }
        }

        // Spreader ring sits on the sink (ring region).
        if sp_ring_area > 0.0 {
            g.stamp_conductance(sp_periph, sink_periph, 1.0 / r_ring_vertical);
        }

        // Convection to ambient, distributed over the sink by area.
        let g_conv_total = 1.0 / package.convection_resistance;
        let mut g_ambient = vec![0.0; total];
        for i in 0..n {
            let share = cell_area / sink_area;
            g_ambient[sink_base + i] = g_conv_total * share;
            g.stamp_to_reference(sink_base + i, g_conv_total * share);
        }
        let ring_share = sink_ring_area / sink_area;
        g_ambient[sink_periph] = g_conv_total * ring_share;
        g.stamp_to_reference(sink_periph, g_conv_total * ring_share);

        // Heat capacities.
        let mut capacitance = vec![0.0; total];
        for i in 0..n {
            capacitance[i] = die.specific_heat * cell_area * die.thickness_m
                + tim.specific_heat * cell_area * tim.thickness_m;
            capacitance[n + i] = sp.specific_heat * cell_area * sp.thickness_m;
            capacitance[sink_base + i] = sink.specific_heat * cell_area * sink.thickness_m
                + package.convection_capacitance * (cell_area / sink_area);
        }
        capacitance[sp_periph] = (sp.specific_heat * sp_ring_area * sp.thickness_m).max(1e-9);
        capacitance[sink_periph] = sink.specific_heat * sink_ring_area * sink.thickness_m
            + package.convection_capacitance * ring_share;

        let g = g.to_csr();
        let factors = FactorCache::global().get_or_factor(&g);
        Ok(Self {
            g,
            g_ambient,
            capacitance,
            ambient: package.ambient,
            cores: n,
            rows: plan.rows(),
            cols: plan.cols(),
            subdivision: 1,
            core_of_cell: (0..n).collect(),
            factors,
        })
    }

    /// Number of logical cores (what power maps index).
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores
    }

    /// Die cells per core side (1 = block model).
    #[must_use]
    pub fn subdivision(&self) -> usize {
        self.subdivision
    }

    /// Number of fine die cells (`cores · subdivision²`).
    #[must_use]
    pub fn die_cell_count(&self) -> usize {
        self.core_of_cell.len()
    }

    /// Logical core owning each fine die cell, in cell order.
    #[must_use]
    pub fn core_of_cell(&self) -> &[usize] {
        &self.core_of_cell
    }

    /// Total nodes in the network.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.g.rows()
    }

    /// The ambient temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// The conductance matrix (for inspection/validation).
    #[must_use]
    pub fn conductance(&self) -> &CsrMatrix {
        &self.g
    }

    /// Per-node ambient conductances in W/K.
    #[must_use]
    pub fn ambient_conductances(&self) -> &[f64] {
        &self.g_ambient
    }

    /// Per-node heat capacities in J/K.
    #[must_use]
    pub fn capacitances(&self) -> &[f64] {
        &self.capacitance
    }

    /// Floorplan grid shape `(rows, cols)` this model was built for.
    #[must_use]
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Builds the right-hand side `P + G_amb·T_amb` for a per-core
    /// power map.
    pub(crate) fn rhs(&self, power: &[Watts]) -> Result<Vec<f64>, ThermalError> {
        if power.len() != self.cores {
            return Err(ThermalError::PowerMapMismatch {
                got: power.len(),
                expected: self.cores,
            });
        }
        if let Some(bad) = power.iter().position(|p| !p.value().is_finite()) {
            return Err(ThermalError::NonFinitePower {
                core: bad,
                value: power[bad].value(),
            });
        }
        let mut rhs: Vec<f64> = self
            .g_ambient
            .iter()
            .map(|g| g * self.ambient.value())
            .collect();
        let share = 1.0 / (self.subdivision * self.subdivision) as f64;
        for (cell, &owner) in self.core_of_cell.iter().enumerate() {
            rhs[cell] += power[owner].value() * share;
        }
        Ok(rhs)
    }

    /// Wraps a full node state as a map; for subdivided models each
    /// core's die temperature is the maximum over its cells.
    pub(crate) fn map_from_state(&self, state: Vec<f64>) -> ThermalMap {
        if self.subdivision == 1 {
            return ThermalMap::from_state(state, self.cores, self.rows, self.cols);
        }
        let mut die = vec![f64::NEG_INFINITY; self.cores];
        for (cell, &owner) in self.core_of_cell.iter().enumerate() {
            if state[cell] > die[owner] {
                die[owner] = state[cell];
            }
        }
        ThermalMap::from_parts(die, state, self.rows, self.cols)
    }

    /// Solves the steady-state temperatures for a per-core power map.
    ///
    /// The solve prefers the factor-cached fast path (sparse LDLᵀ
    /// factored once per conductance matrix, then reused across every
    /// solve on the same floorplan) and falls back to the robust chain
    /// (preconditioned CG → restarted CG with relaxed tolerance → dense
    /// LU) when the factors are unavailable or residual-checked
    /// solutions drift — so a transiently ill-conditioned system
    /// degrades to a slower solve instead of an error.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] for wrong-length maps,
    /// [`ThermalError::NonFinitePower`] for NaN/Inf power inputs, and
    /// [`ThermalError::Solver`] if every stage of the chain fails.
    pub fn steady_state(&self, power: &[Watts]) -> Result<ThermalMap, ThermalError> {
        let _span = darksil_obs::span("thermal.steady_state");
        #[allow(clippy::cast_precision_loss)]
        darksil_obs::observe("thermal.solve_nodes", self.node_count() as f64);
        let rhs = self.rhs(power)?;
        let (state, _) = solve_spd_factored(self.factors.as_deref(), &self.g, &rhs)?;
        let map = self.map_from_state(state);
        if darksil_obs::events_enabled() {
            let peak = map.peak().value();
            let cores: Vec<f64> = map.die_temperatures().map(Celsius::value).collect();
            darksil_obs::event("thermal.steady", || {
                vec![("peak_c", peak.into()), ("cores", cores.into())]
            });
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_floorplan::{CoreId, Floorplan};
    use darksil_units::SquareMillimeters;

    fn plan() -> Floorplan {
        Floorplan::grid(10, 10, SquareMillimeters::new(5.1)).expect("valid floorplan")
    }

    fn model() -> ThermalModel {
        ThermalModel::new(&plan(), PackageConfig::paper_dac15()).expect("valid thermal model")
    }

    #[test]
    fn network_shape() {
        let m = model();
        assert_eq!(m.core_count(), 100);
        assert_eq!(m.node_count(), 302);
        assert!(m.conductance().is_symmetric(1e-9));
    }

    #[test]
    fn zero_power_sits_at_ambient() {
        let m = model();
        let map = m
            .steady_state(&vec![Watts::zero(); 100])
            .expect("solve succeeds");
        for core in plan().cores() {
            let t = map.core(core);
            assert!((t.value() - 45.0).abs() < 1e-6, "{core}: {t}");
        }
    }

    #[test]
    fn energy_balance_at_steady_state() {
        let m = model();
        let power = vec![Watts::new(1.85); 100]; // 185 W total
        let map = m.steady_state(&power).expect("solve succeeds");
        let out: f64 = m
            .ambient_conductances()
            .iter()
            .zip(map.state())
            .map(|(g, t)| g * (t - m.ambient().value()))
            .sum();
        assert!((out - 185.0).abs() < 1e-3, "convected {out} W of 185 W");
    }

    #[test]
    fn uniform_load_peak_in_plausible_band() {
        // 185 W spread over the whole 100-core chip: sink rise alone is
        // 18.5 °C; die should sit tens of degrees over ambient but well
        // below runaway.
        let m = model();
        let map = m
            .steady_state(&vec![Watts::new(1.85); 100])
            .expect("solve succeeds");
        let peak = map.peak();
        assert!(peak.value() > 60.0 && peak.value() < 90.0, "peak {peak}");
        // Centre runs hotter than the corner under uniform power.
        let centre = map.core(CoreId(55));
        let corner = map.core(CoreId(0));
        assert!(centre > corner);
    }

    #[test]
    fn concentrating_power_raises_the_peak() {
        // The physical core of dark-silicon patterning (Figure 8): the
        // same total power concentrated in a contiguous block runs
        // hotter than when spread out.
        let m = model();
        let total = 150.0;
        let contiguous: Vec<Watts> = (0..100)
            .map(|i| {
                if i < 50 {
                    Watts::new(total / 50.0)
                } else {
                    Watts::zero()
                }
            })
            .collect();
        let spread: Vec<Watts> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    Watts::new(total / 50.0)
                } else {
                    Watts::zero()
                }
            })
            .collect();
        let t_contig = m.steady_state(&contiguous).expect("solve succeeds").peak();
        let t_spread = m.steady_state(&spread).expect("solve succeeds").peak();
        assert!(
            t_contig - t_spread > 0.5,
            "contiguous {t_contig} vs spread {t_spread}"
        );
    }

    #[test]
    fn figure8_scenario_brackets_the_dtm_threshold() {
        // 52 contiguous cores at 196 W total must land near/above the
        // 80 °C DTM threshold; the full chip idle-balanced case far
        // below it.
        let m = model();
        let per_core = 196.0 / 52.0;
        let contiguous: Vec<Watts> = (0..100)
            .map(|i| {
                if i < 52 {
                    Watts::new(per_core)
                } else {
                    Watts::zero()
                }
            })
            .collect();
        let peak = m.steady_state(&contiguous).expect("solve succeeds").peak();
        assert!(
            peak.value() > 74.0 && peak.value() < 92.0,
            "fig-8 contiguous peak = {peak}"
        );
    }

    #[test]
    fn superposition_holds() {
        // The network is linear: T(P1 + P2) − T_amb == (T(P1) − T_amb)
        // + (T(P2) − T_amb).
        let m = model();
        let p1: Vec<Watts> = (0..100)
            .map(|i| {
                if i < 30 {
                    Watts::new(2.0)
                } else {
                    Watts::zero()
                }
            })
            .collect();
        let p2: Vec<Watts> = (0..100)
            .map(|i| {
                if i >= 70 {
                    Watts::new(1.0)
                } else {
                    Watts::zero()
                }
            })
            .collect();
        let both: Vec<Watts> = p1.iter().zip(&p2).map(|(a, b)| *a + *b).collect();
        let t1 = m.steady_state(&p1).expect("solve succeeds");
        let t2 = m.steady_state(&p2).expect("solve succeeds");
        let t12 = m.steady_state(&both).expect("solve succeeds");
        for core in plan().cores() {
            let lhs = t12.core(core).value() - 45.0;
            let rhs = (t1.core(core).value() - 45.0) + (t2.core(core).value() - 45.0);
            assert!((lhs - rhs).abs() < 1e-5, "{core}");
        }
    }

    #[test]
    fn wrong_power_map_length_rejected() {
        let m = model();
        assert!(matches!(
            m.steady_state(&vec![Watts::zero(); 99]),
            Err(ThermalError::PowerMapMismatch {
                got: 99,
                expected: 100
            })
        ));
    }

    #[test]
    fn sink_too_small_rejected() {
        let mut pkg = PackageConfig::paper_dac15();
        pkg.sink.side_m = Some(0.02); // smaller than the 3 cm spreader
        assert!(matches!(
            ThermalModel::new(&plan(), pkg),
            Err(ThermalError::LayerTooSmall { layer: "sink" })
        ));
        let mut pkg = PackageConfig::paper_dac15();
        pkg.spreader.side_m = Some(0.01); // smaller than the 22.6 mm die
        assert!(matches!(
            ThermalModel::new(&plan(), pkg),
            Err(ThermalError::LayerTooSmall { layer: "spreader" })
        ));
    }

    #[test]
    fn grid_mode_shape() {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let m = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 2)
            .expect("valid thermal model");
        assert_eq!(m.core_count(), 16);
        assert_eq!(m.subdivision(), 2);
        assert_eq!(m.die_cell_count(), 64);
        // Fine network: 3·64 + 2 nodes.
        assert_eq!(m.node_count(), 194);
        // Every cell has a valid owner and each core owns exactly s².
        let mut counts = [0_usize; 16];
        for &owner in m.core_of_cell() {
            counts[owner] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn grid_mode_agrees_with_block_mode_on_uniform_load() {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let block =
            ThermalModel::new(&plan, PackageConfig::paper_dac15()).expect("valid thermal model");
        let grid = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 2)
            .expect("valid thermal model");
        let power = vec![Watts::new(3.0); 16];
        let t_block = block.steady_state(&power).expect("solve succeeds").peak();
        let t_grid = grid.steady_state(&power).expect("solve succeeds").peak();
        assert!(
            (t_block - t_grid).abs() < 1.0,
            "block {t_block} vs grid {t_grid}"
        );
    }

    #[test]
    fn grid_mode_energy_balance() {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let m = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 3)
            .expect("valid thermal model");
        let power: Vec<Watts> = (0..16).map(|i| Watts::new((i % 4) as f64)).collect();
        let total: f64 = power.iter().map(|p| p.value()).sum();
        let map = m.steady_state(&power).expect("solve succeeds");
        let out: f64 = m
            .ambient_conductances()
            .iter()
            .zip(map.state())
            .map(|(g, t)| g * (t - m.ambient().value()))
            .sum();
        assert!((out - total).abs() < 1e-3, "convected {out} of {total} W");
    }

    #[test]
    fn grid_mode_refines_single_hotspot() {
        // A single hot core in a cold field: the subdivided model stays
        // close to the block model but runs slightly *cooler* — the
        // block model lumps the core footprint into one node and cannot
        // represent heat spreading within it. (Power is uniform inside
        // a core, so grid mode relaxes, never sharpens, this case.)
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let block =
            ThermalModel::new(&plan, PackageConfig::paper_dac15()).expect("valid thermal model");
        let grid = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 3)
            .expect("valid thermal model");
        let mut power = vec![Watts::zero(); 16];
        power[5] = Watts::new(8.0);
        let t_block = block.steady_state(&power).expect("solve succeeds").peak();
        let map_grid = grid.steady_state(&power).expect("solve succeeds");
        let t_grid = map_grid.peak();
        assert!(
            t_grid <= t_block + 0.05,
            "grid {t_grid} above block {t_block}"
        );
        assert!(
            (t_block - t_grid).abs() < 1.5,
            "models diverge: block {t_block} vs grid {t_grid}"
        );
        // Per-core reporting is still logical-core shaped, and the hot
        // core is identified correctly.
        assert_eq!(map_grid.core_count(), 16);
        let hottest = map_grid
            .die_temperatures()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("test value"))
            .map(|(i, _)| i)
            .expect("test value");
        assert_eq!(hottest, 5);
    }

    #[test]
    fn zero_subdivision_rejected() {
        let plan = Floorplan::grid(2, 2, SquareMillimeters::new(5.1)).expect("valid floorplan");
        assert!(matches!(
            ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 0),
            Err(ThermalError::InvalidPackage {
                name: "subdivision",
                ..
            })
        ));
    }

    #[test]
    fn capacitances_are_positive_and_sized_sanely() {
        let m = model();
        assert!(m.capacitances().iter().all(|&c| c > 0.0));
        // Die cells must respond much faster than the sink.
        let die_tau = m.capacitances()[0];
        let sink_tau = m.capacitances()[2 * 100 + 1];
        assert!(sink_tau > 10.0 * die_tau);
    }
}
