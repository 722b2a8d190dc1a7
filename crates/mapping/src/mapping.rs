//! Concrete mappings of application instances to cores.

use darksil_floorplan::CoreId;
use darksil_power::VfLevel;
use darksil_thermal::ThermalMap;
use darksil_units::{Celsius, Gips, Watts};
use darksil_workload::AppInstance;

use crate::{MappingError, Platform};

/// One application instance pinned to a set of cores at a V/f level.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedInstance {
    /// The application instance (app + thread count).
    pub instance: AppInstance,
    /// The cores running its threads (one core per thread).
    pub cores: Vec<CoreId>,
    /// The V/f level all of its cores run at.
    pub level: VfLevel,
}

/// A complete assignment of instances to cores on one chip.
///
/// Invariants enforced at construction: every mapped core is in range,
/// no core is mapped twice, and each instance occupies exactly one core
/// per thread.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Mapping {
    entries: Vec<MappedInstance>,
    core_count: usize,
}

impl Mapping {
    /// Creates an empty mapping for a chip with `core_count` cores.
    #[must_use]
    pub fn new(core_count: usize) -> Self {
        Self {
            entries: Vec::new(),
            core_count,
        }
    }

    /// Adds a mapped instance.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InsufficientCores`] if a core id is out
    /// of range, a core is already occupied, or the core list does not
    /// match the instance's thread count.
    pub fn push(&mut self, entry: MappedInstance) -> Result<(), MappingError> {
        if entry.cores.len() != entry.instance.threads() {
            return Err(MappingError::InsufficientCores {
                requested: entry.instance.threads(),
                available: entry.cores.len(),
            });
        }
        for core in &entry.cores {
            if core.index() >= self.core_count || self.is_occupied(*core) {
                return Err(MappingError::InsufficientCores {
                    requested: core.index() + 1,
                    available: self.core_count,
                });
            }
        }
        // Also reject duplicates within the new entry itself.
        let mut seen = entry.cores.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != entry.cores.len() {
            return Err(MappingError::InsufficientCores {
                requested: entry.cores.len(),
                available: seen.len(),
            });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Whether a core already runs a thread.
    #[must_use]
    pub fn is_occupied(&self, core: CoreId) -> bool {
        self.entries.iter().any(|e| e.cores.contains(&core))
    }

    /// The mapped instances.
    #[must_use]
    pub fn entries(&self) -> &[MappedInstance] {
        &self.entries
    }

    /// Mutable access to the mapped instances, for policies that retune
    /// V/f levels in place. Core assignments should not be edited
    /// through this (the occupancy invariants are only checked by
    /// [`Mapping::push`]); change levels, not cores.
    pub fn entries_mut(&mut self) -> &mut [MappedInstance] {
        &mut self.entries
    }

    /// Removes and returns the last mapped instance.
    pub fn pop(&mut self) -> Option<MappedInstance> {
        self.entries.pop()
    }

    /// Chip core count this mapping targets.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.core_count
    }

    /// Number of active (occupied) cores.
    #[must_use]
    pub fn active_core_count(&self) -> usize {
        self.entries.iter().map(|e| e.cores.len()).sum()
    }

    /// Number of dark (unoccupied) cores.
    #[must_use]
    pub fn dark_core_count(&self) -> usize {
        self.core_count - self.active_core_count()
    }

    /// Dark-silicon fraction in `[0, 1]`.
    #[must_use]
    pub fn dark_fraction(&self) -> f64 {
        self.dark_core_count() as f64 / self.core_count as f64
    }

    /// Per-core power map assuming every core sits at the uniform
    /// temperature `t` (used to seed the thermal fixed point and for
    /// budget-only policies that ignore temperature).
    #[must_use]
    pub fn power_map(&self, platform: &Platform, t: Celsius) -> Vec<Watts> {
        let temps = vec![t; self.core_count];
        self.power_map_at(platform, &temps)
    }

    /// Per-core power map with per-core temperatures (for the
    /// leakage↔temperature loop).
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not have one entry per core.
    #[must_use]
    pub fn power_map_at(&self, platform: &Platform, temps: &[Celsius]) -> Vec<Watts> {
        assert_eq!(temps.len(), self.core_count, "one temperature per core");
        let mut power = vec![Watts::zero(); self.core_count];
        for entry in &self.entries {
            let model = platform.app_model(entry.instance.app());
            let alpha = entry.instance.activity();
            for core in &entry.cores {
                let b = model.breakdown(
                    alpha,
                    entry.level.voltage,
                    entry.level.frequency,
                    temps[core.index()],
                );
                // Leakage carries the core's process-variation factor;
                // dynamic and independent power are design-determined.
                let leak_factor = platform.variation().leakage_factor(core.index());
                power[core.index()] = b.dynamic + b.leakage * leak_factor + b.independent;
            }
        }
        power
    }

    /// Total chip power at a uniform temperature.
    #[must_use]
    pub fn total_power(&self, platform: &Platform, t: Celsius) -> Watts {
        self.power_map(platform, t).iter().sum()
    }

    /// Total system throughput (Figure 7/9 metric).
    #[must_use]
    pub fn total_gips(&self, platform: &Platform) -> Gips {
        self.entries
            .iter()
            .map(|e| {
                e.instance.profile().instance_gips(
                    platform.core_model(),
                    e.instance.threads(),
                    e.level.frequency,
                )
            })
            .sum()
    }

    /// Steady-state temperatures with the leakage↔temperature fixed
    /// point: power depends on temperature through `Ileak(V, T)` and
    /// temperature depends on power through the RC network, so the two
    /// are iterated until the peak moves less than 0.01 °C.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::ThermalCoupling`] if 50 iterations do not
    /// converge, and propagates solver failures.
    pub fn steady_temperatures(&self, platform: &Platform) -> Result<ThermalMap, MappingError> {
        let n = self.core_count;
        let mut temps = vec![platform.thermal().ambient(); n];
        let mut last_peak = f64::NEG_INFINITY;
        for _ in 0..50 {
            let power = self.power_map_at(platform, &temps);
            let map = platform.thermal().steady_state(&power)?;
            let peak = map.peak().value();
            temps = map.die_temperatures().collect();
            if (peak - last_peak).abs() < 0.01 {
                return Ok(map);
            }
            last_peak = peak;
        }
        Err(MappingError::ThermalCoupling { iterations: 50 })
    }

    /// Peak steady-state temperature (fixed point included).
    ///
    /// # Errors
    ///
    /// Same as [`Mapping::steady_temperatures`].
    pub fn peak_temperature(&self, platform: &Platform) -> Result<Celsius, MappingError> {
        Ok(self.steady_temperatures(platform)?.peak())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_power::TechnologyNode;
    use darksil_workload::ParsecApp;

    fn platform() -> Platform {
        Platform::with_core_count(TechnologyNode::Nm16, 16).expect("valid platform")
    }

    fn entry(app: ParsecApp, cores: &[usize], platform: &Platform) -> MappedInstance {
        MappedInstance {
            instance: AppInstance::new(app, cores.len()).expect("valid workload"),
            cores: cores.iter().map(|&i| CoreId(i)).collect(),
            level: platform.max_level(),
        }
    }

    #[test]
    fn counting() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::X264, &[0, 1, 2, 3], &p))
            .expect("test value");
        m.push(entry(ParsecApp::Canneal, &[8, 9], &p))
            .expect("test value");
        assert_eq!(m.active_core_count(), 6);
        assert_eq!(m.dark_core_count(), 10);
        assert!((m.dark_fraction() - 0.625).abs() < 1e-12);
        assert_eq!(m.entries().len(), 2);
    }

    #[test]
    fn overlap_rejected() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::X264, &[0, 1], &p))
            .expect("test value");
        assert!(m.push(entry(ParsecApp::Dedup, &[1, 2], &p)).is_err());
        assert!(m.is_occupied(CoreId(0)));
        assert!(!m.is_occupied(CoreId(5)));
    }

    #[test]
    fn out_of_range_rejected() {
        let p = platform();
        let mut m = Mapping::new(16);
        assert!(m.push(entry(ParsecApp::X264, &[15, 16], &p)).is_err());
    }

    #[test]
    fn thread_core_mismatch_rejected() {
        let p = platform();
        let mut m = Mapping::new(16);
        let bad = MappedInstance {
            instance: AppInstance::new(ParsecApp::X264, 4).expect("valid workload"),
            cores: vec![CoreId(0), CoreId(1)],
            level: p.max_level(),
        };
        assert!(m.push(bad).is_err());
    }

    #[test]
    fn duplicate_core_within_entry_rejected() {
        let p = platform();
        let mut m = Mapping::new(16);
        assert!(m.push(entry(ParsecApp::X264, &[3, 3], &p)).is_err());
    }

    #[test]
    fn power_only_on_active_cores() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::Swaptions, &[0, 1, 2, 3], &p))
            .expect("test value");
        let power = m.power_map(&p, Celsius::new(60.0));
        for (i, p_core) in power.iter().enumerate() {
            if i < 4 {
                assert!(p_core.value() > 1.0, "core {i} active but cold");
            } else {
                assert_eq!(*p_core, Watts::zero(), "core {i} should be dark");
            }
        }
        let total = m.total_power(&p, Celsius::new(60.0));
        assert!((total.value() - power.iter().map(|w| w.value()).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn gips_accumulates_over_instances() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::X264, &[0, 1, 2, 3], &p))
            .expect("test value");
        let one = m.total_gips(&p);
        m.push(entry(ParsecApp::X264, &[4, 5, 6, 7], &p))
            .expect("test value");
        let two = m.total_gips(&p);
        assert!((two.value() - 2.0 * one.value()).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_converges_and_heats_active_region() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::Swaptions, &[0, 1, 4, 5], &p))
            .expect("test value");
        let map = m.steady_temperatures(&p).expect("test value");
        // Active corner hotter than opposite corner.
        assert!(map.core(CoreId(0)) > map.core(CoreId(15)));
        assert!(map.peak() > p.thermal().ambient());
    }

    #[test]
    fn fixed_point_accounts_for_leakage() {
        // Peak with the leakage loop must exceed a single cold-leakage
        // estimate (evaluating leakage at ambient underestimates power).
        let p = platform();
        let mut m = Mapping::new(16);
        for (i, chunk) in [[0usize, 1], [2, 3], [4, 5], [6, 7]].iter().enumerate() {
            let _ = i;
            m.push(entry(ParsecApp::Swaptions, chunk, &p))
                .expect("test value");
        }
        let cold_power = m.power_map(&p, p.thermal().ambient());
        let cold_peak = p
            .thermal()
            .steady_state(&cold_power)
            .expect("solve succeeds")
            .peak();
        let coupled_peak = m.peak_temperature(&p).expect("test value");
        assert!(coupled_peak > cold_peak);
        assert!(coupled_peak - cold_peak < 5.0, "loop went wild");
    }

    #[test]
    fn pop_restores_cores() {
        let p = platform();
        let mut m = Mapping::new(16);
        m.push(entry(ParsecApp::X264, &[0, 1], &p))
            .expect("test value");
        let e = m.pop().expect("test value");
        assert_eq!(e.cores.len(), 2);
        assert!(!m.is_occupied(CoreId(0)));
        assert!(m.pop().is_none());
    }
}
