//! Core placement strategies: contiguous packing vs dark-silicon
//! patterning.
//!
//! Figure 8 contrasts two spatial policies for the *same* workload:
//! packing threads into a contiguous block (simple, but concentrates
//! heat) versus *dark silicon patterning* (DaSim, Shafique et al.,
//! DATE'15) which interleaves dark cores between active ones so the
//! dark cells act as thermal buffers and the peak temperature drops.
//!
//! [`spread_cores`] selects a maximally spread active set of a given
//! size using an R2 low-discrepancy ranking of the grid cells: every
//! cell gets a quasi-random rank that is spatially well distributed at
//! every density, so taking the `m` lowest-ranked cells yields an
//! even pattern for any `m`.

use darksil_floorplan::{CoreId, Floorplan};
use darksil_power::VfLevel;
use darksil_units::{Celsius, Watts};
use darksil_workload::Workload;

use crate::{MappedInstance, Mapping, MappingError, Platform};

/// Maps the workload's instances onto consecutive cores in row-major
/// order, all at `level` — the naive policy on the left of Figure 8.
///
/// # Errors
///
/// Returns [`MappingError::InsufficientCores`] when the workload needs
/// more cores than the plan provides.
pub fn place_contiguous(
    plan: &Floorplan,
    workload: &Workload,
    level: VfLevel,
) -> Result<Mapping, MappingError> {
    let needed = workload.total_threads();
    let available = plan.core_count();
    if needed > available {
        return Err(MappingError::InsufficientCores {
            requested: needed,
            available,
        });
    }
    let mut mapping = Mapping::new(available);
    let mut next = 0;
    for instance in workload {
        let cores: Vec<CoreId> = (next..next + instance.threads()).map(CoreId).collect();
        next += instance.threads();
        mapping.push(MappedInstance {
            instance: *instance,
            cores,
            level,
        })?;
    }
    Ok(mapping)
}

/// Selects `m` cores spread as evenly as possible over the grid.
///
/// Cells are ranked by the fractional part of `r·g₁ + c·g₂` where
/// `(g₁, g₂)` are the R2 low-discrepancy constants; the `m` smallest
/// ranks form the active set. Ties (impossible in exact arithmetic) are
/// broken by index.
///
/// # Panics
///
/// Panics if `m` exceeds the plan's core count.
#[must_use]
pub fn spread_cores(plan: &Floorplan, m: usize) -> Vec<CoreId> {
    let n = plan.core_count();
    assert!(m <= n, "cannot spread {m} cores over {n}");
    // R2 sequence constants: 1/φ₂ and 1/φ₂² for the plastic number φ₂.
    const G1: f64 = 0.754_877_666_246_693;
    const G2: f64 = 0.569_840_290_998_053_2;
    let mut ranked: Vec<(f64, CoreId)> = plan
        .cores()
        .filter_map(|core| {
            let (r, c) = plan.coordinates(core).ok()?;
            let rank = (r as f64 * G1 + c as f64 * G2).fract();
            Some((rank, core))
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut cores: Vec<CoreId> = ranked.into_iter().take(m).map(|(_, c)| c).collect();
    cores.sort_unstable();
    cores
}

/// Maps the workload onto a spread-out active set (dark-silicon
/// patterning), all at `level`.
///
/// Instance threads are assigned to the spread set in row-major order;
/// inter-thread distance is not minimised — like the paper, the pattern
/// targets the thermal profile, not communication locality.
///
/// # Errors
///
/// Returns [`MappingError::InsufficientCores`] when the workload needs
/// more cores than the plan provides.
pub fn place_patterned(
    plan: &Floorplan,
    workload: &Workload,
    level: VfLevel,
) -> Result<Mapping, MappingError> {
    let needed = workload.total_threads();
    let available = plan.core_count();
    if needed > available {
        return Err(MappingError::InsufficientCores {
            requested: needed,
            available,
        });
    }
    let active = spread_cores(plan, needed);
    let mut mapping = Mapping::new(available);
    let mut iter = active.into_iter();
    for instance in workload {
        let cores: Vec<CoreId> = iter.by_ref().take(instance.threads()).collect();
        mapping.push(MappedInstance {
            instance: *instance,
            cores,
            level,
        })?;
    }
    Ok(mapping)
}

/// Iteratively improves an active set of `count` cores under uniform
/// per-core power: starting from the [`spread_cores`] seed, the hottest
/// active core is moved to the coldest dark core until the gain per
/// move drops below 0.3 °C (or `max_moves` is reached). This is the
/// thermal-aware "dark silicon patterning" of DaSim proper — the blind
/// spread is its cheap approximation.
///
/// # Errors
///
/// Propagates thermal-solve failures.
///
/// # Panics
///
/// Panics if `count` exceeds the platform's core count.
pub fn optimize_pattern(
    platform: &Platform,
    count: usize,
    per_core: Watts,
    max_moves: usize,
) -> Result<Vec<CoreId>, MappingError> {
    let plan = platform.floorplan();
    let n = plan.core_count();
    let mut active = spread_cores(plan, count);
    let mut is_active = vec![false; n];
    for c in &active {
        is_active[c.index()] = true;
    }

    for _ in 0..max_moves {
        let mut power = vec![Watts::zero(); n];
        for c in &active {
            power[c.index()] = per_core;
        }
        let map = platform.thermal().steady_state(&power)?;
        let temps: Vec<f64> = map.die_temperatures().map(|t| t.value()).collect();

        let Some((hot_pos, hot_core)) = active
            .iter()
            .enumerate()
            .max_by(|a, b| temps[a.1.index()].total_cmp(&temps[b.1.index()]))
            .map(|(i, c)| (i, *c))
        else {
            break;
        };
        let cold_core = plan
            .cores()
            .filter(|c| !is_active[c.index()])
            .min_by(|a, b| temps[a.index()].total_cmp(&temps[b.index()]));
        let Some(cold_core) = cold_core else { break };
        if temps[hot_core.index()] - temps[cold_core.index()] < 0.3 {
            break;
        }
        is_active[hot_core.index()] = false;
        is_active[cold_core.index()] = true;
        active[hot_pos] = cold_core;
    }
    active.sort_unstable();
    Ok(active)
}

/// Selects the `m` cores with the lowest leakage-variation factors —
/// the variability-aware core choice of DaSim/Hayat: with dark cores to
/// spare, light the efficient silicon and leave the leaky cores dark.
///
/// Ties are broken by index, so the result is deterministic.
///
/// # Panics
///
/// Panics if `m` exceeds the platform's core count.
#[must_use]
pub fn pick_low_leakage(platform: &Platform, m: usize) -> Vec<CoreId> {
    let n = platform.core_count();
    assert!(m <= n, "cannot pick {m} of {n} cores");
    let mut cores: Vec<CoreId> = platform
        .variation()
        .cores_by_leakage()
        .into_iter()
        .take(m)
        .map(CoreId)
        .collect();
    cores.sort_unstable();
    cores
}

/// Maps the workload onto a thermally optimised pattern
/// ([`optimize_pattern`]) at `level`. The optimisation assumes the
/// workload's *average* per-core power (evaluated at the DTM threshold
/// temperature), which is exact for homogeneous workloads and a good
/// proxy for mixes.
///
/// # Errors
///
/// Returns [`MappingError::InsufficientCores`] when the workload does
/// not fit and propagates thermal failures.
pub fn place_thermal_aware(
    platform: &Platform,
    workload: &Workload,
    level: VfLevel,
) -> Result<Mapping, MappingError> {
    let plan = platform.floorplan();
    let needed = workload.total_threads();
    if needed > plan.core_count() {
        return Err(MappingError::InsufficientCores {
            requested: needed,
            available: plan.core_count(),
        });
    }
    if needed == 0 {
        return Ok(Mapping::new(plan.core_count()));
    }
    // Average per-core power at the threshold temperature.
    let mut total = Watts::zero();
    for instance in workload {
        let model = platform.app_model(instance.app());
        let per_core = model.power(
            instance.activity(),
            level.voltage,
            level.frequency,
            Celsius::new(80.0),
        );
        total += per_core * instance.threads() as f64;
    }
    let per_core_avg = total / needed as f64;

    let active = optimize_pattern(platform, needed, per_core_avg, 100)?;
    let mut mapping = Mapping::new(plan.core_count());
    let mut iter = active.into_iter();
    for instance in workload {
        let cores: Vec<CoreId> = iter.by_ref().take(instance.threads()).collect();
        mapping.push(MappedInstance {
            instance: *instance,
            cores,
            level,
        })?;
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use darksil_power::TechnologyNode;
    use darksil_units::SquareMillimeters;
    use darksil_workload::ParsecApp;

    fn plan() -> Floorplan {
        Floorplan::grid(10, 10, SquareMillimeters::new(5.1)).expect("valid floorplan")
    }

    fn level() -> VfLevel {
        Platform::for_node(TechnologyNode::Nm16)
            .expect("valid platform")
            .max_level()
    }

    #[test]
    fn contiguous_fills_in_order() {
        let w = Workload::uniform(ParsecApp::X264, 3, 8).expect("valid workload");
        let m = place_contiguous(&plan(), &w, level()).expect("mapping succeeds");
        assert_eq!(m.active_core_count(), 24);
        // First instance owns cores 0..8.
        assert_eq!(m.entries()[0].cores, (0..8).map(CoreId).collect::<Vec<_>>());
        assert_eq!(m.entries()[2].cores[0], CoreId(16));
    }

    #[test]
    fn spread_set_has_no_duplicates_and_right_size() {
        let p = plan();
        for m in [1, 10, 37, 50, 99, 100] {
            let set = spread_cores(&p, m);
            assert_eq!(set.len(), m);
            let mut dedup = set.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), m, "duplicates at m = {m}");
        }
    }

    #[test]
    fn spread_set_is_actually_spread() {
        // At half density the active set should rarely contain adjacent
        // pairs; the contiguous block of the same size is full of them.
        let p = plan();
        let set = spread_cores(&p, 50);
        let is_active = |c: CoreId| set.binary_search(&c).is_ok();
        let mut adjacent_active = 0;
        let mut total_pairs = 0;
        for &core in &set {
            for nb in p.neighbors(core).expect("test value") {
                total_pairs += 1;
                if is_active(nb) {
                    adjacent_active += 1;
                }
            }
        }
        let frac = f64::from(adjacent_active) / f64::from(total_pairs);
        assert!(frac < 0.55, "active-adjacent fraction {frac}");
    }

    #[test]
    fn patterned_runs_cooler_than_contiguous() {
        // The Figure 8 claim, end to end: same workload, same level,
        // lower peak under patterning.
        let platform = Platform::for_node(TechnologyNode::Nm16).expect("valid platform");
        let w = Workload::uniform(ParsecApp::X264, 6, 8).expect("valid workload"); // 48 cores
        let lvl = platform.max_level();
        let contiguous = place_contiguous(platform.floorplan(), &w, lvl).expect("mapping succeeds");
        let patterned = place_patterned(platform.floorplan(), &w, lvl).expect("test value");
        let t_contig = contiguous.peak_temperature(&platform).expect("test value");
        let t_pattern = patterned.peak_temperature(&platform).expect("test value");
        assert!(
            t_contig - t_pattern > 0.5,
            "contiguous {t_contig} vs patterned {t_pattern}"
        );
    }

    #[test]
    fn both_reject_oversized_workloads() {
        let w = Workload::uniform(ParsecApp::X264, 13, 8).expect("valid workload"); // 104 > 100
        assert!(matches!(
            place_contiguous(&plan(), &w, level()),
            Err(MappingError::InsufficientCores {
                requested: 104,
                available: 100
            })
        ));
        assert!(place_patterned(&plan(), &w, level()).is_err());
    }

    #[test]
    fn full_chip_placement_works() {
        let w = Workload::uniform(ParsecApp::Canneal, 25, 4).expect("valid workload"); // exactly 100
        let c = place_contiguous(&plan(), &w, level()).expect("mapping succeeds");
        let s = place_patterned(&plan(), &w, level()).expect("test value");
        assert_eq!(c.dark_core_count(), 0);
        assert_eq!(s.dark_core_count(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn spread_more_than_available_panics() {
        let _ = spread_cores(&plan(), 101);
    }

    #[test]
    fn optimized_pattern_beats_blind_spread() {
        // The Figure 8 pattern(b) requirement: at 60 active cores and
        // ≈3.77 W each, the optimiser must stay below the DTM threshold
        // where the blind spread cannot.
        let platform = Platform::for_node(TechnologyNode::Nm16).expect("valid platform");
        let per = darksil_units::Watts::new(3.77);
        let blind = spread_cores(platform.floorplan(), 60);
        let tuned = optimize_pattern(&platform, 60, per, 100).expect("test value");
        assert_eq!(tuned.len(), 60);
        let peak_of = |set: &[CoreId]| {
            let mut p = vec![darksil_units::Watts::zero(); 100];
            for c in set {
                p[c.index()] = per;
            }
            platform
                .thermal()
                .steady_state(&p)
                .expect("solve succeeds")
                .peak()
        };
        let t_blind = peak_of(&blind);
        let t_tuned = peak_of(&tuned);
        assert!(t_tuned < t_blind, "tuned {t_tuned} vs blind {t_blind}");
        assert!(t_tuned.value() < 80.0, "tuned pattern violates: {t_tuned}");
    }

    #[test]
    fn thermal_aware_placement_round_trip() {
        let platform = Platform::for_node(TechnologyNode::Nm16).expect("valid platform");
        let w = Workload::uniform(ParsecApp::Swaptions, 15, 4).expect("valid workload");
        let m = place_thermal_aware(&platform, &w, platform.max_level()).expect("test value");
        assert_eq!(m.active_core_count(), 60);
        assert_eq!(m.entries().len(), 15);
        // No duplicate cores across instances (push() would have
        // rejected them, so this is a consistency re-check).
        let mut all: Vec<usize> = m
            .entries()
            .iter()
            .flat_map(|e| e.cores.iter().map(|c| c.index()))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 60);
    }

    #[test]
    fn low_leakage_pick_saves_power() {
        use darksil_power::VariationModel;
        use darksil_units::Celsius;

        let platform = Platform::with_core_count(TechnologyNode::Nm16, 36)
            .expect("test value")
            .with_variation(VariationModel::typical(0xBEEF));
        let w = Workload::uniform(ParsecApp::Swaptions, 3, 6).expect("valid workload"); // 18 cores

        // Variability-aware: lowest-leakage 18 cores.
        let best = pick_low_leakage(&platform, 18);
        // Adversarial: highest-leakage 18 cores.
        let order = platform.variation().cores_by_leakage();
        let worst: Vec<CoreId> = order.iter().rev().take(18).map(|&i| CoreId(i)).collect();

        let build = |cores: &[CoreId]| {
            let mut m = Mapping::new(36);
            let mut it = cores.iter().copied();
            for inst in &w {
                let assigned: Vec<CoreId> = it.by_ref().take(inst.threads()).collect();
                m.push(crate::MappedInstance {
                    instance: *inst,
                    cores: assigned,
                    level: platform.max_level(),
                })
                .expect("test value");
            }
            m
        };
        let p_best = build(&best).total_power(&platform, Celsius::new(80.0));
        let p_worst = build(&worst).total_power(&platform, Celsius::new(80.0));
        assert!(
            p_worst.value() > p_best.value() * 1.02,
            "best {p_best} vs worst {p_worst}"
        );
    }

    #[test]
    fn uniform_platform_variation_is_neutral() {
        // Without variation the leakage factors are 1 and picking by
        // leakage degenerates to index order.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16).expect("valid platform");
        let picked = pick_low_leakage(&platform, 5);
        assert_eq!(picked, (0..5).map(CoreId).collect::<Vec<_>>());
    }

    #[test]
    fn thermal_aware_empty_workload() {
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16).expect("valid platform");
        let m = place_thermal_aware(&platform, &Workload::new(), platform.max_level())
            .expect("valid workload");
        assert_eq!(m.active_core_count(), 0);
    }
}
