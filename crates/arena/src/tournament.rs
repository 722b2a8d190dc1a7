//! Policy tournament: DsRem vs TDP mapping vs the boosting controller,
//! fought over the generated population.
//!
//! Every base case spawns one contender per policy — same platform,
//! same workload, only the experiment differs — and the contenders are
//! ranked per case by total throughput, with a thermal violation (or a
//! run error) disqualifying. Points are Borda-style (2 for a win, 1 for
//! second, 0 otherwise; disqualified contenders score nothing), ties
//! broken by policy name, so the leaderboard is a pure function of the
//! seed and case count: identical bytes at any `--jobs` value.

use crate::gen::{generate_cases, ArenaCase};
use crate::oracle::Oracle;
use crate::runner::{run_cases, CaseOutcome};
use darksil_obs::svg::{esc, html_page};
use darksil_scenario::ExperimentSpec;

/// Schema tag on the leaderboard JSON artefact.
pub const LEADERBOARD_SCHEMA: &str = "darksil-leaderboard-v1";

/// The contenders, in the fixed order they enter every case.
const POLICIES: &[&str] = &["dsrem", "tdpmap", "boost"];

/// TDP handed to the mapping policies when the base case's experiment
/// does not name one.
const DEFAULT_TDP_W: f64 = 100.0;

/// Aggregate score of one policy over the whole tournament.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyScore {
    /// Policy name (`dsrem`, `tdpmap`, `boost`).
    pub policy: String,
    /// Borda points over all cases (2 per win, 1 per second place).
    pub points: u64,
    /// Outright case wins.
    pub wins: u64,
    /// Cases where the policy was disqualified (thermal violation or
    /// run error).
    pub disqualified: u64,
    /// Mean throughput over the policy's qualified runs, GIPS.
    pub mean_gips: f64,
    /// Mean peak die temperature over qualified runs, °C.
    pub mean_peak_c: f64,
    /// Mean throttle residency over runs that produced a boost trace.
    pub mean_throttle_residency: Option<f64>,
}

darksil_json::impl_json!(struct PolicyScore {
    policy,
    points,
    wins,
    disqualified,
    mean_gips,
    mean_peak_c,
} opt {
    mean_throttle_residency,
});

/// The tournament result: scores sorted by points (descending), ties
/// broken by policy name.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaderboard {
    /// Always [`LEADERBOARD_SCHEMA`].
    pub schema: String,
    /// Fuzz seed the population was generated from.
    pub seed: u64,
    /// Number of base cases fought.
    pub cases: u64,
    /// Per-policy aggregate scores, ranked.
    pub scores: Vec<PolicyScore>,
}

darksil_json::impl_json!(struct Leaderboard { schema, seed, cases, scores });

/// The TDP shared by a base case's mapping contenders.
fn case_tdp(case: &ArenaCase) -> f64 {
    match &case.scenario.experiment {
        ExperimentSpec::PowerBudget { tdp_watts } | ExperimentSpec::Policy { tdp_watts, .. } => {
            *tdp_watts
        }
        _ => DEFAULT_TDP_W,
    }
}

/// One contender: the base case with its experiment swapped for
/// `policy` (probes and injections stripped — the tournament measures
/// policies, not the fault path).
fn contender(base: &ArenaCase, position: usize, policy: &str) -> ArenaCase {
    let experiment = match policy {
        "boost" => ExperimentSpec::Boost {
            duration_s: 0.4,
            period_s: 0.01,
        },
        _ => ExperimentSpec::Policy {
            policy: policy.to_string(),
            tdp_watts: case_tdp(base),
        },
    };
    let mut scenario = base.scenario.clone();
    scenario.name = format!("{}-{policy}", scenario.name);
    scenario.experiment = experiment;
    ArenaCase {
        index: position,
        scenario,
        faults: None,
        inject: None,
    }
}

/// Per-case ranking: qualified contenders first, by throughput
/// descending, ties by policy name; disqualified contenders last.
/// Returns `(policy, borda_points, disqualified)` per contender.
fn rank_case(entries: &[(&str, &CaseOutcome)]) -> Vec<(String, u64, bool)> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let gips = |o: &CaseOutcome| o.report.as_ref().map_or(0.0, |r| r.total_gips);
    let dq = |o: &CaseOutcome| {
        o.error.is_some() || o.report.as_ref().is_none_or(|r| r.thermal_violation)
    };
    order.sort_by(|&a, &b| {
        let (pa, oa) = entries[a];
        let (pb, ob) = entries[b];
        dq(oa)
            .cmp(&dq(ob))
            .then(
                gips(ob)
                    .partial_cmp(&gips(oa))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(pa.cmp(pb))
    });
    let mut out = vec![(String::new(), 0, false); entries.len()];
    for (rank, &i) in order.iter().enumerate() {
        let (policy, outcome) = entries[i];
        let disqualified = dq(outcome);
        let points = if disqualified {
            0
        } else {
            (2_usize.saturating_sub(rank)) as u64
        };
        out[i] = (policy.to_string(), points, disqualified);
    }
    out
}

/// Fights the tournament for `seed` over `cases` base cases using
/// `jobs` workers and returns the ranked leaderboard.
#[must_use]
pub fn run_tournament(seed: u64, cases: usize, jobs: usize, oracle: &Oracle) -> Leaderboard {
    let base = generate_cases(seed, cases, None);
    let mut contenders = Vec::with_capacity(base.len() * POLICIES.len());
    for case in &base {
        for policy in POLICIES {
            contenders.push(contender(case, contenders.len(), policy));
        }
    }
    let (outcomes, _stream) = run_cases(&contenders, jobs, oracle);

    struct Tally {
        points: u64,
        wins: u64,
        disqualified: u64,
        qualified: u64,
        gips_sum: f64,
        peak_sum: f64,
        residency_sum: f64,
        residency_n: u64,
    }
    let mut tallies: Vec<(String, Tally)> = POLICIES
        .iter()
        .map(|p| {
            (
                (*p).to_string(),
                Tally {
                    points: 0,
                    wins: 0,
                    disqualified: 0,
                    qualified: 0,
                    gips_sum: 0.0,
                    peak_sum: 0.0,
                    residency_sum: 0.0,
                    residency_n: 0,
                },
            )
        })
        .collect();

    for group in outcomes.chunks(POLICIES.len()) {
        let entries: Vec<(&str, &CaseOutcome)> =
            POLICIES.iter().copied().zip(group.iter()).collect();
        for (policy, points, disqualified) in rank_case(&entries) {
            let Some((_, tally)) = tallies.iter_mut().find(|(p, _)| *p == policy) else {
                continue;
            };
            tally.points += points;
            if points == 2 {
                tally.wins += 1;
            }
            if disqualified {
                tally.disqualified += 1;
            }
        }
        for (policy, outcome) in &entries {
            let Some((_, tally)) = tallies.iter_mut().find(|(p, _)| p == policy) else {
                continue;
            };
            if let Some(report) = &outcome.report {
                if outcome.error.is_none() && !report.thermal_violation {
                    tally.qualified += 1;
                    tally.gips_sum += report.total_gips;
                    tally.peak_sum += report.peak_temperature_c;
                }
            }
            if let Some(residency) = outcome.throttle_residency {
                tally.residency_sum += residency;
                tally.residency_n += 1;
            }
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let mut scores: Vec<PolicyScore> = tallies
        .into_iter()
        .map(|(policy, t)| PolicyScore {
            policy,
            points: t.points,
            wins: t.wins,
            disqualified: t.disqualified,
            mean_gips: if t.qualified > 0 {
                t.gips_sum / t.qualified as f64
            } else {
                0.0
            },
            mean_peak_c: if t.qualified > 0 {
                t.peak_sum / t.qualified as f64
            } else {
                0.0
            },
            mean_throttle_residency: if t.residency_n > 0 {
                Some(t.residency_sum / t.residency_n as f64)
            } else {
                None
            },
        })
        .collect();
    scores.sort_by(|a, b| b.points.cmp(&a.points).then(a.policy.cmp(&b.policy)));

    Leaderboard {
        schema: LEADERBOARD_SCHEMA.to_string(),
        seed,
        cases: cases as u64,
        scores,
    }
}

/// Renders the leaderboard as one self-contained HTML page — the
/// shared report shell, no scripts, byte-deterministic — for the
/// nightly artefact.
#[must_use]
pub fn leaderboard_html(board: &Leaderboard) -> String {
    let mut body = format!(
        "<h1>darksil policy tournament</h1>\n\
         <p class=\"subtitle\">seed {} · {} cases · 2/1/0 points per case, \
         thermal violations disqualify</p>\n\
         <table>\n<tr><th class=\"num\">#</th><th>policy</th><th class=\"num\">points</th>\
         <th class=\"num\">wins</th><th class=\"num\">DQ</th><th class=\"num\">mean GIPS</th>\
         <th class=\"num\">mean peak °C</th><th class=\"num\">throttle</th></tr>\n",
        board.seed, board.cases,
    );
    for (rank, s) in board.scores.iter().enumerate() {
        let residency = s
            .mean_throttle_residency
            .map_or_else(|| "—".to_string(), |r| format!("{:.1}%", r * 100.0));
        body.push_str(&format!(
            "<tr><td class=\"num\">{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{:.2}</td>\
             <td class=\"num\">{:.2}</td><td class=\"num\">{}</td></tr>\n",
            rank + 1,
            esc(&s.policy),
            s.points,
            s.wins,
            s.disqualified,
            s.mean_gips,
            s.mean_peak_c,
            residency,
        ));
    }
    body.push_str("</table>\n");
    html_page(&format!("darksil tournament — seed {}", board.seed), &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(gips: f64, violation: bool) -> CaseOutcome {
        CaseOutcome {
            index: 0,
            name: "t".into(),
            report: Some(darksil_scenario::ScenarioReport {
                name: "t".into(),
                active_cores: 4,
                dark_fraction: 0.5,
                total_gips: gips,
                total_power_w: 50.0,
                peak_temperature_c: 70.0,
                thermal_violation: violation,
                notes: vec![],
            }),
            error: None,
            violations: vec![],
            throttle_residency: None,
        }
    }

    #[test]
    fn ranking_rewards_throughput_and_disqualifies_violations() {
        let a = outcome(10.0, false);
        let b = outcome(20.0, false);
        let c = outcome(30.0, true); // fastest but thermally violating
        let ranked = rank_case(&[("dsrem", &a), ("tdpmap", &b), ("boost", &c)]);
        assert_eq!(ranked[0], ("dsrem".to_string(), 1, false));
        assert_eq!(ranked[1], ("tdpmap".to_string(), 2, false));
        assert_eq!(ranked[2], ("boost".to_string(), 0, true));
    }

    #[test]
    fn ties_break_by_policy_name() {
        let a = outcome(10.0, false);
        let b = outcome(10.0, false);
        let ranked = rank_case(&[("tdpmap", &a), ("dsrem", &b)]);
        // Equal throughput: "dsrem" < "tdpmap" lexicographically.
        assert_eq!(ranked[0], ("tdpmap".to_string(), 1, false));
        assert_eq!(ranked[1], ("dsrem".to_string(), 2, false));
    }

    #[test]
    fn tournament_is_deterministic_across_jobs() {
        let _guard = crate::testutil::recorder_lock();
        let oracle = Oracle::default();
        let serial = run_tournament(5, 3, 1, &oracle);
        let parallel = run_tournament(5, 3, 4, &oracle);
        assert_eq!(serial, parallel);
        assert_eq!(
            darksil_json::to_string_pretty(&serial),
            darksil_json::to_string_pretty(&parallel)
        );
        assert_eq!(serial.schema, LEADERBOARD_SCHEMA);
        assert_eq!(serial.scores.len(), 3);
        // Ranked by points.
        assert!(serial.scores.windows(2).all(|w| w[0].points >= w[1].points));
    }

    #[test]
    fn leaderboard_round_trips_and_renders() {
        let board = Leaderboard {
            schema: LEADERBOARD_SCHEMA.into(),
            seed: 9,
            cases: 2,
            scores: vec![PolicyScore {
                policy: "dsrem".into(),
                points: 4,
                wins: 2,
                disqualified: 0,
                mean_gips: 12.5,
                mean_peak_c: 71.0,
                mean_throttle_residency: Some(0.25),
            }],
        };
        let text = darksil_json::to_string_pretty(&board);
        let back: Leaderboard = darksil_json::from_str(&text).expect("parses");
        assert_eq!(back, board);
        let html = leaderboard_html(&board);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<title>darksil tournament — seed 9</title>"));
        assert_eq!(html.matches("<tr>").count(), 2, "header + one policy row");
        assert!(html.contains("<td>dsrem</td>"));
        assert!(html.contains("25.0%"));
        assert!(!html.contains("<script"));
    }
}
