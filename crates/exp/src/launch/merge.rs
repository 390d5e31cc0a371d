//! The two-level merge tree: per-host pre-merge, then a root merge over
//! the host groups.
//!
//! Very wide fan-outs should not pay one flat O(shards) merge walk at the
//! root for validation *and* accumulation: each host's partials are
//! pre-merged into one accumulator set first, and the root merges one
//! entry per host. The result is byte-identical to the flat
//! [`merge_partials`] merge — success counters are integers (order
//! irrelevant) and wall-clock moments never enter compared bytes; the
//! equivalence is pinned by a proptest in `tests/launch.rs`, leaning on
//! the PR 3 two-level property that accumulators re-merge merged
//! partials exactly.
//!
//! Validation is *shared code*, not a re-implementation: every partial
//! passes the same per-partial checks as the flat merge
//! (`validate_partial_for_merge`) and the union of all slices must
//! tile the campaign range exactly (`check_exact_tiling`) — which is
//! precisely the backstop that discards a hedge loser's duplicate
//! partial: two partials for one slice can never tile.

use crate::experiments::table2::CircuitAccum;
use crate::shard::coordinator::{
    check_exact_tiling, merge_partials, validate_partial_for_merge, MergedResult,
};
use crate::shard::partial::ShardPartial;
use crate::shard::McConfig;

/// Merges `(winning host, partial)` pairs through the two-level tree.
///
/// Host groups are ordered by their minimal sample start and each group's
/// partials by start, so the merge is deterministic for a fixed
/// assignment; the merged integer statistics are identical for *every*
/// assignment.
///
/// # Errors
///
/// Exactly the flat-merge failures: configuration mismatches, torn or
/// foreign partials, and slices that do not tile the campaign range
/// (duplicates included).
pub fn merge_host_groups(
    config: &McConfig,
    assigned: &[(String, ShardPartial)],
) -> Result<MergedResult, String> {
    // Degenerate fan-in: a single host's group IS the flat merge.
    if assigned.len() <= 1 {
        let partials: Vec<ShardPartial> = assigned.iter().map(|(_, p)| p.clone()).collect();
        return merge_partials(config, &partials);
    }

    let mut ordered: Vec<&ShardPartial> = assigned.iter().map(|(_, p)| p).collect();
    ordered.sort_by_key(|p| p.spec.start);
    for partial in &ordered {
        validate_partial_for_merge(config, partial)?;
    }
    check_exact_tiling(config.samples, &ordered)?;

    // Group by host, preserving per-host start order; order the groups by
    // their minimal start so the root merge is deterministic.
    let mut groups: Vec<(&str, Vec<&ShardPartial>)> = Vec::new();
    for (host, partial) in assigned {
        match groups.iter_mut().find(|(name, _)| *name == host.as_str()) {
            Some((_, members)) => members.push(partial),
            None => groups.push((host.as_str(), vec![partial])),
        }
    }
    for (_, members) in &mut groups {
        members.sort_by_key(|p| p.spec.start);
    }
    groups.sort_by_key(|(_, members)| members[0].spec.start);

    // Level 1: one merged accumulator set per host.
    let mut host_level: Vec<Vec<CircuitAccum>> = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        let mut accums: Vec<CircuitAccum> = config
            .circuits
            .iter()
            .map(|_| CircuitAccum::new())
            .collect();
        for partial in members {
            for (merged, (_, piece)) in accums.iter_mut().zip(&partial.circuits) {
                merged.merge(piece);
            }
        }
        host_level.push(accums);
    }

    // Level 2: the root folds the host groups.
    let mut circuits: Vec<(String, CircuitAccum)> = config
        .circuits
        .iter()
        .map(|name| (name.clone(), CircuitAccum::new()))
        .collect();
    for accums in &host_level {
        for ((_, merged), piece) in circuits.iter_mut().zip(accums) {
            merged.merge(piece);
        }
    }
    Ok(MergedResult {
        config: config.clone(),
        circuits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::coordinator::render_stats_json;
    use crate::shard::{run_shard, ShardSpec};

    fn config() -> McConfig {
        McConfig {
            circuits: vec!["rd53".to_owned()],
            ..McConfig::with_default_circuits(24, 9, 0.1)
        }
    }

    fn partials(config: &McConfig, shards: usize) -> Vec<ShardPartial> {
        ShardSpec::partition(config.samples, shards)
            .iter()
            .map(|spec| run_shard(config, spec))
            .collect()
    }

    #[test]
    fn two_level_merge_is_byte_identical_to_the_flat_merge() {
        let config = config();
        let parts = partials(&config, 5);
        let flat = merge_partials(&config, &parts).expect("flat merges");
        // Interleaved host assignment: groups are non-contiguous slices.
        let hosts = ["alpha", "beta", "gamma"];
        let assigned: Vec<(String, ShardPartial)> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| (hosts[i % hosts.len()].to_owned(), p.clone()))
            .collect();
        let tree = merge_host_groups(&config, &assigned).expect("tree merges");
        assert_eq!(render_stats_json(&tree), render_stats_json(&flat));
    }

    #[test]
    fn duplicate_partial_from_a_hedge_loser_is_rejected_by_tiling() {
        let config = config();
        let parts = partials(&config, 3);
        let mut assigned: Vec<(String, ShardPartial)> = parts
            .iter()
            .map(|p| ("alpha".to_owned(), p.clone()))
            .collect();
        // The hedge loser's copy arrives under another host.
        assigned.push(("beta".to_owned(), parts[1].clone()));
        let err = merge_host_groups(&config, &assigned).expect_err("must fail");
        assert!(err.contains("not tiled"), "{err}");
    }

    #[test]
    fn missing_shard_and_config_mismatch_fail_like_the_flat_merge() {
        let config = config();
        let mut parts = partials(&config, 3);
        parts.remove(1);
        let assigned: Vec<(String, ShardPartial)> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("h{i}"), p.clone()))
            .collect();
        let err = merge_host_groups(&config, &assigned).expect_err("gap");
        assert!(err.contains("not tiled"), "{err}");

        let mut parts = partials(&config, 3);
        parts[2].config.campaign.seed ^= 1;
        let assigned: Vec<(String, ShardPartial)> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("h{i}"), p.clone()))
            .collect();
        let err = merge_host_groups(&config, &assigned).expect_err("echo");
        assert!(err.contains("seed"), "{err}");
    }
}
