//! The grouping every global-knowledge pass shares: members sorted by
//! identifier, so the members extending any digit prefix are one
//! contiguous run and a node's sibling groups at a level sit side by side.
//!
//! Slot `(l, j)` of node `a` is about exactly one set of members — those
//! whose identifiers extend `a`'s `l`-digit prefix with digit `j` (§2.1).
//! The static bootstrap fills the slot from that group, Property 1 asks
//! whether the group is empty, Property 2 which of its members is nearest.
//! A node whose `l`-digit prefix nobody shares has no such group but its
//! own and is not visited at level `l` at all, so a pass costs one step
//! per member *per level at which its prefix is still shared* — every
//! member at the first `log_b n` levels, a handful beyond.

use std::ops::Range;
use tapestry_id::Id;
use tapestry_sim::NodeIdx;

/// A member set in identifier order.
pub(crate) struct PrefixRuns<'a> {
    ids: &'a [Id],
    /// The members, ascending by identifier.
    order: Vec<NodeIdx>,
    /// `shared[r]`: leading digits `order[r]` has in common with
    /// `order[r - 1]` (0 for the first member).
    shared: Vec<usize>,
}

/// One `(prefix, digit)` group at some level `l`: the members whose
/// identifiers extend an `l`-digit prefix with `digit`.
pub(crate) struct Group {
    /// Its run of [`PrefixRuns::order`].
    run: Range<usize>,
    /// The digit at position `l` all of them carry.
    pub(crate) digit: u8,
}

impl Group {
    /// How many members it has.
    pub(crate) fn len(&self) -> usize {
        self.run.len()
    }
}

/// One member to visit at a level, with the groups of its family — the
/// non-empty `(prefix, j)` groups for its own `l`-digit prefix, ascending
/// in `j`, its own digit's group among them.
pub(crate) struct Visit {
    pub(crate) node: NodeIdx,
    family: Range<usize>,
}

/// Level `l` of the mesh: every family of two or more members.
pub(crate) struct Level {
    /// The groups of those families, in identifier order.
    pub(crate) groups: Vec<Group>,
    /// The members of those families, ascending by node index.
    pub(crate) visits: Vec<Visit>,
}

impl<'a> PrefixRuns<'a> {
    /// Sort `members` by their identifier in `ids` (indexed by node).
    pub(crate) fn new(ids: &'a [Id], members: &[NodeIdx]) -> Self {
        let mut order = members.to_vec();
        order.sort_unstable_by_key(|&m| (ids[m], m));
        let shared = (0..order.len())
            .map(|r| if r == 0 { 0 } else { ids[order[r]].shared_prefix_len(&ids[order[r - 1]]) })
            .collect();
        PrefixRuns { ids, order, shared }
    }

    /// The families of level `l`. Empty once no two members share `l`
    /// digits, and then so is every deeper level.
    pub(crate) fn level(&self, l: usize) -> Level {
        let n = self.order.len();
        let mut level = Level { groups: Vec::new(), visits: Vec::new() };
        let mut start = 0;
        while start < n {
            // A family: the maximal run sharing at least `l` digits.
            let mut end = start + 1;
            while end < n && self.shared[end] >= l {
                end += 1;
            }
            if end - start >= 2 {
                let first = level.groups.len();
                let mut group_start = start;
                // Inside a family neighbours share ≥ l digits; a new
                // group starts where they share exactly l.
                for r in start + 1..=end {
                    if r == end || self.shared[r] == l {
                        let digit = self.ids[self.order[group_start]].digit(l);
                        level.groups.push(Group { run: group_start..r, digit });
                        group_start = r;
                    }
                }
                let family = first..level.groups.len();
                level.visits.extend(
                    self.order[start..end]
                        .iter()
                        .map(|&node| Visit { node, family: family.clone() }),
                );
            }
            start = end;
        }
        level.visits.sort_unstable_by_key(|v| v.node);
        level
    }

    /// The members of `group`, in identifier order.
    pub(crate) fn members(&self, group: &Group) -> &[NodeIdx] {
        &self.order[group.run.clone()]
    }
}

impl Level {
    /// No two members share this level's prefix length.
    pub(crate) fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// The groups of `visit`'s family as `(index into groups, digit)`,
    /// ascending by digit.
    pub(crate) fn family(&self, visit: &Visit) -> impl Iterator<Item = (usize, u8)> + '_ {
        visit.family.clone().map(|g| (g, self.groups[g].digit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapestry_id::IdSpace;

    const S: IdSpace = IdSpace::base16();

    /// Per visited node, its family as `(digit, members)` pairs.
    type Families = Vec<(NodeIdx, Vec<(u8, Vec<NodeIdx>)>)>;

    fn level_as_sets(ids: &[Id], members: &[NodeIdx], l: usize) -> Families {
        let runs = PrefixRuns::new(ids, members);
        let level = runs.level(l);
        level
            .visits
            .iter()
            .map(|v| {
                let fam = level
                    .family(v)
                    .map(|(g, j)| {
                        let mut m = runs.members(&level.groups[g]).to_vec();
                        m.sort_unstable();
                        (j, m)
                    })
                    .collect();
                (v.node, fam)
            })
            .collect()
    }

    /// The definition the runs replace: group every member by pairwise
    /// prefix comparison.
    fn level_by_definition(ids: &[Id], members: &[NodeIdx], l: usize) -> Families {
        let mut out = Vec::new();
        for &a in members {
            let kin: Vec<NodeIdx> = members
                .iter()
                .copied()
                .filter(|&b| ids[a].shared_prefix_len(&ids[b]) >= l)
                .collect();
            if kin.len() < 2 {
                continue;
            }
            let fam = (0..16u8)
                .map(|j| {
                    (j, kin.iter().copied().filter(|&b| ids[b].digit(l) == j).collect::<Vec<_>>())
                })
                .filter(|(_, m)| !m.is_empty())
                .collect();
            out.push((a, fam));
        }
        out
    }

    #[test]
    fn levels_match_pairwise_prefix_grouping() {
        // Node i carries ids[i]; two members share 3 digits, three share
        // 1, one shares nothing, and a non-member sits in the id table.
        let vals =
            [0x4227_0000u64, 0x4229_0000, 0x4A00_0001, 0x9000_0000, 0x4227_0001, 0x1234_5678];
        let ids: Vec<Id> = vals.iter().map(|&v| Id::from_u64(S, v)).collect();
        let members = [0, 1, 2, 3, 5];
        for l in 0..8 {
            assert_eq!(
                level_as_sets(&ids, &members, l),
                level_by_definition(&ids, &members, l),
                "level {l}"
            );
        }
        let runs = PrefixRuns::new(&ids, &members);
        assert!(!runs.level(3).is_empty(), "4227… and 4229… share three digits");
        assert!(runs.level(4).is_empty(), "nobody shares four");
    }
}
