//! Mapping database: the delegation tree behind recursive revocation
//! (Section 6).
//!
//! Every delegated resource — a memory page, an I/O port, a capability
//! — belongs to a node in a tree rooted at the holder that first passed
//! it on. Delegation adds a child; revocation removes an entire
//! subtree, reporting every removed node so the kernel can tear down
//! the corresponding hardware state (page-table entries, IOMMU
//! mappings, I/O bitmap bits). This realizes the recursive
//! address-space model the paper inherits from L4, "with the ability
//! to make policy decisions at each level".
//!
//! **Spaces hold, the database derives.** What a domain *holds* is in
//! its memory, I/O and capability space and nowhere else; the database
//! records only who derived what from whom. A resource that was never
//! delegated has no node: a parentless origin appears with its first
//! child. Callers — not the database — prove that the source of a
//! delegation is held.
//!
//! **A node is a range.** As a capability range descriptor is one
//! typed item, one delegation is one node per stretch of the source it
//! came from: `(owner, base, len)`, plus the parent's key its base maps
//! to. A node is cut only where a revocation's bounds fall inside it,
//! so a boot's handful of range delegations is a handful of nodes — and
//! every question about one key is answered as if each key had a node
//! of its own.

use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A node key: (domain index, resource key).
pub type NodeKey<K> = (u32, K);

/// A node's identity: its owner and the first key it covers.
type Id = (u32, u64);

/// Where a node was derived from: the parent's owner, the parent's key
/// the node's base maps to, and a sequence number that orders siblings
/// derived from one key by delegation.
type Link = (u32, u64, u64);

struct Node {
    /// Keys covered: `base .. base + len`, never empty.
    len: u64,
    /// `None` for an origin.
    parent: Option<Link>,
}

/// The mapping database for one resource kind, generic over the
/// resource key (page number, port, capability selector as `u64`).
/// Ranges are counted in `u64`, so one may end past the largest key:
/// the ports `0xfff0..0x10000`.
///
/// Nodes live in an ordered map keyed by `(owner, base)`: the node
/// covering a key is the last one at or below it, and an owner's nodes
/// over a range are one run of the map. The children of a node are one
/// run of a second ordered map, keyed by their links: revocation
/// order is parent key, then delegation order.
#[derive(Default)]
pub struct MapDb<K> {
    nodes: BTreeMap<Id, Node>,
    /// Every node with a parent, under its link.
    derived: BTreeMap<Link, Id>,
    /// The next delegation's sequence number.
    seq: u64,
    key: PhantomData<K>,
}

impl<K: Copy + Default + Into<u64> + TryFrom<u64>> MapDb<K> {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a parentless origin ahead of its first delegation.
    /// [`MapDb::delegate`] does this on demand; nothing has to.
    pub fn insert_root(&mut self, owner: u32, key: K) {
        if !self.contains(owner, key) {
            let (len, parent) = (1, None);
            self.nodes.insert((owner, key.into()), Node { len, parent });
        }
    }

    /// `true` if `(owner, key)` is tracked.
    pub fn contains(&self, owner: u32, key: K) -> bool {
        self.covering(owner, key.into()).is_some()
    }

    /// Records a delegation of `(from_owner, from_key)` to
    /// `(to_owner, to_key)`; a source nobody tracks yet becomes a
    /// parentless origin (the caller has checked that it is held).
    /// Returns `false`, recording nothing, if the destination is
    /// already tracked or is the source itself.
    pub fn delegate(&mut self, from: NodeKey<K>, to: NodeKey<K>) -> bool {
        self.delegate_range(from, to, 1) == 1
    }

    /// Records the delegation of the `count` keys from `from` to the
    /// `count` keys from `to`, key for key, as [`MapDb::delegate`]
    /// would each: a destination key already tracked keeps its
    /// derivation and is skipped, and a source stretch nobody tracks
    /// becomes an origin. The record is one node per stretch of the
    /// source's nodes it covers. Two overlapping ranges of one owner
    /// record nothing. Returns the number of keys recorded.
    pub fn delegate_range(&mut self, from: NodeKey<K>, to: NodeKey<K>, count: u64) -> u64 {
        let (src, dst): (Id, Id) = ((from.0, from.1.into()), (to.0, to.1.into()));
        if src.0 == dst.0 && src.1 < dst.1 + count && dst.1 < src.1 + count {
            return 0;
        }
        let (mut off, mut recorded) = (0, 0);
        while off < count {
            let (s, d) = (src.1 + off, dst.1 + off);
            if let Some(taken) = self.covering(dst.0, d) {
                off = (taken.1 + self.nodes[&taken].len - dst.1).min(count);
                continue;
            }
            // Up to the next tracked destination key, and within one
            // source node or one untracked source stretch (an origin).
            let free = self.next_base(dst.0, d, dst.1 + count) - d;
            let held = self.covering(src.0, s);
            let end = held.map(|p| p.1 + self.nodes[&p].len);
            let len = free.min(end.unwrap_or_else(|| self.next_base(src.0, s, src.1 + count)) - s);
            if held.is_none() {
                self.nodes.insert((src.0, s), Node { len, parent: None });
            }
            let link = (src.0, s, self.seq);
            self.derived.insert(link, (dst.0, d));
            let parent = Some(link);
            self.nodes.insert((dst.0, d), Node { len, parent });
            (off, recorded, self.seq) = (off + len, recorded + len, self.seq + 1);
        }
        recorded
    }

    /// Revokes the subtree *below* `at` — and `at` itself when
    /// `include_self` — calling `f` with every removed key (children
    /// before parents). An untracked `at` is a no-op.
    pub fn revoke(&mut self, at: NodeKey<K>, include_self: bool, f: &mut dyn FnMut(NodeKey<K>)) {
        if self.contains(at.0, at.1) {
            let mut out = Vec::new();
            // A one-key revocation removes one-key ranges only.
            self.revoke_range(at, 1, include_self, &mut out);
            out.into_iter().for_each(|(k, _)| f(k));
        }
    }

    /// Revokes what was derived from the `len` keys from `at` and, with
    /// `include_self`, `at`'s owner's hold on them, appending each
    /// removed range `(first key, len)` to `out`, every key after all
    /// that was derived from it. With `include_self` the whole range
    /// leaves the owner: a stretch no node tracks is appended as the
    /// owner's all the same — spaces hold and the database derives, so
    /// a resource never delegated is given up too. Without, the owner's
    /// nodes stay, ready to delegate again, and an untracked stretch is
    /// a no-op.
    pub fn revoke_range(
        &mut self,
        at: NodeKey<K>,
        len: u64,
        include_self: bool,
        out: &mut Vec<(NodeKey<K>, u64)>,
    ) {
        let (owner, base): Id = (at.0, at.1.into());
        let end = base.saturating_add(len);
        if include_self {
            self.split(owner, base);
            self.split(owner, end);
        }
        let mut cursor = base;
        while cursor < end {
            let covering = self.covering(owner, cursor);
            let next = covering.map_or_else(|| self.next_base(owner, cursor, end), |id| id.1);
            if include_self && next > cursor {
                out.push(((owner, Self::key(cursor)), next - cursor));
            }
            let Some(node) = self.nodes.get(&(owner, next)).filter(|_| next < end) else {
                return;
            };
            let (lo, hi) = (cursor.max(next), end.min(next + node.len));
            cursor = hi;
            if include_self {
                self.remove_tree((owner, next), out);
                continue;
            }
            // Each child's stretch mapping into `lo..hi`, with itself.
            for c in self.children(owner, next, hi) {
                let (from, n) = self.span(c);
                let (a, b) = (lo.max(from), hi.min(from + n));
                if a < b {
                    self.revoke_range((c.0, Self::key(c.1 + a - from)), b - a, true, out);
                }
            }
        }
    }

    /// Depth of a node (origin = 0), for diagnostics; `None` for a
    /// key nobody tracks, a dangling parent or a parent chain that
    /// never reaches an origin.
    pub fn depth(&self, at: NodeKey<K>) -> Option<usize> {
        let mut at: Id = (at.0, at.1.into());
        for d in 0..self.nodes.len() {
            let id = self.covering(at.0, at.1)?;
            match self.nodes[&id].parent {
                Some((p, from, _)) => at = (p, from + (at.1 - id.1)),
                None => return Some(d),
            }
        }
        None
    }

    /// The key `at` was derived from: `None` for an origin and for a
    /// key nobody tracks.
    pub fn parent(&self, at: NodeKey<K>) -> Option<NodeKey<K>> {
        let key = at.1.into();
        let id = self.covering(at.0, key)?;
        let (p, from, _) = self.nodes[&id].parent?;
        Some((p, Self::key(from + (key - id.1))))
    }

    /// Every node, in `(owner, base)` order: its first key, how many
    /// keys it covers and the key its first one was derived from.
    pub fn iter(&self) -> impl Iterator<Item = (NodeKey<K>, u64, Option<NodeKey<K>>)> + '_ {
        self.nodes.iter().map(|(&(owner, base), n)| {
            let parent = n.parent.map(|(p, from, _)| (p, Self::key(from)));
            ((owner, Self::key(base)), n.len, parent)
        })
    }

    /// Checks that the tree is one: no node is empty or overlaps
    /// another of its owner's; every node with a parent is derived from
    /// keys one node of the parent covers and is listed among its
    /// children, and every listed child is there with that link; and no
    /// parent chain loops.
    pub fn check_links(&self) -> Result<(), String> {
        let mut prev: Option<Id> = None;
        for (&at, node) in &self.nodes {
            let show = format!("({}, {:#x}+{})", at.0, at.1, node.len);
            if node.len == 0 || prev.is_some_and(|(o, end)| o == at.0 && end > at.1) {
                return Err(format!("{show} is empty or overlaps its owner's last node"));
            }
            prev = Some((at.0, at.1 + node.len));
            let Some(link @ (p, from, _)) = node.parent else {
                continue;
            };
            if self.derived.get(&link) != Some(&at) {
                return Err(format!("{show} is not listed under its parent {p}"));
            }
            let inside = |id: &Id| from + node.len <= id.1 + self.nodes[id].len;
            if !self.covering(p, from).is_some_and(|id| inside(&id)) {
                return Err(format!("{show} maps outside any one node of {p}"));
            }
            if self.depth((at.0, Self::key(at.1))).is_none() {
                return Err(format!("{show} is on a parent cycle"));
            }
        }
        for (link, c) in &self.derived {
            if self.nodes.get(c).map(|n| n.parent) != Some(Some(*link)) {
                return Err(format!("{link:?} lists {c:?}: gone or re-parented"));
            }
        }
        Ok(())
    }

    /// Total nodes — ranges, not keys.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The key a number names; only asked of numbers inside a range a
    /// key of the same type began.
    fn key(v: u64) -> K {
        K::try_from(v).ok().expect("a key of the range's own type")
    }

    /// The node of `owner` covering `key`.
    fn covering(&self, owner: u32, key: u64) -> Option<Id> {
        let (&id, n) = self.nodes.range(..=(owner, key)).next_back()?;
        (id.0 == owner && key - id.1 < n.len).then_some(id)
    }

    /// The base of `owner`'s first node in `from..end`, or `end`.
    fn next_base(&self, owner: u32, from: u64, end: u64) -> u64 {
        let mut run = self.nodes.range((owner, from)..(owner, end));
        run.next().map_or(end, |(id, _)| id.1)
    }

    /// The nodes derived from `owner`'s keys `lo..hi`, by the key their
    /// base maps to, then in delegation order.
    fn children(&self, owner: u32, lo: u64, hi: u64) -> Vec<Id> {
        let run = self.derived.range((owner, lo, 0)..(owner, hi, 0));
        run.map(|(_, &c)| c).collect()
    }

    /// Child `c`'s keys in its parent: `(first, len)`.
    fn span(&self, c: Id) -> (u64, u64) {
        let n = &self.nodes[&c];
        (n.parent.expect("a child has a parent").1, n.len)
    }

    /// Makes `at` a node boundary of `owner`'s: the node straddling it
    /// is cut in two, after every child straddling the cut is cut at
    /// its own matching key. The halves keep the node's sequence
    /// number, so each key keeps its place among its siblings.
    fn split(&mut self, owner: u32, at: u64) {
        let Some(id) = self.covering(owner, at).filter(|id| id.1 != at) else {
            return;
        };
        for c in self.children(owner, id.1, at) {
            let (from, n) = self.span(c);
            if from + n > at {
                self.split(c.0, c.1 + (at - from));
            }
        }
        let (node, head) = (self.nodes.get_mut(&id).expect("covering"), at - id.1);
        let len = node.len - head;
        let parent = node.parent.map(|(p, f, s)| (p, f + head, s));
        node.len = head;
        if let Some(link) = parent {
            self.derived.insert(link, (owner, at));
        }
        self.nodes.insert((owner, at), Node { len, parent });
    }

    /// Removes `id` and everything derived from it, children first,
    /// appending each to `out`.
    fn remove_tree(&mut self, id: Id, out: &mut Vec<(NodeKey<K>, u64)>) {
        let node = self.nodes.remove(&id).expect("a linked node exists");
        if let Some(link) = node.parent {
            self.derived.remove(&link);
        }
        for c in self.children(id.0, id.1, id.1 + node.len) {
            self.remove_tree(c, out);
        }
        out.push(((id.0, Self::key(id.1)), node.len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegate_chain_and_depth() {
        let mut db: MapDb<u64> = MapDb::new();
        db.insert_root(0, 100);
        assert!(db.delegate((0, 100), (1, 200)));
        assert!(db.delegate((1, 200), (2, 300)));
        assert_eq!(db.depth((0, 100)), Some(0));
        assert_eq!(db.depth((2, 300)), Some(2));
        assert_eq!(db.len(), 3);
    }

    /// The database does not prove that a source is held — its callers
    /// do, against the space — so an untracked source becomes an origin
    /// with its first child. What it does refuse is what would break
    /// the tree: a node derived from itself, a second parent.
    #[test]
    fn delegate_requires_source() {
        let mut db: MapDb<u64> = MapDb::new();
        assert!(!db.delegate((0, 1), (0, 1)), "self-delegation");
        assert!(db.is_empty(), "and no origin left behind by the refusal");
        assert!(db.delegate((0, 1), (1, 1)), "untracked source");
        assert_eq!(db.depth((0, 1)), Some(0), "became an origin");
        assert_eq!(db.parent((1, 1)), Some((0, 1)));
        assert_eq!(db.len(), 2);
        assert!(!db.delegate((0, 1), (1, 1)), "destination exists");
        assert!(!db.delegate((2, 1), (1, 1)), "under another parent too");
        assert!(!db.contains(2, 1), "and that refusal made no origin");
        assert!(!db.delegate((1, 1), (0, 1)), "an origin is a destination");
        assert_eq!(db.len(), 2);
        assert_eq!(db.check_links(), Ok(()));
    }

    /// `check_links` is the referee of every other test here; these are
    /// the ways a tree stops being one.
    #[test]
    fn check_links_catches_a_broken_tree() {
        let tree = || {
            let mut db: MapDb<u64> = MapDb::new();
            db.delegate_range((0, 1), (1, 1), 4);
            db.delegate_range((1, 1), (2, 1), 2);
            assert_eq!(db.check_links(), Ok(()));
            db
        };
        let mut db = tree();
        db.nodes.remove(&(2, 1));
        assert!(db.check_links().is_err(), "a listed child that is gone");
        let mut db = tree();
        db.derived.insert((0, 3, 77), (1, 1));
        assert!(db.check_links().is_err(), "a child listed twice");
        let mut db = tree();
        db.derived.retain(|_, c| *c != (1, 1));
        assert!(db.check_links().is_err(), "a parent that disowns");
        let mut db = tree();
        db.nodes.get_mut(&(2, 1)).unwrap().len = 5;
        assert!(db.check_links().is_err(), "a child mapping past its parent");
        let mut db = tree();
        db.nodes.get_mut(&(1, 1)).unwrap().len = 0;
        assert!(db.check_links().is_err(), "an empty node");
        let mut db = tree();
        let (len, parent) = (1, None);
        db.nodes.insert((1, 4), Node { len, parent });
        assert!(db.check_links().is_err(), "two nodes of one owner overlap");
        let mut db = tree();
        db.nodes.get_mut(&(0, 1)).unwrap().parent = Some((2, 1, 99));
        db.derived.insert((2, 1, 99), (0, 1));
        assert!(db.check_links().is_err(), "a cycle");
        assert_eq!(db.depth((2, 1)), None);
    }

    #[test]
    fn revoke_subtree_children_first() {
        let mut db: MapDb<u64> = MapDb::new();
        db.insert_root(0, 10);
        db.delegate((0, 10), (1, 10));
        db.delegate((1, 10), (2, 10));
        db.delegate((1, 10), (3, 10));
        let mut removed = Vec::new();
        db.revoke((1, 10), true, &mut |k| removed.push(k));
        assert_eq!(removed.len(), 3);
        // Children precede the parent.
        let parent_pos = removed.iter().position(|k| *k == (1, 10)).unwrap();
        assert_eq!(parent_pos, 2);
        assert!(db.contains(0, 10), "root survives");
        assert!(!db.contains(2, 10));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn revoke_without_self_keeps_node() {
        let mut db: MapDb<u64> = MapDb::new();
        db.insert_root(0, 5);
        db.delegate((0, 5), (1, 5));
        db.delegate((0, 5), (2, 5));
        let mut removed = Vec::new();
        db.revoke((0, 5), false, &mut |k| removed.push(k));
        assert_eq!(removed.len(), 2);
        assert!(db.contains(0, 5));
        // The node can delegate again afterwards.
        assert!(db.delegate((0, 5), (1, 5)));
    }

    #[test]
    fn revoke_detaches_from_parent() {
        let mut db: MapDb<u64> = MapDb::new();
        db.insert_root(0, 1);
        db.delegate((0, 1), (1, 1));
        db.revoke((1, 1), true, &mut |_| {});
        // Parent can re-delegate to the same destination.
        assert!(db.delegate((0, 1), (1, 1)));
    }

    /// Siblings derived from one key come back in the order they were
    /// delegated, not in the order of their own keys: a tree wide and
    /// deep enough to fill many table nodes comes back children-first,
    /// siblings in delegation order.
    #[test]
    fn revocation_order_is_delegation_order_not_table_order() {
        let mut db: MapDb<u64> = MapDb::new();
        let mut want = Vec::new();
        for page in 0..64u64 {
            db.insert_root(0, page);
        }
        for page in (0..64u64).rev() {
            // Two children per page, the first with a grandchild.
            db.delegate((0, page), (1, page));
            db.delegate((0, page), (2, page + 1000));
            db.delegate((1, page), (3, page));
        }
        for page in 0..64u64 {
            want.extend([(3, page), (1, page), (2, page + 1000)]);
        }
        let mut removed = Vec::new();
        for page in 0..64u64 {
            db.revoke((0, page), false, &mut |k| removed.push(k));
        }
        assert_eq!(removed, want);
        assert_eq!(db.len(), 64, "the roots stay");
    }

    /// One range delegation is one node per source node it covers, and
    /// one origin per untracked stretch; a revocation in the middle cuts
    /// the whole chain below it at the same keys and nothing else.
    #[test]
    fn a_range_is_one_node_until_something_cuts_it() {
        let mut db: MapDb<u64> = MapDb::new();
        assert_eq!(db.delegate_range((0, 100), (1, 0), 1000), 1000);
        assert_eq!(db.delegate_range((1, 0), (2, 5000), 1000), 1000);
        assert_eq!(db.len(), 3, "origin, child, grandchild");
        assert_eq!(db.parent((2, 5999)), Some((1, 999)));
        assert_eq!(db.depth((2, 5500)), Some(2));

        let mut out = Vec::new();
        db.revoke_range((0, 300), 10, false, &mut out);
        assert_eq!(out, vec![((2, 5200), 10), ((1, 200), 10)], "children first");
        assert_eq!(db.len(), 5, "child and grandchild each cut in two");
        assert!(!db.contains(1, 205) && db.contains(1, 210) && db.contains(0, 305));
        assert_eq!(db.parent((2, 5210)), Some((1, 210)));
        assert_eq!(db.check_links(), Ok(()));

        // A source spanning two nodes and two untracked stretches (the
        // revoked one and the tail): a child per stretch, an origin for
        // each untracked one.
        out.clear();
        assert_eq!(db.delegate_range((1, 150), (3, 0), 900), 900);
        assert_eq!(db.len(), 5 + 4 + 2);
        assert_eq!(db.parent((3, 49)), Some((1, 199)));
        assert_eq!(db.parent((3, 50)), Some((1, 200)));
        assert_eq!(db.depth((3, 50)), Some(1), "under a new origin");
        assert_eq!(db.parent((3, 60)), Some((1, 210)));
        assert_eq!(db.depth((3, 60)), Some(2));
        assert_eq!(db.check_links(), Ok(()));

        // The whole of owner 1, and past it: every node in key order,
        // each after its subtree, then the untracked rest as owner 1's.
        db.revoke_range((1, 0), 2000, true, &mut out);
        let owners: Vec<u32> = out.iter().map(|((o, _), _)| *o).collect();
        assert_eq!(owners, vec![2, 3, 1, 3, 1, 2, 3, 1, 3, 1, 1], "{out:?}");
        assert_eq!(out.last(), Some(&((1, 1050), 950)), "untracked tail");
        assert_eq!(db.len(), 1, "the origin stays");
        assert_eq!(db.check_links(), Ok(()));
    }

    #[test]
    fn revoke_missing_is_noop() {
        let mut db: MapDb<u64> = MapDb::new();
        let mut n = 0;
        db.revoke((9, 9), true, &mut |_| n += 1);
        assert_eq!(n, 0);
    }
}
