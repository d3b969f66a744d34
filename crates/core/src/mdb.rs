//! Mapping database: the delegation tree behind recursive revocation
//! (Section 6).
//!
//! Every delegated resource — a memory page, an I/O port, a capability
//! — is a node in a tree rooted at the holder that first passed it on.
//! Delegation adds a child; revocation removes an entire subtree,
//! invoking a callback per removed node so the kernel can tear down
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

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A node key: (domain index, resource key).
pub type NodeKey<K> = (usize, K);

struct Node<K> {
    parent: Option<NodeKey<K>>,
    children: Vec<NodeKey<K>>,
}

/// Multiplicative hasher for the node table's small integer keys:
/// rotate, xor the next word in, multiply by 2^64 / φ. Boot hashes two
/// keys per delegated page, and SipHash was a fifth of that boot's
/// host time. The keys are page numbers, ports and selectors of this
/// kernel's own domains, bounded by their tables, so the flooding
/// resistance given up protects nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(*b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The product's high bits are its well-mixed ones; the table
    /// indexes with the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The mapping database for one resource kind, generic over the
/// resource key (page number, port, capability selector).
///
/// Nodes live in a hash map: no database operation observes node
/// ordering (revocation order is fixed by the per-node `children`
/// lists), and boot inserts a node or two per page it delegates, so
/// node insertion is on the system-construction critical path.
pub struct MapDb<K: Ord + Copy + Hash> {
    nodes: HashMap<NodeKey<K>, Node<K>, BuildHasherDefault<KeyHasher>>,
}

impl<K: Ord + Copy + Hash> Default for MapDb<K> {
    fn default() -> Self {
        MapDb {
            nodes: HashMap::default(),
        }
    }
}

impl<K: Ord + Copy + Hash> MapDb<K> {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a parentless origin ahead of its first delegation.
    /// [`MapDb::delegate`] does this on demand; nothing has to.
    pub fn insert_root(&mut self, owner: usize, key: K) {
        self.nodes.insert(
            (owner, key),
            Node {
                parent: None,
                children: Vec::new(),
            },
        );
    }

    /// `true` if `(owner, key)` is tracked.
    pub fn contains(&self, owner: usize, key: K) -> bool {
        self.nodes.contains_key(&(owner, key))
    }

    /// Records a delegation of `(from_owner, from_key)` to
    /// `(to_owner, to_key)`; a source nobody tracks yet becomes a
    /// parentless origin (the caller has checked that it is held).
    /// Returns `false`, recording nothing, if the destination is
    /// already tracked or is the source itself.
    pub fn delegate(&mut self, from: NodeKey<K>, to: NodeKey<K>) -> bool {
        if from == to || self.nodes.contains_key(&to) {
            return false;
        }
        self.nodes.insert(
            to,
            Node {
                parent: Some(from),
                children: Vec::new(),
            },
        );
        let origin = || Node {
            parent: None,
            children: Vec::new(),
        };
        self.nodes
            .entry(from)
            .or_insert_with(origin)
            .children
            .push(to);
        true
    }

    /// Revokes the subtree *below* `at` — and `at` itself when
    /// `include_self` — invoking `on_removed` for every removed node
    /// (children before parents).
    pub fn revoke(
        &mut self,
        at: NodeKey<K>,
        include_self: bool,
        on_removed: &mut dyn FnMut(NodeKey<K>),
    ) {
        let Some(node) = self.nodes.get(&at) else {
            return;
        };
        let children = node.children.clone();
        for c in children {
            self.revoke(c, true, on_removed);
        }
        if include_self {
            if let Some(node) = self.nodes.remove(&at) {
                if let Some(p) = node.parent {
                    if let Some(pn) = self.nodes.get_mut(&p) {
                        pn.children.retain(|c| *c != at);
                    }
                }
                on_removed(at);
            }
        } else if let Some(n) = self.nodes.get_mut(&at) {
            n.children.clear();
        }
    }

    /// Depth of a node (origin = 0), for diagnostics; `None` for a
    /// key nobody tracks, a dangling parent or a parent chain that
    /// never reaches an origin.
    pub fn depth(&self, mut at: NodeKey<K>) -> Option<usize> {
        for d in 0..self.nodes.len() {
            match self.nodes.get(&at)?.parent {
                Some(p) => at = p,
                None => return Some(d),
            }
        }
        None
    }

    /// The node `at` was derived from: `None` for an origin and for a
    /// key nobody tracks.
    pub fn parent(&self, at: NodeKey<K>) -> Option<NodeKey<K>> {
        self.nodes.get(&at)?.parent
    }

    /// Every tracked node with its parent, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeKey<K>, Option<NodeKey<K>>)> + '_ {
        self.nodes.iter().map(|(k, n)| (*k, n.parent))
    }

    /// Checks that the tree is one: every child a node lists exists,
    /// is listed once and names that node as its parent; every parent
    /// a node names exists and lists it; and no parent chain loops.
    pub fn check_links(&self) -> Result<(), String>
    where
        K: Debug,
    {
        for (at, node) in &self.nodes {
            let mut listed = node.children.clone();
            listed.sort_unstable();
            if listed.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("{at:?} lists a child twice"));
            }
            for c in &node.children {
                if self.nodes.get(c).map(|n| n.parent) != Some(Some(*at)) {
                    return Err(format!(
                        "{at:?} lists {c:?}, which is gone or has another parent"
                    ));
                }
            }
            if let Some(p) = node.parent {
                if !self.nodes.get(&p).is_some_and(|n| n.children.contains(at)) {
                    return Err(format!("{at:?} names parent {p:?}, which does not list it"));
                }
            }
            if self.depth(*at).is_none() {
                return Err(format!("{at:?} is on a parent cycle"));
            }
        }
        Ok(())
    }

    /// Total tracked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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
    /// the three ways a tree stops being one.
    #[test]
    fn check_links_catches_a_broken_tree() {
        let tree = || {
            let mut db: MapDb<u64> = MapDb::new();
            db.delegate((0, 1), (1, 1));
            db.delegate((1, 1), (2, 1));
            assert_eq!(db.check_links(), Ok(()));
            db
        };
        let mut db = tree();
        db.nodes.remove(&(2, 1));
        assert!(db.check_links().is_err(), "a listed child that is gone");
        let mut db = tree();
        db.nodes.get_mut(&(1, 1)).unwrap().children.push((2, 1));
        assert!(db.check_links().is_err(), "a child listed twice");
        let mut db = tree();
        db.nodes.get_mut(&(0, 1)).unwrap().children.clear();
        assert!(db.check_links().is_err(), "a parent that disowns");
        let mut db = tree();
        db.nodes.get_mut(&(0, 1)).unwrap().parent = Some((2, 1));
        db.nodes.get_mut(&(2, 1)).unwrap().children.push((0, 1));
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

    /// No operation observes the node table's order, so its hasher is
    /// free to change: revocation walks the per-node `children` lists,
    /// which are in delegation order. A tree wide and deep enough to
    /// fill many buckets comes back children-first, siblings in the
    /// order they were delegated — whatever the table does with them.
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

    /// Sequential pages, ports and selectors — what the kernel actually
    /// stores — spread over the table: no bucket of the low 10 hash
    /// bits gets more than a handful of 4,096 consecutive keys.
    #[test]
    fn key_hasher_spreads_consecutive_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut buckets = [0u32; 1024];
        for page in 0..4096u64 {
            buckets[(build.hash_one((7usize, page)) & 1023) as usize] += 1;
        }
        let worst = *buckets.iter().max().unwrap();
        assert!(worst <= 16, "4 expected per bucket, worst {worst}");
    }

    #[test]
    fn revoke_missing_is_noop() {
        let mut db: MapDb<u64> = MapDb::new();
        let mut n = 0;
        db.revoke((9, 9), true, &mut |_| n += 1);
        assert_eq!(n, 0);
    }
}
