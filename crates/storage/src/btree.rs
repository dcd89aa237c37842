//! The paged primary B-tree: leaf/internal nodes over [`crate::pager`]
//! pages, written with latch crabbing and read with optimistic
//! version-validated descents.
//!
//! Leaves hold [`LeafEntry`]s keyed by primary key; each entry carries the
//! row image *and* the key's MVCC-lite version chain, so chains relocate
//! with their entry across splits and merges for free — version history is
//! keyed by primary key, never by page. An entry whose `row` is `None` is a
//! tombstone kept alive only by its chain (deleted key with reconstructable
//! history); the tree removes entries only when a caller explicitly asks
//! ([`BTree::remove_if`]) and the chain is gone.
//!
//! ## Shape
//!
//! Internal nodes hold up to 64 children and are rebalanced at 32, so a
//! 100 000-row table is about four pages deep and a descent touches few
//! cache lines. Leaf capacity tracks the schema's `rows_per_page` instead
//! (one-row leaves for the hot TPC-C district and warehouse tables), so
//! leaf latches keep the lock manager's page granularity.
//!
//! ## Write path — latch crabbing
//!
//! Writers descend with hand-over-hand write latches: latch the child,
//! *then* release the parent. Structure changes are preemptive: an insert
//! descent splits any full child while the parent is still held, a remove
//! descent tops up any minimal child (borrow from a sibling, else merge)
//! while the parent is still held. A node we descend into is therefore
//! always safe for the operation, so splits/merges never propagate upward
//! and at most three latches (parent + child + sibling) are ever held.
//! The root's page id never changes: a root split rewrites page 0 in place
//! as an internal node over two fresh pages, and a root collapse copies the
//! last child back into page 0.
//!
//! ## Read path — optimistic descent
//!
//! Readers hold at most one latch at a time: read-latch a node, capture its
//! version, pick the child, release, latch the child, then check that the
//! parent's version did not change in between. Each hop resolves the child
//! id through the pager's lock-free directory (a plain `&Page`, no
//! reference count) and takes the child's *shared* read latch, which never
//! waits unless a writer holds that very page. A mismatch means the pointer
//! they followed may have been split, merged, or freed underneath them —
//! the descent restarts from the root (counted in
//! [`crate::pager::PagerCounters::read_restarts`]). Range scans hop the
//! leaf `next` chain with the same validation. Readers never block writers
//! for longer than one node visit and never deadlock with them (one latch
//! at a time ⇒ no cycles). The closure a read runs at the leaf executes
//! under the leaf's read latch: version reads walk chains by reference
//! there and consult the [`crate::version::CommitResolver`], whose lock is
//! a leaf in the lock order (it never waits for a page latch).
//!
//! Validation is sound against in-progress structure changes because page
//! versions use the OLC locked encoding (odd while write-latched — see
//! [`crate::pager`]): every structure change mutates the child *and* the
//! parent while holding the parent's write latch, so even where a modified
//! or freed child becomes latch-free before the parent is released (the
//! split fast path below, merges, borrows, root collapse), a reader that
//! routed through the pre-change parent sees an odd or advanced parent
//! version at validation time and restarts — it never trusts the stale
//! child. Content-only leaf writes need no such care: they mutate nothing
//! but the leaf, under the leaf's own latch.

use crate::pager::{Page, PageId, Pager, PagerCounters, WriteLatch};
use crate::row::{Key, Row};
use crate::version::ChainEntry;
use acc_common::Slot;

/// The root lives at page 0 forever.
const ROOT: PageId = 0;

/// One key's worth of state: the live row image (`None` = tombstone) plus
/// its version chain. The slot is the stable heap address the WAL and the
/// lock manager key off; it travels with the entry across page moves.
#[derive(Debug, Clone)]
pub(crate) struct LeafEntry {
    pub key: Key,
    pub slot: Slot,
    pub row: Option<Row>,
    pub chain: Vec<ChainEntry>,
}

/// A tree node — the payload of one page.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// `children[i]` covers keys `< keys[i]`; `children[i+1]` covers
    /// `>= keys[i]`. Separators are copies (routing only) and need not
    /// exist as live leaf keys.
    Internal {
        keys: Vec<Key>,
        children: Vec<PageId>,
    },
    /// Sorted entries plus the right-sibling link for range scans.
    Leaf {
        entries: Vec<LeafEntry>,
        next: Option<PageId>,
    },
}

/// The paged B-tree. Leaf capacity tracks the schema's `rows_per_page`
/// (clamped), so the hot TPC-C district/warehouse tables get one row per
/// leaf — page latches there are per-row latches.
pub(crate) struct BTree {
    pager: Pager<Node>,
    /// Max entries per leaf.
    leaf_cap: usize,
    /// Rebalance a leaf we descend into (for remove) at `<= min_leaf`.
    min_leaf: usize,
    /// Max children per internal node (64).
    max_children: usize,
    /// Rebalance an internal node we descend into at `<= min_children`.
    min_children: usize,
}

impl BTree {
    pub(crate) fn new(rows_per_page: u32) -> BTree {
        let leaf_cap = (rows_per_page as usize).clamp(2, 256);
        BTree {
            pager: Pager::new(Node::Leaf {
                entries: Vec::new(),
                next: None,
            }),
            leaf_cap,
            min_leaf: leaf_cap / 2,
            max_children: 64,
            min_children: 32,
        }
    }

    pub(crate) fn counters(&self) -> PagerCounters {
        self.pager.counters()
    }

    /// Route: index of the child covering `key`.
    fn route(keys: &[Key], key: &Key) -> usize {
        keys.partition_point(|k| k <= key)
    }

    fn is_full(&self, node: &Node) -> bool {
        match node {
            Node::Leaf { entries, .. } => entries.len() >= self.leaf_cap,
            Node::Internal { children, .. } => children.len() >= self.max_children,
        }
    }

    fn at_min(&self, node: &Node) -> bool {
        match node {
            Node::Leaf { entries, .. } => entries.len() <= self.min_leaf,
            Node::Internal { children, .. } => children.len() <= self.min_children,
        }
    }

    // ------------------------------------------------------------------
    // Point reads (optimistic descent)
    // ------------------------------------------------------------------

    /// Run `f` on the entry for `key` (or `None`) under the leaf's read
    /// latch. `f` may run more than once if the descent restarts — it must
    /// be effect-free apart from its return value.
    pub(crate) fn read_entry<R>(&self, key: &Key, f: impl Fn(Option<&LeafEntry>) -> R) -> R {
        'restart: loop {
            let mut cur = self.pager.page(ROOT);
            let mut parent: Option<(&Page<Node>, u64)> = None;
            loop {
                let g = self.pager.read_latch(cur);
                if let Some((p, v)) = &parent {
                    if p.version() != *v {
                        drop(g);
                        self.pager.count_restart();
                        continue 'restart;
                    }
                }
                let ver = cur.version();
                match &*g {
                    Node::Leaf { entries, .. } => {
                        let idx = entries.partition_point(|e| e.key < *key);
                        return f(entries.get(idx).filter(|e| e.key == *key));
                    }
                    Node::Internal { keys, children } => {
                        let cid = children[Self::route(keys, key)];
                        drop(g);
                        parent = Some((cur, ver));
                        cur = self.pager.page(cid);
                    }
                }
            }
        }
    }

    /// Range scan from `lo`: visit entries with key `>= lo` in order while
    /// `take(key)` holds, collecting up to `limit` values `emit` produces.
    /// Hops the leaf `next` chain with version validation; on a validation
    /// failure the whole scan restarts (partial output is discarded), so
    /// `emit` must be effect-free apart from its return value.
    pub(crate) fn scan_collect<T>(
        &self,
        lo: &Key,
        take: impl Fn(&Key) -> bool,
        mut emit: impl FnMut(&LeafEntry) -> Option<T>,
        limit: usize,
    ) -> Vec<T> {
        'restart: loop {
            let mut out: Vec<T> = Vec::new();
            let mut cur = self.pager.page(ROOT);
            let mut parent: Option<(&Page<Node>, u64)> = None;
            let mut first_leaf = true;
            loop {
                let g = self.pager.read_latch(cur);
                if let Some((p, v)) = &parent {
                    if p.version() != *v {
                        drop(g);
                        self.pager.count_restart();
                        continue 'restart;
                    }
                }
                let ver = cur.version();
                let next_page = match &*g {
                    Node::Internal { keys, children } => children[Self::route(keys, lo)],
                    Node::Leaf { entries, next } => {
                        let from = if first_leaf {
                            entries.partition_point(|e| e.key < *lo)
                        } else {
                            0
                        };
                        for e in &entries[from..] {
                            if !take(&e.key) {
                                return out;
                            }
                            if let Some(t) = emit(e) {
                                out.push(t);
                                if out.len() >= limit {
                                    return out;
                                }
                            }
                        }
                        match next {
                            None => return out,
                            Some(n) => {
                                first_leaf = false;
                                *n
                            }
                        }
                    }
                };
                drop(g);
                parent = Some((cur, ver));
                cur = self.pager.page(next_page);
            }
        }
    }

    // ------------------------------------------------------------------
    // Write paths (latch crabbing)
    // ------------------------------------------------------------------

    /// Mutate the entry for `key` in place (no entry is added or removed):
    /// hand-over-hand write descent, `f` runs under the leaf's write latch
    /// with `None` if the key has no entry.
    pub(crate) fn with_entry<R>(
        &self,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> R,
    ) -> R {
        let g = self.pager.write_latch(self.pager.page(ROOT));
        self.with_entry_rec(g, key, f)
    }

    fn with_entry_rec<'a, R>(
        &'a self,
        mut g: WriteLatch<'a, Node>,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> R,
    ) -> R {
        let cid = match &mut *g {
            Node::Leaf { entries, .. } => {
                let idx = entries.partition_point(|e| e.key < *key);
                let ent = match entries.get_mut(idx) {
                    Some(e) if e.key == *key => Some(e),
                    _ => None,
                };
                return f(ent);
            }
            Node::Internal { keys, children } => children[Self::route(keys, key)],
        };
        let cg = self.pager.write_latch(self.pager.page(cid));
        drop(g);
        self.with_entry_rec(cg, key, f)
    }

    /// Insert-or-mutate: descend with preemptive splits so the target leaf
    /// always has room, then run `f(entries, idx, exists)` under the leaf's
    /// write latch — `idx` is where `key` lives (`exists`) or belongs, and
    /// `f` may `entries.insert(idx, ..)` exactly one entry.
    pub(crate) fn upsert<R>(
        &self,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> R {
        let mut g = self.pager.write_latch(self.pager.page(ROOT));
        if self.is_full(&g) {
            self.split_root(&mut g);
        }
        self.upsert_rec(g, key, f)
    }

    fn upsert_rec<'a, R>(
        &'a self,
        mut g: WriteLatch<'a, Node>,
        key: &Key,
        f: impl FnOnce(&mut Vec<LeafEntry>, usize, bool) -> R,
    ) -> R {
        let (cid, child_idx) = match &mut *g {
            Node::Leaf { entries, .. } => {
                let idx = entries.partition_point(|e| e.key < *key);
                let exists = entries.get(idx).is_some_and(|e| e.key == *key);
                return f(entries, idx, exists);
            }
            Node::Internal { keys, children } => {
                let i = Self::route(keys, key);
                (children[i], i)
            }
        };
        let mut cg = self.pager.write_latch(self.pager.page(cid));
        if self.is_full(&cg) {
            let (sep, right_id) = self.split_child(&mut g, child_idx, &mut cg);
            if *key >= sep {
                // The key now belongs in the fresh right sibling. No one
                // can route to it until we release the parent (at worst a
                // stale reader holds its recycled frame briefly before
                // restarting), so its latch is (nearly) free. Dropping cg
                // while g is held is safe: the parent's version is odd
                // until g drops, so readers routed to the truncated child
                // fail validation.
                drop(cg);
                let rg = self.pager.write_latch(self.pager.page(right_id));
                drop(g);
                return self.upsert_rec(rg, key, f);
            }
        }
        drop(g);
        self.upsert_rec(cg, key, f)
    }

    /// Remove-or-mutate: descend with preemptive rebalancing (borrow or
    /// merge any minimal child while its parent is held), then run `f` on
    /// the entry under the leaf's write latch; if `f` returns `remove =
    /// true` (and the entry exists) the entry is removed from the leaf.
    pub(crate) fn remove_if<R>(
        &self,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> (R, bool),
    ) -> R {
        loop {
            let mut g = self.pager.write_latch(self.pager.page(ROOT));
            // Collapse a trivial root (internal, one child) before
            // descending: copy the child up into page 0 so the root's page
            // id never changes.
            if let Node::Internal { children, .. } = &*g {
                if children.len() == 1 {
                    let cid = children[0];
                    let mut cg = self.pager.write_latch(self.pager.page(cid));
                    *g = std::mem::replace(
                        &mut *cg,
                        Node::Leaf {
                            entries: Vec::new(),
                            next: None,
                        },
                    );
                    drop(cg);
                    self.pager.free_page(cid);
                    drop(g);
                    continue;
                }
            }
            return self.remove_rec(g, key, f);
        }
    }

    fn remove_rec<'a, R>(
        &'a self,
        mut g: WriteLatch<'a, Node>,
        key: &Key,
        f: impl FnOnce(Option<&mut LeafEntry>) -> (R, bool),
    ) -> R {
        let (cid, ci, n_children) = match &mut *g {
            Node::Leaf { entries, .. } => {
                let idx = entries.partition_point(|e| e.key < *key);
                let exists = entries.get(idx).is_some_and(|e| e.key == *key);
                let (r, remove) = if exists {
                    f(Some(&mut entries[idx]))
                } else {
                    f(None)
                };
                if remove && exists {
                    entries.remove(idx);
                }
                return r;
            }
            Node::Internal { keys, children } => {
                let i = Self::route(keys, key);
                (children[i], i, children.len())
            }
        };
        let mut cg = self.pager.write_latch(self.pager.page(cid));
        if self.at_min(&cg) {
            if ci + 1 < n_children {
                // Prefer the right sibling: borrow its first, else merge it
                // into the child. Sibling latching happens strictly under
                // the parent's write latch, so no two writers ever contend
                // for the same sibling pair in opposite orders.
                let sid = match &*g {
                    Node::Internal { children, .. } => children[ci + 1],
                    _ => unreachable!("parent is internal"),
                };
                let mut sg = self.pager.write_latch(self.pager.page(sid));
                if !self.at_min(&sg) {
                    Self::borrow_from_right(&mut g, ci, &mut cg, &mut sg);
                } else {
                    Self::merge_right_into_left(&mut g, ci, &mut cg, &mut sg);
                    self.pager.count_merge();
                    drop(sg);
                    self.pager.free_page(sid);
                }
            } else {
                // Child is the last: use the left sibling.
                let sid = match &*g {
                    Node::Internal { children, .. } => children[ci - 1],
                    _ => unreachable!("parent is internal"),
                };
                let mut sg = self.pager.write_latch(self.pager.page(sid));
                if !self.at_min(&sg) {
                    Self::borrow_from_left(&mut g, ci, &mut sg, &mut cg);
                } else {
                    Self::merge_right_into_left(&mut g, ci - 1, &mut sg, &mut cg);
                    self.pager.count_merge();
                    drop(cg);
                    self.pager.free_page(cid);
                    drop(g);
                    // Descend into the left sibling, which now covers the
                    // merged range.
                    return self.remove_rec(sg, key, f);
                }
            }
        }
        drop(g);
        self.remove_rec(cg, key, f)
    }

    // ------------------------------------------------------------------
    // Structure changes (always under the parent's write latch)
    // ------------------------------------------------------------------

    /// Split page 0 in place: its halves move to two fresh pages and the
    /// root becomes an internal node over them.
    fn split_root(&self, g: &mut WriteLatch<'_, Node>) {
        self.pager.count_split(matches!(**g, Node::Internal { .. }));
        match &mut **g {
            Node::Leaf { entries, next } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].key.clone();
                let left_entries = std::mem::take(entries);
                let right_id = self.pager.alloc(Node::Leaf {
                    entries: right_entries,
                    next: *next,
                });
                let left_id = self.pager.alloc(Node::Leaf {
                    entries: left_entries,
                    next: Some(right_id),
                });
                **g = Node::Internal {
                    keys: vec![sep],
                    children: vec![left_id, right_id],
                };
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("internal root has keys");
                let right_children = children.split_off(mid + 1);
                let right_id = self.pager.alloc(Node::Internal {
                    keys: right_keys,
                    children: right_children,
                });
                let left_id = self.pager.alloc(Node::Internal {
                    keys: std::mem::take(keys),
                    children: std::mem::take(children),
                });
                **g = Node::Internal {
                    keys: vec![sep],
                    children: vec![left_id, right_id],
                };
            }
        }
    }

    /// Split the full child at `child_idx` (held in `cg`) under its parent
    /// (`g`): upper half moves to a fresh right sibling, the separator goes
    /// into the parent. Returns `(separator, right_page)`.
    fn split_child(
        &self,
        g: &mut WriteLatch<'_, Node>,
        child_idx: usize,
        cg: &mut WriteLatch<'_, Node>,
    ) -> (Key, PageId) {
        self.pager
            .count_split(matches!(**cg, Node::Internal { .. }));
        let (sep, right_id) = match &mut **cg {
            Node::Leaf { entries, next } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].key.clone();
                let right_id = self.pager.alloc(Node::Leaf {
                    entries: right_entries,
                    next: *next,
                });
                *next = Some(right_id);
                (sep, right_id)
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("internal node has keys");
                let right_children = children.split_off(mid + 1);
                let right_id = self.pager.alloc(Node::Internal {
                    keys: right_keys,
                    children: right_children,
                });
                (sep, right_id)
            }
        };
        match &mut **g {
            Node::Internal { keys, children } => {
                keys.insert(child_idx, sep.clone());
                children.insert(child_idx + 1, right_id);
            }
            _ => unreachable!("split parent is internal"),
        }
        (sep, right_id)
    }

    /// Rotate the right sibling's first entry/child into the child.
    fn borrow_from_right(
        g: &mut WriteLatch<'_, Node>,
        ci: usize,
        cg: &mut WriteLatch<'_, Node>,
        sg: &mut WriteLatch<'_, Node>,
    ) {
        let new_sep = match (&mut **cg, &mut **sg) {
            (Node::Leaf { entries: ce, .. }, Node::Leaf { entries: se, .. }) => {
                ce.push(se.remove(0));
                se[0].key.clone()
            }
            (
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
                Node::Internal {
                    keys: sk,
                    children: sc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                ck.push(keys[ci].clone());
                cc.push(sc.remove(0));
                sk.remove(0)
            }
            _ => unreachable!("siblings are the same kind"),
        };
        match &mut **g {
            Node::Internal { keys, .. } => keys[ci] = new_sep,
            _ => unreachable!("parent is internal"),
        }
    }

    /// Rotate the left sibling's last entry/child into the child.
    fn borrow_from_left(
        g: &mut WriteLatch<'_, Node>,
        ci: usize,
        sg: &mut WriteLatch<'_, Node>,
        cg: &mut WriteLatch<'_, Node>,
    ) {
        let new_sep = match (&mut **sg, &mut **cg) {
            (Node::Leaf { entries: se, .. }, Node::Leaf { entries: ce, .. }) => {
                let moved = se.pop().expect("left sibling has spare");
                let sep = moved.key.clone();
                ce.insert(0, moved);
                sep
            }
            (
                Node::Internal {
                    keys: sk,
                    children: sc,
                },
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                ck.insert(0, keys[ci - 1].clone());
                cc.insert(0, sc.pop().expect("left sibling has spare"));
                sk.pop().expect("left sibling has keys")
            }
            _ => unreachable!("siblings are the same kind"),
        };
        match &mut **g {
            Node::Internal { keys, .. } => keys[ci - 1] = new_sep,
            _ => unreachable!("parent is internal"),
        }
    }

    /// Merge `children[left_idx + 1]` (in `rg`) into `children[left_idx]`
    /// (in `lg`) and drop the separator. The caller frees the right page.
    fn merge_right_into_left(
        g: &mut WriteLatch<'_, Node>,
        left_idx: usize,
        lg: &mut WriteLatch<'_, Node>,
        rg: &mut WriteLatch<'_, Node>,
    ) {
        match (&mut **lg, &mut **rg) {
            (
                Node::Leaf {
                    entries: le,
                    next: ln,
                },
                Node::Leaf {
                    entries: re,
                    next: rn,
                },
            ) => {
                le.append(re);
                *ln = *rn;
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let Node::Internal { keys, .. } = &**g else {
                    unreachable!("parent is internal")
                };
                lk.push(keys[left_idx].clone());
                lk.append(rk);
                lc.append(rc);
            }
            _ => unreachable!("siblings are the same kind"),
        }
        match &mut **g {
            Node::Internal { keys, children } => {
                keys.remove(left_idx);
                children.remove(left_idx + 1);
            }
            _ => unreachable!("parent is internal"),
        }
    }

    // ------------------------------------------------------------------
    // Introspection (tests, cloning)
    // ------------------------------------------------------------------

    /// Tree depth (root = 1). Takes read latches one level at a time.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        let mut d = 1;
        let mut cur = self.pager.page(ROOT);
        loop {
            let g = self.pager.read_latch(cur);
            match &*g {
                Node::Leaf { .. } => return d,
                Node::Internal { children, .. } => {
                    let cid = children[0];
                    drop(g);
                    cur = self.pager.page(cid);
                    d += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::latch_debug_assert_none_held;

    fn entry(k: i64) -> LeafEntry {
        LeafEntry {
            key: Key::ints(&[k]),
            slot: k as Slot,
            row: Some(Row(vec![acc_common::Value::Int(k)])),
            chain: Vec::new(),
        }
    }

    fn insert(t: &BTree, k: i64) {
        t.upsert(&Key::ints(&[k]), |entries, idx, exists| {
            assert!(!exists, "fresh key");
            entries.insert(idx, entry(k));
        });
    }

    fn remove(t: &BTree, k: i64) -> bool {
        t.remove_if(&Key::ints(&[k]), |e| (e.is_some(), true))
    }

    fn keys_in_order(t: &BTree) -> Vec<i64> {
        t.scan_collect(
            &Key(Vec::new()),
            |_| true,
            |e| {
                Some(match e.key.0[0] {
                    acc_common::Value::Int(i) => i,
                    _ => panic!("int key"),
                })
            },
            usize::MAX,
        )
    }

    /// Keys that take a tiny-leaf tree (leaf capacity 2) to depth 3 at
    /// fanout 64: the root's children overflow into internal-node splits.
    const DEEP: i64 = 300;

    #[test]
    fn splits_keep_order_and_point_reads() {
        let t = BTree::new(2); // tiny leaves: split constantly
        let mut expect: Vec<i64> = Vec::new();
        // 7 is coprime to DEEP: a scrambled permutation of 0..DEEP.
        for k in (0..DEEP).map(|i| (i * 7) % DEEP) {
            insert(&t, k);
            expect.push(k);
            expect.sort_unstable();
            assert_eq!(keys_in_order(&t), expect, "after inserting {k}");
        }
        assert!(t.depth() >= 3, "tiny leaves must have split more than once");
        for k in 0..DEEP {
            let found = t.read_entry(&Key::ints(&[k]), |e| e.map(|e| e.slot));
            assert_eq!(found, Some(k as Slot));
        }
        assert!(
            !t.read_entry(&Key::ints(&[DEEP + 99]), |e| e.is_some()),
            "absent key"
        );
        let c = t.counters();
        assert!(c.splits > 2);
        assert!(c.internal_splits > 0, "internal nodes must have split");
        latch_debug_assert_none_held("btree unit test");
    }

    #[test]
    fn merges_shrink_the_tree_back() {
        let t = BTree::new(2);
        for k in 0..DEEP {
            insert(&t, k);
        }
        let deep = t.depth();
        assert!(deep >= 3);
        assert!(t.counters().internal_splits > 0);
        for k in 0..DEEP - 1 {
            assert!(remove(&t, k), "key {k} was present");
            let expect: Vec<i64> = (k + 1..DEEP).collect();
            assert_eq!(keys_in_order(&t), expect, "after removing {k}");
        }
        assert_eq!(keys_in_order(&t), vec![DEEP - 1]);
        assert!(t.counters().merges > 0, "shrinking must have merged");
        // Root collapse happens lazily on the next remove-descent.
        assert!(remove(&t, DEEP - 1));
        assert!(!remove(&t, DEEP - 1), "second remove finds nothing");
        assert_eq!(t.depth(), 1, "tree collapsed back to a root leaf");
        assert!(
            t.counters().page_frees > 0,
            "merged pages went back to the free list"
        );
        latch_debug_assert_none_held("btree unit test");
    }

    #[test]
    fn scan_collect_ranges_and_limits() {
        let t = BTree::new(3);
        for k in 0..30 {
            insert(&t, k);
        }
        let lo = Key::ints(&[10]);
        let hi = Key::ints(&[20]);
        let mid: Vec<i64> = t.scan_collect(
            &lo,
            |k| *k < hi,
            |e| match e.key.0[0] {
                acc_common::Value::Int(i) => Some(i),
                _ => None,
            },
            usize::MAX,
        );
        assert_eq!(mid, (10..20).collect::<Vec<_>>());
        let first: Vec<i64> = t.scan_collect(
            &lo,
            |k| *k < hi,
            |e| match e.key.0[0] {
                acc_common::Value::Int(i) => Some(i),
                _ => None,
            },
            1,
        );
        assert_eq!(first, vec![10], "limit=1 early-terminates");
    }

    /// Regression for the structure-change/optimistic-reader race: splits,
    /// merges, borrows, and root collapses release a modified (or freed)
    /// child's latch while the parent is still write-latched, and only the
    /// odd-while-held locked-version encoding makes a stale reader restart
    /// in that window. Anchor keys are inserted up front and never removed;
    /// churn threads force constant structure changes around them while
    /// reader threads assert no anchor ever reads as absent and no scan
    /// ever drops one.
    #[test]
    fn concurrent_readers_never_miss_committed_keys() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = BTree::new(2); // tiny leaves: constant splits and merges
        let anchors: Vec<i64> = (0..100).map(|k| k * 2).collect();
        for &k in &anchors {
            insert(&t, k);
        }
        let setup = t.counters();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let churners: Vec<_> = (0..2)
                .map(|w| {
                    let t = &t;
                    s.spawn(move || {
                        // Disjoint odd key ranges per churner, interleaved
                        // between the anchors to move them around.
                        let odds: Vec<i64> = (0..50).map(|i| 1 + 4 * i + 2 * w).collect();
                        for _ in 0..200 {
                            for &k in &odds {
                                insert(t, k);
                            }
                            for &k in &odds {
                                assert!(remove(t, k));
                            }
                            latch_debug_assert_none_held("churner round");
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                let (t, anchors, stop) = (&t, &anchors, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for &k in anchors {
                            let found = t.read_entry(&Key::ints(&[k]), |e| e.map(|e| e.slot));
                            assert_eq!(found, Some(k as Slot), "anchor {k} vanished");
                        }
                        let seen: Vec<i64> = keys_in_order(t);
                        for &k in anchors {
                            assert!(seen.binary_search(&k).is_ok(), "scan dropped anchor {k}");
                        }
                        latch_debug_assert_none_held("reader round");
                    }
                });
            }
            for c in churners {
                c.join().expect("churner panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(keys_in_order(&t), anchors, "only the anchors remain");
        let churn = t.counters() - setup;
        assert!(churn.splits > 0 && churn.merges > 0);
        assert!(
            churn.internal_splits > 0,
            "churn must split internal nodes, not only leaves"
        );
    }

    #[test]
    fn chains_survive_relocation() {
        use acc_common::TxnId;
        let t = BTree::new(2);
        insert(&t, 1);
        t.with_entry(&Key::ints(&[1]), |e| {
            e.expect("present").chain.push(ChainEntry::Committed {
                commit_lsn: 7,
                before: None,
            });
        });
        // Force the entry to relocate through many splits, internal
        // nodes included.
        for k in 2..DEEP {
            insert(&t, k);
        }
        assert!(t.counters().internal_splits > 0);
        let chain = t.read_entry(&Key::ints(&[1]), |e| e.map(|e| e.chain.clone()));
        assert_eq!(
            chain.expect("entry survived").len(),
            1,
            "chain rode along through splits"
        );
        // And back through merges.
        for k in 2..DEEP {
            remove(&t, k);
        }
        assert!(t.counters().merges > 0);
        let chain = t.read_entry(&Key::ints(&[1]), |e| e.map(|e| e.chain.clone()));
        assert_eq!(chain.expect("entry survived").len(), 1);
        let _ = TxnId(0);
    }
}
