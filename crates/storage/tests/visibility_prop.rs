//! Model-based randomized tests for the MVCC-lite visibility rule
//! (`crate::version`): under random interleavings of versioned transactions,
//! a coordination-free read at view `L` must equal the committed state after
//! replaying exactly the commits with LSN <= L — and pruning at a low
//! watermark must never change any read at or after it.
//!
//! The harness mirrors what the transaction layer does (`step.rs` /
//! `runner.rs`): mutate the table, push a pending version alongside, then
//! finalize every pending entry at the commit (or abort) LSN. Aborts apply
//! physical undo first, exactly like the live rollback path. A key-level
//! lock map stands in for the lock manager so two live transactions never
//! write the same row.
//!
//! Commits randomly defer their physical finalization behind a published
//! commit LSN (the runner's commit-publication window between the `Commit`
//! append and `finalize_versions`): reads through the publication resolver
//! must be indistinguishable from reads over finalized chains.
//!
//! A second, unconstrained harness builds arbitrary chains — Pending,
//! published, Committed at non-monotone LSNs, own-writer entries, and
//! key-changing updates — and checks that the by-reference read paths
//! answer exactly what the owned chain walk plus the `key_of` mismatch rule
//! they replaced would have answered.

use acc_common::{SeededRng, TableId, TxnId, Value};
use acc_storage::{
    ChainEntry, ColumnType, CommitResolver, Key, NoCommits, Row, Table, TableSchema, UndoRecord,
    Visibility,
};
use std::collections::{BTreeMap, HashMap};

fn schema() -> TableSchema {
    let mut s = TableSchema::builder("t")
        .column("k", ColumnType::Int)
        .column("a", ColumnType::Int)
        .column("b", ColumnType::Int)
        .key(&["k"])
        .index(&["a"])
        .rows_per_page(3)
        .build();
    s.id = TableId(0);
    s
}

fn row(k: i64, a: i64, b: i64) -> Row {
    Row(vec![Value::Int(k), Value::Int(a), Value::Int(b)])
}

const KEYS: i64 = 10;
/// A fresh reader id no writer ever uses.
const READER: TxnId = TxnId(999_999);

/// Committed state: key -> (a, b).
type Model = HashMap<i64, (i64, i64)>;

/// The model state visible at `view`: the last snapshot with LSN <= view.
fn model_at(snapshots: &[(u64, Model)], view: u64) -> &Model {
    &snapshots
        .iter()
        .rev()
        .find(|(lsn, _)| *lsn <= view)
        .expect("snapshot 0 always present")
        .1
}

/// One live transaction and everything needed to finish it.
struct Active {
    id: TxnId,
    will_abort: bool,
    /// Own writes: key -> Some(new value) or None (deleted).
    overlay: HashMap<i64, Option<(i64, i64)>>,
    undos: Vec<UndoRecord>,
}

impl Active {
    /// Apply one random op, mirroring the step layer's mutate-then-push
    /// convention. Keys locked by another live transaction are skipped.
    fn apply_random_op(
        &mut self,
        t: &Table,
        committed: &Model,
        locks: &mut HashMap<i64, TxnId>,
        rng: &mut SeededRng,
    ) {
        let k = rng.int_range(0, KEYS - 1);
        if locks.get(&k).is_some_and(|&owner| owner != self.id) {
            return;
        }
        let key = Key::ints(&[k]);
        let current = match self.overlay.get(&k) {
            Some(v) => *v,
            None => committed.get(&k).copied(),
        };
        match rng.index(3) {
            0 => {
                // Insert (possibly reviving a deleted key).
                if current.is_some() {
                    return;
                }
                let (a, b) = (rng.int_range(0, 2), rng.int_range(0, 99));
                let (slot, undo) = t.insert(row(k, a, b)).expect("insert of absent key");
                t.push_version(slot, self.id, None);
                self.undos.push(undo);
                self.overlay.insert(k, Some((a, b)));
                locks.insert(k, self.id);
            }
            1 => {
                // Update b in place.
                let Some((a, _)) = current else { return };
                let slot = t.slot_of(&key).expect("model row is live");
                let before = t.row(slot);
                let b = rng.int_range(0, 99);
                let undo = t
                    .update_with(slot, |r| {
                        r.set(2, Value::Int(b));
                    })
                    .expect("update of live slot");
                t.push_version(slot, self.id, before);
                self.undos.push(undo);
                self.overlay.insert(k, Some((a, b)));
                locks.insert(k, self.id);
            }
            _ => {
                // Delete. Restricted to committing transactions: an aborted
                // delete's freed slot could be reused by a concurrent insert
                // before the undo re-inserts it, which the real engine's
                // lock protocol prevents but this key-level harness cannot.
                if current.is_none() || self.will_abort {
                    return;
                }
                let before = t.get(&key).map(|(_, r)| r).expect("live row");
                let (slot, undo) = t.delete_by_key(&key).expect("delete of live key");
                t.push_delete_version(key, slot, self.id, before);
                self.undos.push(undo);
                self.overlay.insert(k, None);
                locks.insert(k, self.id);
            }
        }
    }

    /// Commit or abort at the next LSN, exactly as `runner.rs` does:
    /// physical undo (abort only) leaves the chain alone, then every pending
    /// entry finalizes at the end record's LSN. When `defer_into` is `Some`,
    /// a committing transaction instead *defers* the physical finalization,
    /// leaving its entries Pending behind a commit LSN published there —
    /// the runner's state between the `Commit` append and
    /// `finalize_versions`.
    fn finish(
        self,
        t: &Table,
        committed: &mut Model,
        snapshots: &mut Vec<(u64, Model)>,
        locks: &mut HashMap<i64, TxnId>,
        next_lsn: &mut u64,
        defer_into: Option<&mut HashMap<TxnId, u64>>,
    ) {
        let lsn = *next_lsn;
        *next_lsn += 1;
        if self.will_abort {
            for undo in self.undos.iter().rev() {
                t.apply_undo(undo).expect("undo applies");
            }
        } else {
            for (k, v) in &self.overlay {
                match v {
                    Some(ab) => committed.insert(*k, *ab),
                    None => committed.remove(k),
                };
            }
        }
        match defer_into {
            Some(published) if !self.will_abort => {
                published.insert(self.id, lsn);
            }
            _ => {
                t.finalize_versions(self.id, lsn);
            }
        }
        snapshots.push((lsn, committed.clone()));
        locks.retain(|_, owner| *owner != self.id);
    }
}

/// Every view from `lo` to the newest snapshot reads exactly its replay
/// prefix, through all three coordination-free read paths.
fn assert_all_views(
    t: &Table,
    snapshots: &[(u64, Model)],
    lo: u64,
    commits: &dyn CommitResolver,
) -> usize {
    let max_lsn = snapshots.last().expect("snapshots nonempty").0;
    let mut secondary_hits = 0;
    for view in lo..=max_lsn {
        let model = model_at(snapshots, view);
        // Point reads, including keys currently absent.
        for k in 0..KEYS {
            let got = match t.read_at(&Key::ints(&[k]), view, READER, commits) {
                Visibility::Visible(img) => img.map(|r| (r.int(1), r.int(2))),
                Visibility::Tainted => panic!("foreign reader tainted on k={k} view={view}"),
            };
            assert_eq!(got, model.get(&k).copied(), "read_at k={k} view={view}");
        }
        // Full prefix scan: complete, in key order, nothing extra.
        let scanned: Vec<(i64, i64, i64)> = t
            .scan_prefix_at(&Key(Vec::new()), view, READER, commits)
            .expect("foreign scan never taints here")
            .iter()
            .map(|r| (r.int(0), r.int(1), r.int(2)))
            .collect();
        let mut want: Vec<(i64, i64, i64)> = model.iter().map(|(&k, &(a, b))| (k, a, b)).collect();
        want.sort_unstable();
        assert_eq!(scanned, want, "scan_prefix_at view={view}");
        // Secondary lookups may fall back (None) when a revived key changed
        // its indexed column; when they answer, they must answer exactly.
        for a in 0..3i64 {
            if let Some(rows) = t.lookup_secondary_at(0, &Key::ints(&[a]), view, READER, commits) {
                secondary_hits += 1;
                let mut got: Vec<(i64, i64)> = rows.iter().map(|r| (r.int(0), r.int(2))).collect();
                got.sort_unstable();
                let mut want: Vec<(i64, i64)> = model
                    .iter()
                    .filter(|(_, (ma, _))| *ma == a)
                    .map(|(&k, &(_, b))| (k, b))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "lookup_secondary_at a={a} view={view}");
            }
        }
    }
    secondary_hits
}

#[test]
fn read_at_lsn_equals_replayed_prefix() {
    let mut rng = SeededRng::new(0x5ee_a11);
    let mut total_secondary_hits = 0;
    for _case in 0..48 {
        let t = Table::new(schema());
        let mut committed: Model = HashMap::new();
        let mut snapshots: Vec<(u64, Model)> = vec![(0, committed.clone())];
        let mut locks: HashMap<i64, TxnId> = HashMap::new();
        let mut active: Vec<Active> = Vec::new();
        // Commits with a published LSN whose chains are still Pending.
        let mut published: HashMap<TxnId, u64> = HashMap::new();
        let mut next_txn = 1u64;
        let mut next_lsn = 1u64;

        for _event in 0..60 {
            let roll = rng.index(10);
            if active.is_empty() || (roll < 3 && active.len() < 3) {
                active.push(Active {
                    id: TxnId(next_txn),
                    will_abort: rng.chance(0.25),
                    overlay: HashMap::new(),
                    undos: Vec::new(),
                });
                next_txn += 1;
            } else if roll < 8 {
                let i = rng.index(active.len());
                active[i].apply_random_op(&t, &committed, &mut locks, &mut rng);
            } else {
                let i = rng.index(active.len());
                let a = active.swap_remove(i);
                let defer = rng.chance(0.5);
                a.finish(
                    &t,
                    &mut committed,
                    &mut snapshots,
                    &mut locks,
                    &mut next_lsn,
                    defer.then_some(&mut published),
                );
                // Reads stay exact even while other transactions are still
                // pending: unpublished entries unwind to before-images, and
                // published-but-unfinalized ones resolve at their LSN.
                total_secondary_hits += assert_all_views(&t, &snapshots, 0, &published);
                // A transaction always reads its own writes through the
                // lock path, never through versions: own pending taints.
                for live in &active {
                    for &k in live.overlay.keys() {
                        assert_eq!(
                            t.read_at(&Key::ints(&[k]), next_lsn, live.id, &published),
                            Visibility::Tainted,
                            "own pending write must taint k={k}"
                        );
                    }
                }
                // Randomly retire some deferred finalizations — an invisible
                // physical rewrite: all views answer identically after it.
                if !published.is_empty() && rng.chance(0.5) {
                    let ids: Vec<TxnId> = published.keys().copied().collect();
                    let id = ids[rng.index(ids.len())];
                    let lsn = published.remove(&id).expect("just listed");
                    t.finalize_versions(id, lsn);
                    total_secondary_hits += assert_all_views(&t, &snapshots, 0, &published);
                }
            }
        }
        for a in active.drain(..) {
            a.finish(
                &t,
                &mut committed,
                &mut snapshots,
                &mut locks,
                &mut next_lsn,
                None,
            );
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &published);
        // Draining the publication map must change nothing either.
        for (id, lsn) in published.drain() {
            t.finalize_versions(id, lsn);
        }
        total_secondary_hits += assert_all_views(&t, &snapshots, 0, &NoCommits);

        // Pruning at a random watermark is invisible to every view >= it...
        let max_lsn = next_lsn - 1;
        let w = rng.int_range(0, max_lsn as i64) as u64;
        let before_chains = t.n_version_chains();
        t.prune_versions(w);
        assert!(t.n_version_chains() <= before_chains);
        assert_all_views(&t, &snapshots, w, &NoCommits);
        // ...and a full prune still answers the newest view exactly.
        t.prune_versions(max_lsn);
        assert_all_views(&t, &snapshots, max_lsn, &NoCommits);
    }
    assert!(
        total_secondary_hits > 0,
        "secondary fast path never answered — precheck is vacuously conservative"
    );
}

/// Re-inserting a deleted key must revive its tombstone chain: a reader at
/// a view older than the delete sees the pre-delete image, one between the
/// delete and the re-insert sees nothing, and a current reader sees the new
/// row — all through the slot's chain.
#[test]
fn reinsert_revives_tombstone_history() {
    let t = Table::new(schema());
    let key = Key::ints(&[7]);

    let (slot, _) = t.insert(row(7, 1, 10)).expect("insert");
    t.push_version(slot, TxnId(1), None);
    t.finalize_versions(TxnId(1), 5);

    let before = t.get(&key).map(|(_, r)| r).expect("live row");
    let (slot, _) = t.delete_by_key(&key).expect("delete");
    t.push_delete_version(key.clone(), slot, TxnId(2), before);
    t.finalize_versions(TxnId(2), 10);

    let (slot, _) = t.insert(row(7, 2, 20)).expect("reinsert");
    t.push_version(slot, TxnId(3), None);
    t.finalize_versions(TxnId(3), 15);

    fn img(t: &Table, key: &Key, view: u64) -> Option<(i64, i64)> {
        match t.read_at(key, view, READER, &NoCommits) {
            Visibility::Visible(img) => img.map(|r| (r.int(1), r.int(2))),
            Visibility::Tainted => panic!("tainted at view {view}"),
        }
    }
    assert_eq!(img(&t, &key, 4), None, "before the first insert");
    assert_eq!(
        img(&t, &key, 5),
        Some((1, 10)),
        "pre-delete image survives revival"
    );
    assert_eq!(img(&t, &key, 12), None, "between delete and re-insert");
    assert_eq!(img(&t, &key, 15), Some((2, 20)), "current image");

    // The revived chain changed the indexed column, so the secondary fast
    // path must refuse rather than answer from the current index alone.
    assert_eq!(
        t.lookup_secondary_at(0, &Key::ints(&[1]), 5, READER, &NoCommits),
        None
    );

    // Pruning below the delete keeps history; pruning past it drops it.
    t.prune_versions(9);
    assert_eq!(img(&t, &key, 9), Some((1, 10)));
    t.prune_versions(15);
    assert_eq!(img(&t, &key, 15), Some((2, 20)));
    assert_eq!(t.n_version_chains(), 0, "fully pruned");
}

// ----- By-reference reads vs the owned walk they replaced -----------------

/// The owned chain walk the by-reference reads replaced, kept verbatim as
/// the oracle: clone the current image, clone each before-image unwound.
fn owned_reconstruct(
    current: Option<&Row>,
    chain: &[ChainEntry],
    view: u64,
    reader: TxnId,
    commits: &dyn CommitResolver,
) -> Visibility {
    let lsn_of = |e: &ChainEntry| match e {
        ChainEntry::Committed { commit_lsn, .. } => Some(*commit_lsn),
        ChainEntry::Pending { txn, .. } => commits.commit_lsn(*txn),
    };
    let mut cur = current.cloned();
    for i in (0..chain.len()).rev() {
        let e = &chain[i];
        if matches!(e, ChainEntry::Pending { txn, .. } if *txn == reader) {
            return Visibility::Tainted;
        }
        match lsn_of(e) {
            Some(c) if c <= view => {
                return if chain[..i]
                    .iter()
                    .all(|d| lsn_of(d).is_some_and(|c| c <= view))
                {
                    Visibility::Visible(cur)
                } else {
                    Visibility::Tainted
                };
            }
            _ => cur = e.before().cloned(),
        }
    }
    Visibility::Visible(cur)
}

/// The old mismatch rule: some image's `key_of` differs from the entry key.
fn key_mismatch(s: &TableSchema, key: &Key, current: Option<&Row>, chain: &[ChainEntry]) -> bool {
    current
        .into_iter()
        .chain(chain.iter().filter_map(|e| e.before()))
        .any(|r| s.key_of(r) != *key)
}

const EQ_KEYS: i64 = 8;
const EQ_MAX_LSN: u64 = 20;

/// Every key of the test universe that has an entry, in key order.
fn entries(t: &Table) -> Vec<(Key, Option<Row>, Vec<ChainEntry>)> {
    (0..EQ_KEYS)
        .filter_map(|k| {
            let key = Key::ints(&[k]);
            let (row, chain) = t.version_entry(&key)?;
            Some((key, row, chain))
        })
        .collect()
}

fn oracle_read(
    t: &Table,
    key: &Key,
    view: u64,
    reader: TxnId,
    c: &dyn CommitResolver,
) -> Visibility {
    match t.version_entry(key) {
        None => Visibility::Visible(None),
        Some((row, chain)) if key_mismatch(t.schema(), key, row.as_ref(), &chain) => {
            Visibility::Tainted
        }
        Some((row, chain)) => owned_reconstruct(row.as_ref(), &chain, view, reader, c),
    }
}

fn oracle_scan(
    t: &Table,
    take: impl Fn(&Key) -> bool,
    view: u64,
    reader: TxnId,
    c: &dyn CommitResolver,
) -> Option<Vec<Row>> {
    let mut out = Vec::new();
    for (key, row, chain) in entries(t).into_iter().filter(|(k, ..)| take(k)) {
        if key_mismatch(t.schema(), &key, row.as_ref(), &chain) {
            return None;
        }
        match owned_reconstruct(row.as_ref(), &chain, view, reader, c) {
            Visibility::Tainted => return None,
            Visibility::Visible(Some(r)) => out.push(r),
            Visibility::Visible(None) => {}
        }
    }
    Some(out)
}

/// The old secondary fast path over public state: the projection precheck
/// over every chained entry, the index hits, then the tombstone pass.
fn oracle_secondary(
    t: &Table,
    prefix: &Key,
    view: u64,
    reader: TxnId,
    c: &dyn CommitResolver,
) -> Option<Vec<Row>> {
    let cols = &t.schema().secondary[0];
    let all = entries(t);
    for (_, row, chain) in &all {
        if let Some(cur) = row {
            let p = cur.project(cols);
            if chain
                .iter()
                .filter_map(|e| e.before())
                .any(|r| r.project(cols) != p)
            {
                return None;
            }
        }
    }
    let mut out: BTreeMap<(Key, Key), Row> = BTreeMap::new();
    let mut add = |v: Visibility| match v {
        Visibility::Tainted => false,
        Visibility::Visible(Some(r)) => {
            let sk = r.project(cols);
            if sk.starts_with(prefix) {
                out.insert((sk, t.schema().key_of(&r)), r);
            }
            true
        }
        Visibility::Visible(None) => true,
    };
    for slot in t.lookup_secondary(0, prefix) {
        let key = t.key_of_slot(slot).expect("indexed slot is live");
        let (row, chain) = t.version_entry(&key).expect("indexed key has an entry");
        if !add(owned_reconstruct(row.as_ref(), &chain, view, reader, c)) {
            return None;
        }
    }
    for (_, row, chain) in &all {
        if row.is_none() && !add(owned_reconstruct(None, chain, view, reader, c)) {
            return None;
        }
    }
    Some(out.into_values().collect())
}

/// Tallies showing the generator reached every chain shape the rule
/// distinguishes.
#[derive(Default)]
struct Seen {
    pending: usize,
    published: usize,
    committed: usize,
    own_taints: usize,
    key_change_taints: usize,
    scan_answers: usize,
    secondary_answers: usize,
}

/// One random physical op by `txn`, with no lock discipline: chains end up
/// with buried pending writes, interleaved writers, and key moves.
fn random_op(t: &Table, txn: TxnId, rng: &mut SeededRng) {
    let k = rng.int_range(0, EQ_KEYS - 1);
    let key = Key::ints(&[k]);
    let live = t.get(&key);
    match (rng.index(5), live) {
        (0, None) => {
            let (slot, _) = t
                .insert(row(k, rng.int_range(0, 2), rng.int_range(0, 99)))
                .expect("insert of absent key");
            t.push_version(slot, txn, None);
        }
        (1 | 2, Some((slot, before))) => {
            // Mostly in-place updates of b; sometimes move the indexed a.
            let col = if rng.chance(0.2) { 1 } else { 2 };
            let v = rng.int_range(0, if col == 1 { 2 } else { 99 });
            t.update_with(slot, |r| {
                r.set(col, Value::Int(v));
            })
            .expect("update of live slot");
            t.push_version(slot, txn, Some(before));
        }
        (3, Some((slot, before))) => {
            t.delete_by_key(&key).expect("delete of live key");
            t.push_delete_version(key, slot, txn, before);
        }
        (4, Some((slot, before))) => {
            // Key-changing update: the chain follows the slot to the new
            // key, so both keys' histories stop describing one row.
            let to = rng.int_range(0, EQ_KEYS - 1);
            if t.get(&Key::ints(&[to])).is_some() {
                return;
            }
            t.update(slot, row(to, before.int(1), before.int(2)))
                .expect("key move to an absent key");
            t.push_version(slot, txn, Some(before));
        }
        _ => {}
    }
}

fn assert_by_ref_matches_owned(
    t: &Table,
    writers: &[TxnId],
    c: &dyn CommitResolver,
    rng: &mut SeededRng,
    seen: &mut Seen,
) {
    let readers: Vec<TxnId> = std::iter::once(READER)
        .chain(writers.iter().copied())
        .collect();
    for view in 0..=EQ_MAX_LSN + 1 {
        for &reader in &readers {
            for k in 0..EQ_KEYS {
                let key = Key::ints(&[k]);
                let want = oracle_read(t, &key, view, reader, c);
                assert_eq!(
                    t.read_at(&key, view, reader, c),
                    want,
                    "read_at k={k} view={view} reader={reader:?}"
                );
                if want == Visibility::Tainted {
                    let (row, chain) = t.version_entry(&key).expect("tainted key has an entry");
                    if key_mismatch(t.schema(), &key, row.as_ref(), &chain) {
                        seen.key_change_taints += 1;
                    } else if chain
                        .iter()
                        .any(|e| matches!(e, ChainEntry::Pending { txn, .. } if *txn == reader))
                    {
                        seen.own_taints += 1;
                    }
                }
            }
            let scanned = t.scan_prefix_at(&Key(Vec::new()), view, reader, c);
            assert_eq!(
                scanned,
                oracle_scan(t, |_| true, view, reader, c),
                "scan_prefix_at view={view} reader={reader:?}"
            );
            seen.scan_answers += usize::from(scanned.is_some());
            let (a, b) = (rng.int_range(0, EQ_KEYS), rng.int_range(0, EQ_KEYS));
            let (lo, hi) = (Key::ints(&[a.min(b)]), Key::ints(&[a.max(b)]));
            assert_eq!(
                t.scan_range_at(&lo, &hi, view, reader, c),
                oracle_scan(t, |k| *k >= lo && *k < hi, view, reader, c),
                "scan_range_at [{lo}, {hi}) view={view} reader={reader:?}"
            );
            for a in 0..3 {
                let prefix = Key::ints(&[a]);
                let got = t.lookup_secondary_at(0, &prefix, view, reader, c);
                assert_eq!(
                    got,
                    oracle_secondary(t, &prefix, view, reader, c),
                    "lookup_secondary_at a={a} view={view} reader={reader:?}"
                );
                seen.secondary_answers += usize::from(got.is_some());
            }
        }
    }
}

#[test]
fn by_reference_reads_equal_owned_walk() {
    let mut rng = SeededRng::new(0xb0_77ed);
    let mut seen = Seen::default();
    let writers: Vec<TxnId> = (1..=5).map(TxnId).collect();
    for _case in 0..40 {
        let t = Table::new(schema());
        let mut published: HashMap<TxnId, u64> = HashMap::new();
        for op in 0..30 {
            let txn = writers[rng.index(writers.len())];
            match rng.index(10) {
                // Finalize at an arbitrary (non-monotone) LSN.
                0 => {
                    t.finalize_versions(txn, rng.int_range(1, EQ_MAX_LSN as i64) as u64);
                    published.remove(&txn);
                }
                // Publish without finalizing.
                1 => {
                    published.insert(txn, rng.int_range(1, EQ_MAX_LSN as i64) as u64);
                }
                _ => random_op(&t, txn, &mut rng),
            }
            if op % 6 == 5 {
                for (_, _, chain) in entries(&t) {
                    for e in &chain {
                        match e {
                            ChainEntry::Pending { txn, .. } if published.contains_key(txn) => {
                                seen.published += 1
                            }
                            ChainEntry::Pending { .. } => seen.pending += 1,
                            ChainEntry::Committed { .. } => seen.committed += 1,
                        }
                    }
                }
                assert_by_ref_matches_owned(&t, &writers, &published, &mut rng, &mut seen);
            }
        }
        assert_by_ref_matches_owned(&t, &writers, &NoCommits, &mut rng, &mut seen);
    }
    assert!(seen.pending > 0, "no unpublished pending entries generated");
    assert!(seen.published > 0, "no published pending entries generated");
    assert!(seen.committed > 0, "no committed entries generated");
    assert!(seen.own_taints > 0, "own-writer taint never exercised");
    assert!(
        seen.key_change_taints > 0,
        "key-changing chains never reached a read"
    );
    assert!(seen.scan_answers > 0, "every scan fell back");
    assert!(
        seen.secondary_answers > 0,
        "every secondary lookup fell back"
    );
}
