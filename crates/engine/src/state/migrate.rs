//! State migration for elasticity.
//!
//! When Algorithm 4 changes the reduce task count, the keyed state must
//! follow: every key re-hashes to its shard under the new count and the
//! shard contents move — running aggregates verbatim (bit-exact f64 moves,
//! never recomputed) and panes entry-by-entry, preserving sorted-key order
//! inside each pane. Because pane indices align across shards (every push
//! appends one pane everywhere), the re-sharded store replays eviction in
//! exactly the same order the old sharding would have, so window results
//! after a migration are bit-identical to a run that never migrated.

use std::sync::Arc;

use prompt_core::hash::{bucket_of, KeySet};

use super::store::{put_shard, CountingSink, KeyedStateStore, Pane, StateShard, STATE_SHARD_SEED};

/// What a completed shard migration moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationReport {
    /// Shard count before.
    pub from_r: usize,
    /// Shard count after.
    pub to_r: usize,
    /// Distinct keys whose state moved to a different shard.
    pub keys_moved: usize,
    /// Encoded size of the shards that were handed off.
    pub bytes: u64,
}

impl KeyedStateStore {
    /// Re-shard the store to `new_r` shards. Returns what moved; a no-op
    /// (same count) reports zero keys and bytes.
    pub fn migrate(&mut self, new_r: usize) -> MigrationReport {
        assert!(new_r >= 1, "state store needs at least one shard");
        let from_r = self.shard_count();
        if new_r == from_r {
            return MigrationReport {
                from_r,
                to_r: new_r,
                keys_moved: 0,
                bytes: 0,
            };
        }
        let n_panes = self.shards().first().map(|s| s.panes.len()).unwrap_or(0);
        let mut new_shards: Vec<StateShard> = (0..new_r)
            .map(|b| StateShard {
                bucket: b as u32,
                running: Default::default(),
                panes: (0..n_panes).map(|_| Arc::default()).collect(),
            })
            .collect();
        // The new panes are this function's alone until they are installed.
        fn unshared(pane: &mut Arc<Pane>) -> &mut Pane {
            Arc::get_mut(pane).expect("a pane under construction is not shared")
        }
        let mut moved = KeySet::default();
        let mut bytes = 0u64;
        for shard in self.take_shards() {
            let old_bucket = shard.bucket as usize;
            let mut sink = CountingSink(0);
            put_shard(&mut sink, &shard);
            let mut shard_moved = false;
            for (k, e) in shard.running {
                let b = bucket_of(STATE_SHARD_SEED, k, new_r);
                if b != old_bucket {
                    moved.insert(k);
                    shard_moved = true;
                }
                new_shards[b].running.insert(k, e);
            }
            // An old pane may be shared with a delta or a frozen copy of the
            // store: its entries are copied out, never moved.
            for (i, pane) in shard.panes.iter().enumerate() {
                for &(k, v) in pane.iter() {
                    let b = bucket_of(STATE_SHARD_SEED, k, new_r);
                    if b != old_bucket {
                        moved.insert(k);
                        shard_moved = true;
                    }
                    unshared(&mut new_shards[b].panes[i]).push((k, v));
                }
            }
            if shard_moved {
                bytes += sink.0 as u64;
            }
        }
        for shard in &mut new_shards {
            for pane in &mut shard.panes {
                unshared(pane).sort_unstable_by_key(|&(k, _)| k.0);
            }
        }
        self.install_shards(new_shards);
        MigrationReport {
            from_r,
            to_r: new_r,
            keys_moved: moved.len(),
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceOp;
    use crate::stage::BatchOutput;
    use crate::window::{WindowSpec, WindowState};
    use prompt_core::hash::KeyMap;
    use prompt_core::types::{Duration, Key};

    fn out(entries: &[(u64, f64)]) -> BatchOutput {
        let mut aggregates = KeyMap::default();
        for &(k, v) in entries {
            aggregates.insert(Key(k), v);
        }
        BatchOutput { aggregates }
    }

    fn feed(n: usize) -> Vec<BatchOutput> {
        (0..n)
            .map(|i| {
                let entries: Vec<(u64, f64)> = (0..20u64)
                    .filter(|k| !(i as u64 + k).is_multiple_of(4))
                    .map(|k| (k, 1.0 + i as f64 * 0.01 + k as f64 * 0.5))
                    .collect();
                out(&entries)
            })
            .collect()
    }

    fn spec() -> WindowSpec {
        WindowSpec::sliding(Duration::from_secs(5), Duration::from_secs(1))
    }

    #[test]
    fn migration_preserves_window_results_bit_for_bit() {
        for (from_r, to_r) in [(4usize, 8usize), (8, 3), (2, 2)] {
            let mut reference = WindowState::new(spec(), Duration::from_secs(1), ReduceOp::Sum);
            let mut store =
                KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, from_r);
            let batches = feed(14);
            for (i, b) in batches.iter().enumerate() {
                if i == 7 {
                    let report = store.migrate(to_r);
                    assert_eq!(report.from_r, from_r);
                    assert_eq!(report.to_r, to_r);
                    if from_r != to_r {
                        assert!(report.keys_moved > 0, "{from_r}->{to_r} moved nothing");
                        assert!(report.bytes > 0);
                    } else {
                        assert_eq!(report.keys_moved, 0);
                        assert_eq!(report.bytes, 0);
                    }
                    assert_eq!(store.shard_count(), to_r);
                }
                let expect = reference.push(b.clone());
                let got = store.push(b);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert_eq!(e.aggregates.len(), g.aggregates.len());
                        for (k, v) in &e.aggregates {
                            assert_eq!(v.to_bits(), g.aggregates[k].to_bits(), "key {k:?}");
                        }
                    }
                    (e, g) => panic!("emission mismatch: {e:?} vs {g:?}"),
                }
            }
        }
    }

    #[test]
    fn migrated_keys_land_on_new_shards() {
        let mut store = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Sum, 3);
        for b in feed(6) {
            store.push(&b);
        }
        store.migrate(9);
        for shard in store.shards() {
            for &k in shard.running.keys() {
                assert_eq!(store.shard_of(k), shard.bucket as usize);
            }
        }
    }

    #[test]
    fn migration_survives_codec_round_trip() {
        let mut store = KeyedStateStore::new(spec(), Duration::from_secs(1), ReduceOp::Count, 4);
        for b in feed(8) {
            store.push(&b);
        }
        store.migrate(6);
        let mut w = prompt_core::bytes::ByteWriter::new();
        super::super::store::put_store(&mut w, &store);
        let mut r = prompt_core::bytes::ByteReader::new(w.as_bytes());
        let back = super::super::store::get_store(&mut r).unwrap();
        r.expect_empty().unwrap();
        let a = store.current();
        let b = back.current();
        assert_eq!(a.len(), b.len());
        for (k, v) in &a {
            assert_eq!(v.to_bits(), b[k].to_bits());
        }
    }
}
