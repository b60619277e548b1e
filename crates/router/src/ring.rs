//! The consistent-hash ring that pins each `(GPU, op family)` shard to
//! one replica, so every replica's memoized prediction cache stays hot
//! for *its* shard instead of all replicas slowly warming the whole
//! request space.
//!
//! The ring is a pure function of the member set: each member
//! contributes [`VNODES`] points derived only from its (stable) name,
//! and a key routes to the successor point clockwise from the key's
//! hash. Because points never depend on insertion order or history,
//! membership changes have the *exact* minimal-disruption property —
//! removing a member reassigns only the keys that member owned, and
//! adding one steals keys only for the point ranges it now terminates.

/// Virtual nodes per member. 1024 points per replica keeps the
/// per-member **arc share** within a few percent of uniform (share
/// spread shrinks as `1/√(N·VNODES)`), which the cluster benchmark's
/// near-linear-scaling gate depends on: with a serial per-replica
/// dispatcher, the hottest shard's share caps fleet throughput.
/// Membership changes stay cheap — a rebuild sorts `1024 × N` points
/// and only runs on a membership transition, never per request.
pub const VNODES: usize = 1024;

/// FNV-1a — the same construction the fault and guard crates use, local
/// because theirs are crate-private.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a of `text` lower-cased (ASCII), without a lower-cased copy.
fn fnv1a_folded(text: &str) -> u64 {
    fnv1a(text.bytes().map(|b| b.to_ascii_lowercase()))
}

/// SplitMix64 finalizer: decorrelates the vnode points derived from one
/// member's name hash so they scatter around the ring.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The routing key: which replica owns a request.
///
/// The paper's predictor dispatches one MLP forward per `(GPU, op
/// family)`, so that pair is the natural cache shard. The router sees
/// workload names, not kernel graphs, and a workload's graph expands to
/// a *fixed* bundle of op families — so the (lower-cased) model name is
/// the finest stable proxy for that bundle available without building
/// the graph. Keys therefore hash `(gpu, family)` where `family` is the
/// model name for predict traffic and an arbitrary label in tests. A key
/// is its ring position alone: it is hashed from the borrowed names,
/// lower-cased as it goes, and owns no string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteKey {
    point: u64,
}

impl RouteKey {
    /// Builds a key from raw strings (case-insensitive).
    #[must_use]
    pub fn new(gpu: &str, family: &str) -> RouteKey {
        let hash = fnv1a_folded(gpu) ^ splitmix64(fnv1a_folded(family));
        RouteKey {
            point: splitmix64(hash),
        }
    }

    /// The key for a `/v1/predict` request body.
    #[must_use]
    pub fn from_predict(model: &str, gpu: &str) -> RouteKey {
        RouteKey::new(gpu, model)
    }

    /// Position of this key on the ring.
    #[must_use]
    pub fn point(&self) -> u64 {
        self.point
    }
}

/// A consistent-hash ring over named members.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Member names, sorted (the canonical set the points derive from).
    members: Vec<String>,
    /// `(point, member index)` pairs sorted by point.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds a ring over an initial member set (duplicates ignored).
    #[must_use]
    pub fn new<I: IntoIterator<Item = String>>(members: I) -> HashRing {
        let mut ring = HashRing::default();
        for member in members {
            let _ = ring.insert(&member);
        }
        ring
    }

    /// Adds a member; reports whether the set changed.
    pub fn insert(&mut self, name: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(name)) {
            Ok(_) => false,
            Err(at) => {
                self.members.insert(at, name.to_owned());
                self.rebuild();
                true
            }
        }
    }

    /// Removes a member; reports whether the set changed.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(name)) {
            Ok(at) => {
                self.members.remove(at);
                self.rebuild();
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `name` is a current member.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.members
            .binary_search_by(|m| m.as_str().cmp(name))
            .is_ok()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current members, sorted.
    #[must_use]
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The member owning `key`: the successor of the key's point,
    /// clockwise (wrapping to the first point). `None` on an empty ring.
    #[must_use]
    pub fn route(&self, key: &RouteKey) -> Option<&str> {
        self.owner(key).map(|member| self.members[member].as_str())
    }

    /// [`route`](Self::route) as an index into [`members`](Self::members).
    #[must_use]
    pub(crate) fn owner(&self, key: &RouteKey) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(p, _)| p < key.point);
        let (_, member) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(member as usize)
    }

    /// The next *distinct* member clockwise from `key`'s owner — the
    /// hedge target: where a duplicate of a slow request goes. Walking
    /// the point table past the owner's run of vnodes finds the member
    /// that would inherit this key if the owner left, so a hedged answer
    /// comes from the replica whose cache is most likely to warm this
    /// shard next. `None` when fewer than two members exist.
    #[must_use]
    pub fn route_successor(&self, key: &RouteKey) -> Option<&str> {
        self.successor(key)
            .map(|member| self.members[member].as_str())
    }

    /// [`route_successor`](Self::route_successor) as an index into
    /// [`members`](Self::members).
    #[must_use]
    pub(crate) fn successor(&self, key: &RouteKey) -> Option<usize> {
        if self.members.len() < 2 {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < key.point);
        let n = self.points.len();
        let (_, owner) = self.points[if start == n { 0 } else { start }];
        (1..n)
            .map(|step| self.points[(start + step) % n].1)
            .find(|&member| member != owner)
            .map(|member| member as usize)
    }

    /// Recomputes the point table from the member set alone. Ties on a
    /// point value break by member index, which is itself canonical
    /// (members are sorted), so the table stays history-free.
    fn rebuild(&mut self) {
        self.points.clear();
        self.points.reserve(self.members.len() * VNODES);
        for (index, member) in self.members.iter().enumerate() {
            let base = fnv1a(member.bytes());
            for vnode in 0..VNODES as u64 {
                let point = splitmix64(base ^ vnode.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                #[allow(clippy::cast_possible_truncation)]
                self.points.push((point, index as u32));
            }
        }
        self.points.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("replica-{i}")).collect()
    }

    /// A deterministic spread of keys shaped like real predict traffic.
    fn key_mix() -> Vec<RouteKey> {
        let gpus = ["V100", "T4", "A100", "P100", "H100", "L4"];
        let families = [
            "gpt2",
            "gpt2-large",
            "bert",
            "bert-large",
            "opt",
            "opt-1.3b",
            "switch",
            "resnet50",
            "vgg16",
            "gpt3-xl",
            "t5",
            "llama",
        ];
        let mut keys = Vec::new();
        for gpu in gpus {
            for family in families {
                keys.push(RouteKey::new(gpu, family));
            }
        }
        keys
    }

    #[test]
    fn routing_is_deterministic_and_history_free() {
        let ring = HashRing::new(replica_names(4));
        // Built in a different order → identical routing.
        let mut scrambled = HashRing::default();
        for name in ["replica-2", "replica-0", "replica-3", "replica-1"] {
            assert!(scrambled.insert(name));
        }
        for key in key_mix() {
            assert_eq!(ring.route(&key), scrambled.route(&key));
        }
        // A remove+reinsert round trip is a no-op.
        let mut cycled = ring.clone();
        assert!(cycled.remove("replica-1"));
        assert!(cycled.insert("replica-1"));
        for key in key_mix() {
            assert_eq!(ring.route(&key), cycled.route(&key));
        }
    }

    #[test]
    fn load_spreads_across_all_members() {
        let ring = HashRing::new(replica_names(4));
        let keys = key_mix();
        let mut owned = std::collections::HashMap::<String, usize>::new();
        for key in &keys {
            *owned
                .entry(ring.route(key).unwrap().to_owned())
                .or_default() += 1;
        }
        // Every replica owns a meaningful share of the bench keyspace —
        // the cluster benchmark relies on all replicas doing work.
        assert_eq!(owned.len(), 4, "every replica owns part of the keyspace");
        for (member, count) in &owned {
            assert!(
                *count * 10 >= keys.len(),
                "{member} owns only {count}/{} keys",
                keys.len()
            );
        }
    }

    #[test]
    fn removing_a_member_moves_only_its_own_keys() {
        let full = HashRing::new(replica_names(4));
        let mut reduced = full.clone();
        assert!(reduced.remove("replica-2"));
        for key in key_mix() {
            let before = full.route(&key).unwrap();
            let after = reduced.route(&key).unwrap();
            if before == "replica-2" {
                assert_ne!(after, "replica-2");
            } else {
                // Exact minimal disruption: survivors keep their keys.
                assert_eq!(before, after);
            }
        }
    }

    /// The exact request mix the cluster benchmark drives (loadgen
    /// `--cluster`): every replica of a 4-replica fleet must own a
    /// meaningful share of it, or the near-linear-scaling gate would be
    /// measuring a smaller fleet than it claims.
    #[test]
    fn cluster_bench_keyspace_covers_every_replica_of_four() {
        let models = [
            "gpt2",
            "bert",
            "opt",
            "switch",
            "resnet50",
            "vgg16",
            "gpt3-xl",
            "gpt3-2.7b",
        ];
        let gpus = [
            "P4",
            "P100",
            "V100",
            "T4",
            "A100-40GB",
            "A100-80GB",
            "L4",
            "H100",
        ];
        // Per-replica serial dispatchers make the hottest shard's share
        // the fleet throughput cap (`1/max_share`); these floors keep the
        // cap above the benchmark gates (1.7x at 2 replicas, 3.0x at 4)
        // with margin.
        for (replicas, max_keys) in [(2usize, 36usize), (4, 20)] {
            let ring = HashRing::new(replica_names(replicas));
            let mut owned = std::collections::HashMap::<String, usize>::new();
            for model in models {
                for gpu in gpus {
                    let key = RouteKey::from_predict(model, gpu);
                    *owned
                        .entry(ring.route(&key).unwrap().to_owned())
                        .or_default() += 1;
                }
            }
            assert_eq!(
                owned.len(),
                replicas,
                "bench keys must land on all {replicas} replicas"
            );
            for (member, count) in &owned {
                assert!(
                    *count <= max_keys,
                    "{member} owns {count}/64 bench keys at {replicas} replicas — \
                     too hot for the scaling gate, rebalance the mix"
                );
            }
        }
    }

    #[test]
    fn successor_is_exactly_where_keys_go_if_the_owner_leaves() {
        let ring = HashRing::new(replica_names(4));
        for key in key_mix() {
            let owner = ring.route(&key).unwrap().to_owned();
            let successor = ring.route_successor(&key).unwrap().to_owned();
            assert_ne!(owner, successor, "hedge target must be a distinct member");
            // The hedge target is the member that inherits the key on the
            // owner's departure — so a hedged answer warms the right
            // cache for the failover case.
            let mut without_owner = ring.clone();
            assert!(without_owner.remove(&owner));
            assert_eq!(without_owner.route(&key).unwrap(), successor);
        }
    }

    #[test]
    fn successor_needs_two_members() {
        let solo = HashRing::new(replica_names(1));
        assert_eq!(solo.route_successor(&RouteKey::new("V100", "gpt2")), None);
        assert_eq!(
            HashRing::default().route_successor(&RouteKey::new("V100", "gpt2")),
            None
        );
    }

    #[test]
    fn keys_hash_the_lower_cased_names_in_place() {
        let reference = |gpu: &str, family: &str| {
            let hash = fnv1a(gpu.to_ascii_lowercase().into_bytes())
                ^ splitmix64(fnv1a(family.to_ascii_lowercase().into_bytes()));
            splitmix64(hash)
        };
        for (gpu, family) in [("H100", "GPT2-Large"), ("a100-40gb", "bert"), ("T4", "é")] {
            assert_eq!(RouteKey::new(gpu, family).point(), reference(gpu, family));
        }
        assert_eq!(
            RouteKey::from_predict("GPT2", "h100"),
            RouteKey::new("H100", "gpt2")
        );
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::default();
        assert!(ring.is_empty());
        assert_eq!(ring.route(&RouteKey::new("V100", "gpt2")), None);
    }
}
