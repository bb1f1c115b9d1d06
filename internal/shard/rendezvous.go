// Package shard is the horizontal scale-out layer of hicsd streaming: a
// rendezvous-hash shard map assigning session keys to backend shards, a
// health-tracking router with per-shard circuit breaking, and the
// stateless front handler that proxies /stream (full-duplex NDJSON
// pass-through), /score, /rank and /info down each key's rank order.
//
// Rendezvous (highest-random-weight) hashing was chosen over a hash
// ring for its exactness: every (shard, key) pair gets an independent
// pseudo-random weight and the key lives on the highest-weighted shard,
// so removing one shard of n reassigns exactly the keys it owned —
// 1/n of the keyspace in expectation — and adding one steals only the
// keys it now wins. No virtual-node tuning, no ring imbalance.
package shard

import (
	"fmt"
	"slices"
)

// Map is an immutable rendezvous hash over a set of shard names.
// Placement is a pure function of the name set and the key — two
// processes constructing a Map over the same names agree on every
// owner, which is what lets any number of stateless fronts route
// without coordination.
type Map struct {
	shards []string
}

// NewMap builds a map over the given shard names (typically host:port
// addresses). Names are deduplicated; order does not matter. At least
// one shard is required.
func NewMap(shards []string) (*Map, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: a map needs at least one shard")
	}
	s := slices.Clone(shards)
	slices.Sort(s)
	s = slices.Compact(s)
	for _, name := range s {
		if name == "" {
			return nil, fmt.Errorf("shard: empty shard name")
		}
	}
	return &Map{shards: s}, nil
}

// Shards returns the member names, sorted.
func (m *Map) Shards() []string { return slices.Clone(m.shards) }

// Len returns the number of shards.
func (m *Map) Len() int { return len(m.shards) }

// Owner returns the shard owning key: the member with the highest
// rendezvous weight. Ties (astronomically unlikely with 64-bit weights,
// but possible) break toward the lexically smaller name so placement
// stays deterministic.
func (m *Map) Owner(key string) string {
	best, bestW := "", uint64(0)
	for _, s := range m.shards {
		if w := weight(s, key); best == "" || w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// Rank returns all shards ordered by descending rendezvous weight for
// key: the owner first, then the shard that would own the key if the
// owner left, and so on. A router walks this order for failover, which
// preserves the rendezvous stability property at every step.
func (m *Map) Rank(key string) []string {
	type sw struct {
		name string
		w    uint64
	}
	ws := make([]sw, len(m.shards))
	for i, s := range m.shards {
		ws[i] = sw{s, weight(s, key)}
	}
	slices.SortStableFunc(ws, func(a, b sw) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		}
		return 0
	})
	out := make([]string, len(ws))
	for i, s := range ws {
		out[i] = s.name
	}
	return out
}

// weight is the rendezvous score of key on shard: FNV-1a 64 over
// shard + "\x00" + key, passed through a 64-bit avalanche finalizer.
// FNV alone leaves weights of similar shard names correlated (its
// prefix mixing is weak), which shows up as multi-percent keyspace
// imbalance; the finalizer — murmur3's fmix64 — decorrelates every
// output bit. Both stages are pure integer arithmetic with fixed
// constants, stable across Go versions, architectures and processes —
// unlike hash/maphash — which makes placement reproducible everywhere.
// (The adversarial-collision concern of exposed hash functions does not
// apply: shard names come from the operator, and a client who controls
// session keys only chooses which shard serves them.)
func weight(shard, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(shard); i++ {
		h ^= uint64(shard[i])
		h *= prime64
	}
	h ^= 0 // the separator byte
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// fmix64: full avalanche over the combined state.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
