// Package cluster is the phased fleet's data-plane gateway: it places
// sessions on nodes with a consistent-hash ring, proxies every wire
// path (one-shot ingest, polling, SSE, the framed stream upgrade),
// health-probes the fleet, and re-homes sessions off draining or dead
// nodes by shipping their migration blobs (a snapshot of the session's
// full state) to an adopting node — clients ride through on the
// reliability layer's resume machinery with at most a reconnect.
package cluster

import (
	"fmt"
	"sort"
)

// ringReplicas is how many virtual points each node contributes. Enough
// that a three-node fleet splits the keyspace within a few percent of
// evenly; cheap enough that ring construction is negligible.
const ringReplicas = 64

// A Ring consistent-hashes keys over a fixed node set. Placement is a
// pure function of (nodes, key): every gateway instance with the same
// -nodes flag routes identically, and adding a node moves only ~1/n of
// the keyspace.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

// A ringPoint is one virtual node position on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds the ring. Nodes must be non-empty; order does not
// affect placement (the hash space does the ordering).
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*ringReplicas)
	for ni, n := range r.nodes {
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(fmt.Sprintf("%s#%d", n, i)),
				node: ni,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's node set (shared slice; do not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the key's home node: the first virtual point at or
// after the key's hash, wrapping.
func (r *Ring) Owner(key string) string { return r.Seq(key)[0] }

// Seq returns every node in the key's preference order: the owner
// first, then each distinct node encountered walking the circle. A
// caller that needs a failover target takes the first healthy entry.
func (r *Ring) Seq(key string) []string {
	h := fnv64a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(seq) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			seq = append(seq, r.nodes[p.node])
		}
	}
	return seq
}

// fnv64a is the FNV-1a 64-bit hash (inlined to keep the ring
// allocation-free on the Seq path aside from its result slice), run
// through a 64-bit avalanche finalizer: raw FNV-1a mixes the last few
// bytes of a string only weakly into the high bits, so structured keys
// ("session-1", "session-2", …) cluster into narrow bands of the circle
// and placement goes badly unbalanced. The finalizer (Murmur3's fmix64)
// spreads them uniformly.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
