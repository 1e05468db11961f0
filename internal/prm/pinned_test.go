package prm

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"parmp/internal/cspace"
	"parmp/internal/env"
	"parmp/internal/rng"
)

// queryFixture is one frozen roadmap the pinned and oracle tests query.
type queryFixture struct {
	name string
	s    *cspace.Space
	ix   *Index
	seed uint64
}

// queryFixtures are the unweighted med-cube roadmap at two sizes and the
// weighted space whose raw Euclidean length overestimates s.Distance.
func queryFixtures(t testing.TB) []queryFixture {
	t.Helper()
	fixtures := []struct {
		name    string
		s       *cspace.Space
		samples int
		seed    uint64
	}{
		{"med-cube/300", cspace.NewPointSpace(env.MedCube()), 300, 1},
		{"med-cube/3000", cspace.NewPointSpace(env.MedCube()), 3000, 2},
		{"weighted/600", weightedSpace(), 600, 3},
	}
	out := make([]queryFixture, len(fixtures))
	for i, f := range fixtures {
		out[i] = queryFixture{name: f.name, s: f.s, ix: BuildIndex(buildTestRoadmap(t, f.s, f.samples, f.seed)), seed: f.seed}
	}
	return out
}

// pinnedQueries is what TestQueryPinned holds fixed for one fixture and
// k: how many of the pairs were answered, their waypoints in total, a
// hash of every returned coordinate's bits, and the work the queries
// billed.
type pinnedQueries struct {
	hits, waypoints   int
	pathHash          uint64
	lpCalls, knnEvals int64
}

// wantQueries was read at the parent of the indexed frontier heap (a
// lazy-deletion binary heap with one entry per push) and must not move.
var wantQueries = map[string]pinnedQueries{
	"med-cube/300/k=4":  {hits: 200, waypoints: 1597, pathHash: 0xf404fa7e920708a2, lpCalls: 1600, knnEvals: 12588},
	"med-cube/300/k=8":  {hits: 200, waypoints: 1425, pathHash: 0x1241c768c088bab2, lpCalls: 3200, knnEvals: 17540},
	"med-cube/3000/k=4": {hits: 200, waypoints: 3113, pathHash: 0xe3129bd4ec555738, lpCalls: 1600, knnEvals: 20837},
	"med-cube/3000/k=8": {hits: 200, waypoints: 2935, pathHash: 0x585567889b46991d, lpCalls: 3200, knnEvals: 29974},
	"weighted/600/k=4":  {hits: 200, waypoints: 2081, pathHash: 0xdba68c33fce8592d, lpCalls: 1600, knnEvals: 15620},
	"weighted/600/k=8":  {hits: 200, waypoints: 1886, pathHash: 0xf1317be3dba5a087, lpCalls: 3200, knnEvals: 22165},
}

// TestQueryPinned pins 200 seeded Index.Query answers per fixture and k
// bit for bit. Which vertices the search settles, and in which order
// among equal-cost routes, decides which of several shortest paths comes
// back; none of it may move with the search's data structures.
func TestQueryPinned(t *testing.T) {
	var buf [8]byte
	for _, f := range queryFixtures(t) {
		for _, k := range []int{4, 8} {
			r := rng.New(f.seed + 1000)
			h := fnv.New64a()
			var c cspace.Counters
			var got pinnedQueries
			for i := 0; i < 200; i++ {
				path, ok := f.ix.Query(f.s, randomValid(f.s, r), randomValid(f.s, r), k, &c)
				if ok {
					got.hits++
				}
				got.waypoints += len(path)
				for _, q := range path {
					for _, x := range q {
						u := math.Float64bits(x)
						for b := range buf {
							buf[b] = byte(u >> (8 * b))
						}
						h.Write(buf[:])
					}
				}
			}
			got.pathHash, got.lpCalls, got.knnEvals = h.Sum64(), c.LPCalls, c.KNNEvals
			name := fmt.Sprintf("%s/k=%d", f.name, k)
			if want := wantQueries[name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: answers moved\n got  %#v\n want %#v", name, got, want)
			}
		}
	}
}
