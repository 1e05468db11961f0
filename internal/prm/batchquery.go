package prm

import "parmp/internal/cspace"

// QueryBatch answers len(starts) motion-planning queries against the
// frozen roadmap: a batch is its queries, answered in order through one
// scratch. Slot i of the results is exactly Query(starts[i], goals[i], k).
// A slot with an endpoint of the wrong dimension misses alone; a goals
// slice of another length than starts misses the whole batch.
//
// A nil sc means a pooled scratch, which is what every caller in this
// repository passes; see BatchScratch. Safe for concurrent use with nil
// or distinct scratches.
func (ix *Index) QueryBatch(s *cspace.Space, starts, goals []cspace.Config, k int, sc *BatchScratch, c *cspace.Counters) ([][]cspace.Config, []bool) {
	paths := make([][]cspace.Config, len(starts))
	oks := make([]bool, len(starts))
	if len(goals) != len(starts) {
		return paths, oks
	}
	if sc == nil {
		sc = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(sc)
	}
	for i := range starts {
		if len(starts[i]) == s.Dim() && len(goals[i]) == s.Dim() {
			paths[i], oks[i] = ix.query(sc, s, starts[i], goals[i], k, c)
		}
	}
	return paths, oks
}
