package csq

import (
	"reflect"
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/mapreduce"
)

// TestStatsSinkSeesEveryJob pins what Config.StatsSink receives: for
// every LUBM query — uncached, on a result-cache miss and on a hit —
// one call per job of the execution, in job order, with exactly the
// JobStats, names included, that Result.Jobs lists. A traced caller
// times its jobs by these calls, so a hit, which runs no job, must
// still report every one it replays.
func TestStatsSinkSeesEveryJob(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	var got []mapreduce.JobStats
	for _, cacheBytes := range []int64{0, testRescacheBytes} {
		cfg := DefaultConfig()
		cfg.ResultCacheBytes = cacheBytes
		cfg.StatsSink = func(js mapreduce.JobStats) { got = append(got, js) }
		eng := New(g, cfg)
		passes := []string{"uncached"}
		if cacheBytes > 0 {
			passes = []string{"miss", "hit"}
		}
		for _, q := range lubm.Queries() {
			p, _, err := eng.PrepareCached(q)
			if err != nil {
				t.Fatalf("%s: prepare: %v", q.Name, err)
			}
			for _, pass := range passes {
				before := eng.ResultCacheStats()
				got = got[:0]
				res, err := eng.ExecutePrepared(p)
				if err != nil {
					t.Fatalf("%s %s: execute: %v", q.Name, pass, err)
				}
				after := eng.ResultCacheStats()
				hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
				wantHits, wantMisses := uint64(0), uint64(0)
				switch pass {
				case "miss":
					wantMisses = 1
				case "hit":
					wantHits = 1
				}
				if hits != wantHits || misses != wantMisses {
					t.Fatalf("%s %s: %d hits and %d misses", q.Name, pass, hits, misses)
				}
				if len(res.Jobs) == 0 || !reflect.DeepEqual(got, res.Jobs) {
					t.Errorf("%s %s: the sink saw\n%+v\nResult.Jobs is\n%+v", q.Name, pass, got, res.Jobs)
				}
			}
		}
		eng.Close()
	}
}
