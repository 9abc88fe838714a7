package scheduler

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkSchedulerPick measures one placement decision at fleet size P:
// Pick + Assign + Complete on the index, the full broker cycle, over a
// fleet with varied speeds and backlogs so the policy orderings are
// non-degenerate. It performs 0 allocs/op.
func BenchmarkSchedulerPick(b *testing.B) {
	for _, policy := range []string{"fastest", "least_loaded", "work_steal", "random"} {
		for _, p := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/P=%d/indexed", policy, p), func(b *testing.B) {
				pol, err := New(policy, 1)
				if err != nil {
					b.Fatal(err)
				}
				ix, err := NewIndexFor(pol)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < p; i++ {
					ix.Upsert(&core.ProviderInfo{
						ID:          core.ProviderID(i + 1),
						Speed:       float64(1 + (i*37)%100),
						Slots:       4,
						Reliability: 1 - float64(i%10)/20,
					}, 4, i%4)
				}
				task := &core.Tasklet{Fuel: 1_000_000}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id, ok := ix.Pick(task, nil)
					if !ok {
						b.Fatal("no pick")
					}
					ix.Assign(id)
					ix.Complete(id)
				}
			})
		}
	}
}
