package mapper_test

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// ExampleBest searches the temporal-mapping space of a fully connected
// layer on the case-study accelerator.
func ExampleBest() {
	layer := workload.NewMatMul("fc", 64, 64, 64)
	hw := arch.CaseStudy()
	best, stats, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
		Spatial: arch.CaseStudySpatial(),
		BWAware: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("orderings walked: %d, scored: %d, valid: %d\n",
		stats.NestsGenerated+stats.ClassesMerged, stats.NestsGenerated, stats.Valid)
	fmt.Printf("best compute cycles: %d (utilization %.0f%%)\n",
		best.Result.CCSpatial, 100*best.Result.SpatialUtilization)
	// Output:
	// orderings walked: 4362, scored: 223, valid: 223
	// best compute cycles: 1024 (utilization 100%)
}
