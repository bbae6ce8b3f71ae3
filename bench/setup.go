package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupSliceUnits is the length of the reference slices run right before
// and right after each cold build (10 to 13 ms each); together they give
// the build's speed factor.
const setupSliceUnits = 8

// coldBuilds times the program's start-up n times: from an empty process
// state (dataset.Load inside the catalog loader) through server.New to the
// first 200 on a query. It returns the raw and speed-corrected seconds of
// each build and the last instance, which the run goes on to measure; the
// earlier ones are closed and collected so each build starts from the same
// heap. The built-in schemas are memoized by internal/dataset after the
// first build, so the first build is the coldest; the median is not.
func coldBuilds(spec workloadSpec, seed int64, n int, first request, want *digest, ref *refKernel, cnt *counts) (*series, *instance, error) {
	s := &series{unit: "s"}
	var last *instance
	for i := 0; i < n; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, nil, err
			}
			last = nil
		}
		runtime.GC()
		dir := ""
		if spec.mutateEvery > 0 {
			var err error
			if dir, err = newRunDir(); err != nil {
				return nil, nil, err
			}
		}
		before := ref.run(setupSliceUnits)
		start := time.Now()
		in, err := build(spec, seed, dir, cnt)
		if err != nil {
			return nil, nil, fmt.Errorf("cold build %d: %w", i, err)
		}
		in.serve(in.queryReq, first.body)
		took := time.Since(start)
		// The build leaves a collection cycle running on a heap it has just
		// grown, whose workers would share the cores with the slice: let
		// the cycle finish so the slice reads the machine, not the collector.
		runtime.GC()
		after := ref.run(setupSliceUnits)
		if !in.check(want) {
			return nil, nil, fmt.Errorf("cold build %d: first query answered %d, %d bytes (digest mismatch or non-200)", i, in.w.code, in.w.d.n)
		}
		f := ref.speed(2*setupSliceUnits, before+after)
		s.add(took.Seconds(), took.Seconds()*f)
		last = in
	}
	return s, last, nil
}
