package main

import (
	"math"
	"testing"

	"repro/internal/server"
)

// TestSegmentQuantileFollowsSlowShare checks that a percentile moves in
// proportion to the share of replies in a slow mode, where the
// percentile of the pooled replies snaps from one mode to the other.
func TestSegmentQuantileFollowsSlowShare(t *testing.T) {
	const perSegment = 100
	run := func(slowSegments int) samples {
		var l latencies
		for i := 0; i < segments; i++ {
			ns := int64(10_000) // 10 µs: fast mode
			if i < slowSegments {
				ns = 20_000 // 20 µs: slow mode
			}
			for j := 0; j < perSegment; j++ {
				l[server.ClassGet] = append(l[server.ClassGet], ns)
			}
		}
		return samples{l}
	}
	for slow := 0; slow <= segments; slow++ {
		s := run(slow)
		want := 10 + 10*float64(slow)/segments
		if got := s.quantile(server.ClassGet, 0.5); math.Abs(got-want) > 1e-9 {
			t.Errorf("%d of %d segments slow: p50 %.3f us, want %.3f", slow, segments, got, want)
		}
	}
	// Pooled, the same runs read either mode and nothing between.
	if got := quantile(run(segments/2-1).pooled(server.ClassGet), 0.5); got != 10 {
		t.Errorf("pooled p50 with a slow minority: %.3f us, want 10", got)
	}
	if got := quantile(run(segments/2+1).pooled(server.ClassGet), 0.5); got != 20 {
		t.Errorf("pooled p50 with a slow majority: %.3f us, want 20", got)
	}
}

// TestSegmentQuantileSpansLoads checks that a segment takes the same
// share of every load's replies, so loads of different lengths are
// cut at the same points of their streams.
func TestSegmentQuantileSpansLoads(t *testing.T) {
	var a, b latencies
	for i := 0; i < segments*10; i++ {
		a[server.ClassPut] = append(a[server.ClassPut], 5_000)
	}
	for i := 0; i < segments*30; i++ {
		b[server.ClassPut] = append(b[server.ClassPut], 5_000)
	}
	s := samples{a, b}
	if got := s.quantile(server.ClassPut, 0.9); got != 5 {
		t.Errorf("p90 %.3f us, want 5", got)
	}
	if got := s.quantile(server.ClassRange, 0.5); got != 0 {
		t.Errorf("p50 of a class with no replies: %.3f us, want 0", got)
	}
}
