package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latency picks a class's client-observed latency: from the timed
// window when the workload's mix has that op; otherwise RANGE comes
// from the range reads on the preloaded structure before the window,
// and the rest from verification reads after it, on the structure the
// window's fixed op count builds.
func (o *outcome) latency(w *workloadDef, class int) (samples, string) {
	switch {
	case w.mixHas(class):
		return o.win, "window"
	case class == server.ClassRange && w.preRanges > 0:
		return o.pre, "range reads before the window"
	}
	return o.post, "verification after the window"
}

// latencies holds one load's raw latencies in ns, per op class, in
// reply order. Its buffers are sized for the load's stream before it
// runs, so recording allocates nothing.
type latencies [server.NumClasses][]int64

// newLatencies sizes the buffers for a stream's ops.
func newLatencies(ops []workload.Op) latencies {
	var n [server.NumClasses]int
	for _, op := range ops {
		n[classOf(op.Kind)]++
	}
	var l latencies
	for c := range l {
		l[c] = make([]int64, 0, n[c])
	}
	return l
}

func (l *latencies) observe(class int, d time.Duration) { l[class] = append(l[class], int64(d)) }

// samples is one phase's latencies, one entry per load.
type samples []latencies

// pooled returns every latency of a class in one new slice.
func (s samples) pooled(class int) []int64 {
	var out []int64
	for i := range s {
		out = append(out, s[i][class]...)
	}
	return out
}

// segments is how many parts of a phase a latency percentile is
// averaged over.
const segments = 12

// quantile returns the mean, over the phase's segments, of each
// segment's q-quantile in µs. Segment i holds the i-th of segments
// equal parts of each load's replies of the class, so it spans about
// the same stretch of time on every load.
//
// The host switches between a fast and a slow mode for round trips
// every few seconds (README.md). A percentile of the pooled replies
// snaps to one mode or the other by which held the larger share of
// the run; this mean moves in proportion to the share.
func (s samples) quantile(class int, q float64) float64 {
	var sum float64
	n := 0
	for i := 0; i < segments; i++ {
		var seg []int64
		for l := range s {
			ns := s[l][class]
			seg = append(seg, ns[i*len(ns)/segments:(i+1)*len(ns)/segments]...)
		}
		if len(seg) > 0 {
			sum += quantile(seg, q)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// quantile returns the q-quantile of ns in µs, interpolated between
// the two nearest order statistics; it sorts ns in place.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	pos := q * float64(len(ns)-1)
	i := int(pos)
	if i == len(ns)-1 {
		return float64(ns[i]) / 1e3
	}
	return (float64(ns[i]) + (pos-float64(i))*float64(ns[i+1]-ns[i])) / 1e3
}

func endToEnd(w *workloadDef, o *outcome) result {
	r := result{attempted: o.attempted, failed: o.failed}
	r.add("throughput_ops_s", ratio(float64(o.ops), o.elapsed), "ops/s",
		fmt.Sprintf("%d ops in %.3f s", o.ops, o.elapsed))
	for _, c := range []struct {
		name  string
		class int
	}{{"get", server.ClassGet}, {"put", server.ClassPut}, {"range", server.ClassRange}} {
		// The tails are printed, not gated: from run to run they flip
		// between the host's modes (README.md).
		s, from := o.latency(w, c.class)
		all := s.pooled(c.class)
		note := fmt.Sprintf("%s, n=%d, mean over %d segments; p90 %.1f us; pooled p99 %.1f us, p999 %.1f us",
			from, len(all), segments, s.quantile(c.class, 0.90), quantile(all, 0.99), quantile(all, 0.999))
		r.add(c.name+"_p50_us", s.quantile(c.class, 0.50), "us", note)
	}
	r.add("ok_frac", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "frac",
		fmt.Sprintf("%d of %d replies correct", o.attempted-o.failed, o.attempted))
	r.add("setup_s", median(o.setups), "s", fmt.Sprintf("median of %d set-ups, %.4g to %.4g s",
		len(o.setups), slices.Min(o.setups), slices.Max(o.setups)))
	what := "server peak RSS"
	if w.comp == "" {
		what = "heap held by the dictionary"
	}
	r.add("mem_mib", o.memMiB, "MiB", what)
	return r
}

// perLayer derives the per-layer metrics from a traced run t and its
// untraced twin b (same seed, same composition).
func perLayer(w *workloadDef, b, t *outcome) result {
	r := result{attempted: b.attempted + t.attempted, failed: b.failed + t.failed}
	tr := &t.trace
	ops := float64(t.ops)
	us := func(ns int64, n float64) float64 { return ratio(float64(ns)/1e3, n) }

	// Client halves (served only: the embedded workload has no client).
	r.add("client.send_us_per_op", us(t.sendNs, ops), "us", "")
	r.add("client.flush_us_per_op", us(t.flushNs, ops), "us", "")
	r.add("client.wait_us_per_op", us(t.waitNs, ops), "us", "")
	r.add("client.ops_per_flush", ratio(ops, float64(t.flushes)), "count", "")

	// Server: service time from STATS, and the wire's share of a reply.
	q := func(p uint64) float64 { return float64(p) / 1e3 }
	cl := t.stats.Classes
	r.add("server.get_service_p50_us", q(cl[server.ClassGet].P50), "us", fmt.Sprintf("n=%d", cl[server.ClassGet].Count))
	r.add("server.get_service_p99_us", q(cl[server.ClassGet].P99), "us", "")
	r.add("server.put_service_p50_us", q(cl[server.ClassPut].P50), "us", fmt.Sprintf("n=%d", cl[server.ClassPut].Count))
	r.add("server.put_service_p99_us", q(cl[server.ClassPut].P99), "us", "")
	r.add("server.range_service_p50_us", q(cl[server.ClassRange].P50), "us", fmt.Sprintf("n=%d", cl[server.ClassRange].Count))
	var latSum, latN int64
	for c := 0; c < server.NumClasses; c++ {
		for _, d := range t.win.pooled(c) {
			latSum += d
			latN++
		}
	}
	var inDict int64
	for c := 0; c < numSpanClasses; c++ {
		inDict += tr.Top.Nanos[c]
	}
	wire := 0.0
	if w.comp != "" {
		wire = ratio(float64(latSum)/1e3, float64(latN)) - us(inDict, ops)
	}
	r.add("server.wire_us_per_op", wire, "us", "mean client latency minus mean time inside the dictionary")

	// Per op of each class at the top boundary: gets and ranges are one
	// call each, puts one element each (coalesced PUTs arrive as one
	// batch call).
	perOp := [numSpanClasses]float64{}
	for c := range perOp {
		perOp[c] = float64(tr.Top.Elems[c])
	}
	child := &tr.Inner
	if w.comp == "durable" {
		child = &tr.Durable
	}
	self := func(parent, child *layerSnap, c int) float64 {
		if parent.Calls[c] == 0 {
			return 0
		}
		return us(parent.Nanos[c]-child.Nanos[c], perOp[c])
	}
	r.add("shard.self_us_per_get", self(&tr.Top, child, spanGet), "us", "")
	r.add("shard.self_us_per_put", self(&tr.Top, child, spanPut), "us", "")
	r.add("shard.self_us_per_range", self(&tr.Top, child, spanRange), "us", "")
	r.add("shard.elems_per_batch", ratio(float64(child.Elems[spanPut]), float64(child.Calls[spanPut])), "count",
		"elements per put call into a shard")

	userBytes := 16 * float64(t.liveKeys)
	r.add("durable.self_us_per_put", self(&tr.Durable, &tr.Inner, spanPut), "us", "")
	r.add("durable.records_per_put", ratio(float64(tr.Durable.Calls[spanPut]), float64(tr.Durable.Elems[spanPut])), "count", "")
	r.add("durable.max_stall_ms", float64(tr.Durable.Max[spanPut])/1e6, "ms", "longest single durable put call")
	r.add("durable.wal_bytes_per_user_byte", ratio(float64(t.disk.wal), userBytes), "ratio", fmt.Sprintf("%d live keys", t.liveKeys))
	r.add("durable.ckpt_bytes_per_user_byte", ratio(float64(t.disk.ckpt), userBytes), "ratio", "")
	r.add("durable.restart_s", b.restart, "s", "reopen of the untraced run's log directory")

	r.add("cola.us_per_get", us(tr.Inner.Nanos[spanGet], perOp[spanGet]), "us", "")
	r.add("cola.us_per_put", us(tr.Inner.Nanos[spanPut], perOp[spanPut]), "us", "")
	r.add("cola.us_per_range", us(tr.Inner.Nanos[spanRange], perOp[spanRange]), "us", "")
	r.add("cola.moves_per_insert", ratio(float64(tr.Moves), float64(tr.Inserts)), "count", "")
	r.add("cola.max_insert_us", float64(tr.Inner.Max[spanPut])/1e3, "us", "longest single put call into a COLA")

	r.add("extmem.chunk_reads_per_op", ratio(float64(tr.ChunkReads), ops), "count", "")
	r.add("extmem.chunk_writes_per_put", ratio(float64(tr.ChunkWrites), float64(len(t.win.pooled(server.ClassPut)))), "count", "")
	r.add("extmem.spill_bytes_per_user_byte", ratio(float64(t.disk.spill), userBytes), "ratio", "")

	thrB, thrT := ratio(float64(b.ops), b.elapsed), ratio(float64(t.ops), t.elapsed)
	r.add("trace.overhead_frac", 1-ratio(thrT, thrB), "frac",
		fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", thrT, thrB))
	return r
}
