package main

// The embedded workload: the library surface, no network. A sharded
// map is built through the public facade, preloaded with one
// InsertBatch, and driven by goroutines in the driver process.

import (
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/workload"
)

// buildEmbedded builds the embedded composition: sharded over cola,
// with the timing wrappers at the map and around each shard's COLA
// when traced.
func buildEmbedded(traced bool) (*composition, error) {
	if traced {
		resetInner()
	}
	kind, opts := innerKind(traced, "cola")
	d, err := repro.Build("sharded", repro.WithShards(shards), repro.WithInner(kind, opts...))
	if err != nil {
		return nil, err
	}
	c := &composition{dict: d, close: func() error { return nil }}
	if traced {
		c.top = new(layer)
		c.dict = newTracer(d, c.top)
	}
	return c, nil
}

func runEmbedded(e *env, w *workloadDef, ops [][]workload.Op, limit time.Duration, m mode) (*outcome, error) {
	out := &outcome{}
	want := &present{preload: uint64(w.preload)}
	loads := make([]*connLoad, w.conns)
	for i := range loads {
		loads[i] = newConnLoad(ops[i], 0, want)
	}
	elems := make([]repro.Element, w.preload)
	for k := range elems {
		elems[k] = repro.Element{Key: uint64(k), Value: loadgen.Value(uint64(k))}
	}
	setups := w.setups
	if m != plain {
		setups = 1
	}
	var c *composition
	var heapBase uint64
	var ms runtime.MemStats
	for i := 0; i < setups; i++ {
		c = nil
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapBase = ms.HeapAlloc
		t0 := time.Now()
		var err error
		if c, err = buildEmbedded(m == traced); err != nil {
			return nil, err
		}
		repro.InsertBatch(c.dict, elems)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	runtime.GC() // the set-ups' garbage, before anything is timed
	c.mark()
	probe := func(want *present, salt uint64, gets, ranges int) *connLoad {
		l := newConnLoad(probeOps(want, e.seed^salt, gets, ranges), 0, want)
		l.runDirect(c.dict, time.Now(), time.Now().Add(time.Hour))
		return l
	}
	if w.probesBefore(m) {
		out.verified(probe(&present{preload: uint64(w.preload)}, preProbeSeed, 0, w.preRanges), &out.pre)
	}

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(limit)
	for _, l := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.runDirect(c.dict, start, deadline)
		}()
	}
	wg.Wait()
	out.window(loads)
	out.trace = c.report()
	out.liveKeys = uint64(c.dict.Len())
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.memMiB = float64(int64(ms.HeapAlloc)-int64(heapBase)) / (1 << 20)
	runtime.KeepAlive(elems) // part of heapBase, so it must still be held here

	want.acked = ackedKeys(loads, want.preload)
	out.verified(probe(want, postProbeSeed, w.probeGets, w.probeRanges), &out.post)
	return out, c.close()
}
