package main

// The compositions the workloads run, each buildable plain or traced.
// A traced composition is the plain one with a timing wrapper at every
// layer boundary: around the dictionary handed to server.New (or driven
// directly), around each shard's durable dictionary, and around each
// innermost structure.

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dam"
	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/server"
)

// composition is a built dictionary plus the handles the per-layer
// counters read. The layers are nil when it is not traced.
type composition struct {
	dict  core.Dictionary
	top   *layer
	dur   *layer
	close func() error

	// Counters at the start of the measured window (see mark).
	base struct {
		stats         core.Stats
		reads, writes uint64
	}
}

// durableSpec is the served-read / served-ingest composition: what
// cmd/reproserve builds for -kind gcola -shards 2 -wal dir.
func durableSpec(dir string, ckptEvery int) server.Spec {
	return server.Spec{Kind: "gcola", Shards: shards, WALDir: dir, CheckpointEvery: ckptEvery}
}

// openDurable builds the durable composition. Plain, it is server.Open
// itself; traced, it is the same assembly (one durable dictionary per
// shard under a shard map) with the inner kind wrapped by tracedKind.
func openDurable(spec server.Spec, traced bool) (*composition, error) {
	if !traced {
		h, err := server.Open(spec)
		if err != nil {
			return nil, err
		}
		return &composition{dict: h.Dict, close: h.Close}, nil
	}
	resetInner()
	c := &composition{top: new(layer), dur: new(layer)}
	durs := make([]*durable.Dict, spec.Shards)
	closeDurs := func() error {
		var first error
		for _, d := range durs {
			if d == nil {
				continue
			}
			if err := d.Sync(); err != nil && first == nil {
				first = err
			}
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := range durs {
		d, err := registry.Build("durable",
			registry.WithWALPath(filepath.Join(spec.WALDir, fmt.Sprintf("shard-%02d.wal", i))),
			registry.WithCheckpointEvery(spec.CheckpointEvery),
			registry.WithInner(tracedKind, registry.WithInner(spec.Kind)))
		if err != nil {
			closeDurs()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		dd, ok := d.(*durable.Dict)
		if !ok {
			closeDurs()
			return nil, fmt.Errorf("shard %d: durable build returned %T", i, d)
		}
		durs[i] = dd
	}
	m, err := registry.Build("sharded",
		registry.WithShards(spec.Shards),
		registry.WithFactory(func(i int, _ *dam.Space) core.Dictionary { return newTracer(durs[i], c.dur) }))
	if err != nil {
		closeDurs()
		return nil, err
	}
	c.dict = newTracer(m, c.top)
	c.close = closeDurs
	return c, nil
}

// openSpill builds the served-spill composition: a shard map over
// gcola shards whose cold levels live in files under dir, behind a
// page cache of spillCacheBytes per shard. It is volatile.
func openSpill(dir string, traced bool) (*composition, error) {
	c := &composition{}
	if traced {
		resetInner()
		c.top = new(layer)
	}
	inners := make([]core.Dictionary, shards)
	closeInners := func() error {
		var first error
		for _, d := range inners {
			if cl, ok := d.(io.Closer); ok {
				if err := cl.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	for i := range inners {
		kind, opts := innerKind(traced, "gcola",
			registry.WithSpillDir(dir), registry.WithSpillCacheBytes(spillCacheBytes))
		d, err := registry.Build(kind, opts...)
		if err != nil {
			closeInners()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		inners[i] = d
	}
	m, err := registry.Build("sharded",
		registry.WithShards(shards),
		registry.WithFactory(func(i int, _ *dam.Space) core.Dictionary { return inners[i] }))
	if err != nil {
		closeInners()
		return nil, err
	}
	c.dict = m
	if traced {
		c.dict = newTracer(m, c.top)
	}
	c.close = closeInners
	return c, nil
}

// innerKind names the registry kind (and its options) of an innermost
// structure, wrapped by tracedKind when traced.
func innerKind(traced bool, kind string, opts ...registry.Option) (string, []registry.Option) {
	if !traced {
		return kind, opts
	}
	return tracedKind, []registry.Option{registry.WithInner(kind, opts...)}
}

// mark starts the measured window: it zeroes every span aggregate and
// records the structures' cumulative counters, so report returns the
// window's share alone.
func (c *composition) mark() {
	if c.top == nil {
		return
	}
	c.top.reset()
	if c.dur != nil {
		c.dur.reset()
	}
	innerSpans.reset()
	c.base.stats, c.base.reads, c.base.writes = innerCounters()
}

// innerCounters sums the restructuring and chunk-transfer counters of
// every traced innermost structure.
func innerCounters() (st core.Stats, reads, writes uint64) {
	for _, t := range innerStructures() {
		st.Add(t.Stats())
		r, w := t.ActualTransfers()
		reads += r
		writes += w
	}
	return st, reads, writes
}

// traceReport is one traced window, as the served composition's
// process writes it out and the embedded driver computes it.
type traceReport struct {
	Top, Durable, Inner layerSnap
	Inserts, Moves      uint64 // innermost structures, window delta
	ChunkReads          uint64
	ChunkWrites         uint64
}

// report returns the window's aggregates since mark.
func (c *composition) report() traceReport {
	var r traceReport
	if c.top == nil {
		return r
	}
	r.Top = c.top.snap()
	if c.dur != nil {
		r.Durable = c.dur.snap()
	}
	r.Inner = innerSpans.snap()
	st, reads, writes := innerCounters()
	r.Inserts = st.Inserts - c.base.stats.Inserts
	r.Moves = st.Moves - c.base.stats.Moves
	r.ChunkReads = reads - c.base.reads
	r.ChunkWrites = writes - c.base.writes
	return r
}
