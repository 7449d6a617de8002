package main

// Timing wrappers placed at the layer boundaries of a composition. A
// wrapper times every call into the dictionary it wraps and folds the
// span into a fixed set of atomic aggregates allocated before the run,
// so tracing never allocates on the request path. A layer's self time
// is its aggregate total minus its child layer's, per op class.

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// Op classes of a span.
const (
	spanGet = iota
	spanPut
	spanRange
	spanDel
	numSpanClasses
)

// layer is one boundary's span aggregate: calls, elements carried,
// total and longest duration per op class.
type layer struct {
	calls [numSpanClasses]atomic.Int64
	elems [numSpanClasses]atomic.Int64
	nanos [numSpanClasses]atomic.Int64
	max   [numSpanClasses]atomic.Int64
}

// end closes one span opened at start.
func (l *layer) end(class int, start time.Time, elems int) {
	d := int64(time.Since(start))
	l.calls[class].Add(1)
	l.elems[class].Add(int64(elems))
	l.nanos[class].Add(d)
	for {
		m := l.max[class].Load()
		if d <= m || l.max[class].CompareAndSwap(m, d) {
			return
		}
	}
}

// layerSnap is a point-in-time copy of a layer's aggregates.
type layerSnap struct {
	Calls [numSpanClasses]int64
	Elems [numSpanClasses]int64
	Nanos [numSpanClasses]int64
	Max   [numSpanClasses]int64
}

func (l *layer) snap() layerSnap {
	var s layerSnap
	for c := 0; c < numSpanClasses; c++ {
		s.Calls[c] = l.calls[c].Load()
		s.Elems[c] = l.elems[c].Load()
		s.Nanos[c] = l.nanos[c].Load()
		s.Max[c] = l.max[c].Load()
	}
	return s
}

func (l *layer) reset() {
	for c := 0; c < numSpanClasses; c++ {
		l.calls[c].Store(0)
		l.elems[c].Store(0)
		l.nanos[c].Store(0)
		l.max[c].Store(0)
	}
}

// tracer wraps a dictionary and times every call into it. It forwards
// every optional interface of core, so wrapping changes no behaviour:
// CapsOf, the batch fast path and the shared-read brackets all reach
// the wrapped structure exactly as they would without the wrapper.
type tracer struct {
	inner core.Dictionary
	sr    core.SharedReader
	l     *layer
}

var (
	_ core.Dictionary            = (*tracer)(nil)
	_ core.BatchInserter         = (*tracer)(nil)
	_ core.Deleter               = (*tracer)(nil)
	_ core.SharedReader          = (*tracer)(nil)
	_ core.SharedReadProber      = (*tracer)(nil)
	_ core.Statser               = (*tracer)(nil)
	_ core.TransferCounter       = (*tracer)(nil)
	_ core.ActualTransferCounter = (*tracer)(nil)
	_ core.Snapshotter           = (*tracer)(nil)
	_ core.CapsProber            = (*tracer)(nil)
)

func newTracer(d core.Dictionary, l *layer) *tracer {
	t := &tracer{inner: d, l: l}
	t.sr, _ = core.AsSharedReader(d)
	return t
}

func (t *tracer) Insert(key, value uint64) {
	start := time.Now()
	t.inner.Insert(key, value)
	t.l.end(spanPut, start, 1)
}

func (t *tracer) InsertBatch(elems []core.Element) {
	start := time.Now()
	core.InsertBatch(t.inner, elems)
	t.l.end(spanPut, start, len(elems))
}

func (t *tracer) Search(key uint64) (uint64, bool) {
	start := time.Now()
	v, ok := t.inner.Search(key)
	t.l.end(spanGet, start, 1)
	return v, ok
}

func (t *tracer) Range(lo, hi uint64, fn func(core.Element) bool) {
	start := time.Now()
	t.inner.Range(lo, hi, fn)
	t.l.end(spanRange, start, 1)
}

func (t *tracer) Delete(key uint64) bool {
	del, ok := t.inner.(core.Deleter)
	if !ok {
		return false
	}
	start := time.Now()
	present := del.Delete(key)
	t.l.end(spanDel, start, 1)
	return present
}

func (t *tracer) Len() int { return t.inner.Len() }

func (t *tracer) Caps() core.Caps { return core.CapsOf(t.inner) }

func (t *tracer) SharedReads() bool { return t.sr != nil }

func (t *tracer) BeginSharedReads() {
	if t.sr != nil {
		t.sr.BeginSharedReads()
	}
}

func (t *tracer) EndSharedReads() {
	if t.sr != nil {
		t.sr.EndSharedReads()
	}
}

func (t *tracer) Stats() core.Stats {
	if st, ok := t.inner.(core.Statser); ok {
		return st.Stats()
	}
	return core.Stats{}
}

func (t *tracer) Transfers() uint64 {
	if tc, ok := t.inner.(core.TransferCounter); ok {
		return tc.Transfers()
	}
	return 0
}

func (t *tracer) ActualTransfers() (reads, writes uint64) {
	if ac, ok := t.inner.(core.ActualTransferCounter); ok {
		return ac.ActualTransfers()
	}
	return 0, 0
}

var errNoSnapshot = errors.New("perfbench: traced inner cannot snapshot itself")

func (t *tracer) WriteTo(w io.Writer) (int64, error) {
	if sn, ok := t.inner.(core.Snapshotter); ok {
		return sn.WriteTo(w)
	}
	return 0, errNoSnapshot
}

func (t *tracer) ReadFrom(r io.Reader) (int64, error) {
	if sn, ok := t.inner.(core.Snapshotter); ok {
		return sn.ReadFrom(r)
	}
	return 0, errNoSnapshot
}

// Close releases the wrapped structure's files (a spilled gcola).
func (t *tracer) Close() error {
	if c, ok := t.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedKind is the registry kind that wraps its WithInner structure in
// a timing wrapper, so the innermost span sits under wrappers the
// registry builds itself (durable, sharded).
const tracedKind = "perfbench-traced"

// innerSpans aggregates every structure built through tracedKind in
// this process; innerBuilt lists them for the per-structure counters
// (moves, chunk transfers, spill files).
var (
	innerSpans layer
	innerMu    sync.Mutex
	innerBuilt []*tracer
)

func init() {
	err := registry.Register(tracedKind, registry.KindInfo{
		Doc:     "timing wrapper around its WithInner kind (benchmark tracing)",
		Options: []string{registry.OptInner},
		Caps:    registry.Caps{Snapshot: true, Delete: true, Batch: true, Stats: true, SharedReads: true},
		New: func(c *registry.Config) (core.Dictionary, error) {
			kind, opts, ok := c.Inner()
			if !ok {
				return nil, errors.New("requires WithInner")
			}
			d, err := registry.Build(kind, opts...)
			if err != nil {
				return nil, err
			}
			t := newTracer(d, &innerSpans)
			innerMu.Lock()
			innerBuilt = append(innerBuilt, t)
			innerMu.Unlock()
			return t, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

// innerStructures returns the structures built through tracedKind.
func innerStructures() []*tracer {
	innerMu.Lock()
	defer innerMu.Unlock()
	return append([]*tracer(nil), innerBuilt...)
}

// resetInner forgets earlier traced builds (each run builds afresh).
func resetInner() {
	innerMu.Lock()
	innerBuilt = nil
	innerMu.Unlock()
	innerSpans.reset()
}
