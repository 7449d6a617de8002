package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// TestTracedCapsMatch requires every traced composition to report the
// capabilities of its untraced twin: a wrapper that dropped an optional
// interface would silently change the program it measures.
func TestTracedCapsMatch(t *testing.T) {
	builds := map[string]func(dir string, traced bool) (*composition, error){
		"durable": func(dir string, traced bool) (*composition, error) {
			return openDurable(durableSpec(dir, 8192), traced)
		},
		"spill": func(dir string, traced bool) (*composition, error) {
			return openSpill(dir, traced)
		},
		"embedded": func(_ string, traced bool) (*composition, error) {
			return buildEmbedded(traced)
		},
	}
	for name, build := range builds {
		var caps [2]core.Caps
		for i, traced := range []bool{false, true} {
			c, err := build(t.TempDir(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			caps[i] = core.CapsOf(c.dict)
			if err := c.close(); err != nil {
				t.Fatal(err)
			}
		}
		if caps[0] != caps[1] {
			t.Errorf("%s: traced caps %v, untraced %v", name, caps[1], caps[0])
		}
		if !caps[1].SharedReads || !caps[1].Batch {
			t.Errorf("%s: caps %v lack shared reads or batch", name, caps[1])
		}
	}
}

// TestTracedIngestBatches drives the traced served-ingest composition
// with pipelined PUTs and requires the server's PUT coalescing to reach
// the shards as batches, which it would not if a wrapper hid
// BatchInserter.
func TestTracedIngestBatches(t *testing.T) {
	c, err := openDurable(durableSpec(t.TempDir(), 8192), true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	}()
	c.mark()
	addr := serveTest(t, c.dict)
	ops, err := streams("uniform+steady+100w", 1<<24, 5, 2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, len(ops))
	loads := make([]*connLoad, len(ops))
	for i := range ops {
		loads[i] = newConnLoad(ops[i], 16, &present{})
		go func() {
			cl, err := server.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			errs <- loads[i].runServed(cl, time.Now(), time.Now().Add(time.Minute))
		}()
	}
	for range ops {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range loads {
		if l.chk.failed != 0 || l.done != len(l.ops) {
			t.Fatalf("%d of %d replies, %d failed: %s", l.done, len(l.ops), l.chk.failed, l.chk.first)
		}
	}
	r := c.report()
	perBatch := float64(r.Durable.Elems[spanPut]) / float64(r.Durable.Calls[spanPut])
	if perBatch <= 1 {
		t.Fatalf("shard.elems_per_batch = %.3f (%d elements in %d calls), want > 1",
			perBatch, r.Durable.Elems[spanPut], r.Durable.Calls[spanPut])
	}
	if r.Inner.Elems[spanPut] != r.Durable.Elems[spanPut] {
		t.Fatalf("durable forwarded %d elements, the COLAs received %d", r.Durable.Elems[spanPut], r.Inner.Elems[spanPut])
	}
}
