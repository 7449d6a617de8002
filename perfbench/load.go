package main

// The closed-loop driver: one connLoad per connection or goroutine,
// each replaying an op stream generated before the timed window and
// checking every reply.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/workload"
)

// subSeedMult decorrelates the per-connection streams of one seed (the
// multiplier loadgen uses for the same purpose).
const subSeedMult = 0x9E3779B97F4A7C15

// streams pre-generates one op stream of n ops per connection.
func streams(scenario string, keyspace, seed uint64, conns, n int) ([][]workload.Op, error) {
	sc, err := workload.Parse(scenario)
	if err != nil {
		return nil, err
	}
	sc.KeySpace = keyspace
	out := make([][]workload.Op, conns)
	for id := range out {
		c := sc
		c.Seed = seed + uint64(id+1)*subSeedMult
		st, err := c.Stream()
		if err != nil {
			return nil, err
		}
		out[id] = workload.TakeOps(st, n)
	}
	return out, nil
}

// classOf maps an op kind to its latency class.
func classOf(k workload.OpKind) int {
	switch k {
	case workload.OpInsert:
		return server.ClassPut
	case workload.OpDelete:
		return server.ClassDel
	case workload.OpScan:
		return server.ClassRange
	}
	return server.ClassGet
}

// connLoad is one connection's (or goroutine's) share of a closed loop:
// its op stream, the replies' checker and latency, and, when timed, the
// time spent in each half of the client.
type connLoad struct {
	ops      []workload.Op
	pipeline int
	chk      checker
	lat      latencies
	done     int           // ops whose reply arrived, a prefix of ops
	elapsed  time.Duration // from the window's start to the last reply

	timed                   bool // time the client's send, flush and wait
	sendNs, flushNs, waitNs int64
	flushes                 int64
}

// newConnLoad returns the load that replays ops, its latency buffers
// sized for them.
func newConnLoad(ops []workload.Op, pipeline int, want *present) *connLoad {
	return &connLoad{ops: ops, pipeline: pipeline, chk: checker{want: want}, lat: newLatencies(ops)}
}

// pending is a request awaiting its reply.
type pending struct {
	op   workload.Op
	sent time.Time
}

// runServed plays the stream over one connection until it is spent (or
// the deadline passes), keeping up to pipeline requests in flight, and
// then collects every outstanding reply.
func (c *connLoad) runServed(cl *server.Client, start, deadline time.Time) error {
	ring := make([]pending, c.pipeline)
	head, inflight, next := 0, 0, 0
	var t0 time.Time
	for {
		now := time.Now()
		if next < len(c.ops) && now.Before(deadline) && inflight < c.pipeline {
			op := c.ops[next]
			next++
			ring[(head+inflight)%c.pipeline] = pending{op: op, sent: now}
			inflight++
			if err := send(cl, op); err != nil {
				return err
			}
			if c.timed {
				c.sendNs += int64(time.Since(now))
			}
			if inflight < c.pipeline {
				continue // fill the window before flushing
			}
		}
		if inflight == 0 {
			break
		}
		if c.timed {
			t0 = time.Now()
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if c.timed {
			t1 := time.Now()
			c.flushNs += int64(t1.Sub(t0))
			c.flushes++
			t0 = t1
		}
		r, err := cl.ReadReply()
		if err != nil {
			return err
		}
		end := time.Now()
		if c.timed {
			c.waitNs += int64(end.Sub(t0))
		}
		p := ring[head]
		head = (head + 1) % c.pipeline
		inflight--
		c.lat.observe(classOf(p.op.Kind), end.Sub(p.sent))
		c.checkReply(p.op, r)
		c.done++
		c.elapsed = end.Sub(start)
	}
	return nil
}

func send(cl *server.Client, op workload.Op) error {
	switch op.Kind {
	case workload.OpInsert:
		return cl.SendPut(op.Key, loadgen.Value(op.Key))
	case workload.OpSearch:
		return cl.SendGet(op.Key)
	case workload.OpScan:
		return cl.SendRange(op.Key, op.Key+workload.ScanSpan-1, workload.ScanSpan)
	}
	return fmt.Errorf("perfbench: no workload sends %s", op.Kind)
}

func (c *connLoad) checkReply(op workload.Op, r server.Reply) {
	switch op.Kind {
	case workload.OpInsert:
		c.chk.status("PUT", r.Status == server.StatusOK)
	case workload.OpSearch:
		switch {
		case r.Status == server.StatusOK && len(r.Payload) == 8:
			c.chk.get(op.Key, binary.BigEndian.Uint64(r.Payload), true)
		case r.Status == server.StatusNotFound:
			c.chk.get(op.Key, 0, false)
		default:
			c.chk.status("GET", false)
		}
	case workload.OpScan:
		p := r.Payload
		if r.Status != server.StatusOK || len(p) < 4 || len(p) != 4+int(binary.BigEndian.Uint32(p))*16 {
			c.chk.status("RANGE", false)
			return
		}
		c.chk.beginRange(op.Key, op.Key+workload.ScanSpan-1)
		for off := 4; off < len(p); off += 16 {
			c.chk.elem(binary.BigEndian.Uint64(p[off:]), binary.BigEndian.Uint64(p[off+8:]))
		}
		c.chk.endRange()
	}
}

// runDirect plays the stream against an in-process dictionary until it
// is spent (or the deadline passes).
func (c *connLoad) runDirect(d core.Dictionary, start, deadline time.Time) {
	visit := func(e core.Element) bool {
		c.chk.elem(e.Key, e.Value)
		return true
	}
	for _, op := range c.ops {
		t := time.Now()
		if !t.Before(deadline) {
			break
		}
		switch op.Kind {
		case workload.OpInsert:
			d.Insert(op.Key, loadgen.Value(op.Key))
		case workload.OpSearch:
			v, ok := d.Search(op.Key)
			c.chk.get(op.Key, v, ok)
		case workload.OpScan:
			hi := op.Key + workload.ScanSpan - 1
			c.chk.beginRange(op.Key, hi)
			d.Range(op.Key, hi, visit)
			c.chk.endRange()
		}
		end := time.Now()
		c.lat.observe(classOf(op.Kind), end.Sub(t))
		c.done++
		c.elapsed = end.Sub(start)
	}
}

// ackedKeys returns the sorted, distinct keys at or above preload that
// the loads' acknowledged inserts wrote.
func ackedKeys(loads []*connLoad, preload uint64) []uint64 {
	var keys []uint64
	for _, l := range loads {
		for _, op := range l.ops[:l.done] {
			if op.Kind == workload.OpInsert && op.Key >= preload {
				keys = append(keys, op.Key)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// probeOps draws a seeded verification stream over keys that must be
// present: gets point lookups, then ranges scans starting at such keys.
func probeOps(want *present, seed uint64, gets, ranges int) []workload.Op {
	rng := workload.NewRNG(seed)
	total := want.preload + uint64(len(want.acked))
	pick := func() uint64 {
		i := rng.Uint64() % total
		if i < want.preload {
			return i
		}
		return want.acked[i-want.preload]
	}
	ops := make([]workload.Op, 0, gets+ranges)
	for i := 0; i < gets; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpSearch, Key: pick()})
	}
	for i := 0; i < ranges; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpScan, Key: pick()})
	}
	return ops
}
