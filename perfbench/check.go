package main

// Reply verification. Every value the benchmark stores for a key is
// loadgen.Value(key), so any value read back can be checked, and the
// driver knows which keys must be present: the preloaded range and,
// after an ingest, every acknowledged key.

import (
	"fmt"
	"sort"

	"repro/internal/loadgen"
)

// present is the set of keys a reply must find: [0, preload) plus the
// sorted, distinct acknowledged keys.
type present struct {
	preload uint64
	acked   []uint64
}

func (p *present) has(key uint64) bool {
	if key < p.preload {
		return true
	}
	i := sort.Search(len(p.acked), func(i int) bool { return p.acked[i] >= key })
	return i < len(p.acked) && p.acked[i] == key
}

// countIn counts the keys of the set in [lo, hi]. Preloaded and
// acknowledged keys never overlap (acked holds only keys >= preload).
func (p *present) countIn(lo, hi uint64) int {
	n := 0
	if lo < p.preload {
		top := hi
		if top >= p.preload {
			top = p.preload - 1
		}
		n = int(top - lo + 1)
	}
	a := sort.Search(len(p.acked), func(i int) bool { return p.acked[i] >= lo })
	b := sort.Search(len(p.acked), func(i int) bool { return p.acked[i] > hi })
	return n + b - a
}

// checker counts failed replies. One checker per goroutine.
type checker struct {
	want   *present
	failed int64
	first  string // the first failure, for the log

	// The range reply being checked.
	lo, hi, prev uint64
	n, inSet     int
	bad          bool
}

func (c *checker) fail(format string, args ...any) {
	if c.failed == 0 {
		c.first = fmt.Sprintf(format, args...)
	}
	c.failed++
}

// get checks one GET reply.
func (c *checker) get(key, value uint64, found bool) {
	switch {
	case found && value != loadgen.Value(key):
		c.fail("GET %d returned %d, want %d", key, value, loadgen.Value(key))
	case !found && c.want.has(key):
		c.fail("GET %d missed a key that must be present", key)
	}
}

// status checks a reply that carries only a status.
func (c *checker) status(op string, ok bool) {
	if !ok {
		c.fail("%s was refused", op)
	}
}

// beginRange starts checking a RANGE reply for [lo, hi]; feed its
// elements to elem in reply order, then call endRange.
func (c *checker) beginRange(lo, hi uint64) {
	c.lo, c.hi, c.n, c.inSet, c.bad = lo, hi, 0, 0, false
}

func (c *checker) elem(key, value uint64) {
	switch {
	case key < c.lo || key > c.hi:
		c.bad = true
	case c.n > 0 && key <= c.prev:
		c.bad = true
	case value != loadgen.Value(key):
		c.bad = true
	case c.want.has(key):
		c.inSet++
	}
	c.prev = key
	c.n++
}

// endRange requires the reply to be ascending, inside [lo, hi], with
// correct values, and complete over the keys that must be present.
func (c *checker) endRange() {
	if want := c.want.countIn(c.lo, c.hi); c.bad || c.inSet != want {
		c.fail("RANGE [%d, %d] returned %d elements (%d of %d required keys), ordered and valid: %v",
			c.lo, c.hi, c.n, c.inSet, want, !c.bad)
	}
}
