// Command perfbench is the repository's benchmark: four workloads that
// time the served path, durable ingest, the out-of-core structure and
// the embedded library end to end, check every reply, and, in a
// separate traced run, time each layer of the stack.
//
// It is run through run.sh, which builds it and cmd/reproserve from the
// checkout first:
//
//	bash perfbench/run.sh --workload served-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md for the workloads, the metrics and the findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is what every workload run shares.
type env struct {
	seed       uint64
	reproserve string // cmd/reproserve built from the checkout
	self       string // this binary, whose serve mode is the own server
	work       string // work directory inside the checkout
}

// mode is how a workload run is assembled.
type mode int

const (
	plain  mode = iota // the end-to-end run: untraced, preloaded over the wire
	base               // a traced run's untraced twin: preloaded in-process
	traced             // timing wrappers at every layer boundary
)

var modeNames = [...]string{"plain", "base", "traced"}

func (m mode) String() string { return modeNames[m] }

func parseMode(s string) (mode, error) {
	for m, name := range modeNames {
		if name == s {
			return mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name (served-read, served-ingest, served-spill, embedded-mixed)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "window length: each connection replays the workload's rate times this many ops")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the reproserve binary")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(2)
	if w.comp != "" {
		if err := pinDriver(); err != nil {
			return err
		}
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	e := &env{seed: *seed, reproserve: filepath.Join(*bin, "reproserve"), self: self,
		work: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	// The window replays a fixed op count, so every run of a seed ends
	// in the same structure. A window cut at limit would not, so a cut
	// fails the run; limit only catches a much slower build or host.
	ops, err := streams(w.scenario, w.keyspace, *seed, w.conns, w.rate**seconds)
	if err != nil {
		return err
	}
	limit := 4 * time.Duration(*seconds) * time.Second
	fmt.Printf("workload %s seed %d: %s; scenario %s, keyspace %d, preload %d, conns %d, pipeline %d, ops %dx%d, window limit %v\n",
		w.name, *seed, w.composition, w.scenario, w.keyspace, w.preload, w.conns, w.pipeline, w.conns, len(ops[0]), limit)

	var res result
	if *trace == 0 {
		o, err := e.runOnce(w, ops, limit, plain)
		if err != nil {
			return err
		}
		res = endToEnd(w, o)
	} else {
		b, err := e.runOnce(w, ops, limit, base)
		if err != nil {
			return err
		}
		t, err := e.runOnce(w, ops, limit, traced)
		if err != nil {
			return err
		}
		res = perLayer(w, b, t)
	}
	res.print()
	return nil
}

func (e *env) runOnce(w *workloadDef, ops [][]workload.Op, limit time.Duration, m mode) (*outcome, error) {
	var o *outcome
	var err error
	if w.comp == "" {
		o, err = runEmbedded(e, w, ops, limit, m)
	} else {
		o, err = runServed(e, w, ops, limit, m)
	}
	if err != nil {
		return nil, fmt.Errorf("%s (%s run): %w", w.name, m, err)
	}
	if o.firstFail != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s (%s run): %d failed replies, first: %s\n", w.name, m, o.failed, o.firstFail)
	}
	if o.cut {
		return nil, fmt.Errorf("%s (%s run): the window hit its %v limit before the streams ended", w.name, m, limit)
	}
	return o, nil
}

// outcome is everything one run measured.
type outcome struct {
	ops       int64   // replies in the timed window
	elapsed   float64 // seconds, window start to last reply
	cut       bool    // the window limit passed before a stream ended
	win       samples
	pre, post samples // reads before and after the window

	sendNs, flushNs, waitNs, flushes int64 // client halves, traced only

	attempted, failed int64
	firstFail         string

	setups   []float64 // seconds
	memMiB   float64
	disk     diskBytes
	liveKeys uint64
	restart  float64 // seconds; reopen workloads only

	stats server.Stats // STATS at the window's end; served only
	trace traceReport  // traced only
}

// window folds the window's loads into o.
func (o *outcome) window(loads []*connLoad) {
	for _, l := range loads {
		o.ops += int64(l.done)
		o.attempted += int64(l.done)
		o.elapsed = max(o.elapsed, l.elapsed.Seconds())
		o.cut = o.cut || l.done < len(l.ops)
		o.win = append(o.win, l.lat)
		o.sendNs += l.sendNs
		o.flushNs += l.flushNs
		o.waitNs += l.waitNs
		o.flushes += l.flushes
		o.fail(&l.chk)
	}
}

// verified folds a verification load into o, its latencies into s.
func (o *outcome) verified(l *connLoad, s *samples) {
	o.attempted += int64(l.done)
	*s = append(*s, l.lat)
	o.fail(&l.chk)
}

func (o *outcome) fail(c *checker) {
	if c.failed > 0 && o.firstFail == "" {
		o.firstFail = c.first
	}
	o.failed += c.failed
}

// result is the printed outcome: metrics in the order they were added.
type result struct {
	attempted, failed int64
	names             []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add records a metric; note says where it came from, for the log.
func (r *result) add(name string, value float64, unit, note string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-34s %14.6g %-6s%s\n", name, value, unit, note)
}

func (r *result) print() {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(line))
}
