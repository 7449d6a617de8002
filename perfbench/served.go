package main

// The served workloads: a server process (cmd/reproserve, or the
// benchmark's own server main for compositions reproserve cannot
// build), two client connections in a closed loop, reply verification,
// and, for the durable ingest, a reopen of the log directory.

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// serverArgs returns the binary and arguments that serve w in mode m
// from dir.
func (e *env) serverArgs(w *workloadDef, m mode, dir string) (string, []string) {
	if m == plain && w.comp == "durable" {
		args := []string{"-addr", "127.0.0.1:0", "-kind", "gcola", "-shards", strconv.Itoa(shards), "-wal", dir}
		if w.ckptEvery > 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(w.ckptEvery))
		}
		return e.reproserve, args
	}
	return e.self, []string{"serve", "-workload", w.name, "-mode", m.String(), "-dir", dir}
}

// setupServer starts a fresh server on dir, places it, and preloads it.
func (e *env) setupServer(w *workloadDef, m mode, dir string) (*proc, error) {
	bin, args := e.serverArgs(w, m, dir)
	p, err := startServer(bin, args...)
	if err != nil {
		return nil, err
	}
	err = p.place(w.conns)
	if err == nil {
		err = readyAndPreload(p.addr, w, m)
	}
	if err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// readyAndPreload waits until the server answers a request (it then
// also handles signals) and, in a plain run, sends keys [0, preload) in
// BATCH frames of preloadChunk.
func readyAndPreload(addr string, w *workloadDef, m mode) error {
	cl, err := server.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.Stats(); err != nil {
		return err
	}
	if m != plain {
		return nil
	}
	if err := preloadBatches(w.preload, cl.PutBatch); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

func runServed(e *env, w *workloadDef, ops [][]workload.Op, limit time.Duration, m mode) (*outcome, error) {
	out := &outcome{}
	dir := filepath.Join(e.work, w.name+"-"+m.String())
	defer os.RemoveAll(dir)

	setups := w.setups
	if m != plain {
		setups = 1
	}
	var p *proc
	for i := 0; i < setups; i++ {
		if p != nil {
			if err := p.stop(); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from an empty directory, with no dirty
		// pages of the one before left to write back while it runs.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		syscall.Sync()
		t0 := time.Now()
		var err error
		if p, err = e.setupServer(w, m, dir); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer p.kill()

	loads := make([]*connLoad, w.conns)
	clients := make([]*server.Client, w.conns)
	want := &present{preload: uint64(w.preload)}
	for i := range loads {
		cl, err := server.DialTimeout(p.addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
		loads[i] = newConnLoad(ops[i], w.pipeline, want)
		loads[i].timed = m == traced
	}

	probe := func(want *present, salt uint64, gets, ranges int) (*connLoad, error) {
		l := newConnLoad(probeOps(want, e.seed^salt, gets, ranges), 1, want)
		return l, l.runServed(clients[0], time.Now(), time.Now().Add(time.Hour))
	}
	if err := settle(p); err != nil {
		return nil, err
	}
	if w.probesBefore(m) {
		l, err := probe(&present{preload: uint64(w.preload)}, preProbeSeed, 0, w.preRanges)
		if err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		out.verified(l, &out.pre)
	}

	errs := make([]error, len(loads))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(limit)
	for i, l := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.runServed(clients[i], start, deadline)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("window: %w", err)
		}
	}
	out.window(loads)

	// Window's end: the server's own view, before verification adds
	// requests of its own.
	if m == traced {
		line, err := p.signal(syscall.SIGUSR1, "trace ")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "trace ")), &out.trace); err != nil {
			return nil, fmt.Errorf("trace report: %w", err)
		}
	}
	st, err := clients[0].Stats()
	if err != nil {
		return nil, err
	}
	out.stats = st
	out.liveKeys = st.Len

	// Verification after the window: point and range reads over keys
	// that must be present, the acknowledged writes included.
	want.acked = ackedKeys(loads, want.preload)
	if err := settle(p); err != nil {
		return nil, err
	}
	l, err := probe(want, postProbeSeed, w.probeGets, w.probeRanges)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	out.verified(l, &out.post)

	if out.memMiB, err = p.peakRSSMiB(); err != nil {
		return nil, err
	}
	if out.disk, err = diskUsage(dir, w.comp); err != nil {
		return nil, err
	}
	for _, cl := range clients {
		cl.Close()
	}
	if err := p.stop(); err != nil {
		return nil, err
	}

	if w.reopenSamples > 0 {
		if err := reopen(w, dir, m, want, e.seed^reopenSeed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// settle lets the work a phase leaves behind finish before the next
// phase is timed: it collects the driver's garbage (the generated
// streams, the acknowledged-key set), writes back dirty pages, and
// waits until the server is idle (its own collection done).
func settle(p *proc) error {
	runtime.GC()
	syscall.Sync()
	return p.waitIdle(5 * time.Second)
}

// Seed salts of the verification streams, so they differ from the
// load's and from each other.
const (
	preProbeSeed  = 0x9B0BE5EED
	postProbeSeed = 0x9B0BE5EEE
	reopenSeed    = 0x5EED0FEE
)

// reopen replays the log directory the way a restarting server does
// and reads back a seeded sample of acknowledged keys.
func reopen(w *workloadDef, dir string, m mode, want *present, seed uint64, out *outcome) error {
	t0 := time.Now()
	c, err := openDurable(durableSpec(dir, w.ckptEvery), m == traced)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	out.restart = time.Since(t0).Seconds()
	chk := checker{want: want}
	for _, op := range probeOps(want, seed, w.reopenSamples, 0) {
		v, ok := c.dict.Search(op.Key)
		chk.get(op.Key, v, ok)
	}
	out.attempted += int64(w.reopenSamples)
	out.fail(&chk)
	return c.close()
}

// diskBytes is a composition's footprint on disk by role.
type diskBytes struct {
	wal, ckpt, spill int64
}

func diskUsage(dir, comp string) (diskBytes, error) {
	var d diskBytes
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		switch {
		case comp == "spill":
			d.spill += info.Size()
		case strings.HasSuffix(path, ".wal"):
			d.wal += info.Size()
		case strings.HasSuffix(path, ".ckpt"):
			d.ckpt += info.Size()
		}
		return nil
	})
	return d, err
}
