package main

// The benchmark's own server main, for compositions cmd/reproserve
// cannot serve (spilled shards) and for traced compositions. It speaks
// the same protocol to the driver as reproserve: "listening on <addr>"
// once ready, a graceful drain on SIGTERM ending in "drained clean".
// When traced, SIGUSR1 writes the window's aggregates as one
// "trace <json>" line.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/server"
)

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		name  = fs.String("workload", "", "workload whose composition to serve")
		mname = fs.String("mode", "plain", "plain (empty), base (preloaded in-process) or traced (preloaded, timing wrappers at every layer boundary)")
		dir   = fs.String("dir", "", "WAL directory (durable) or spill directory (spill)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	m, err := parseMode(*mname)
	if err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve: -dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var c *composition
	switch w.comp {
	case "durable":
		c, err = openDurable(durableSpec(*dir, w.ckptEvery), m == traced)
	case "spill":
		c, err = openSpill(*dir, m == traced)
	default:
		err = fmt.Errorf("serve: workload %s is not served", w.name)
	}
	if err != nil {
		return err
	}
	if m != plain {
		// Preloading in-process keeps the preload out of the server's
		// service-time histograms and span aggregates.
		preloadDict(c.dict, w.preload)
	}
	c.mark()

	srv := server.New(c.dict)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	for {
		select {
		case sg := <-sig:
			if sg == syscall.SIGUSR1 {
				raw, err := json.Marshal(c.report())
				if err != nil {
					return err
				}
				fmt.Printf("trace %s\n", raw)
				continue
			}
			derr := srv.Shutdown(10 * time.Second)
			<-done
			if cerr := c.close(); derr == nil {
				derr = cerr
			}
			if derr != nil {
				return derr
			}
			fmt.Println("drained clean")
			return nil
		case err := <-done:
			c.close()
			return fmt.Errorf("serve: %w", err)
		}
	}
}

// preloadChunk is the preload batch size, in-process and over the wire
// alike, so both build the same structure and write the same log.
const preloadChunk = 4096

// preloadDict inserts keys [0, n) with their loadgen values.
func preloadDict(d core.Dictionary, n int) {
	preloadBatches(n, func(b []core.Element) error {
		core.InsertBatch(d, b)
		return nil
	})
}

// preloadBatches hands keys [0, n) with their loadgen values to apply in
// batches of preloadChunk, stopping at the first error.
func preloadBatches(n int, apply func([]core.Element) error) error {
	batch := make([]core.Element, 0, preloadChunk)
	for k := 0; k < n; k++ {
		batch = append(batch, core.Element{Key: uint64(k), Value: loadgen.Value(uint64(k))})
		if len(batch) == preloadChunk || k == n-1 {
			if err := apply(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}
