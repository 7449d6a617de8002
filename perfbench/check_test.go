package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveTest serves d on a loopback port until the test ends.
func serveTest(t *testing.T, d core.Dictionary) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(d)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

// TestCheckerCountsWrongAndMissing is the negative control of reply
// verification: a preloaded dictionary with one value overwritten and
// one key deleted must produce exactly those failures, through the
// served and the in-process driver alike.
func TestCheckerCountsWrongAndMissing(t *testing.T) {
	const preload = 128
	d, err := registry.Build("sharded", registry.WithShards(2), registry.WithInner("gcola"))
	if err != nil {
		t.Fatal(err)
	}
	preloadDict(d, preload)
	d.Insert(7, 12345)                // wrong value
	if !d.(core.Deleter).Delete(40) { // missing key
		t.Fatal("key 40 was not present")
	}

	var ops []workload.Op
	for k := uint64(0); k < preload; k++ {
		ops = append(ops, workload.Op{Kind: workload.OpSearch, Key: k})
	}
	// Ranges: [0, 63] holds both bad keys, [30, 93] the missing one,
	// [64, 127] neither.
	for _, lo := range []uint64{0, 30, 64} {
		ops = append(ops, workload.Op{Kind: workload.OpScan, Key: lo})
	}
	want := &present{preload: preload}

	addr := serveTest(t, d)
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	served := newConnLoad(ops, 4, want)
	if err := served.runServed(cl, time.Now(), time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	direct := newConnLoad(ops, 0, want)
	direct.runDirect(d, time.Now(), time.Now().Add(time.Minute))

	for name, l := range map[string]*connLoad{"served": served, "direct": direct} {
		if l.done != len(ops) {
			t.Errorf("%s: %d of %d replies", name, l.done, len(ops))
		}
		if l.chk.failed != 4 {
			t.Errorf("%s: %d failures, want 4 (wrong value, missing key, and the two ranges over them)", name, l.chk.failed)
		}
		if !strings.Contains(l.chk.first, "GET 7 returned 12345") {
			t.Errorf("%s: first failure %q, want the wrong value of key 7", name, l.chk.first)
		}
	}
}

// TestCheckerAcceptsCorrectReplies is the positive control: the same
// streams over an intact dictionary count no failure.
func TestCheckerAcceptsCorrectReplies(t *testing.T) {
	d, err := registry.Build("sharded", registry.WithShards(2), registry.WithInner("gcola"))
	if err != nil {
		t.Fatal(err)
	}
	preloadDict(d, 1000)
	ops, err := streams("uniform+steady+80r10w10s", 2000, 3, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	l := newConnLoad(ops[0], 0, &present{preload: 1000})
	l.runDirect(d, time.Now(), time.Now().Add(time.Minute))
	if l.chk.failed != 0 {
		t.Fatalf("%d failures on correct replies, first: %s", l.chk.failed, l.chk.first)
	}
	want := &present{preload: 1000, acked: ackedKeys([]*connLoad{l}, 1000)}
	probe := newConnLoad(probeOps(want, 9, 2000, 2000), 0, want)
	probe.runDirect(d, time.Now(), time.Now().Add(time.Minute))
	if probe.chk.failed != 0 {
		t.Fatalf("%d verification failures, first: %s", probe.chk.failed, probe.chk.first)
	}
}
