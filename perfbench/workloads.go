package main

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/workload"
)

// workloadDef is one workload: its composition, its load and how much
// verification follows the window. README.md says why each was chosen.
type workloadDef struct {
	name        string
	composition string // printed with the metrics

	// Composition, always over the shards below. comp is "durable"
	// (what cmd/reproserve builds with -wal), "spill" (served by the
	// own server) or "" (embedded).
	comp      string
	ckptEvery int

	// Load.
	scenario string
	keyspace uint64
	preload  int
	conns    int
	pipeline int
	// A window replays rate × --seconds ops on each connection. rate is
	// near what the reference host (README.md) sustains, so a window
	// lasts about --seconds there.
	rate int

	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups int

	// preRanges is how many range reads over the preloaded structure
	// run before the window, for a mix without ranges (untraced runs
	// only). They give the RANGE latency a structure every run of the
	// workload reaches alike, and run long enough to span several of the
	// host's few-second swings.
	preRanges int

	// Verification after the window: point and range reads over keys
	// that must be present, and for a durable ingest, reads of
	// acknowledged keys after reopening the log directory.
	probeGets, probeRanges int
	reopenSamples          int
}

// shards is every composition's shard count, and spillCacheBytes the
// spill page cache of each served-spill shard.
const (
	shards          = 2
	spillCacheBytes = 4 << 20
)

var workloads = []workloadDef{
	{
		name:        "served-read",
		composition: "reproserve -kind gcola -shards 2 -wal (no auto-checkpoint)",
		comp:        "durable",
		scenario:    "uniform+steady+95r5w", keyspace: 1 << 20, preload: 1 << 20,
		conns: 2, pipeline: 1, rate: 27_000,
		setups:    3,
		preRanges: 10000,
		probeGets: 2000, probeRanges: 500,
	},
	{
		name:        "served-ingest",
		composition: "reproserve -kind gcola -shards 2 -wal -checkpoint-every 8192",
		comp:        "durable", ckptEvery: 8192,
		scenario: "uniform+steady+100w", keyspace: 1 << 24,
		conns: 2, pipeline: 16, rate: 33_000,
		setups:    41,
		probeGets: 100000, probeRanges: 30000,
		reopenSamples: 4000,
	},
	{
		name:        "served-spill",
		composition: "own server: sharded x2 gcola, spilled levels, 4 MiB spill cache per shard, volatile",
		comp:        "spill",
		scenario:    "uniform+steady+90r5w5s", keyspace: 1 << 20, preload: 1 << 20,
		conns: 1, pipeline: 1, rate: 5_000,
		setups:    3,
		probeGets: 200, probeRanges: 200,
	},
	{
		name:        "embedded-mixed",
		composition: "repro.Build(\"sharded\", WithShards(2), WithInner(\"cola\")), in process",
		scenario:    "uniform+steady+50r50w", keyspace: 1 << 21, preload: 1 << 20,
		conns: 2, rate: 14_000,
		setups:    5,
		preRanges: 10000,
		probeGets: 4000, probeRanges: 500,
	},
}

// mixHas reports whether the workload's op mix has ops of a latency
// class.
func (w *workloadDef) mixHas(class int) bool {
	sc, err := workload.Parse(w.scenario)
	if err != nil {
		panic(err) // the table's scenarios are valid; streams parses them first
	}
	pct := [server.NumClasses]int{server.ClassGet: sc.Mix.SearchPct, server.ClassPut: sc.Mix.InsertPct,
		server.ClassDel: sc.Mix.DeletePct, server.ClassRange: sc.Mix.ScanPct}
	return pct[class] > 0
}

// probesBefore reports whether a run reads ranges over the preloaded
// structure before its window. Traced runs skip it, so their window
// starts right after set-up.
func (w *workloadDef) probesBefore(m mode) bool {
	return m == plain && w.preRanges > 0
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
