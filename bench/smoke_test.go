package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkFileNamesTheWorkloads holds BENCHMARK.json's workload list
// to the harness's. (Its metric lists need no such test: a run fails when
// the metrics it measured and the ones listed there differ.)
func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload for a fraction of a second — set-up,
// verification against the reference and golden.json, both clients,
// the ingest reopen check, and the pairing of the measured metrics with
// BENCHMARK.json's end-to-end list.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			res, info, err := runWorkload(spec, goldenSeed, 0.2, false, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, info.Error)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// TestSmokeTraced makes the traced run of the two workloads that have
// layers the others lack (a log, a cluster) and checks that every
// per-layer metric BENCHMARK.json lists is measured and the span file is
// written.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the replay probes take a few seconds per workload")
	}
	if raceEnabled {
		// The pressure probe exists to exercise a known engine defect,
		// which is a data race (README, finding 3); the detector would
		// fail this test for it.
		t.Skip("the traced run's pressure probe trips the race detector inside storage.BufferPool.Pin")
	}
	for _, name := range []string{"ingest", "cluster_wire"} {
		spec := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			res, info, err := runWorkload(spec, 2, 0.4, true, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d: %s", res.Correct, res.Failed, info.Error)
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc traceFile
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Sessions) != numClients || doc.Pressure == nil {
				t.Errorf("trace has %d sessions and pressure report %v, want %d and a report", len(doc.Sessions), doc.Pressure, numClients)
			}
			probed := "wal.fsyncs_per_commit"
			if name == "cluster_wire" {
				probed = "cluster.shard_calls_per_stmt"
			}
			if res.Metrics[probed].Value <= 0 {
				t.Errorf("%s = %g on %s, want a positive value", probed, res.Metrics[probed].Value, name)
			}
		})
	}
}
