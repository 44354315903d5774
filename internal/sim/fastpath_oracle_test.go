// Fast-path vs. oracle bit-identity: the allocation-free hot paths (flat
// AddrMap, pooled recipe arena, batched energy accounting, MRU cache way)
// must leave every observable of a run — Result, per-event energy counts,
// memory-hierarchy stats, final memory image, exported telemetry profile —
// bit-for-bit identical to the pre-optimization simulator. The oracle under
// testdata/ was recorded by the unoptimized implementation; regenerate only
// when the *modelled machine* changes (never to paper over a fast-path
// divergence) with:
//
//	ACR_UPDATE_ORACLE=1 go test ./internal/sim -run TestFastPathMatchesOracle
//
// The test lives in the external package because it attaches the telemetry
// stack (telemetry imports sim).
package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

const (
	oracleProfilePath = "testdata/fastpath_oracle_profile.json"
	oracleResultPath  = "testdata/fastpath_oracle_result.json"
)

// oracleRecord is the serialised form of the oracle run's observables.
type oracleRecord struct {
	Result sim.Result `json:"result"`
	// MemFNV is the FNV-64a digest of the final data-memory image.
	MemFNV string `json:"mem_fnv"`
}

// oracleRun executes the fixed reference configuration: the is kernel on 8
// cores under amnesic local checkpointing with adaptive placement and two
// injected errors — every hot path this PR touches is live (flat AddrMap,
// recipe tracking with compaction, batched accounting, local-mode interval
// clearing, recovery recomputation).
func oracleRun(t *testing.T) (oracleRecord, []byte) {
	t.Helper()
	const threads = 8
	bench, err := workloads.ByName("is")
	if err != nil {
		t.Fatal(err)
	}

	calibrate := func() int64 {
		p, err := bench.Build(threads, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.DefaultConfig(threads), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	baseCycles := calibrate()

	p, err := bench.Build(threads, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(threads)
	cfg.Checkpointing = true
	cfg.Strategy = ckpt.KindAmnesic
	cfg.Mode = ckpt.Local
	cfg.AdaptivePlacement = true
	cfg.ACR = acr.Config{Threshold: bench.Threshold, MapCapacity: 4096 * threads}
	cfg.PeriodCycles = baseCycles / 9
	cfg.ROIStartCycles = cfg.PeriodCycles / 2
	cfg.Errors = fault.Uniform(2, baseCycles, cfg.PeriodCycles/2)
	cfg.RecordTimeline = true

	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	cfg.Observers = []sim.Observer{col}

	m, err := sim.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	col.ObserveResult(res)

	h := fnv.New64a()
	var w [8]byte
	for i := 0; i < p.DataWords; i++ {
		v := uint64(m.Mem().ReadWord(int64(i)))
		for b := 0; b < 8; b++ {
			w[b] = byte(v >> (8 * b))
		}
		h.Write(w[:])
	}

	var profile bytes.Buffer
	meta := map[string]string{"bench": "is", "class": "S", "threads": "8", "oracle": "fastpath"}
	if err := telemetry.WriteProfile(&profile, meta, reg); err != nil {
		t.Fatal(err)
	}
	return oracleRecord{Result: res, MemFNV: fmt.Sprintf("%016x", h.Sum64())}, profile.Bytes()
}

// TestFastPathMatchesOracle re-runs the reference configuration and diffs
// every observable field-by-field against the recorded pre-optimization
// oracle.
func TestFastPathMatchesOracle(t *testing.T) {
	rec, profile := oracleRun(t)

	recJSON, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	recJSON = append(recJSON, '\n')

	if os.Getenv("ACR_UPDATE_ORACLE") != "" {
		if err := os.MkdirAll(filepath.Dir(oracleResultPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleResultPath, recJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleProfilePath, profile, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("oracle regenerated: %s, %s", oracleResultPath, oracleProfilePath)
		return
	}

	wantJSON, err := os.ReadFile(oracleResultPath)
	if err != nil {
		t.Fatalf("missing oracle (run with ACR_UPDATE_ORACLE=1 to record): %v", err)
	}
	var want oracleRecord
	if err := json.Unmarshal(wantJSON, &want); err != nil {
		t.Fatalf("oracle decode: %v", err)
	}

	// Field-by-field diff of the Result so a divergence names the broken
	// observable (energy counts, mem stats, checkpoint stats, timeline...).
	got, wantRes := reflect.ValueOf(rec.Result), reflect.ValueOf(want.Result)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if !reflect.DeepEqual(got.Field(i).Interface(), wantRes.Field(i).Interface()) {
			t.Errorf("Result.%s diverged from oracle:\n got %+v\nwant %+v",
				name, got.Field(i).Interface(), wantRes.Field(i).Interface())
		}
	}
	if rec.MemFNV != want.MemFNV {
		t.Errorf("final memory image diverged: got fnv %s, want %s", rec.MemFNV, want.MemFNV)
	}

	wantProfile, err := os.ReadFile(oracleProfilePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profile, wantProfile) {
		t.Errorf("telemetry profile diverged from oracle (%d vs %d bytes)", len(profile), len(wantProfile))
	}
}
