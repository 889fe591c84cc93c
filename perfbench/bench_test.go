package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lapcache"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// lastLine parses the final stdout line as a result; ok is false when
// there is none.
func lastLine(t *testing.T, out string) (result, bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || r.Metrics == nil {
		return r, false
	}
	return r, true
}

func smokeConfig(workload string, seed uint64, trace bool) runConfig {
	return runConfig{
		workload: workload,
		seed:     seed,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		smoke:    true,
		golden:   defaultGoldenPath(),
	}
}

// TestSmoke runs every workload briefly, untraced and traced, on two
// seeds: every check passes and every catalogue metric is printed.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				var stdout, stderr bytes.Buffer
				code := execute(smokeConfig(wl, seed, trace), &stdout, &stderr, time.Minute)
				if code != 0 {
					t.Fatalf("%s seed %d trace %v: exit %d\n%s", wl, seed, trace, code, stderr.String())
				}
				r, ok := lastLine(t, stdout.String())
				if !ok || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: bad result %+v", wl, seed, trace, r)
				}
				want := endToEndCatalogue
				if trace {
					want = perLayerCatalogue
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", wl, len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s: metric %s = %+v, want unit %s", wl, m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.name, got.Value)
					}
				}
			}
		}
	}
}

// corruptingStore returns wrong bytes for every block it reads.
type corruptingStore struct{ lapcache.BackingStore }

func (s corruptingStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	err := s.BackingStore.ReadBlock(b, buf)
	buf[len(buf)/2] ^= 0xff
	return err
}

// expectFailure asserts a run ended with failed ops and correct=false.
func expectFailure(t *testing.T, cfg runConfig) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := execute(cfg, &stdout, &stderr, time.Minute); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	r, ok := lastLine(t, stdout.String())
	if !ok || r.Correct || r.Failed == 0 {
		t.Fatalf("result %+v: want correct=false with failed ops", r)
	}
}

func TestCorruptingStoreFails(t *testing.T) {
	cfg := smokeConfig("charisma-coop", 1, false)
	cfg.wrapStore = func(s lapcache.BackingStore) lapcache.BackingStore { return corruptingStore{s} }
	expectFailure(t, cfg)
}

func TestTamperedGoldenFails(t *testing.T) {
	b, err := os.ReadFile(defaultGoldenPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	tampered := false
	for i, l := range lines {
		// Smoke runs simulate only the Sprite cells.
		if strings.Contains(l, `"cell":"Sprite/PAFS/Ln_Agr_OBA/4MB"`) {
			lines[i] = strings.Replace(l, `"events_fired":`, `"events_fired":1`, 1)
			tampered = lines[i] != l
		}
	}
	if !tampered {
		t.Fatal("golden record to tamper with not found")
	}
	path := filepath.Join(t.TempDir(), "golden.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig("paper-sim", 3, false)
	cfg.golden = path
	expectFailure(t, cfg)
}

// TestWatchdog wedges a workload and checks the run ends with a clear
// error inside the hard limit, printing no result.
func TestWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	workloads["wedged"] = func(runConfig) (*outcome, error) {
		<-release
		return nil, errors.New("released")
	}
	defer delete(workloads, "wedged")

	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := execute(runConfig{workload: "wedged", seconds: time.Second}, &stdout, &stderr, 500*time.Millisecond)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("watchdog took %v", took)
	}
	if code != 3 {
		t.Fatalf("exit %d, want 3", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("wedged run printed %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "watchdog") {
		t.Fatalf("stderr %q does not name the watchdog", stderr.String())
	}
}

// TestCatalogue keeps BENCHMARK.json and METRICS.md in step with the
// metric catalogue the benchmark prints.
func TestCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		decl []struct{ Name, Unit string }
		cat  []metricDef
	}{{doc.EndToEnd, endToEndCatalogue}, {doc.PerLayer, perLayerCatalogue}} {
		if len(set.decl) != len(set.cat) {
			t.Fatalf("BENCHMARK.json declares %d metrics, catalogue has %d", len(set.decl), len(set.cat))
		}
		for i, m := range set.cat {
			if set.decl[i].Name != m.name || set.decl[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json entry %d = %+v, catalogue %+v", i, set.decl[i], m)
			}
			if !strings.Contains(string(md), "`"+m.name+"`") {
				t.Errorf("METRICS.md does not describe %s", m.name)
			}
		}
	}
}

// TestLedgerJoin checks the cluster-wide join fails a file prefetched
// by two nodes even when each node alone stays within the cap, and a
// file above the cap.
func TestLedgerJoin(t *testing.T) {
	for _, tc := range []struct {
		name      string
		hws       []map[blockdev.FileID]int
		maxHW     int
		multi     int
		wantFails int
	}{
		{"owner only", []map[blockdev.FileID]int{{1: 1, 2: 1}, {3: 1, 4: 0}, {1: 0}}, 1, 0, 0},
		{"two drivers", []map[blockdev.FileID]int{{1: 1}, {1: 1}, {}}, 1, 1, 1},
		{"over cap", []map[blockdev.FileID]int{{1: 2}, {}, {}}, 2, 0, 1},
	} {
		maxHW, multi, errs := joinLedgers(tc.hws, 1)
		if maxHW != tc.maxHW || multi != tc.multi || len(errs) != tc.wantFails {
			t.Errorf("%s: maxHW %d multi %d failures %q, want %d %d %d failures",
				tc.name, maxHW, multi, errs, tc.maxHW, tc.multi, tc.wantFails)
		}
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := unionLen(iv, 0, 100); got != 35 {
		t.Errorf("union = %d, want 35", got)
	}
	if got := unionLen(iv, 8, 25); got != 12 {
		t.Errorf("clipped union = %d, want 12", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}
