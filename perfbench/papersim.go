package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// paper-sim: the simulator that regenerates the paper's figures, run
// single-threaded over a fixed cell set: full-scale CHARISMA and
// Sprite × PAFS/xFS × {NP, Ln_Agr_OBA, Ln_Agr_IS_PPM:1} × {1, 4} MB.
// The cell set runs once on traces generated from the run's seed and
// once on traces from goldenSeed, whose results must match the golden
// records kept beside the benchmark.
const (
	goldenSeed = 1
	simSetups  = 5 // set-ups per run; setup_s is their median
)

var (
	simWorkloads = []experiment.WorkloadKind{experiment.Charisma, experiment.Sprite}
	simFS        = []experiment.FSKind{experiment.PAFS, experiment.XFS}
	simAlgs      = []core.AlgSpec{core.SpecNP, core.SpecLnAgrOBA, core.SpecLnAgrISPPM1}
	simCacheMB   = []int{1, 4}
)

// simCell is one cell of the set, bound to its seed's trace.
type simCell struct {
	seed  uint64
	cell  experiment.Cell
	tr    *workload.Trace
	mach  machine.Config
	steps int
	group string // per-layer group: pafs_charisma, xfs_sprite, ...

	ns     []int64 // wall time of each run
	cpu    []int64 // process CPU time of each run
	record string  // result record of the first run
}

func (c *simCell) key() string { return fmt.Sprintf("seed=%d %s", c.seed, c.cell) }

// simTraces generates the full-scale CHARISMA and Sprite traces for
// one seed.
func simTraces(seed uint64) (ch, sp *workload.Trace, err error) {
	s := experiment.FullScale()
	s.Charisma.Seed, s.Sprite.Seed = seed, seed
	if ch, err = workload.GenerateCharisma(s.Charisma); err != nil {
		return nil, nil, err
	}
	if sp, err = workload.GenerateSprite(s.Sprite); err != nil {
		return nil, nil, err
	}
	return ch, sp, nil
}

// simCells builds the cell set for the given seeds. Smoke runs keep
// only the (fast) Sprite cells.
func simCells(seeds []uint64, traces map[uint64][2]*workload.Trace, smoke bool) []*simCell {
	scale := experiment.FullScale()
	var cells []*simCell
	for _, seed := range seeds {
		for _, wl := range simWorkloads {
			if smoke && wl != experiment.Sprite {
				continue
			}
			tr, mach := traces[seed][0], scale.PM
			if wl == experiment.Sprite {
				tr, mach = traces[seed][1], scale.NOW
			}
			for _, fs := range simFS {
				for _, alg := range simAlgs {
					for _, mb := range simCacheMB {
						cells = append(cells, &simCell{
							seed:  seed,
							cell:  experiment.Cell{FS: fs, Workload: wl, Alg: alg, CacheMB: mb},
							tr:    tr,
							mach:  mach,
							steps: tr.TotalSteps(),
							group: fmt.Sprintf("%s_%s", fsName(fs), wlName(wl)),
						})
					}
				}
			}
		}
	}
	return cells
}

func fsName(fs experiment.FSKind) string {
	if fs == experiment.PAFS {
		return "pafs"
	}
	return "xfs"
}

func wlName(wl experiment.WorkloadKind) string {
	if wl == experiment.Charisma {
		return "charisma"
	}
	return "sprite"
}

// countingTracer counts simulator trace records.
type countingTracer struct{ n uint64 }

func (t *countingTracer) Record(sim.TraceRecord) { t.n++ }

// runCell simulates one cell and returns its result record.
func (c *simCell) run(tracer sim.Tracer) (string, experiment.Result, time.Duration, error) {
	cpu0 := cpuNow()
	t0 := time.Now()
	r, err := experiment.RunTraceObserved(c.tr, c.mach, c.cell, experiment.FullScale().WarmFraction, tracer)
	d := time.Since(t0)
	if tracer == nil {
		c.ns = append(c.ns, int64(d))
		c.cpu = append(c.cpu, int64(cpuNow()-cpu0))
	}
	if err != nil {
		return "", r, d, fmt.Errorf("cell %s: %w", c.key(), err)
	}
	var buf bytes.Buffer
	if err := experiment.WriteResultJSONL(&buf, r); err != nil {
		return "", r, d, err
	}
	return buf.String(), r, d, nil
}

// checkCell applies the structural linearity checks: PAFS keeps at
// most one prefetch in flight per file, xFS's per-node chains on
// CHARISMA overlap, and NP never prefetches.
func checkCell(c *simCell, r experiment.Result) error {
	hw := r.MaxFilePrefetchHW
	switch {
	case c.cell.Alg.Kind == core.AlgNone:
		if hw != 0 {
			return fmt.Errorf("%s: NP prefetch high-water %d, want 0", c.key(), hw)
		}
	case c.cell.FS == experiment.PAFS:
		if hw != 1 {
			return fmt.Errorf("%s: PAFS prefetch high-water %d, want 1", c.key(), hw)
		}
	case c.cell.Workload == experiment.Charisma:
		if hw <= 1 {
			return fmt.Errorf("%s: xFS CHARISMA prefetch high-water %d, want > 1", c.key(), hw)
		}
	}
	return nil
}

// loadGolden reads the golden records, keyed like simCell.key.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden records: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var k struct {
			Seed   uint64          `json:"seed"`
			Cell   string          `json:"cell"`
			Record json.RawMessage `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &k); err != nil {
			return nil, fmt.Errorf("golden records %s: %w", path, err)
		}
		out[fmt.Sprintf("seed=%d %s", k.Seed, k.Cell)] = string(k.Record) + "\n"
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden records %s: %w", path, err)
	}
	return out, nil
}

// writeGolden records the golden-seed cells' results.
func writeGolden(path string, cells []*simCell) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range cells {
		if c.seed != goldenSeed {
			continue
		}
		rec := json.RawMessage(bytes.TrimSpace([]byte(c.record)))
		if err := enc.Encode(map[string]any{"seed": c.seed, "cell": c.cell.String(), "record": rec}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func runPaperSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	golden, err := loadGolden(cfg.golden)
	if err != nil && !cfg.writeGolden {
		return nil, err
	}
	seeds := []uint64{cfg.seed}
	if cfg.seed != goldenSeed {
		seeds = append(seeds, goldenSeed)
	}

	var setups []float64
	traces := map[uint64][2]*workload.Trace{}
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		for _, seed := range seeds {
			ch, sp, err := simTraces(seed)
			if err != nil {
				return nil, err
			}
			traces[seed] = [2]*workload.Trace{ch, sp}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	cells := simCells(seeds, traces, cfg.smoke)

	// Every cell runs at least once; the set then repeats until the
	// measured time is spent. Under --trace each run is followed by a
	// run of the same cell with a counting tracer attached.
	var (
		runs, steps       int64
		tracedNs, plainNs int64
		tracerRecords     uint64
		tracedSteps       int64
	)
	before := readProc()
	start := time.Now()
	for i := 0; i < len(cells) || time.Since(start) < cfg.seconds; i++ {
		c := cells[i%len(cells)]
		rec, r, d, err := c.run(nil)
		if err != nil {
			return nil, err
		}
		runs++
		steps += int64(c.steps)
		if c.record == "" {
			c.record = rec
			if err := checkCell(c, r); err != nil {
				o.fail(1, "%v", err)
			}
			if want, ok := golden[c.key()]; c.seed == goldenSeed && !cfg.writeGolden {
				o.check(ok, "%s: no golden record", c.key())
				o.check(!ok || want == rec, "%s: result differs from its golden record", c.key())
			}
		} else {
			o.check(rec == c.record, "%s: repeated run gave a different result", c.key())
		}
		if cfg.trace {
			ct := &countingTracer{}
			trec, _, td, err := c.run(ct)
			if err != nil {
				return nil, err
			}
			o.check(trec == c.record, "%s: traced run gave a different result", c.key())
			tracedNs += int64(td)
			plainNs += int64(d)
			tracerRecords += ct.n
			tracedSteps += int64(c.steps)
		}
	}
	proc := readProc().sub(before)
	o.attempted = runs

	if cfg.writeGolden {
		if err := writeGolden(cfg.golden, cells); err != nil {
			return nil, err
		}
		o.report["golden_written"] = cfg.golden
	}

	// Every figure is taken over the cell set from each cell's median
	// run, so how many cells repeated inside the window does not change
	// the mix.
	var setSteps int64
	var setNs, setCPU float64
	var perStepUs []float64
	groupMs := map[string][]float64{}
	for _, c := range cells {
		ns := median(durationsUs(c.ns)) * 1e3
		setSteps += int64(c.steps)
		setNs += ns
		setCPU += median(durationsUs(c.cpu)) * 1e3
		perStepUs = append(perStepUs, ns/1e3/float64(c.steps))
		groupMs[c.group] = append(groupMs[c.group], ns/1e6)
	}
	stepsPerS := float64(setSteps) / (setNs / 1e9)
	o.e2e("setup_s", median(setups))
	o.e2e("ops_per_s", stepsPerS)
	o.e2e("op_p50_us", quantile(perStepUs, 0.5))
	o.e2e("op_p99_us", quantile(perStepUs, 0.99))
	o.e2e("cpu_us_per_op", setCPU/1e3/float64(setSteps))
	o.report["sim_steps_per_s"] = metricVal{stepsPerS, "1/s"}
	o.report["cells"] = len(cells)
	o.report["cell_runs"] = runs
	o.report["simulated_steps"] = steps
	o.report["setup_samples"] = len(setups)
	o.report["golden_seed"] = goldenSeed

	o.setRuntimeLayers(proc, steps)
	o.layer("runtime.allocs_per_step", perOp(float64(proc.mallocs), steps))
	for g, ms := range groupMs {
		o.layer("experiment.cell_ms."+g, mean(ms))
	}
	if cfg.trace {
		o.layer("sim.events_per_step", perOp(float64(tracerRecords), tracedSteps))
		o.layer("trace.overhead_frac", 1-float64(plainNs)/float64(tracedNs))
	}
	return o, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
