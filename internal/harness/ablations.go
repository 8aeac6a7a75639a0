package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/streamsummary"
	"repro/internal/topk"
)

// Ablation runs one of the repository's design-choice studies — experiments
// beyond the paper's figures that quantify this implementation's design
// choices (decay function, array count, fingerprint width, the two
// optimizations, auto-expansion).
func (r *Runner) Ablation(id string) (*Table, error) {
	switch id {
	case "decay-functions":
		return r.ablationDecay(), nil
	case "depth":
		return r.ablationDepth(), nil
	case "fingerprint-bits":
		return r.ablationFingerprint(), nil
	case "optimizations":
		return r.ablationOptimizations(), nil
	case "expansion":
		return r.ablationExpansion(), nil
	default:
		return nil, fmt.Errorf("harness: unknown ablation %q", id)
	}
}

// AblationIDs lists the available ablations.
func AblationIDs() []string {
	return []string{
		"decay-functions", "depth", "fingerprint-bits",
		"optimizations", "expansion",
	}
}

// evalTracker replays t through tr and scores the report against the
// cached oracle.
func (r *Runner) evalTracker(t *gen.Trace, tr *topk.Tracker, k int) scores {
	t.ForEach(tr.Insert)
	top := tr.Top()
	reported := make([]metrics.Entry, len(top))
	for i, e := range top {
		reported[i] = metrics.Entry{Key: e.Key, Count: e.Count}
	}
	o := r.oracle(t)
	return scores{
		precision: metrics.PrecisionAtK(reported, o, k),
		are:       metrics.ARE(reported, o),
		aae:       metrics.AAE(reported, o),
	}
}

// hkWidth converts a byte budget to the sketch width used by the paper
// sizing (k summary entries + d arrays of 6-byte buckets).
func hkWidth(budget, k, d int) int {
	rest := budget - k*streamsummary.BytesPerEntry
	w := int(float64(rest) / (float64(d) * core.BucketBytes(16, 32)))
	if w < 1 {
		w = 1
	}
	return w
}

// ablationDecay compares the three decay functions of §III-B at a tight
// budget; the paper states "the performances are similar with different
// decay functions".
func (r *Runner) ablationDecay() *Table {
	t := r.trace(gen.Campus(r.cfg.Seed))
	const k, budget = 100, 15 * 1024
	funcs := []struct {
		name string
		f    core.DecayFunc
	}{
		{"exp b^-C (b=1.08)", core.ExpDecay(1.08)},
		{"poly C^-b (b=1.08)", core.PolyDecay(1.08)},
		{"sigmoid (scale=8)", core.SigmoidDecay(8)},
	}
	tab := NewTable("Ablation: decay functions (Campus, 15KB, k=100)", "Decay", []string{"Precision", "ARE", "AAE"})
	for _, fn := range funcs {
		tr := topk.MustNew(topk.Options{
			K: k, Version: topk.Parallel,
			Sketch: core.Config{D: 2, W: hkWidth(budget, k, 2), Seed: r.cfg.Seed, Decay: fn.f},
		})
		s := r.evalTracker(t, tr, k)
		tab.AddRow(fn.name, []float64{s.precision, s.are, s.aae})
	}
	return tab
}

// ablationDepth sweeps the array count d at fixed total memory: more arrays
// mean more chances to dodge collisions but proportionally narrower arrays.
func (r *Runner) ablationDepth() *Table {
	t := r.trace(gen.Campus(r.cfg.Seed))
	const k, budget = 100, 20 * 1024
	tab := NewTable("Ablation: number of arrays d at 20KB (Campus, k=100)", "d", []string{"Precision", "ARE"})
	for _, d := range []int{1, 2, 3, 4} {
		tr := topk.MustNew(topk.Options{
			K: k, Version: topk.Parallel,
			Sketch: core.Config{D: d, W: hkWidth(budget, k, d), Seed: r.cfg.Seed},
		})
		s := r.evalTracker(t, tr, k)
		tab.AddRow(fmt.Sprintf("%d", d), []float64{s.precision, s.are})
	}
	return tab
}

// ablationFingerprint sweeps fingerprint width at fixed total memory:
// narrower fingerprints buy more buckets but suffer more collisions.
func (r *Runner) ablationFingerprint() *Table {
	t := r.trace(gen.Campus(r.cfg.Seed))
	const k, budget = 100, 20 * 1024
	tab := NewTable("Ablation: fingerprint width at 20KB (Campus, k=100)", "Bits", []string{"Precision", "ARE"})
	for _, bits := range []uint{8, 12, 16, 24} {
		rest := budget - k*streamsummary.BytesPerEntry
		w := int(float64(rest) / (2 * core.BucketBytes(bits, 32)))
		if w < 1 {
			w = 1
		}
		tr := topk.MustNew(topk.Options{
			K: k, Version: topk.Parallel,
			Sketch: core.Config{D: 2, W: w, FingerprintBits: bits, Seed: r.cfg.Seed},
		})
		s := r.evalTracker(t, tr, k)
		tab.AddRow(fmt.Sprintf("%d", bits), []float64{s.precision, s.are})
	}
	return tab
}

// ablationOptimizations toggles Optimization I (collision detection) and
// II (selective increment) on the Parallel version. The sketch uses 6-bit
// fingerprints so that fingerprint collisions — the failure mode the
// optimizations target — actually occur at this workload size; with the
// default 16 bits collisions are so rare that all variants coincide.
func (r *Runner) ablationOptimizations() *Table {
	t := r.trace(gen.Campus(r.cfg.Seed))
	const k, budget = 100, 15 * 1024
	variants := []struct {
		name        string
		optI, optII bool
	}{
		{"both on", true, true},
		{"no Opt I", false, true},
		{"no Opt II", true, false},
		{"both off", false, false},
	}
	tab := NewTable("Ablation: Optimizations I & II (Campus, 15KB, k=100, 6-bit fingerprints)", "Variant", []string{"Precision", "ARE", "AAE"})
	for _, v := range variants {
		tr := topk.MustNew(topk.Options{
			K: k, Version: topk.Parallel,
			DisableOptI:  !v.optI,
			DisableOptII: !v.optII,
			Sketch:       core.Config{D: 2, W: hkWidth(budget, k, 2), FingerprintBits: 6, Seed: r.cfg.Seed},
		})
		s := r.evalTracker(t, tr, k)
		tab.AddRow(v.name, []float64{s.precision, s.are, s.aae})
	}
	return tab
}

// ablationExpansion builds the §III-F worst case — elephants arriving after
// every bucket is saturated — and measures how auto-expansion recovers the
// late arrivals.
func (r *Runner) ablationExpansion() *Table {
	const k = 100
	const early, late = 50, 50
	const perElephant = 2000
	const mice = 100000

	// Two-phase stream: early elephants + mice fill and saturate the
	// sketch, then late elephants arrive.
	var stream [][]byte
	exact := map[string]uint64{}
	add := func(key string, n int) {
		for i := 0; i < n; i++ {
			stream = append(stream, []byte(key))
		}
		exact[key] += uint64(n)
	}
	for e := 0; e < early; e++ {
		add(fmt.Sprintf("early-%d", e), perElephant)
	}
	for m := 0; m < mice; m++ {
		add(fmt.Sprintf("mouse-%d", m), 1)
	}
	// Shuffle phase one deterministically.
	rng := newShuffler(r.cfg.Seed)
	rng.shuffle(stream)
	phase1 := len(stream)
	for e := 0; e < late; e++ {
		add(fmt.Sprintf("late-%d", e), perElephant)
	}
	rng.shufflePart(stream, phase1)

	o := metrics.FromCounts(exact)
	trueTop := o.TopKSet(k)

	tab := NewTable("Ablation: §III-F auto-expansion with late-arriving elephants", "Expansion", []string{"Precision", "Arrays", "Late flows found"})
	for _, enabled := range []bool{false, true} {
		cfg := core.Config{D: 2, W: 96, Seed: r.cfg.Seed, LargeC: 50}
		if enabled {
			cfg.ExpandThreshold = 500
			cfg.MaxArrays = 6
		}
		tr := topk.MustNew(topk.Options{K: k, Version: topk.Parallel, Sketch: cfg})
		for _, p := range stream {
			tr.Insert(p)
		}
		top := tr.Top()
		reported := make([]metrics.Entry, len(top))
		lateFound := 0
		for i, e := range top {
			reported[i] = metrics.Entry{Key: e.Key, Count: e.Count}
			if len(e.Key) > 5 && e.Key[:5] == "late-" {
				lateFound++
			}
		}
		name := "off"
		if enabled {
			name = "on"
		}
		tab.AddRow(name, []float64{
			metrics.Precision(reported, trueTop),
			float64(tr.Sketch().D()),
			float64(lateFound),
		})
	}
	return tab
}
