// Command benchab summarizes an interleaved A/B comparison of the
// end-to-end benchmark in bench/. Each input file holds one side's
// one-line results (the last line `bash bench/run.sh --workload W ...`
// prints), one line per pair and in pair order, so line i of both files
// ran on the same seed back to back. For every end-to-end metric it
// prints both sides' median and quartiles, the change of the median, and
// how many pairs the change won, with the direction of "better" and the
// bounds taken from BENCHMARK.json.
//
// Usage:
//
//	benchab -spec BENCHMARK.json base.jsonl change.jsonl
//
// make bench-ab runs the pairs and calls it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// result is the benchmark's one-line result.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec lists the end-to-end metrics: the ones an untraced run reports.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming each metric's better direction and bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab [-spec BENCHMARK.json] base.jsonl change.jsonl")
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
	base, err := readResults(flag.Arg(0))
	if err == nil {
		var change []*result
		if change, err = readResults(flag.Arg(1)); err == nil {
			err = report(os.Stdout, sp, base, change)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// readResults parses one result per line. A line that is not a result
// (a run that crashed before printing one) reads as nil: a lost pair.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r := new(result)
		if json.Unmarshal(sc.Bytes(), r) != nil || r.Metrics == nil {
			r = nil
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quantile interpolates linearly between the sorted samples, of which
// there is at least one.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is one metric's comparison over the pairs both sides completed.
type summary struct {
	name, unit, better string
	bound              float64
	base, change       [3]float64 // q1, median, q3
	wins, pairs        int        // pairs the change won, pairs compared
}

// verdict applies bench/README.md's rule. A gain needs the change to win
// at least 9 pairs in 10 and the medians to differ by more than the base's
// quartile spread; a loss is the same rule the other way round. A bounded
// metric whose median got worse by more than its bound is over its bound.
func (s summary) verdict() string {
	sign := 1.0
	if s.better == "lower" {
		sign = -1
	}
	gain := sign * (s.change[1] - s.base[1])
	spread := s.base[2] - s.base[0]
	switch {
	case s.pairs == 0:
		return "-"
	case 10*s.wins >= 9*s.pairs && gain > spread:
		return "gain"
	case 10*(s.pairs-s.wins) >= 9*s.pairs && -gain > spread:
		if s.bound > 0 && -gain > s.bound*math.Abs(s.base[1]) {
			return "loss, over bound"
		}
		return "loss"
	case s.bound > 0 && -gain > s.bound*math.Abs(s.base[1]):
		return "over bound"
	}
	return "-"
}

func summarize(sp spec, base, change []*result) []summary {
	var out []summary
	for _, m := range sp.EndToEnd {
		s := summary{name: m.Name, better: m.Better, bound: m.Bound}
		var b, c []float64
		for i := 0; i < min(len(base), len(change)); i++ {
			if base[i] == nil || change[i] == nil {
				continue
			}
			bv, okB := base[i].Metrics[m.Name]
			cv, okC := change[i].Metrics[m.Name]
			if !okB || !okC {
				continue
			}
			s.unit = bv.Unit
			b, c = append(b, bv.Value), append(c, cv.Value)
			if (m.Better == "lower" && cv.Value < bv.Value) || (m.Better == "higher" && cv.Value > bv.Value) {
				s.wins++
			}
		}
		if s.pairs = len(b); s.pairs == 0 {
			continue
		}
		sort.Float64s(b)
		sort.Float64s(c)
		for i, q := range []float64{0.25, 0.5, 0.75} {
			s.base[i], s.change[i] = quantile(b, q), quantile(c, q)
		}
		out = append(out, s)
	}
	return out
}

func report(w io.Writer, sp spec, base, change []*result) error {
	for _, side := range []struct {
		name string
		rs   []*result
	}{{"base", base}, {"change", change}} {
		runs, correct, attempted, failed := 0, 0, 0, 0
		for _, r := range side.rs {
			if r == nil {
				continue
			}
			runs++
			attempted += r.Attempted
			failed += r.Failed
			if r.Correct {
				correct++
			}
		}
		fmt.Fprintf(w, "%s: %d of %d runs reported, %d correct; operations %d attempted, %d failed\n",
			side.name, runs, len(side.rs), correct, attempted, failed)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tbase q1\tmedian\tq3\tchange q1\tmedian\tq3\tmedian Δ\twins\tverdict\t")
	for _, s := range summarize(sp, base, change) {
		delta := "n/a"
		if s.base[1] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(s.change[1]-s.base[1])/math.Abs(s.base[1]))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%s\t%d/%d\t%s\t\n",
			s.name, s.unit, s.better, s.base[0], s.base[1], s.base[2],
			s.change[0], s.change[1], s.change[2], delta, s.wins, s.pairs, s.verdict())
	}
	return tw.Flush()
}
