package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %v, want 1.5", got)
	}
}

func TestReport(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	line := func(cpu, mpps string) string {
		return `{"correct":true,"attempted":10,"failed":0,"metrics":{"daemon_cpu_ns_per_rec":{"value":` +
			cpu + `,"unit":"ns"},"ingest_mpps":{"value":` + mpps + `,"unit":"Mpps"}}}`
	}
	specPath := write("spec.json", `{"end_to_end":[
		{"name":"daemon_cpu_ns_per_rec","better":"lower","bound":0.25},
		{"name":"ingest_mpps","better":"higher","bound":0.25}]}`)
	var baseLines, changeLines []string
	for i := 0; i < 10; i++ {
		baseLines = append(baseLines, line("110", "10"))
		// The change halves CPU per record but loses 40% of the rate.
		changeLines = append(changeLines, line("55", "6"))
	}
	// A crashed run loses its pair.
	changeLines[3] = "panic: boom"
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	base, err := readResults(write("base.jsonl", baseLines...))
	if err != nil {
		t.Fatal(err)
	}
	change, err := readResults(write("change.jsonl", changeLines...))
	if err != nil {
		t.Fatal(err)
	}
	sums := summarize(sp, base, change)
	if len(sums) != 2 {
		t.Fatalf("%d metrics summarized, want 2", len(sums))
	}
	cpu, mpps := sums[0], sums[1]
	if cpu.pairs != 9 || cpu.wins != 9 || cpu.verdict() != "gain" {
		t.Errorf("cpu: %d/%d wins, verdict %q; want 9/9 and gain", cpu.wins, cpu.pairs, cpu.verdict())
	}
	if mpps.wins != 0 || mpps.verdict() != "loss, over bound" {
		t.Errorf("mpps: %d wins, verdict %q; want 0 and loss, over bound", mpps.wins, mpps.verdict())
	}
	var out bytes.Buffer
	if err := report(&out, sp, base, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "change: 9 of 10 runs reported") {
		t.Errorf("report lacks the lost run:\n%s", out.String())
	}
}
