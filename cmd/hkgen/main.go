// Command hkgen generates the synthetic packet traces of the HeavyKeeper
// reproduction (campus, CAIDA and Zipf workloads; see package internal/gen) and
// writes them in the binary trace format read by hktopk and hkbench.
//
// Usage:
//
//	hkgen -dataset campus -scale 0.1 -out campus.hktr
//	hkgen -dataset zipf -skew 1.8 -scale 0.05 -out zipf18.hktr
//	hkgen -info -in campus.hktr
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/trace"
)

func main() {
	var (
		dataset = flag.String("dataset", "campus", "workload: campus, caida, or zipf")
		skew    = flag.Float64("skew", 1.0, "zipf skew (zipf dataset only)")
		scale   = flag.Float64("scale", 0.02, "scale factor on the paper's packet/flow counts")
		seed    = flag.Uint64("seed", 31337, "generation seed")
		out     = flag.String("out", "", "output trace file (required unless -info)")
		info    = flag.Bool("info", false, "print statistics of an existing trace instead of generating")
		in      = flag.String("in", "", "input trace file for -info")
		topN    = flag.Int("top", 10, "number of head flows to show with -info")
	)
	flag.Parse()

	if *info {
		if *in == "" {
			fatal("hkgen: -info requires -in")
		}
		showInfo(*in, *topN)
		return
	}
	if *out == "" {
		fatal("hkgen: -out is required")
	}

	var spec gen.Spec
	switch *dataset {
	case "campus":
		spec = gen.Campus(*seed)
	case "caida":
		spec = gen.CAIDA(*seed)
	case "zipf":
		spec = gen.Synthetic(*skew, *seed)
	default:
		fatal(fmt.Sprintf("hkgen: unknown dataset %q (want campus, caida, or zipf)", *dataset))
	}
	spec = spec.Scale(*scale)
	fmt.Fprintf(os.Stderr, "generating %s: %d packets, %d flows, skew %.2f\n",
		spec.Name, spec.Packets, spec.Flows, spec.Skew)
	tr, err := gen.Generate(spec)
	if err != nil {
		fatal(err.Error())
	}
	if err := trace.WriteFile(*out, tr); err != nil {
		fatal(err.Error())
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func showInfo(path string, topN int) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("name:    %s\n", tr.Spec.Name)
	fmt.Printf("packets: %d\n", tr.Len())
	fmt.Printf("flows:   %d\n", tr.Flows())
	fmt.Printf("skew:    %.2f\n", tr.Spec.Skew)
	fmt.Printf("id kind: %d bytes\n", tr.Spec.Kind.Size())
	fmt.Printf("top %d flows:\n", topN)
	for rank, i := range tr.TopK(topN) {
		fmt.Printf("  #%-3d %x  %d packets\n", rank+1, tr.IDs[i], tr.Count(i))
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
