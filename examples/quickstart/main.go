// Quickstart: find the top-10 flows of a synthetic packet stream with the
// public heavykeeper API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"

	"repro/internal/gen"
)

func main() {
	// Track the 10 largest flows in a 64 KB structure.
	tk, err := heavykeeper.New(10,
		heavykeeper.WithMemory(64<<10),
		heavykeeper.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A skewed workload: 200k packets over 20k flows (5-tuple IDs).
	tr := gen.MustGenerate(gen.Spec{
		Name: "quickstart", Packets: 200_000, Flows: 20_000,
		Skew: 1.1, Kind: gen.IDFiveTuple, Seed: 7,
	})

	tr.ForEach(tk.Add)

	exact := tr.ExactCounts()
	fmt.Println("top-10 flows (estimate vs. exact):")
	rank := 0
	for f := range tk.All() { // the top-k in descending order
		rank++
		fmt.Printf("  #%-2d %x  est=%-6d true=%d\n",
			rank, f.ID, f.Count, exact[string(f.ID)])
	}
	st := tk.Stats()
	fmt.Printf("\nsketch events: %d packets, %d decays, %d replacements\n",
		st.Packets, st.Decays, st.Replacements)
}
