package heavykeeper_test

import (
	"errors"
	"fmt"

	heavykeeper "repro"
)

// The unified constructor returns the frontend the options describe; the
// caller programs against the one Summarizer interface either way.
func ExampleNew() {
	tk, err := heavykeeper.New(2, heavykeeper.WithSeed(1))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		tk.Add([]byte("elephant"))
	}
	tk.Add([]byte("mouse"))
	tk.AddN([]byte("volume-flow"), 3)
	for _, f := range tk.List() {
		fmt.Printf("%s %d\n", f.ID, f.Count)
	}
	// Output:
	// elephant 5
	// volume-flow 3
}

// WithShards returns the scale-out frontend: flows fan across per-core
// shards by flow hash, behind the same interface.
func ExampleNew_sharded() {
	s, err := heavykeeper.New(3, heavykeeper.WithShards(4), heavykeeper.WithSeed(1))
	if err != nil {
		panic(err)
	}
	batch := [][]byte{
		[]byte("a"), []byte("b"), []byte("a"), []byte("c"), []byte("a"), []byte("b"),
	}
	s.AddBatch(batch)
	fmt.Println(s.Query([]byte("a")), s.Query([]byte("b")), s.Query([]byte("c")))
	// Output:
	// 3 2 1
}

// WithAlgorithm swaps the backing engine without changing the caller: here
// Space-Saving, whose admit-all rule reports the newcomer at n̂_min + 1.
func ExampleWithAlgorithm() {
	ss, err := heavykeeper.New(10,
		heavykeeper.WithAlgorithm(heavykeeper.AlgorithmSpaceSaving),
		heavykeeper.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		ss.AddString("heavy")
	}
	ss.AddString("light")
	for f := range ss.All() {
		fmt.Printf("%s %d\n", f.ID, f.Count)
	}
	// Output:
	// heavy 4
	// light 1
}

// All iterates the report in descending order; the loop may stop early.
func ExampleSummarizer_all() {
	tk := heavykeeper.MustNew(10, heavykeeper.WithSeed(7))
	for i, id := range []string{"a", "b", "c", "d"} {
		tk.AddN([]byte(id), uint64(10-i))
	}
	for f := range tk.All() {
		if f.Count < 9 {
			break // only the heaviest hitters are interesting
		}
		fmt.Printf("%s %d\n", f.ID, f.Count)
	}
	// Output:
	// a 10
	// b 9
}

// Merge folds per-epoch (or per-measurement-point) summarizers into one —
// the paper's collector pattern. Engines without a merge return a typed
// error the caller can branch on.
func ExampleSummarizer_merge() {
	opts := []heavykeeper.Option{heavykeeper.WithSeed(3)}
	a := heavykeeper.MustNew(5, opts...)
	b := heavykeeper.MustNew(5, opts...)
	a.AddN([]byte("x"), 4)
	b.AddN([]byte("x"), 6)
	if err := a.Merge(b); err != nil {
		panic(err)
	}
	fmt.Println(a.Query([]byte("x")))

	f := heavykeeper.MustNew(5, heavykeeper.WithAlgorithm(heavykeeper.AlgorithmFrequent))
	err := f.Merge(heavykeeper.MustNew(5, heavykeeper.WithAlgorithm(heavykeeper.AlgorithmFrequent)))
	fmt.Println(errors.Is(err, heavykeeper.ErrMergeUnsupported))
	// Output:
	// 10
	// true
}

// Typed constructor errors support errors.Is, replacing string matching.
func ExampleNew_validation() {
	_, err := heavykeeper.New(0)
	fmt.Println(errors.Is(err, heavykeeper.ErrInvalidK))
	_, err = heavykeeper.New(10, heavykeeper.WithAlgorithm("not-registered"))
	fmt.Println(errors.Is(err, heavykeeper.ErrUnknownAlgorithm))
	// Output:
	// true
	// true
}

// The registry is open: Algorithms lists everything selectable, built-ins
// and user registrations alike.
func ExampleAlgorithms() {
	for _, name := range heavykeeper.Algorithms() {
		fmt.Println(name)
	}
	// Output:
	// css
	// frequent
	// heavyguardian
	// heavykeeper
	// heavykeeper-basic
	// heavykeeper-minimum
	// lossycounting
	// spacesaving
}
