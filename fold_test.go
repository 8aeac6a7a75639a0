package heavykeeper

import (
	"fmt"
	"slices"
	"testing"
)

func flowsOf(pairs ...any) []Flow {
	var out []Flow
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Flow{ID: []byte(pairs[i].(string)), Count: uint64(pairs[i+1].(int))})
	}
	return out
}

func TestFoldFlows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k       int
		keepMax bool
		lists   [][]Flow
		want    []Flow
	}{
		{"sum", 2, false,
			[][]Flow{flowsOf("f1", 100, "f2", 50), flowsOf("f1", 30, "f3", 90)},
			flowsOf("f1", 130, "f3", 90)},
		{"max", 5, true,
			[][]Flow{flowsOf("f1", 100), flowsOf("f1", 70, "f2", 80)},
			flowsOf("f1", 100, "f2", 80)},
		{"max ties broken by ID", 2, true,
			[][]Flow{flowsOf("zz", 10, "mm", 10), flowsOf("aa", 10, "zz", 7)},
			flowsOf("aa", 10, "mm", 10)},
		{"max ties broken by ID, lists swapped", 2, true,
			[][]Flow{flowsOf("aa", 10, "zz", 7), flowsOf("zz", 10, "mm", 10)},
			flowsOf("aa", 10, "mm", 10)},
		{"sum ties broken by ID", 3, false,
			[][]Flow{flowsOf("c", 4, "b", 1), flowsOf("b", 3, "a", 4)},
			flowsOf("a", 4, "b", 4, "c", 4)},
		{"one list is ordered and cut", 2, false,
			[][]Flow{flowsOf("b", 1, "c", 5, "a", 1)},
			flowsOf("c", 5, "a", 1)},
		{"cut at k", 1, false,
			[][]Flow{flowsOf("a", 3), flowsOf("b", 2), flowsOf("c", 1)},
			flowsOf("a", 3)},
		{"k larger than the union", 10, true,
			[][]Flow{flowsOf("a", 3, "b", 1), flowsOf("b", 2)},
			flowsOf("a", 3, "b", 2)},
		{"empty lists", 3, false, [][]Flow{nil, {}}, nil},
		{"no lists", 3, true, nil, nil},
		{"k below 1", 0, false, [][]Flow{flowsOf("a", 1)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The fold must leave its inputs as they were.
			before := make([][]Flow, len(tc.lists))
			for i, l := range tc.lists {
				before[i] = slices.Clone(l)
			}
			got := FoldFlows(tc.k, tc.keepMax, tc.lists...)
			if !flowsEqual(got, tc.want) {
				t.Errorf("FoldFlows = %v, want %v", got, tc.want)
			}
			for i, l := range tc.lists {
				if !flowsEqual(l, before[i]) {
					t.Errorf("list %d changed to %v", i, l)
				}
			}
			// The result owns its counts: a caller may reuse the inputs.
			for _, l := range tc.lists {
				for i := range l {
					l[i].Count = 999
				}
			}
			if !flowsEqual(got, tc.want) {
				t.Errorf("result aliased the inputs' counts: %v", got)
			}
		})
	}
}

// TestFoldFlowsManyLists checks the fold against a map-and-sort reference
// on overlapping lists large enough to make the index probe and wrap.
func TestFoldFlowsManyLists(t *testing.T) {
	for _, keepMax := range []bool{false, true} {
		var lists [][]Flow
		ref := map[string]uint64{}
		for l := 0; l < 5; l++ {
			var list []Flow
			for i := 0; i < 300; i++ {
				if (i+l)%3 == 0 {
					continue
				}
				id, c := fmt.Sprintf("flow-%03d", i), uint64((i*7+l*13)%50+1)
				list = append(list, Flow{ID: []byte(id), Count: c})
				if keepMax {
					ref[id] = max(ref[id], c)
				} else {
					ref[id] += c
				}
			}
			lists = append(lists, list)
		}
		got := FoldFlows(100, keepMax, lists...)
		if len(got) != 100 {
			t.Fatalf("keepMax=%v: %d flows, want 100", keepMax, len(got))
		}
		for i, f := range got {
			if f.Count != ref[string(f.ID)] {
				t.Errorf("keepMax=%v: %s = %d, want %d", keepMax, f.ID, f.Count, ref[string(f.ID)])
			}
			if i > 0 && (got[i-1].Count < f.Count || got[i-1].Count == f.Count && string(got[i-1].ID) >= string(f.ID)) {
				t.Errorf("keepMax=%v: %v before %v", keepMax, got[i-1], f)
			}
		}
		// Nothing left out beats the last flow kept.
		last := got[len(got)-1]
		kept := map[string]bool{}
		for _, f := range got {
			kept[string(f.ID)] = true
		}
		for id, c := range ref {
			if !kept[id] && (c > last.Count || c == last.Count && id < string(last.ID)) {
				t.Errorf("keepMax=%v: %s (%d) left out, %v kept", keepMax, id, c, last)
			}
		}
	}
}

func flowsEqual(a, b []Flow) bool {
	return slices.EqualFunc(a, b, func(x, y Flow) bool {
		return string(x.ID) == string(y.ID) && x.Count == y.Count
	})
}
