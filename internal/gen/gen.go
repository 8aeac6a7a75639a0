// Package gen generates the packet workloads of the HeavyKeeper paper's
// evaluation (§VI-A):
//
//   - a "campus" trace: 10M packets over 1M flows identified by 5-tuples;
//   - a "CAIDA" trace: 10M packets over ~4.2M flows identified by
//     source/destination IP pairs;
//   - synthetic Zipf traces: 32M packets with skew 0.6–3.0 and 4-byte
//     flow IDs, following the paper's skew definition
//     f_i = N / (i^γ · δ(γ)), δ(γ) = Σ_j 1/j^γ.
//
// The real captures are proprietary; these generators stand in for them:
// they reproduce the population statistics (packet count, flow count, ID
// format, heavy-tailed size distribution) that the measured algorithms are
// sensitive to. Every generator is deterministic
// under its seed. A Spec's Scale field shrinks packet and flow counts
// proportionally for laptop-speed runs while preserving the distribution
// shape.
package gen

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xrand"
)

// IDKind selects the flow identifier format.
type IDKind int

const (
	// IDFiveTuple is a 13-byte src IP, dst IP, src port, dst port, protocol
	// identifier — the campus trace's flow definition.
	IDFiveTuple IDKind = iota
	// IDTwoTuple is an 8-byte source+destination IP pair — the CAIDA
	// trace's flow definition.
	IDTwoTuple
	// IDWord is a 4-byte synthetic identifier — the paper's synthetic
	// datasets use 4-byte packets.
	IDWord
)

// Size returns the identifier length in bytes.
func (k IDKind) Size() int {
	switch k {
	case IDFiveTuple:
		return 13
	case IDTwoTuple:
		return 8
	case IDWord:
		return 4
	default:
		panic(fmt.Sprintf("gen: unknown IDKind %d", int(k)))
	}
}

// Spec describes a workload.
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Packets is the total packet count N.
	Packets int
	// Flows is the flow population M. Every flow appears at least once.
	Flows int
	// Skew is the Zipf exponent γ applied to the flow-size distribution.
	Skew float64
	// Kind is the flow identifier format.
	Kind IDKind
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the spec for consistency.
func (s Spec) Validate() error {
	if s.Packets < 1 {
		return fmt.Errorf("gen: Packets = %d, must be >= 1", s.Packets)
	}
	if s.Flows < 1 {
		return fmt.Errorf("gen: Flows = %d, must be >= 1", s.Flows)
	}
	if s.Flows > s.Packets {
		return fmt.Errorf("gen: Flows = %d > Packets = %d; every flow needs a packet", s.Flows, s.Packets)
	}
	if s.Skew < 0 {
		return fmt.Errorf("gen: Skew = %v, must be >= 0", s.Skew)
	}
	return nil
}

// Scale returns a copy of the spec with packet and flow counts multiplied by
// f (minimum 1 each), for laptop-sized runs of the paper's 10M–32M packet
// experiments.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Packets = int(float64(s.Packets) * f)
	if out.Packets < 1 {
		out.Packets = 1
	}
	out.Flows = int(float64(s.Flows) * f)
	if out.Flows < 1 {
		out.Flows = 1
	}
	if out.Flows > out.Packets {
		out.Flows = out.Packets
	}
	return out
}

// Campus returns the campus-trace spec (§VI-A dataset 1): 10M packets, 1M
// flows, 5-tuple IDs. The skew 1.0 heavy tail matches campus-style traffic.
func Campus(seed uint64) Spec {
	return Spec{Name: "campus", Packets: 10_000_000, Flows: 1_000_000, Skew: 1.0, Kind: IDFiveTuple, Seed: seed}
}

// CAIDA returns the CAIDA-trace spec (§VI-A dataset 2): 10M packets, 4.2M
// flows, src/dst IP IDs. The lower skew reflects the much mousier backbone
// mix (2.4 packets per flow on average).
func CAIDA(seed uint64) Spec {
	return Spec{Name: "caida", Packets: 10_000_000, Flows: 4_200_000, Skew: 0.9, Kind: IDTwoTuple, Seed: seed}
}

// Synthetic returns a synthetic-dataset spec (§VI-A dataset 3): 32M packets
// with the given skew. The flow population shrinks as skew grows, mirroring
// the paper's "1∼10M flows depending on the skewness".
func Synthetic(skew float64, seed uint64) Spec {
	flows := int(10_000_000 / (1 + 3*skew))
	return Spec{
		Name:    fmt.Sprintf("zipf-%.1f", skew),
		Packets: 32_000_000,
		Flows:   flows,
		Skew:    skew,
		Kind:    IDWord,
		Seed:    seed,
	}
}

// Trace is a generated packet stream: a flow-ID table plus the packet
// sequence as indexes into it. Storing indexes keeps a 10M-packet trace at
// ~40 MB regardless of ID size.
type Trace struct {
	Spec   Spec
	IDs    [][]byte // flow index -> identifier bytes
	Seq    []uint32 // packet -> flow index
	counts []uint64 // flow index -> exact size (ground truth)
}

// Generate builds the workload: deterministic flow IDs, Zipf-distributed
// flow sizes (every flow gets one base packet; the remaining N−M packets are
// i.i.d. Zipf draws), and a uniformly shuffled packet order.
func Generate(spec Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sm := xrand.NewSplitMix64(spec.Seed)
	idRng := xrand.NewXorshift64Star(sm.Next())
	drawRng := xrand.NewXorshift64Star(sm.Next())
	shufRng := xrand.NewXorshift64Star(sm.Next())

	t := &Trace{
		Spec:   spec,
		IDs:    make([][]byte, spec.Flows),
		Seq:    make([]uint32, spec.Packets),
		counts: make([]uint64, spec.Flows),
	}
	seen := make(map[string]bool, spec.Flows)
	for i := range t.IDs {
		id := makeID(spec.Kind, idRng)
		for seen[string(id)] {
			id = makeID(spec.Kind, idRng)
		}
		seen[string(id)] = true
		t.IDs[i] = id
	}

	// One guaranteed packet per flow, then Zipf draws for the rest.
	pos := 0
	for i := 0; i < spec.Flows; i++ {
		t.Seq[pos] = uint32(i)
		t.counts[i] = 1
		pos++
	}
	z := newZipfAlias(spec.Flows, spec.Skew, drawRng)
	for ; pos < spec.Packets; pos++ {
		i := z.draw()
		t.Seq[pos] = uint32(i)
		t.counts[i]++
	}
	shufRng.Shuffle(len(t.Seq), func(a, b int) {
		t.Seq[a], t.Seq[b] = t.Seq[b], t.Seq[a]
	})
	return t, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(spec Spec) *Trace {
	t, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// makeID draws one identifier of the given kind.
func makeID(kind IDKind, rng *xrand.Xorshift64Star) []byte {
	b := make([]byte, kind.Size())
	switch kind {
	case IDFiveTuple:
		binary.LittleEndian.PutUint32(b[0:4], uint32(rng.Next()))   // src IP
		binary.LittleEndian.PutUint32(b[4:8], uint32(rng.Next()))   // dst IP
		binary.LittleEndian.PutUint16(b[8:10], uint16(rng.Next()))  // src port
		binary.LittleEndian.PutUint16(b[10:12], uint16(rng.Next())) // dst port
		b[12] = byte(6 + (rng.Next()&1)*11)                         // TCP or UDP
	case IDTwoTuple:
		binary.LittleEndian.PutUint32(b[0:4], uint32(rng.Next()))
		binary.LittleEndian.PutUint32(b[4:8], uint32(rng.Next()))
	case IDWord:
		binary.LittleEndian.PutUint32(b, uint32(rng.Next()))
	}
	return b
}

// Len returns the packet count.
func (t *Trace) Len() int { return len(t.Seq) }

// Key returns the flow identifier of packet p. The returned slice is shared;
// callers must not modify it.
func (t *Trace) Key(p int) []byte { return t.IDs[t.Seq[p]] }

// ForEach calls fn with each packet's flow identifier in order.
func (t *Trace) ForEach(fn func(key []byte)) {
	for _, i := range t.Seq {
		fn(t.IDs[i])
	}
}

// Count returns flow index i's exact size.
func (t *Trace) Count(i int) uint64 { return t.counts[i] }

// Flows returns the flow population size.
func (t *Trace) Flows() int { return len(t.IDs) }

// RebuildCounts recomputes the ground-truth counts from the sequence. It is
// used after deserializing a trace, whose persistent form stores only IDs
// and the packet sequence.
func (t *Trace) RebuildCounts() {
	t.counts = make([]uint64, len(t.IDs))
	for _, i := range t.Seq {
		t.counts[i]++
	}
}

// ExactCounts returns a key-indexed copy of the ground truth.
func (t *Trace) ExactCounts() map[string]uint64 {
	out := make(map[string]uint64, len(t.IDs))
	for i, id := range t.IDs {
		out[string(id)] = t.counts[i]
	}
	return out
}

// TopK returns the indexes of the k largest flows in descending exact size,
// ties broken by index for determinism.
func (t *Trace) TopK(k int) []int {
	idx := make([]int, len(t.counts))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort would be O(kM); use a full sort via the
	// standard library within a local closure.
	sortSlice(idx, func(a, b int) bool {
		if t.counts[a] != t.counts[b] {
			return t.counts[a] > t.counts[b]
		}
		return a < b
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}

// zipfAlias samples from p_i ∝ (i+1)^-skew over [0, n) in O(1) per draw
// using Walker's alias method.
type zipfAlias struct {
	n     int
	prob  []float64 // acceptance probability per cell
	alias []int32
	rng   *xrand.Xorshift64Star
}

func newZipfAlias(n int, skew float64, rng *xrand.Xorshift64Star) *zipfAlias {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / powSkew(float64(i+1), skew)
		total += w[i]
	}
	z := &zipfAlias{
		n:     n,
		prob:  make([]float64, n),
		alias: make([]int32, n),
		rng:   rng,
	}
	// Standard alias-table construction with small/large worklists.
	scaled := w
	for i := range scaled {
		scaled[i] = scaled[i] * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s] = scaled[s]
		z.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		z.prob[i] = 1
	}
	for _, i := range small {
		z.prob[i] = 1
	}
	return z
}

func (z *zipfAlias) draw() int {
	cell := int(z.rng.Uint64n(uint64(z.n)))
	if z.rng.Float64() < z.prob[cell] {
		return cell
	}
	return int(z.alias[cell])
}
