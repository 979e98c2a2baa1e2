package mpi

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestPayloadGeneratorMatchesPack: packing a Fill()ed buffer with the
// reference CPU converter must give exactly the bytes WritePacked
// generates — the equivalence the modelled-payload mode rests on.
func TestPayloadGeneratorMatchesPack(t *testing.T) {
	for _, dt := range []*datatype.Datatype{
		shapes.SubMatrix(16, 8, 12),                                      // canonical plan
		datatype.Indexed([]int{3, 1, 5}, []int{0, 4, 9}, datatype.Int32), // irregular plan
	} {
		const count = 6
		sp := SyntheticPayload{Seed: 3017, Dt: dt, Count: count}

		s := mem.NewSpace("host", mem.Host, 1<<22)
		buf := s.Alloc(sp.Span(), 0)
		sp.Fill(buf)

		c := datatype.NewConverter(dt, count)
		packed := make([]byte, c.Total())
		c.Pack(packed, buf.Bytes())

		var gen bytes.Buffer
		sp.WritePacked(&gen, 0, count)
		if !bytes.Equal(gen.Bytes(), packed) {
			t.Fatalf("%s: generated packed bytes differ from converter-packed buffer", dt.Name())
		}

		// Sub-ranges must match the corresponding packed window.
		var win bytes.Buffer
		sp.WritePacked(&win, 2, 3)
		lo, hi := 2*dt.Size(), 5*dt.Size()
		if !bytes.Equal(win.Bytes(), packed[lo:hi]) {
			t.Fatalf("%s: element window [2,5) differs from packed window", dt.Name())
		}
	}
}

// TestPayloadSigProperties: signatures are deterministic, content- and
// range-sensitive, and never zero.
func TestPayloadSigProperties(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)
	sp := SyntheticPayload{Seed: 9, Dt: dt, Count: 8}
	a := sp.PackedSig(0, 4)
	if a != sp.PackedSig(0, 4) {
		t.Fatal("signature not deterministic")
	}
	if a == sp.PackedSig(4, 4) {
		t.Fatal("disjoint ranges collide")
	}
	if a == (SyntheticPayload{Seed: 10, Dt: dt, Count: 8}).PackedSig(0, 4) {
		t.Fatal("seeds collide")
	}
	if a == 0 {
		t.Fatal("signature must never be zero (zero means unsigned)")
	}
	var empty Sig64
	if empty.Sum64() == 0 {
		t.Fatal("empty signature must not be zero")
	}
}

// TestPayloadSigMatchesSha: WritePacked must feed any io.Writer the
// same stream (sha256 for digests, Sig64 for messages).
func TestPayloadSigMatchesSha(t *testing.T) {
	dt := shapes.SubMatrix(4, 4, 6)
	sp := SyntheticPayload{Seed: 77, Dt: dt, Count: 3}
	h1, h2 := sha256.New(), sha256.New()
	sp.WritePacked(h1, 0, 3)
	sp.WritePacked(h2, 0, 3)
	if !bytes.Equal(h1.Sum(nil), h2.Sum(nil)) {
		t.Fatal("two identical streams hashed differently")
	}
}

// TestSig64ChunkingAndBitFlips: a stream's signature must not depend
// on how Write calls split it (the carry buffer holds partial lanes),
// and flipping any single bit must change it.
func TestSig64ChunkingAndBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		stream := make([]byte, n)
		rng.Read(stream)
		var whole Sig64
		whole.Write(stream)
		want := whole.Sum64()
		for trial := 0; trial < 50; trial++ {
			var s Sig64
			for rest := stream; len(rest) > 0; {
				k := rng.Intn(min(len(rest), 20) + 1)
				s.Write(rest[:k])
				rest = rest[k:]
			}
			if got := s.Sum64(); got != want {
				t.Fatalf("n=%d: chunked signature %#x, whole %#x", n, got, want)
			}
		}
		for i := 0; i < 8*n; i += 1 + rng.Intn(5) {
			flipped := append([]byte(nil), stream...)
			flipped[i/8] ^= 1 << (i % 8)
			var s Sig64
			s.Write(flipped)
			if s.Sum64() == want {
				t.Fatalf("n=%d: flipping bit %d left the signature unchanged", n, i)
			}
		}
	}
	var a, b Sig64
	a.Write([]byte{1, 2, 3})
	b.Write([]byte{1, 2, 3, 0})
	if a.Sum64() == b.Sum64() {
		t.Fatal("a trailing zero byte must change the signature")
	}
}

// TestPackedSigMatchesStream: Sign and WritePacked feed a Sig64 the
// same packed stream, on a canonical and an irregular layout.
func TestPackedSigMatchesStream(t *testing.T) {
	for _, dt := range []*datatype.Datatype{
		shapes.SubMatrix(16, 8, 12),
		datatype.Indexed([]int{3, 1, 5}, []int{0, 4, 9}, datatype.Int32),
	} {
		sp := SyntheticPayload{Seed: 21, Dt: dt, Count: 40}
		var s Sig64
		sp.WritePacked(&s, 3, 30)
		if got := sp.PackedSig(3, 30); got != s.Sum64() {
			t.Fatalf("%s: PackedSig %#x, WritePacked into Sig64 %#x", dt.Name(), got, s.Sum64())
		}
	}
}

// TestPackedSigNoAlloc: signing a packed window walks the compiled plan
// and keeps its chunk buffer on the stack.
func TestPackedSigNoAlloc(t *testing.T) {
	sp := SyntheticPayload{Seed: 1, Dt: shapes.SubMatrix(64, 32, 48), Count: 8}
	if a := testing.AllocsPerRun(20, func() { sp.PackedSig(1, 6) }); a != 0 {
		t.Fatalf("PackedSig allocates %v times per call, want 0", a)
	}
}

// BenchmarkPackedSig measures signing throughput over the packed bytes
// of a strided sub-matrix layout and of a dense one.
func BenchmarkPackedSig(b *testing.B) {
	for _, bc := range []struct {
		name string
		dt   *datatype.Datatype
	}{
		{"submatrix", shapes.SubMatrix(64, 32, 48)},
		{"contiguous", datatype.Contiguous(4096, datatype.Byte)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sp := SyntheticPayload{Seed: 1, Dt: bc.dt, Count: 8}
			b.SetBytes(sp.PackedBytes())
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= sp.PackedSig(0, 8)
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
