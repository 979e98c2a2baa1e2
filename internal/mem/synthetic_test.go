package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// syntheticRef is the byte-serial definition of the synthetic stream:
// byte o is byte o&7 (little-endian) of patternWord(seed, o>>3), xored
// with byte(o). SyntheticAt's word-at-a-time body must match it exactly.
func syntheticRef(seed uint64, off int64, dst []byte) {
	for i := range dst {
		o := off + int64(i)
		dst[i] = byte(patternWord(seed, uint64(o)>>3)>>(8*(o&7))) ^ byte(o)
	}
}

func checkSyntheticAt(t *testing.T, seed uint64, off int64, n int) {
	t.Helper()
	got, want := make([]byte, n), make([]byte, n)
	SyntheticAt(seed, off, got)
	syntheticRef(seed, off, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("SyntheticAt(%d, %d, [%d]) differs from the byte-serial reference", seed, off, n)
	}
}

// TestSyntheticAtMatchesReference covers every head alignment (two
// words' worth of offsets) with every length from empty through five
// words, so each head/body/tail split occurs, plus seeded random
// windows at large offsets where byte(o) wraps.
func TestSyntheticAtMatchesReference(t *testing.T) {
	for off := int64(0); off < 16; off++ {
		for n := 0; n <= 40; n++ {
			checkSyntheticAt(t, 0x5eed, off, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		checkSyntheticAt(t, rng.Uint64(), rng.Int63n(1<<40), rng.Intn(3000))
	}
}

// FuzzSyntheticAt checks SyntheticAt against the byte-serial reference
// at arbitrary seeds, offsets and window lengths.
func FuzzSyntheticAt(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(0))
	f.Add(uint64(42), uint64(3), uint16(17))
	f.Add(uint64(0x5eed), uint64(255), uint16(300))
	f.Fuzz(func(t *testing.T, seed, off uint64, n uint16) {
		checkSyntheticAt(t, seed, int64(off>>1), int(n))
	})
}

// TestSyntheticPinned pins the hash of one window of the stream. Real
// and modelled runs share the generator, so comparing them cannot catch
// a changed pattern; this can, and the goldens' payload digests would
// otherwise all shift at once.
func TestSyntheticPinned(t *testing.T) {
	b := make([]byte, 4093)
	SyntheticAt(0x5eed, 13, b)
	sum := sha256.Sum256(b)
	const want = "c006404551bf42b24eaad44c6ce7e85d79eab2ade2f7092892c29196df0c78cb"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("sha256 of SyntheticAt(0x5eed, 13, [4093]) = %s, want %s", got, want)
	}
}

// TestSyntheticRandomAccess: windows generated at arbitrary offsets
// must be byte-identical to slices of the full stream — the property
// modelled payloads rely on to sign a message without the buffer.
func TestSyntheticRandomAccess(t *testing.T) {
	const n = 4096
	full := make([]byte, n)
	SyntheticAt(42, 0, full)
	for _, win := range []struct{ off, ln int64 }{
		{0, 1}, {1, 7}, {3, 17}, {8, 64}, {777, 1000}, {n - 5, 5},
	} {
		got := make([]byte, win.ln)
		SyntheticAt(42, win.off, got)
		if !bytes.Equal(got, full[win.off:win.off+win.ln]) {
			t.Fatalf("window [%d:+%d] differs from full stream", win.off, win.ln)
		}
	}
}

// TestSyntheticDistinctSeeds: different seeds must give different
// contents (same sanity bar FillPattern meets).
func TestSyntheticDistinctSeeds(t *testing.T) {
	s := NewSpace("t", Host, 1<<20)
	a, b := s.Alloc(512, 0), s.Alloc(512, 0)
	FillSynthetic(a, 1)
	FillSynthetic(b, 2)
	if Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical contents")
	}
	c := s.Alloc(512, 0)
	FillSynthetic(c, 1)
	if !Equal(a, c) {
		t.Fatal("same seed not reproducible")
	}
}

// TestSyntheticPositionDependent: the pattern must differ when the same
// seed is read as if the data sat elsewhere — shifted copies of a
// buffer can't alias to a false verification match.
func TestSyntheticPositionDependent(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	SyntheticAt(7, 0, a)
	SyntheticAt(7, 8, b)
	if bytes.Equal(a[8:], b[:248]) == false {
		// b IS the stream at offset 8; a[8:] is the same stream region.
		t.Fatal("offset window disagrees with stream")
	}
	if bytes.Equal(a, b) {
		t.Fatal("offset 0 and 8 windows identical")
	}
}

// TestSpaceRetiredCeiling: no matter how many times a Space outgrows
// its backing, it retains at most spaceMaxRetired dead arrays, and the
// pinned retired bytes stay below ~2x the live backing.
func TestSpaceRetiredCeiling(t *testing.T) {
	s := NewSpace("grow", Host, 1<<30)
	for i := 0; i < 16; i++ {
		s.Alloc(4096<<i, 0)
	}
	if got := s.RetiredSlabs(); got > spaceMaxRetired {
		t.Fatalf("retired slabs %d, ceiling %d", got, spaceMaxRetired)
	}
	if rb, live := s.RetiredBytes(), int64(cap(s.data)); rb >= 2*live {
		t.Fatalf("retired bytes %d not bounded by live backing %d", rb, live)
	}
	if s.FootprintBytes() != int64(cap(s.data))+s.RetiredBytes() {
		t.Fatal("FootprintBytes inconsistent")
	}
	s.Release()
	if s.RetiredSlabs() != 0 || s.FootprintBytes() != 0 {
		t.Fatal("Release did not clear retired list")
	}
}

// BenchmarkSyntheticAt measures generator throughput on an aligned
// window and on one whose head and tail are unaligned.
func BenchmarkSyntheticAt(b *testing.B) {
	for _, bc := range []struct {
		name string
		off  int64
		n    int
	}{{"aligned-4KiB", 0, 4096}, {"unaligned-4KiB", 3, 4093}, {"unaligned-24B", 5, 24}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]byte, bc.n)
			b.SetBytes(int64(bc.n))
			for i := 0; i < b.N; i++ {
				SyntheticAt(uint64(i), bc.off, dst)
			}
		})
	}
}
