package mpi

import (
	"encoding/binary"
	"io"
	"math/bits"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
)

// Payload digest verification path.
//
// A SyntheticPayload names the contents of a (dt, count) buffer without
// materializing it: a seed plus the compiled datatype layout determine
// every byte, and any packed window of the elements can be regenerated
// in O(window) by walking the layout's flattened blocks over the
// random-access pattern (mem.SyntheticAt). Both operating modes of the
// scale sweep hang off this one definition:
//
//   - real-payload worlds Fill() device buffers with the pattern, run
//     the full protocol stack, and digest the packed results;
//   - modelled-payload worlds (internal/model) never allocate the
//     buffers at all — they regenerate the same packed windows on
//     demand to sign messages and to compute the same digest.
//
// A modelled run is accepted only if its digest equals the real run's,
// which is what keeps flyweight worlds honest about data movement.

// SyntheticPayload describes deterministic synthetic contents for
// count elements of Dt, seeded so distinct buffers differ.
type SyntheticPayload struct {
	Seed  uint64
	Dt    *datatype.Datatype
	Count int
}

// Span returns the memory footprint of the layout from its origin.
func (sp SyntheticPayload) Span() int64 { return spanOf(sp.Dt, sp.Count) }

// PackedBytes returns the packed size of the full payload.
func (sp SyntheticPayload) PackedBytes() int64 { return int64(sp.Count) * sp.Dt.Size() }

// Fill materializes the payload into a real buffer: every byte of the
// buffer's span gets the pattern (gaps included), exactly like
// mem.FillSynthetic of the whole region. Packed windows later read
// from the buffer therefore match WritePacked byte-for-byte.
func (sp SyntheticPayload) Fill(b mem.Buffer) { mem.FillSynthetic(b, sp.Seed) }

// WritePacked streams the packed bytes of elements [elem0, elem0+n)
// into w — the generator-side equivalent of packing those elements out
// of a Fill()ed buffer. w is a sha256 digest or a Sig64; neither
// returns errors.
func (sp SyntheticPayload) WritePacked(w io.Writer, elem0, n int) {
	var buf [packedChunk]byte
	g := sp.packed(elem0, n)
	for k := g.fill(buf[:]); k > 0; k = g.fill(buf[:]) {
		w.Write(buf[:k])
	}
}

// Sign folds the packed bytes of elements [elem0, elem0+n) into s. It
// streams exactly what WritePacked does, without allocating: s is a
// concrete type, so the chunk buffer stays on the stack.
func (sp SyntheticPayload) Sign(s *Sig64, elem0, n int) {
	var buf [packedChunk]byte
	g := sp.packed(elem0, n)
	for k := g.fill(buf[:]); k > 0; k = g.fill(buf[:]) {
		s.Write(buf[:k])
	}
}

// PackedSig returns a 64-bit content signature of elements
// [elem0, elem0+n) — cheap enough to attach to individual modelled
// messages at 16k ranks.
func (sp SyntheticPayload) PackedSig(elem0, n int) uint64 {
	var s Sig64
	sp.Sign(&s, elem0, n)
	return s.Sum64()
}

// packedChunk is the generator's chunk size: small blocks of a layout
// are batched into one chunk, so the writer sees few large writes.
const packedChunk = 512

// packedGen regenerates the packed stream of a payload's elements
// chunk by chunk, walking the blocks of the datatype's compiled plan.
type packedGen struct {
	seed   uint64
	pl     *datatype.Plan
	nb     int   // blocks per element
	ext    int64 // element extent
	e, end int   // current and one-past-last element
	bi     int   // current block within the element
	bo     int64 // bytes of the current block already generated
}

func (sp SyntheticPayload) packed(elem0, n int) packedGen {
	pl := sp.Dt.Plan()
	g := packedGen{seed: sp.Seed, pl: pl, nb: pl.NumBlocks(), ext: sp.Dt.Extent(), e: elem0, end: elem0 + n}
	if g.nb == 0 {
		g.end = g.e
	}
	return g
}

// fill generates the next packed bytes into buf and returns how many it
// wrote; zero means the stream is exhausted.
func (g *packedGen) fill(buf []byte) int {
	n := 0
	for n < len(buf) && g.e < g.end {
		b := g.pl.Block(g.bi)
		c := b.Len - g.bo
		if r := int64(len(buf) - n); c > r {
			c = r
		}
		mem.SyntheticAt(g.seed, int64(g.e)*g.ext+b.Off+g.bo, buf[n:n+int(c)])
		n += int(c)
		if g.bo += c; g.bo == b.Len {
			g.bo = 0
			if g.bi++; g.bi == g.nb {
				g.bi = 0
				g.e++
			}
		}
	}
	return n
}

// Sig64 is a streaming 64-bit content signature implementing io.Writer,
// so the same packed-stream generator feeds both sha256 digests (world
// acceptance) and per-message signatures (in-flight verification).
//
// It consumes the stream in little-endian 64-bit lanes, one
// xxHash64-style round per lane on a single accumulator. A carry buffer
// holds the incomplete lane between writes, so the signature depends
// only on the bytes written, never on how Write calls split them. Each
// round is a bijection of the lane for a fixed accumulator and of the
// accumulator for a fixed lane, so changing any one byte always changes
// the state. Signatures are compared only within a run, never stored.
type Sig64 struct {
	h     uint64  // accumulator over complete lanes
	n     uint64  // bytes written
	carry [8]byte // the first n%8 bytes are the incomplete lane
}

const (
	sigPrime1 = 0x9e3779b185ebca87
	sigPrime2 = 0xc2b2ae3d27d4eb4f
	sigPrime3 = 0x165667b19e3779f9
)

func sigRound(h, lane uint64) uint64 {
	return bits.RotateLeft64(h+lane*sigPrime2, 31) * sigPrime1
}

// Write folds p into the signature. It never fails.
func (s *Sig64) Write(p []byte) (int, error) {
	n := len(p)
	c := int(s.n & 7)
	s.n += uint64(n)
	if c != 0 {
		k := copy(s.carry[c:], p)
		if c+k < 8 {
			return n, nil
		}
		s.h = sigRound(s.h, binary.LittleEndian.Uint64(s.carry[:]))
		p = p[k:]
	}
	h := s.h
	for ; len(p) >= 8; p = p[8:] {
		h = sigRound(h, binary.LittleEndian.Uint64(p))
	}
	s.h = h
	copy(s.carry[:], p)
	return n, nil
}

// Sum64 returns the signature so far: the zero-padded incomplete lane
// and the byte count folded in, then avalanched. It is never zero, so
// zero can mean "unsigned" in message fields.
func (s *Sig64) Sum64() uint64 {
	h := s.h
	if t := s.n & 7; t != 0 {
		var lane [8]byte
		copy(lane[:], s.carry[:t])
		h = sigRound(h, binary.LittleEndian.Uint64(lane[:]))
	}
	h ^= s.n
	h ^= h >> 33
	h *= sigPrime2
	h ^= h >> 29
	h *= sigPrime3
	h ^= h >> 32
	if h == 0 {
		return sigPrime1
	}
	return h
}
