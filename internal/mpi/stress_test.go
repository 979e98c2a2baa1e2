package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestExtremeProtoOptions drives the protocols far from their defaults:
// one-slot pipelines, tiny fragments, tiny eager limit. Each case is
// named by the knobs it sets; EagerLimit 0 means the default.
func TestExtremeProtoOptions(t *testing.T) {
	type knobs struct {
		EagerLimit         int64
		FragBytes          int64
		PipelineDepth      int
		DirectRemoteUnpack bool
	}
	dt := shapes.LowerTriangular(192)
	for _, k := range []knobs{
		{PipelineDepth: 1},
		{FragBytes: 4096},
		{FragBytes: 4096, PipelineDepth: 1},
		{EagerLimit: 1},                      // everything rendezvous
		{EagerLimit: 1 << 30},                // everything eager
		{FragBytes: 1 << 26},                 // one fragment for the whole message
		{FragBytes: 4096, PipelineDepth: 16}, // deep, fine-grained
	} {
		tun := &Tuning{FragBytes: k.FragBytes, PipelineDepth: k.PipelineDepth, DirectRemoteUnpack: k.DirectRemoteUnpack}
		if k.EagerLimit != 0 {
			tun.Eager = Eager(k.EagerLimit)
		}
		t.Run(fmt.Sprintf("%+v", k), func(t *testing.T) {
			for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
				cfg.Tuning = tun
				s, r, _ := runXfer(t, xferSpec{cfg: cfg, sendDt: dt, count: 1, sGPU: true, rGPU: true})
				if !bytes.Equal(s, r) {
					t.Fatal("payload mismatch")
				}
			}
		})
	}
}

// TestManyConcurrentMessages floods a pair of ranks with interleaved
// rendezvous and eager messages on distinct tags, completing out of
// issue order.
func TestManyConcurrentMessages(t *testing.T) {
	const nmsg = 12
	w := NewWorld(twoRanksTwoGPUs())
	sizes := make([]int64, nmsg)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 4 << 10 // eager
		} else {
			sizes[i] = int64(256<<10 + i*4096) // rendezvous
		}
	}
	var sent, got [nmsg][]byte
	w.Run(func(m *Rank) {
		bufs := make([]mem.Buffer, nmsg)
		reqs := make([]*Request, nmsg)
		for i := range bufs {
			bufs[i] = m.Malloc(sizes[i])
		}
		if m.Rank() == 0 {
			for i := range bufs {
				mem.FillPattern(bufs[i], uint64(i+1))
				sent[i] = append([]byte(nil), bufs[i].Bytes()...)
				reqs[i] = m.Isend(bufs[i], datatype.Contiguous(int(sizes[i]), datatype.Byte), 1, 1, i)
			}
		} else {
			// Post receives in reverse order: matching is by tag.
			for i := nmsg - 1; i >= 0; i-- {
				reqs[i] = m.Irecv(bufs[i], datatype.Contiguous(int(sizes[i]), datatype.Byte), 1, 0, i)
			}
		}
		for i := range reqs {
			reqs[i].Wait(m.Proc())
		}
		if m.Rank() == 1 {
			for i := range bufs {
				got[i] = append([]byte(nil), bufs[i].Bytes()...)
			}
		}
	})
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

// TestBidirectionalSimultaneousRendezvous exchanges large messages both
// ways at once (the ping-ping pattern), which stresses concurrent
// sender and receiver state machines on the same rank.
func TestBidirectionalSimultaneousRendezvous(t *testing.T) {
	dt := shapes.SubMatrix(512, 512, 600)
	for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
		w := NewWorld(cfg)
		var img [2][]byte
		var got [2][]byte
		w.Run(func(m *Rank) {
			span := layoutSpan(dt, 1)
			mine := m.Malloc(span)
			theirs := m.Malloc(span)
			mem.FillPattern(mine, uint64(m.Rank()+40))
			img[m.Rank()] = cpuPack(dt, 1, mine.Bytes())
			peer := 1 - m.Rank()
			s := m.Isend(mine, dt, 1, peer, 5)
			r := m.Irecv(theirs, dt, 1, peer, 5)
			s.Wait(m.Proc())
			r.Wait(m.Proc())
			got[peer] = cpuPack(dt, 1, theirs.Bytes())
		})
		for r := 0; r < 2; r++ {
			if !bytes.Equal(img[r], got[r]) {
				t.Fatalf("bidirectional exchange corrupted rank %d's data", r)
			}
		}
	}
}

// TestScratchPoolBounded churns the scratch pool with mixed request
// sizes, including bursts that would once have accumulated unboundedly,
// and asserts best-fit reuse plus a bounded retained-bytes peak.
func TestScratchPoolBounded(t *testing.T) {
	w := NewWorld(twoRanksTwoGPUs())
	w.Run(func(m *Rank) {
		if m.Rank() != 0 {
			return
		}
		const big = 32 << 20

		// Best-fit: a small request after freeing a big buffer must not
		// consume it; the next big request must reuse it.
		bigBuf := m.ScratchHost(big)
		m.FreeScratchHost(bigBuf)
		small := m.ScratchHost(4 << 10)
		if small.Len() >= big {
			t.Errorf("small request took the %d-byte buffer (first-fit behaviour)", big)
		}
		reuse := m.ScratchHost(big)
		if reuse.Space() != bigBuf.Space() || reuse.Addr() != bigBuf.Addr() {
			t.Error("big request did not reuse the pooled big buffer")
		}
		m.FreeScratchHost(small)
		m.FreeScratchHost(reuse)

		// Churn: repeated bursts of concurrent mixed-size requests.
		sizes := []int64{4 << 10, 64 << 10, 1 << 20, 8 << 20, big, 1 << 20, 64 << 10}
		for iter := 0; iter < 40; iter++ {
			var held []mem.Buffer
			for _, n := range sizes {
				held = append(held, m.ScratchHost(n))
			}
			for _, b := range held {
				m.FreeScratchHost(b)
			}
		}
		pooled, peak := m.ScratchStats()
		capBytes := int64(2 * big) // cap follows the largest request
		if peak > capBytes {
			t.Errorf("pooled peak %d exceeds cap %d", peak, capBytes)
		}
		if pooled > peak {
			t.Errorf("pooled %d exceeds recorded peak %d", pooled, peak)
		}
		if peak == 0 {
			t.Error("peak never recorded")
		}
	})
}

// TestSelfSend exercises rank-to-self messaging.
func TestSelfSend(t *testing.T) {
	w := NewWorld(Config{Ranks: []Placement{{Node: 0, GPU: 0}}})
	dt := datatype.Contiguous(200000, datatype.Float64)
	ok := false
	w.Run(func(m *Rank) {
		a := m.Malloc(dt.Size())
		b := m.Malloc(dt.Size())
		mem.FillPattern(a, 3)
		s := m.Isend(a, dt, 1, 0, 0)
		r := m.Irecv(b, dt, 1, 0, 0)
		s.Wait(m.Proc())
		r.Wait(m.Proc())
		ok = mem.Equal(a, b)
	})
	if !ok {
		t.Fatal("self send corrupted data")
	}
}
