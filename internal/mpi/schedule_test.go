package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// identityRanks returns [0, n).
func identityRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// skewedCounts is an alltoallv count matrix with a silent sender and a
// nearly silent receiver: counts[i][j] float64s go from index i to j.
func skewedCounts(size int) [][]int {
	counts := make([][]int, size)
	for i := range counts {
		counts[i] = make([]int, size)
		for j := range counts[i] {
			if i == 2 {
				continue
			}
			counts[i][j] = (i*3+j*5)%7 + 1
			if j == 1 && i != 0 {
				counts[i][j] = 0
			}
		}
	}
	return counts
}

// collRun is what every rank of one world saw: the bytes its body
// returned and its virtual time when the body finished.
type collRun struct {
	imgs  [][]byte
	times []sim.Time
}

// runColl builds a world from cfg, lets setup create groups on it, runs
// the returned body on every rank and records the result.
func runColl(t *testing.T, cfg Config, setup func(w *World) func(m *Rank) []byte) collRun {
	t.Helper()
	w := NewWorld(cfg)
	body := setup(w)
	size := len(cfg.Ranks)
	r := collRun{imgs: make([][]byte, size), times: make([]sim.Time, size)}
	w.Run(func(m *Rank) {
		r.imgs[m.Rank()] = body(m)
		r.times[m.Rank()] = m.Now()
	})
	checkQuiescent(t, w, "schedule")
	w.Close()
	return r
}

// sameRun fails unless two runs agree byte for byte and tick for tick.
func sameRun(t *testing.T, what string, a, b collRun) {
	t.Helper()
	for r := range a.imgs {
		if !bytes.Equal(a.imgs[r], b.imgs[r]) {
			t.Fatalf("%s: rank %d received different bytes", what, r)
		}
		if a.times[r] != b.times[r] {
			t.Fatalf("%s: rank %d finished at %v vs %v", what, r, a.times[r], b.times[r])
		}
	}
}

// alltoallvBody exchanges the skewed matrix: members (the whole world
// when members is nil, else a group over them) address each other by
// schedule index, and every payload is a function of indices only.
func alltoallvBody(members []int) func(w *World) func(m *Rank) []byte {
	return func(w *World) func(m *Rank) []byte {
		var g *Group
		if members != nil {
			g = w.NewGroup(members)
		}
		counts := skewedCounts(w.Size())
		return func(m *Rank) []byte {
			me := m.Rank()
			if g != nil {
				me = g.LocalRank(m)
			}
			size := len(counts)
			sc, sd := counts[me], make([]int, size)
			rc, rd := make([]int, size), make([]int, size)
			stot, rtot := 0, 0
			for j := 0; j < size; j++ {
				sd[j] = stot
				stot += sc[j]
				rc[j] = counts[j][me]
				rd[j] = rtot
				rtot += rc[j]
			}
			sb := m.Malloc(int64(stot+1) * 8)
			rb := m.Malloc(int64(rtot+1) * 8)
			mem.FillPattern(rb, 99) // device memory is recycled, not zeroed
			fillF64(sb, stot, func(k int) float64 { return float64(me*1000 + k) })
			if g != nil {
				g.Alltoallv(m, sb, sc, sd, datatype.Float64, rb, rc, rd, datatype.Float64)
			} else {
				m.Alltoallv(sb, sc, sd, datatype.Float64, rb, rc, rd, datatype.Float64)
			}
			return append([]byte(nil), rb.Bytes()...)
		}
	}
}

// barrierBody skews arrivals by schedule index, then runs the group
// dissemination barrier (group != nil) or Ibarrier + Wait.
func barrierBody(members []int) func(w *World) func(m *Rank) []byte {
	return func(w *World) func(m *Rank) []byte {
		var g *Group
		if members != nil {
			g = w.NewGroup(members)
		}
		return func(m *Rank) []byte {
			me := m.Rank()
			if g != nil {
				me = g.LocalRank(m)
			}
			m.Proc().Sleep(sim.Time(me) * sim.Microsecond)
			if g != nil {
				g.Barrier(m)
			} else {
				m.Ibarrier().Wait(m.Proc())
			}
			return nil
		}
	}
}

// treeBody sums contrib over every member: the group tree allreduce
// (group != nil) or world Reduce to rank 0 followed by Bcast.
func treeBody(members []int) func(w *World) func(m *Rank) []byte {
	const count = 1037
	return func(w *World) func(m *Rank) []byte {
		var g *Group
		if members != nil {
			g = w.NewGroup(members)
		}
		return func(m *Rank) []byte {
			me := m.Rank()
			if g != nil {
				me = g.LocalRank(m)
			}
			sb := m.Malloc(count * 8)
			rb := m.Malloc(count * 8)
			fillF64(sb, count, func(k int) float64 { return contrib(me, k) })
			if g != nil {
				g.Allreduce(m, sb, rb, datatype.Float64, count, OpSum, AllreduceTree)
			} else {
				m.Reduce(sb, rb, datatype.Float64, count, OpSum, 0)
				m.Bcast(rb, datatype.Float64, count, 0)
			}
			return append([]byte(nil), rb.Bytes()...)
		}
	}
}

// TestWorldAndGroupShareSchedules: on flat worlds (a power-of-two and
// a non-power-of-two size) a Group over the identity rank list and the
// world collective run one schedule, so they deliver identical bytes at
// identical virtual times. A Group over a permuted rank list addresses
// members by index, so its index-i member must receive what rank i
// receives in the identity run — a mix-up between schedule index and
// global rank breaks that.
func TestWorldAndGroupShareSchedules(t *testing.T) {
	cases := []struct {
		name string
		body func(members []int) func(w *World) func(m *Rank) []byte
	}{
		{"alltoallv", alltoallvBody},
		{"barrier", barrierBody},
		{"allreduce-tree", treeBody},
	}
	for _, sh := range []struct{ nodes, rpn int }{{4, 2}, {3, 2}} {
		size := sh.nodes * sh.rpn
		cfg := func() Config { return blockedConfig(sh.nodes, sh.rpn, true) }
		perm := make([]int, size)
		for i := range perm {
			perm[i] = (i*5 + 3) % size
		}
		for _, c := range cases {
			name := fmt.Sprintf("%s size=%d", c.name, size)
			world := runColl(t, cfg(), c.body(nil))
			group := runColl(t, cfg(), c.body(identityRanks(size)))
			sameRun(t, name, world, group)

			permuted := runColl(t, cfg(), c.body(perm))
			for i, r := range perm {
				if !bytes.Equal(permuted.imgs[r], group.imgs[i]) {
					t.Fatalf("%s: permuted member %d (rank %d) received the wrong bytes", name, i, r)
				}
			}
		}
	}
}

// TestZeroCountRegularCollectives: Alltoall and Allgather with count 0
// post no messages, leave every buffer untouched and complete at once,
// on the flat and the hierarchical dispatch alike.
func TestZeroCountRegularCollectives(t *testing.T) {
	for _, flat := range []bool{true, false} {
		w := NewWorld(blockedConfig(4, 2, flat))
		size := w.Size()
		w.Run(func(m *Rank) {
			sb := m.Malloc(int64(size) * 8)
			rb := m.Malloc(int64(size) * 8)
			mem.FillPattern(sb, 11)
			mem.FillPattern(rb, 12)
			want := append(append([]byte(nil), sb.Bytes()...), rb.Bytes()...)
			t0 := m.Now()
			m.Alltoall(sb, datatype.Float64, 0, rb, datatype.Float64, 0)
			m.Allgather(rb, datatype.Float64, 0)
			got := append(append([]byte(nil), sb.Bytes()...), rb.Bytes()...)
			if !bytes.Equal(got, want) {
				t.Errorf("flat=%v rank %d: count-0 collective touched its buffers", flat, m.Rank())
			}
			if m.Now() != t0 {
				t.Errorf("flat=%v rank %d: count-0 collective took %v", flat, m.Rank(), m.Now()-t0)
			}
		})
		checkQuiescent(t, w, "count-0 collectives")
		w.Close()
	}
}
